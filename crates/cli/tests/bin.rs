//! End-to-end tests of the compiled `good-db` binary: `-c` mode,
//! script-file mode, and the interactive REPL via piped stdin.

use std::io::Write;
use std::process::{Command, Stdio};

fn binary() -> Command {
    Command::new(env!("CARGO_BIN_EXE_good-db"))
}

const SETUP: &str = "class Info; printable String string; functional Info name String; \
                     multivalued Info links-to Info; init";

#[test]
fn dash_c_mode_runs_commands() {
    let output = binary()
        .arg("-c")
        .arg(format!(
            "{SETUP}; insert Info as a; insert Info as b; edge a links-to b; stats"
        ))
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("2 nodes, 1 edges"), "{stdout}");
}

#[test]
fn dash_c_mode_handles_patterns_with_semicolons() {
    let output = binary()
        .arg("-c")
        .arg(format!(
            "{SETUP}; insert Info as a; value String \"x\" as n; edge a name n; \
             match {{ i: Info; s: String; i -name-> s; }}"
        ))
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("1 matching(s)"), "{stdout}");
}

#[test]
fn script_file_mode() {
    let mut path = std::env::temp_dir();
    path.push(format!("good-cli-script-{}.gdb", std::process::id()));
    std::fs::write(
        &path,
        "# build a tiny base\n\
         class Info\n\
         printable String string\n\
         functional Info name String\n\
         init\n\
         insert Info as a\n\
         value String \"hello\" as n\n\
         edge a name n\n\
         match {\n  i: Info;\n  s: String = \"hello\";\n  i -name-> s;\n}\n\
         validate\n",
    )
    .expect("write script");
    let output = binary().arg(&path).output().expect("binary runs");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("1 matching(s)"), "{stdout}");
    assert!(stdout.contains("all invariants hold"), "{stdout}");
    std::fs::remove_file(path).expect("cleanup");
}

#[test]
fn script_errors_exit_nonzero() {
    let output = binary()
        .arg("-c")
        .arg("complete nonsense")
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown command"), "{stderr}");
}

#[test]
fn save_and_load_round_trip() {
    let mut path = std::env::temp_dir();
    path.push(format!("good-cli-save-{}.json", std::process::id()));
    let path_str = path.to_str().expect("utf8 temp path");
    let output = binary()
        .arg("-c")
        .arg(format!(
            "{SETUP}; insert Info as a; insert Info as b; edge a links-to b; \
             save {path_str}; load {path_str}; stats"
        ))
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains(&format!("saved to {path_str}")), "{stdout}");
    assert!(stdout.contains(&format!("loaded {path_str}")), "{stdout}");
    assert!(stdout.contains("2 nodes, 1 edges"), "{stdout}");
    std::fs::remove_file(path).expect("cleanup");
}

#[test]
fn load_missing_file_exits_nonzero_with_message() {
    let output = binary()
        .arg("-c")
        .arg("load /nonexistent/good-db-missing.json")
        .output()
        .expect("binary runs");
    assert!(!output.status.success(), "{output:?}");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("error:"), "{stderr}");
    assert!(
        stderr.contains("No such file") || stderr.contains("not found"),
        "{stderr}"
    );
}

#[test]
fn load_corrupt_file_exits_nonzero_with_parse_error() {
    let mut path = std::env::temp_dir();
    path.push(format!("good-cli-corrupt-{}.json", std::process::id()));
    std::fs::write(&path, "{\"nodes\": [truncated").expect("write corrupt file");
    let output = binary()
        .arg("-c")
        .arg(format!("load {}", path.display()))
        .output()
        .expect("binary runs");
    assert!(!output.status.success(), "{output:?}");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("error:"), "{stderr}");
    std::fs::remove_file(path).expect("cleanup");
}

#[test]
fn save_without_an_open_base_exits_nonzero() {
    let output = binary()
        .arg("-c")
        .arg("save /tmp/good-db-never-written.json")
        .output()
        .expect("binary runs");
    assert!(!output.status.success(), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("no open object base"), "{stderr}");
}

#[test]
fn save_to_unwritable_path_exits_nonzero() {
    let output = binary()
        .arg("-c")
        .arg(format!(
            "{SETUP}; insert Info as a; save /nonexistent-dir/out.json"
        ))
        .output()
        .expect("binary runs");
    assert!(!output.status.success(), "{output:?}");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("error:"), "{stderr}");
}

#[test]
fn load_over_an_existing_session_invalidates_handles() {
    let mut path = std::env::temp_dir();
    path.push(format!("good-cli-handles-{}.json", std::process::id()));
    let path_str = path.to_str().expect("utf8 temp path");
    // `load` replaces the instance, so handles created before it must
    // not silently point at nodes of the new base.
    let output = binary()
        .arg("-c")
        .arg(format!(
            "{SETUP}; insert Info as a; save {path_str}; load {path_str}; \
             edge a links-to a"
        ))
        .output()
        .expect("binary runs");
    assert!(!output.status.success(), "{output:?}");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown handle a"), "{stderr}");
    std::fs::remove_file(path).expect("cleanup");
}

// ----------------------------------------------- GOODQL `query` command

const QUERY_SETUP: &str = "class Info; printable String string; \
                           functional Info name String; \
                           multivalued Info links-to Info; init; \
                           insert Info as a; insert Info as b; \
                           value String \"hello\" as n; edge a name n; \
                           edge a links-to b; edge b links-to a";

#[test]
fn query_command_prints_rows() {
    let output = binary()
        .arg("-c")
        .arg(format!(
            "{QUERY_SETUP}; query MATCH (i:Info)-[:name]->(s:String) RETURN s"
        ))
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("hello"), "{stdout}");
    assert!(stdout.contains("1 row(s)"), "{stdout}");
    // A property-path query through the two-cycle.
    let output = binary()
        .arg("-c")
        .arg(format!(
            "{QUERY_SETUP}; query diff MATCH (i:Info)-[:links-to*2]->(j:Info) RETURN i, j"
        ))
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("2 row(s)"), "{stdout}");
    assert!(stdout.contains("core = relational = tarski"), "{stdout}");
}

#[test]
fn query_parse_error_exits_nonzero_with_a_caret() {
    let output = binary()
        .arg("-c")
        .arg(format!("{QUERY_SETUP}; query MATCH (i:Info RETURN i"))
        .output()
        .expect("binary runs");
    assert!(!output.status.success(), "{output:?}");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("parse error at byte"), "{stderr}");
    // The render quotes the source line and points a caret at the
    // offending byte.
    let caret_line = stderr
        .lines()
        .find(|line| line.trim_end().ends_with('^'))
        .unwrap_or_else(|| panic!("no caret line in {stderr}"));
    let quoted_line = stderr
        .lines()
        .find(|line| line.contains("MATCH (i:Info RETURN i"))
        .unwrap_or_else(|| panic!("source line not quoted in {stderr}"));
    let caret_col = caret_line.trim_end().chars().count() - 1;
    let pointed = quoted_line.chars().nth(caret_col);
    // The parser flags RETURN where `)` was expected.
    assert_eq!(pointed, Some('R'), "{stderr}");
}

#[test]
fn query_unknown_label_exits_nonzero() {
    let output = binary()
        .arg("-c")
        .arg(format!("{QUERY_SETUP}; query MATCH (x:Nope) RETURN x"))
        .output()
        .expect("binary runs");
    assert!(!output.status.success(), "{output:?}");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("Nope"), "{stderr}");
}

#[test]
fn oversized_query_exits_nonzero_before_parsing() {
    // Interior padding (trailing whitespace would be trimmed by the
    // command reader before the query ever sees it).
    let padding = " ".repeat(5000);
    let output = binary()
        .arg("-c")
        .arg(format!(
            "{QUERY_SETUP}; query MATCH (i:Info){padding} RETURN i"
        ))
        .output()
        .expect("binary runs");
    assert!(!output.status.success(), "{output:?}");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("too long"), "{stderr}");
}

#[test]
fn fault_seed_flag_runs_a_crash_sweep() {
    let output = binary()
        .arg("--fault-seed")
        .arg("11")
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("crash schedules recovered to a committed prefix"),
        "{stdout}"
    );
}

#[test]
fn fault_crash_at_flag_replays_one_schedule_with_its_log() {
    let output = binary()
        .args(["--fault-seed", "11", "--fault-crash-at", "5"])
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("CRASH"), "{stdout}");
    assert!(stdout.contains("crash at op 5"), "{stdout}");
}

#[test]
fn fault_crash_at_out_of_range_exits_nonzero() {
    let output = binary()
        .args(["--fault-seed", "11", "--fault-crash-at", "999999"])
        .output()
        .expect("binary runs");
    assert!(!output.status.success(), "{output:?}");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("out of range"), "{stderr}");
}

// Concrete deserialization targets for the Chrome trace_event format
// `--profile` emits (the vendored JSON reader has no dynamic Value
// type, so the tests parse into typed structs).
#[derive(serde::Deserialize)]
#[allow(non_snake_case)]
struct TraceFile {
    traceEvents: Vec<TraceEvent>,
    displayTimeUnit: String,
}

#[derive(serde::Deserialize)]
#[allow(dead_code)]
struct TraceEvent {
    name: String,
    cat: String,
    ph: String,
    pid: u64,
    tid: u64,
    ts: f64,
    dur: f64,
    args: std::collections::BTreeMap<String, String>,
}

fn read_trace(path: &std::path::Path) -> TraceFile {
    let text = std::fs::read_to_string(path).expect("profile file exists");
    serde_json::from_str(&text).unwrap_or_else(|err| panic!("profile must parse: {err}\n{text}"))
}

#[test]
fn explain_command_prints_an_index_vs_scan_plan() {
    let output = binary()
        .arg("-c")
        .arg(format!(
            "{SETUP}; insert Info as a; value String \"x\" as n; edge a name n; \
             explain {{ i: Info; s: String = \"x\"; i -name-> s; }}"
        ))
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("match plan (2 steps"), "{stdout}");
    assert!(stdout.contains("bind s [String]"), "{stdout}");
    assert!(stdout.contains("root candidates:"), "{stdout}");
}

#[test]
fn explain_without_a_base_exits_nonzero() {
    let output = binary()
        .arg("-c")
        .arg("class Info; explain { i: Info; }")
        .output()
        .expect("binary runs");
    assert!(!output.status.success(), "{output:?}");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("no open object base"), "{stderr}");
}

#[test]
fn profile_flag_writes_parseable_chrome_trace_with_match_spans() {
    let mut path = std::env::temp_dir();
    path.push(format!("good-cli-profile-{}.json", std::process::id()));
    let output = binary()
        .args(["--profile", path.to_str().expect("utf8 temp path")])
        .arg("-c")
        .arg(format!(
            "{SETUP}; insert Info as a; value String \"x\" as n; edge a name n; \
             match {{ i: Info; s: String; i -name-> s; }}; stats"
        ))
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "{output:?}");
    // `stats` appends the metrics snapshot.
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("metrics:"), "{stdout}");
    assert!(stdout.contains("match.calls"), "{stdout}");

    let trace = read_trace(&path);
    assert_eq!(trace.displayTimeUnit, "ms");
    assert!(!trace.traceEvents.is_empty());
    for event in &trace.traceEvents {
        assert_eq!(event.ph, "X");
        assert_eq!(event.pid, 1);
        assert!(event.dur >= 0.0 && event.ts >= 0.0);
    }
    let names: Vec<&str> = trace.traceEvents.iter().map(|e| e.name.as_str()).collect();
    assert!(names.contains(&"match/find"), "{names:?}");
    assert!(names.contains(&"match/plan"), "{names:?}");
    std::fs::remove_file(path).expect("cleanup");
}

#[test]
fn profile_flag_covers_store_op_and_method_spans_under_fault_injection() {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "good-cli-profile-fault-{}.json",
        std::process::id()
    ));
    let output = binary()
        .args(["--profile", path.to_str().expect("utf8 temp path")])
        .args(["--fault-seed", "11", "--fault-crash-at", "5"])
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "{output:?}");
    let trace = read_trace(&path);
    let cats: std::collections::BTreeSet<&str> =
        trace.traceEvents.iter().map(|e| e.cat.as_str()).collect();
    for expected in ["store", "op", "method", "match"] {
        assert!(
            cats.contains(expected),
            "missing category {expected}: {cats:?}"
        );
    }
    let names: Vec<&str> = trace.traceEvents.iter().map(|e| e.name.as_str()).collect();
    assert!(names.contains(&"store/append"), "{names:?}");
    assert!(names.contains(&"store/recovery"), "{names:?}");
    assert!(names.contains(&"op/MC:Mark"), "{names:?}");
    assert!(names.contains(&"method/Mark"), "{names:?}");
    std::fs::remove_file(path).expect("cleanup");
}

#[test]
fn profile_flag_without_a_path_exits_nonzero() {
    let output = binary().arg("--profile").output().expect("binary runs");
    assert!(!output.status.success(), "{output:?}");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--profile requires"), "{stderr}");
}

#[test]
fn repl_reads_multiline_patterns_from_stdin() {
    let mut child = binary()
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let stdin = child.stdin.as_mut().expect("stdin");
    stdin
        .write_all(
            b"class Info\nprintable String string\nfunctional Info name String\ninit\n\
              insert Info as a\nvalue String \"hi\" as n\nedge a name n\n\
              match {\n i: Info;\n s: String;\n i -name-> s;\n}\nquit\n",
        )
        .expect("write stdin");
    let output = child.wait_with_output().expect("binary finishes");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("good-db"), "{stdout}");
    assert!(stdout.contains("1 matching(s)"), "{stdout}");
}

#[test]
fn serve_scripted_mode_prints_per_session_and_final_summaries() {
    let output = binary()
        .args(["serve", "--sessions", "3", "--programs", "5", "--seed", "9"])
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("session 1:"), "{stdout}");
    assert!(stdout.contains("session 3:"), "{stdout}");
    assert!(stdout.contains("from 3 sessions"), "{stdout}");
    assert!(stdout.contains("final instance:"), "{stdout}");
}

#[test]
fn serve_unknown_session_exits_2_with_its_own_message() {
    let output = binary()
        .args(["serve", "--inject", "unknown-session"])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown session id"), "{stderr}");
}

#[test]
fn serve_submission_after_shutdown_exits_3_with_its_own_message() {
    let output = binary()
        .args(["serve", "--inject", "after-shutdown"])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(3), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("shut down"), "{stderr}");
}

#[test]
fn serve_queue_full_backpressure_exits_4_and_names_the_capacity() {
    let output = binary()
        .args(["serve", "--inject", "queue-full", "--queue-capacity", "4"])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(4), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("queue full"), "{stderr}");
    assert!(stderr.contains("capacity 4"), "{stderr}");
}

#[test]
fn serve_rejects_unknown_flags_and_injections() {
    let output = binary()
        .args(["serve", "--bogus"])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown serve flag"), "{stderr}");
    let output = binary()
        .args(["serve", "--inject", "meteor-strike"])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown --inject"), "{stderr}");
}

// ------------------------------------------------------- TCP serve + client

/// Spawn `serve --listen 127.0.0.1:0` and return the child plus the
/// OS-assigned address parsed from its first stdout line.
fn spawn_listener(extra: &[&str]) -> (std::process::Child, String) {
    use std::io::{BufRead, BufReader};
    let mut child = binary()
        .args(["serve", "--listen", "127.0.0.1:0"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read listening line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .to_string();
    // Reattach for later draining of the summary.
    child.stdout = Some(reader.into_inner());
    (child, addr)
}

/// Tell a listener to drain and collect its exit.
fn drain_listener(mut child: std::process::Child) -> std::process::Output {
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(b"quit\n")
        .expect("request drain");
    child.wait_with_output().expect("serve exits")
}

#[test]
fn serve_listen_and_client_roundtrip_over_tcp() {
    let (server, addr) = spawn_listener(&[]);
    let client = binary()
        .args([
            "client",
            &addr,
            "--programs",
            "3",
            "--seed",
            "7",
            "--snapshot",
        ])
        .output()
        .expect("client runs");
    assert!(client.status.success(), "{client:?}");
    let stdout = String::from_utf8_lossy(&client.stdout);
    assert!(stdout.contains("connected: session 1"), "{stdout}");
    assert!(stdout.contains("commit 1 @ epoch"), "{stdout}");
    assert!(stdout.contains("3 committed, 0 rejected"), "{stdout}");
    assert!(stdout.contains("snapshot @ epoch"), "{stdout}");

    let output = drain_listener(server);
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("drained: 1 connections served"), "{stdout}");
}

#[test]
fn client_query_and_dot_over_tcp() {
    let (server, addr) = spawn_listener(&[]);
    // Two sequential clients share one server: the second sees the
    // first's commits and renders the final DOT.
    let first = binary()
        .args(["client", &addr, "--programs", "2", "--seed", "11"])
        .output()
        .expect("client runs");
    assert!(first.status.success(), "{first:?}");
    let second = binary()
        .args(["client", &addr, "--programs", "0", "--dot"])
        .output()
        .expect("client runs");
    assert!(second.status.success(), "{second:?}");
    let stdout = String::from_utf8_lossy(&second.stdout);
    assert!(stdout.contains("connected: session 2"), "{stdout}");
    assert!(stdout.contains("digraph"), "{stdout}");

    let output = drain_listener(server);
    assert!(output.status.success(), "{output:?}");
}

#[test]
fn client_against_no_server_exits_1() {
    // Port 1 on loopback is essentially never listening.
    let output = binary()
        .args(["client", "127.0.0.1:1"])
        .output()
        .expect("client runs");
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("i/o failure"), "{stderr}");
}

#[test]
fn serve_listen_drains_in_flight_commits_before_exit() {
    let (server, addr) = spawn_listener(&[]);
    let client = binary()
        .args(["client", &addr, "--programs", "5", "--seed", "3"])
        .output()
        .expect("client runs");
    assert!(client.status.success(), "{client:?}");
    let output = drain_listener(server);
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    // The drain summary reports the committed state, proving the
    // journal held the acked prefix at exit.
    assert!(stdout.contains("final instance"), "{stdout}");
}

// ------------------------------------------------------ introspection

#[test]
fn client_stats_flag_prints_a_parseable_snapshot() {
    let (server, addr) = spawn_listener(&[]);
    // A little traffic first so the counters are nonzero.
    let warmup = binary()
        .args(["client", &addr, "--programs", "2", "--seed", "5"])
        .output()
        .expect("client runs");
    assert!(warmup.status.success(), "{warmup:?}");
    let probe = binary()
        .args(["client", &addr, "--programs", "0", "--stats"])
        .output()
        .expect("client runs");
    assert!(probe.status.success(), "{probe:?}");
    let stdout = String::from_utf8_lossy(&probe.stdout);
    // The snapshot JSON starts after the "connected:" banner line.
    let json = &stdout[stdout.find('{').expect("JSON in output")..];
    let doc: serde_json::Value =
        serde_json::from_str(json.trim()).unwrap_or_else(|err| panic!("{err}\n{json}"));
    for section in ["net", "server", "mvcc", "metrics", "slow"] {
        assert!(doc.get(section).is_some(), "missing {section}: {stdout}");
    }
    assert!(
        doc["metrics"]["counters"]["server/committed"]
            .as_u64()
            .unwrap()
            >= 2,
        "{stdout}"
    );
    drain_listener(server);
}

#[test]
fn top_renders_a_refreshing_dashboard() {
    let (server, addr) = spawn_listener(&[]);
    let warmup = binary()
        .args(["client", &addr, "--programs", "3", "--seed", "2"])
        .output()
        .expect("client runs");
    assert!(warmup.status.success(), "{warmup:?}");
    let top = binary()
        .args(["top", &addr, "--count", "2", "--interval-ms", "10"])
        .output()
        .expect("top runs");
    assert!(top.status.success(), "{top:?}");
    let stdout = String::from_utf8_lossy(&top.stdout);
    assert_eq!(
        stdout.matches("good-db top").count(),
        2,
        "two refreshes: {stdout}"
    );
    assert!(stdout.contains("— epoch"), "{stdout}");
    assert!(stdout.contains("conns"), "{stdout}");
    assert!(stdout.contains("committed 3"), "{stdout}");
    assert!(stdout.contains("latency: commit p50="), "{stdout}");
    drain_listener(server);
}

#[test]
fn top_against_no_server_exits_1() {
    let output = binary()
        .args(["top", "127.0.0.1:1"])
        .output()
        .expect("top runs");
    assert_eq!(output.status.code(), Some(1), "{output:?}");
}

#[test]
fn serve_listen_profile_writes_chrome_trace_on_drain() {
    let dir = std::env::temp_dir().join(format!("good-db-listen-profile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let profile = dir.join("listen.json");
    let (server, addr) = spawn_listener(&["--profile", profile.to_str().unwrap()]);
    let client = binary()
        .args(["client", &addr, "--programs", "2", "--seed", "13"])
        .output()
        .expect("client runs");
    assert!(client.status.success(), "{client:?}");
    let output = drain_listener(server);
    assert!(output.status.success(), "{output:?}");

    // The drain wrote a parseable Chrome trace covering the server
    // pipeline: net frames, enqueue, batch, commit, fsync, ack.
    let trace = read_trace(&profile);
    assert_eq!(trace.displayTimeUnit, "ms");
    let names: std::collections::BTreeSet<&str> = trace
        .traceEvents
        .iter()
        .map(|event| event.name.as_str())
        .collect();
    for expected in [
        "net/conn",
        "net/frame",
        "net/ack",
        "server/enqueue",
        "server/batch",
        "server/commit",
        "server/publish",
        "store/fsync",
    ] {
        assert!(names.contains(expected), "missing {expected}: {names:?}");
    }
    // Traced spans carry the wire trace id argument — absent here
    // (the scripted client does not set one), but commit spans must
    // still carry their stage args.
    let commit = trace
        .traceEvents
        .iter()
        .find(|event| event.name == "server/commit")
        .expect("commit span");
    assert!(commit.args.contains_key("total_ns"), "{:?}", commit.args);
    std::fs::remove_dir_all(&dir).ok();
}
