//! `good-db` — an interactive shell / script runner for GOOD object
//! bases.
//!
//! ```text
//! good-db                 # interactive REPL
//! good-db script.gdb      # run commands from a file
//! good-db -c "class Info; init; insert Info; stats"
//! good-db serve --sessions 4   # scripted multi-session server run
//! good-db serve --listen 127.0.0.1:7411   # TCP wire-protocol server
//! good-db client 127.0.0.1:7411 --programs 8 --snapshot
//! good-db client 127.0.0.1:7411 --query "MATCH (a:Info) RETURN a"
//! good-db client 127.0.0.1:7411 --programs 0 --stats   # introspection snapshot
//! good-db top 127.0.0.1:7411 --interval-ms 500         # live dashboard
//! ```
//!
//! Commands are line-oriented; a line whose braces are unbalanced
//! continues on the next line (so `match { … }` blocks can be written
//! across lines). `#` starts a comment. See `help` for the command set.

mod session;

use session::Session;
use std::io::{BufRead, Write};
use std::sync::Arc;

/// The `--profile <path>` state: where to write the Chrome trace, and
/// the collector every span in the process is delivered to.
struct Profiler {
    path: String,
    collector: Arc<good_trace::Collector>,
}

impl Profiler {
    /// Write the captured spans as Chrome `trace_event` JSON (open the
    /// result in `chrome://tracing` or Perfetto). Exits on I/O failure.
    fn write(&self) {
        let json = good_trace::chrome_trace_json(&self.collector.take());
        if let Err(err) = std::fs::write(&self.path, json) {
            eprintln!("error: cannot write profile {}: {err}", self.path);
            std::process::exit(1);
        }
    }
}

/// Write the profile (if one was requested) and exit with `code`.
fn finish(profiler: &Option<Profiler>, code: i32) -> ! {
    if let Some(profiler) = profiler {
        profiler.write();
    }
    std::process::exit(code);
}

fn brace_balance(text: &str) -> i64 {
    text.chars().fold(0, |acc, ch| match ch {
        '{' => acc + 1,
        '}' => acc - 1,
        _ => acc,
    })
}

/// Split command text into top-level commands: separators are `;` and
/// newlines at brace depth 0 outside string literals; `#` comments at
/// depth 0 run to end of line. Content inside `{ … }` blocks (pattern
/// text) is never split.
fn split_commands(text: &str) -> Vec<String> {
    let mut commands = Vec::new();
    let mut current = String::new();
    let mut depth = 0i64;
    let mut in_string = false;
    let mut in_comment = false;
    for ch in text.chars() {
        if in_comment {
            if ch == '\n' {
                in_comment = false;
                if depth == 0 {
                    flush(&mut commands, &mut current);
                    continue;
                }
            } else {
                continue;
            }
        }
        match ch {
            '"' => {
                in_string = !in_string;
                current.push(ch);
            }
            '{' if !in_string => {
                depth += 1;
                current.push(ch);
            }
            '}' if !in_string => {
                depth -= 1;
                current.push(ch);
            }
            '#' if !in_string && depth == 0 => in_comment = true,
            ';' | '\n' if !in_string && depth == 0 => flush(&mut commands, &mut current),
            _ => current.push(ch),
        }
    }
    flush(&mut commands, &mut current);
    commands
}

fn flush(commands: &mut Vec<String>, current: &mut String) {
    let trimmed = current.trim();
    if !trimmed.is_empty() {
        commands.push(trimmed.to_string());
    }
    current.clear();
}

/// Run a block of command text. Returns the combined output; stops at
/// the first error.
fn run_script(session: &mut Session, text: &str) -> Result<String, session::CliError> {
    let mut output = String::new();
    for command in split_commands(text) {
        let report = session.execute(&command)?;
        if !report.is_empty() {
            output.push_str(&report);
            if !report.ends_with('\n') {
                output.push('\n');
            }
        }
    }
    Ok(output)
}

/// Map a [`good_server::ServerError`] to the `serve` mode's exit code.
/// Each submission failure gets its own code so scripts (and the
/// integration tests) can tell them apart without parsing stderr:
/// 2 = unknown session, 3 = submitted after shutdown, 4 = queue-full
/// backpressure, 1 = store failure / usage error.
fn serve_exit_code(err: &good_server::ServerError) -> i32 {
    match err {
        good_server::ServerError::UnknownSession(_) => 2,
        good_server::ServerError::Shutdown => 3,
        good_server::ServerError::QueueFull { .. } => 4,
        good_server::ServerError::Store(_) => 1,
    }
}

/// A subcommand's arguments, consumed left to right: the flag loop
/// reads names off `0` and hands each one to [`Flags::set`],
/// [`Flags::value`] or [`Flags::switch`]. Usage errors come back as
/// the message to print.
struct Flags<'a>(std::slice::Iter<'a, String>);

impl Flags<'_> {
    /// The value following `flag`.
    fn value(&mut self, flag: &str) -> Result<String, String> {
        self.0
            .next()
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    }

    /// Parse the value following `flag` into `target`.
    fn set<T: std::str::FromStr>(&mut self, flag: &str, target: &mut T) -> Result<(), String> {
        let raw = self.value(flag)?;
        *target = raw
            .parse()
            .map_err(|_| format!("bad value for {flag}: {raw:?}"))?;
        Ok(())
    }

    /// Turn on a flag that takes no value.
    fn switch(target: &mut bool) -> Result<(), String> {
        *target = true;
        Ok(())
    }
}

/// `good-db serve --sessions N [--programs P] [--seed S]
/// [--max-batch M] [--queue-capacity Q] [--inject FAILURE]`
/// `good-db serve --listen ADDR [--max-connections C] [--inflight Q]`
///
/// Scripted multi-session mode: starts an in-process [`Server`] over
/// an in-memory journal, races N sessions each submitting P programs
/// of the deterministic `random_workload`, and prints a per-session
/// and final summary. `--inject` deterministically provokes one of
/// the submission error paths (`unknown-session`, `after-shutdown`,
/// `queue-full`) and exits with its distinct code.
///
/// With `--listen`, the same server is fronted by the TCP wire
/// protocol instead: it prints `listening on ADDR`, serves until stdin
/// closes (or a `quit` line arrives), then drains gracefully —
/// in-flight submits commit and ack before the summary prints.
fn run_serve(args: &[String]) -> i32 {
    use good_core::gen::{bench_scheme, random_workload};
    use good_server::{Server, ServerConfig};
    use good_store::vfs::{FaultPlan, FaultVfs, Vfs};
    use good_store::Store;

    let mut sessions = 2usize;
    let mut programs = 4usize;
    let mut seed = 42u64;
    let mut max_batch = 8usize;
    let mut queue_capacity = 256usize;
    let mut inject: Option<String> = None;
    let mut listen: Option<String> = None;
    let mut max_connections = 1024usize;
    let mut inflight = 64usize;

    let mut flags = Flags(args.iter());
    while let Some(flag) = flags.0.next() {
        let parsed = match flag.as_str() {
            "--sessions" => flags.set(flag, &mut sessions),
            "--programs" => flags.set(flag, &mut programs),
            "--seed" => flags.set(flag, &mut seed),
            "--max-batch" => flags.set(flag, &mut max_batch),
            "--queue-capacity" => flags.set(flag, &mut queue_capacity),
            "--inject" => flags.value(flag).map(|value| inject = Some(value)),
            "--listen" => flags.value(flag).map(|value| listen = Some(value)),
            "--max-connections" => flags.set(flag, &mut max_connections),
            "--inflight" => flags.set(flag, &mut inflight),
            other => Err(format!("unknown serve flag {other:?}")),
        };
        if let Err(message) = parsed {
            eprintln!("error: {message}");
            return 1;
        }
    }
    if sessions == 0 || max_batch == 0 {
        eprintln!("error: --sessions and --max-batch must be at least 1");
        return 1;
    }

    let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::new(FaultPlan::reliable(seed)));
    let store = match Store::create_with_vfs(vfs, "/serve/db.journal", bench_scheme()) {
        Ok(store) => store,
        Err(err) => {
            eprintln!("error: cannot create store: {err}");
            return 1;
        }
    };
    let server = Server::start(
        store,
        ServerConfig {
            queue_capacity,
            max_batch,
            ..ServerConfig::default()
        },
    );

    // TCP front-end mode: serve the wire protocol until stdin closes,
    // then drain gracefully.
    if let Some(addr) = listen {
        use good_server::net::{NetConfig, NetServer};
        let listener = match std::net::TcpListener::bind(&addr) {
            Ok(listener) => listener,
            Err(err) => {
                eprintln!("error: cannot bind {addr}: {err}");
                return 1;
            }
        };
        let net = match NetServer::start(
            server,
            listener,
            NetConfig {
                max_connections,
                session_inflight: inflight,
                ..NetConfig::default()
            },
        ) {
            Ok(net) => net,
            Err(err) => {
                eprintln!("error: cannot start network front end: {err}");
                return 1;
            }
        };
        // The bound address (with the OS-assigned port when the caller
        // asked for :0) goes to stdout so scripts can connect.
        println!("listening on {}", net.local_addr());
        std::io::stdout().flush().expect("flush stdout");
        let stdin = std::io::stdin();
        let mut line = String::new();
        loop {
            line.clear();
            match stdin.lock().read_line(&mut line) {
                Ok(0) => break, // EOF: controlling script is done
                Ok(_) if matches!(line.trim(), "quit" | "drain" | "exit") => break,
                Ok(_) => continue,
                Err(_) => break,
            }
        }
        let served = net.total_accepted();
        match net.shutdown() {
            Ok(store) => {
                println!(
                    "drained: {} connections served, final instance {} nodes, {} edges",
                    served,
                    store.instance().node_count(),
                    store.instance().edge_count()
                );
                return 0;
            }
            Err(err) => {
                eprintln!("error: drain failed: {err}");
                return serve_exit_code(&err);
            }
        }
    }

    // Deterministic error-path injection: provoke exactly one
    // submission failure and exit with its dedicated code.
    if let Some(failure) = inject.as_deref() {
        let err = match failure {
            "unknown-session" => {
                // Never-opened session id: ids are handed out from 1.
                server
                    .submit(u64::MAX, random_workload(seed, 1).remove(0))
                    .expect_err("submission to an unopened session must fail")
            }
            "after-shutdown" => {
                let session = server.open_session();
                server.begin_shutdown();
                server
                    .submit(session, random_workload(seed, 1).remove(0))
                    .expect_err("submission after shutdown must fail")
            }
            "queue-full" => {
                let session = server.open_session();
                // Freeze the writer so the queue genuinely fills, then
                // overflow it: capacity submissions park, the next one
                // must bounce with backpressure.
                server.pause_writer();
                let workload = random_workload(seed, queue_capacity + 1);
                let mut overflow = None;
                for program in workload {
                    if let Err(err) = server.submit(session, program) {
                        overflow = Some(err);
                        break;
                    }
                }
                server.resume_writer();
                match overflow {
                    Some(err) => err,
                    None => {
                        eprintln!("error: queue never filled at capacity {queue_capacity}");
                        return 1;
                    }
                }
            }
            other => {
                eprintln!(
                    "error: unknown --inject {other:?} \
                     (expected unknown-session, after-shutdown or queue-full)"
                );
                return 1;
            }
        };
        eprintln!("error: {err}");
        return serve_exit_code(&err);
    }

    // The scripted workload: N sessions race their chunk of one
    // deterministic program stream through the single writer.
    let workload = random_workload(seed, sessions * programs);
    let chunks: Vec<Vec<good_core::program::Program>> = workload
        .chunks(programs.max(1))
        .map(|chunk| chunk.to_vec())
        .collect();
    let results: Vec<Result<(usize, usize), good_server::ServerError>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|chunk| {
                    let server = &server;
                    scope.spawn(move || {
                        let session = server.open_session();
                        let (mut committed, mut rejected) = (0usize, 0usize);
                        for program in chunk {
                            let ack = server.submit_wait(session, program)?;
                            match ack.commit_seq {
                                Some(_) => committed += 1,
                                None => rejected += 1,
                            }
                        }
                        Ok((committed, rejected))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

    let (mut total_committed, mut total_rejected) = (0usize, 0usize);
    for (index, result) in results.iter().enumerate() {
        match result {
            Ok((committed, rejected)) => {
                println!(
                    "session {}: {committed} committed, {rejected} rejected",
                    index + 1
                );
                total_committed += committed;
                total_rejected += rejected;
            }
            Err(err) => {
                eprintln!("error: session {} failed: {err}", index + 1);
                return serve_exit_code(err);
            }
        }
    }
    let batches = server.epoch();
    let snapshot = server.snapshot();
    println!(
        "served {total_committed} committed + {total_rejected} rejected programs \
         from {sessions} sessions in {batches} batches"
    );
    println!(
        "final instance: {} nodes, {} edges",
        snapshot.instance().node_count(),
        snapshot.instance().edge_count()
    );
    match server.shutdown() {
        Ok(_) => 0,
        Err(err) => {
            eprintln!("error: shutdown failed: {err}");
            serve_exit_code(&err)
        }
    }
}

/// Map a client-side failure to the `client` subcommand's exit code:
/// typed server refusals mirror the serve codes (2 = unknown session,
/// 3 = shutdown) and extend them (4 = queue-full, 5 = quota, 6 =
/// overloaded); everything else — transport failures, protocol
/// violations, bad requests — is 1.
fn client_exit_code(err: &good_server::client::ClientError) -> i32 {
    use good_server::client::ClientError;
    use good_server::proto::ErrCode;
    match err {
        ClientError::Rejected { code, .. } => match code {
            ErrCode::UnknownSession => 2,
            ErrCode::Shutdown => 3,
            ErrCode::QueueFull => 4,
            ErrCode::QuotaExceeded => 5,
            ErrCode::Overloaded => 6,
            ErrCode::BadRequest | ErrCode::Store | ErrCode::UnsupportedVersion => 1,
        },
        _ => 1,
    }
}

/// `good-db client ADDR [--programs N] [--seed S] [--retries R]
/// [--query GOODQL] [--snapshot] [--dot] [--stats]`
///
/// Scripted wire-protocol client: connects, submits N programs of the
/// deterministic `random_workload` (riding out retryable refusals up
/// to R times each), optionally runs a GOODQL MATCH/WHERE/RETURN query
/// and a snapshot read, then says goodbye. Prints one line per
/// acknowledgement. A query the server refuses (the textual pattern
/// notation is not served) prints the server's caret render and exits
/// 1.
/// `--stats` fetches the server's introspection snapshot (counters,
/// gauges, latency histograms, MVCC ring, slow-query log) and
/// pretty-prints it as JSON; `--programs 0 --stats` is a pure probe.
fn run_client(args: &[String]) -> i32 {
    use good_core::gen::random_workload;
    use good_server::client::Client;

    let mut flags = Flags(args.iter());
    let Some(addr) = flags.0.next() else {
        eprintln!("error: client requires a server address (host:port)");
        return 1;
    };
    let mut programs = 4usize;
    let mut seed = 42u64;
    let mut retries = 16usize;
    let mut query: Option<String> = None;
    let mut snapshot = false;
    let mut dot = false;
    let mut stats = false;
    while let Some(flag) = flags.0.next() {
        let parsed = match flag.as_str() {
            "--programs" => flags.set(flag, &mut programs),
            "--seed" => flags.set(flag, &mut seed),
            "--retries" => flags.set(flag, &mut retries),
            "--query" => flags.value(flag).map(|value| query = Some(value)),
            "--snapshot" => Flags::switch(&mut snapshot),
            "--dot" => Flags::switch(&mut dot),
            "--stats" => Flags::switch(&mut stats),
            other => Err(format!("unknown client flag {other:?}")),
        };
        if let Err(message) = parsed {
            eprintln!("error: {message}");
            return 1;
        }
    }

    let mut client = match Client::connect(addr.as_str()) {
        Ok(client) => client,
        Err(err) => {
            eprintln!("error: {err}");
            return client_exit_code(&err);
        }
    };
    println!("connected: session {}", client.session());
    let (mut committed, mut rejected) = (0usize, 0usize);
    for program in random_workload(seed, programs) {
        match client.submit_wait_retrying(&program, retries) {
            Ok(ack) => match (ack.commit_seq, ack.outcome) {
                (Some(seq), Ok(report)) => {
                    committed += 1;
                    println!("commit {seq} @ epoch {}: {report}", ack.epoch);
                }
                (_, outcome) => {
                    rejected += 1;
                    println!(
                        "rejected @ epoch {}: {}",
                        ack.epoch,
                        outcome.err().unwrap_or_else(|| "unknown".into())
                    );
                }
            },
            Err(err) => {
                eprintln!("error: {err}");
                return client_exit_code(&err);
            }
        }
    }
    println!("{committed} committed, {rejected} rejected");
    if let Some(text) = &query {
        match client.query(text, None) {
            Ok((epoch, columns, rows)) => {
                println!("query @ epoch {epoch}: {} row(s)", rows.len());
                for row in rows {
                    let cells: Vec<String> = columns
                        .iter()
                        .zip(&row)
                        .map(|(name, cell)| format!("{name}={cell}"))
                        .collect();
                    println!("  {}", cells.join(", "));
                }
            }
            Err(err) => {
                eprintln!("error: {err}");
                return client_exit_code(&err);
            }
        }
    }
    if snapshot || dot {
        match client.snapshot(None, dot) {
            Ok(info) => {
                println!(
                    "snapshot @ epoch {}: {} nodes, {} edges",
                    info.epoch, info.nodes, info.edges
                );
                if let Some(dot) = info.dot {
                    print!("{dot}");
                }
            }
            Err(err) => {
                eprintln!("error: {err}");
                return client_exit_code(&err);
            }
        }
    }
    if stats {
        match client.stats() {
            Ok(json) => match serde_json::from_str::<serde_json::Value>(&json) {
                // Re-render pretty; fall back to the raw text if the
                // server ever sends something our reader rejects.
                Ok(doc) => println!(
                    "{}",
                    serde_json::to_string_pretty(&doc).unwrap_or_else(|_| json.clone())
                ),
                Err(_) => println!("{json}"),
            },
            Err(err) => {
                eprintln!("error: {err}");
                return client_exit_code(&err);
            }
        }
    }
    if let Err(err) = client.goodbye() {
        eprintln!("error: {err}");
        return client_exit_code(&err);
    }
    0
}

/// Rebuild a [`good_trace::HistogramSnapshot`] from its stats-JSON
/// form so `top` can compute latency quantiles client-side.
fn histogram_from_json(entry: &serde_json::Value) -> good_trace::HistogramSnapshot {
    let mut snapshot = good_trace::HistogramSnapshot {
        count: entry["count"].as_u64().unwrap_or(0),
        sum: entry["sum"].as_u64().unwrap_or(0),
        max: entry["max"].as_u64().unwrap_or(0),
        buckets: Vec::new(),
    };
    if let Some(buckets) = entry["buckets"].as_seq() {
        for pair in buckets {
            if let (Some(upper), Some(count)) = (
                pair.at(0).and_then(serde_json::Value::as_u64),
                pair.at(1).and_then(serde_json::Value::as_u64),
            ) {
                snapshot.buckets.push((upper, count));
            }
        }
    }
    snapshot
}

/// One `top` refresh: a compact multi-line dashboard from a parsed
/// stats snapshot.
fn render_top(addr: &str, doc: &serde_json::Value) -> String {
    use good_trace::format_ns;
    let mut out = String::new();
    let server = &doc["server"];
    out.push_str(&format!(
        "good-db top {addr} — epoch {}, {} session(s){}\n",
        server["epoch"].as_u64().unwrap_or(0),
        server["sessions"].as_u64().unwrap_or(0),
        if matches!(server["draining"], serde_json::Value::Bool(true)) {
            ", draining"
        } else {
            ""
        },
    ));
    let net = &doc["net"];
    out.push_str(&format!(
        "net:    {}/{} conns, {} accepted, inflight quota {}\n",
        net["connections"].as_u64().unwrap_or(0),
        net["max_connections"].as_u64().unwrap_or(0),
        net["total_accepted"].as_u64().unwrap_or(0),
        net["session_inflight"].as_u64().unwrap_or(0),
    ));
    let counters = &doc["metrics"]["counters"];
    out.push_str(&format!(
        "server: queue {}/{}, committed {}, rejected {}, acks {}\n",
        server["queue_depth"].as_u64().unwrap_or(0),
        server["queue_capacity"].as_u64().unwrap_or(0),
        counters["server/committed"].as_u64().unwrap_or(0),
        counters["server/rejected"].as_u64().unwrap_or(0),
        counters["net/acks"].as_u64().unwrap_or(0),
    ));
    let mut latency = String::new();
    for (label, name) in [
        ("commit", "server/commit_ns"),
        ("query", "net/query_ns"),
        ("fsync", "store/fsync_ns"),
    ] {
        let histogram = histogram_from_json(&doc["metrics"]["histograms"][name]);
        if histogram.count == 0 {
            continue;
        }
        if !latency.is_empty() {
            latency.push_str("; ");
        }
        latency.push_str(&format!(
            "{label} p50={} p99={} max={}",
            format_ns(histogram.quantile(0.5)),
            format_ns(histogram.quantile(0.99)),
            format_ns(histogram.max),
        ));
    }
    if !latency.is_empty() {
        out.push_str(&format!("latency: {latency}\n"));
    }
    let slow = &doc["slow"];
    let entries = slow["entries"].as_seq().unwrap_or(&[]);
    out.push_str(&format!(
        "slow:   {} entries, {} dropped",
        entries.len(),
        slow["dropped"].as_u64().unwrap_or(0),
    ));
    if let Some(last) = entries.last() {
        out.push_str(&format!(
            " — last: {} {} {:?}",
            last["kind"].as_str().unwrap_or("?"),
            format_ns(last["total_ns"].as_u64().unwrap_or(0)),
            last["detail"].as_str().unwrap_or(""),
        ));
    }
    out.push('\n');
    out
}

/// `good-db top ADDR [--interval-ms N] [--count K]`
///
/// Live server dashboard over the stats wire frame: connects, then
/// prints a refreshed summary (connections, queue, throughput
/// counters, latency quantiles, slow-query tail) every interval.
/// `--count 0` (the default) refreshes until interrupted or the
/// server goes away.
fn run_top(args: &[String]) -> i32 {
    use good_server::client::Client;

    let mut flags = Flags(args.iter());
    let Some(addr) = flags.0.next() else {
        eprintln!("error: top requires a server address (host:port)");
        return 1;
    };
    let mut interval_ms = 1_000u64;
    let mut count = 0u64;
    while let Some(flag) = flags.0.next() {
        let parsed = match flag.as_str() {
            "--interval-ms" => flags.set(flag, &mut interval_ms),
            "--count" => flags.set(flag, &mut count),
            other => Err(format!("unknown top flag {other:?}")),
        };
        if let Err(message) = parsed {
            eprintln!("error: {message}");
            return 1;
        }
    }

    let mut client = match Client::connect(addr.as_str()) {
        Ok(client) => client,
        Err(err) => {
            eprintln!("error: {err}");
            return client_exit_code(&err);
        }
    };
    let mut refreshes = 0u64;
    loop {
        let json = match client.stats() {
            Ok(json) => json,
            Err(err) => {
                eprintln!("error: {err}");
                return client_exit_code(&err);
            }
        };
        match serde_json::from_str::<serde_json::Value>(&json) {
            Ok(doc) => print!("{}", render_top(addr, &doc)),
            Err(err) => {
                eprintln!("error: unparseable stats snapshot: {err}");
                return 1;
            }
        }
        std::io::stdout().flush().expect("flush stdout");
        refreshes += 1;
        if count > 0 && refreshes >= count {
            break;
        }
        println!();
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
    let _ = client.goodbye();
    0
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();

    // --profile PATH: capture every span the process emits (matcher,
    // ops, methods, store) and write a Chrome trace_event JSON file on
    // exit — including after a failed fault schedule, where the
    // timeline shows the I/O preceding the crash.
    let mut profiler: Option<Profiler> = None;
    if let Some(position) = args.iter().position(|a| a == "--profile") {
        let Some(value) = args.get(position + 1) else {
            eprintln!("error: --profile requires an output path");
            std::process::exit(1);
        };
        let collector = Arc::new(good_trace::Collector::new());
        good_trace::swap_recorder(Some(collector.clone()));
        profiler = Some(Profiler {
            path: value.clone(),
            collector,
        });
        args.drain(position..=position + 1);
    }

    // --fault-seed N [--fault-crash-at K]: developer fault-injection
    // mode. Runs the store's deterministic crash-recovery torture
    // harness — the full crash-point sweep for the seed, or a single
    // schedule when --fault-crash-at is given (the reproduction line
    // printed by torture failures). Exits 0 when every schedule
    // recovers to a committed prefix, 1 with the fault log otherwise.
    if let Some(position) = args.iter().position(|a| a == "--fault-seed") {
        let Some(value) = args.get(position + 1) else {
            eprintln!("error: --fault-seed requires a seed");
            std::process::exit(1);
        };
        let seed = match value.parse::<u64>() {
            Ok(seed) => seed,
            Err(_) => {
                eprintln!("error: bad fault seed {value:?}");
                std::process::exit(1);
            }
        };
        args.drain(position..=position + 1);
        let mut crash_at = None;
        if let Some(position) = args.iter().position(|a| a == "--fault-crash-at") {
            let Some(value) = args.get(position + 1) else {
                eprintln!("error: --fault-crash-at requires an operation index");
                std::process::exit(1);
            };
            match value.parse::<u64>() {
                Ok(op) => crash_at = Some(op),
                Err(_) => {
                    eprintln!("error: bad crash point {value:?}");
                    std::process::exit(1);
                }
            }
            args.drain(position..=position + 1);
        }
        let config = good_store::torture::TortureConfig {
            seed,
            ..good_store::torture::TortureConfig::default()
        };
        match crash_at {
            Some(op) => match good_store::torture::crash_schedule(&config, op) {
                Ok(outcome) => {
                    for line in &outcome.fault_log {
                        println!("{line}");
                    }
                    println!(
                        "crash at op {}: acked {}, recovered to committed state {} of [{}, {}]",
                        outcome.crash_at,
                        outcome.acked,
                        outcome
                            .recovered_to
                            .map_or_else(|| "none (pre-create)".into(), |j| j.to_string()),
                        outcome.acked,
                        outcome.attempted
                    );
                }
                Err(failure) => {
                    eprintln!("{failure}");
                    finish(&profiler, 1);
                }
            },
            None => match good_store::torture::crash_sweep(&config) {
                Ok(report) => println!("seed {seed}: {}", report.summary()),
                Err(failure) => {
                    eprintln!("{failure}");
                    finish(&profiler, 1);
                }
            },
        }
        finish(&profiler, 0);
    }

    // `serve` scripted multi-session mode (or TCP mode via --listen).
    if args.first().map(String::as_str) == Some("serve") {
        let code = run_serve(&args[1..]);
        finish(&profiler, code);
    }

    // `client` wire-protocol mode.
    if args.first().map(String::as_str) == Some("client") {
        let code = run_client(&args[1..]);
        finish(&profiler, code);
    }

    // `top` live-dashboard mode.
    if args.first().map(String::as_str) == Some("top") {
        let code = run_top(&args[1..]);
        finish(&profiler, code);
    }

    let mut session = Session::new();

    // -c "commands" mode.
    if args.first().map(String::as_str) == Some("-c") {
        let text = args[1..].join(" ");
        match run_script(&mut session, &text) {
            Ok(output) => print!("{output}"),
            Err(err) => {
                eprintln!("error: {err}");
                finish(&profiler, 1);
            }
        }
        finish(&profiler, 0);
    }

    // Script-file mode.
    if let Some(path) = args.first() {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("error: cannot read {path}: {err}");
                finish(&profiler, 1);
            }
        };
        match run_script(&mut session, &text) {
            Ok(output) => print!("{output}"),
            Err(err) => {
                eprintln!("error: {err}");
                finish(&profiler, 1);
            }
        }
        finish(&profiler, 0);
    }

    // Interactive REPL.
    println!("good-db — GOOD object base shell (try `help`, quit with `quit`)");
    let stdin = std::io::stdin();
    let mut pending = String::new();
    loop {
        if pending.is_empty() {
            print!("good> ");
        } else {
            print!("  ... ");
        }
        std::io::stdout().flush().expect("flush stdout");
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(err) => {
                eprintln!("error: {err}");
                break;
            }
        }
        let trimmed = line.trim_end();
        if pending.is_empty() && matches!(trimmed, "quit" | "exit") {
            break;
        }
        if !pending.is_empty() {
            pending.push('\n');
        }
        pending.push_str(trimmed);
        if brace_balance(&pending) > 0 {
            continue;
        }
        let command = std::mem::take(&mut pending);
        match session.execute(&command) {
            Ok(report) => {
                if !report.is_empty() {
                    println!("{}", report.trim_end());
                }
            }
            Err(err) => eprintln!("error: {err}"),
        }
    }
    if let Some(profiler) = &profiler {
        profiler.write();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_script_executes_multiline_patterns() {
        let mut session = Session::new();
        let script = r#"
class Info
printable String string
functional Info name String
init
insert Info as a
value String "hello" as n
edge a name n
match {
  i: Info;
  s: String = "hello";
  i -name-> s;
}
stats
"#;
        let output = run_script(&mut session, script).unwrap();
        assert!(output.contains("1 matching(s)"));
        assert!(output.contains("2 nodes, 1 edges"));
    }

    #[test]
    fn semicolons_separate_simple_commands() {
        let mut session = Session::new();
        let output = run_script(&mut session, "class Info; init; insert Info; stats").unwrap();
        assert!(output.contains("1 nodes, 0 edges"));
    }

    #[test]
    fn errors_stop_the_script() {
        let mut session = Session::new();
        assert!(run_script(&mut session, "bogus").is_err());
    }

    #[test]
    fn split_commands_respects_braces_strings_and_comments() {
        let commands = split_commands(
            "class Info; init # trailing comment\nmatch { i: Info; s: String = \"a;b\"; }; stats",
        );
        assert_eq!(
            commands,
            vec![
                "class Info".to_string(),
                "init".to_string(),
                "match { i: Info; s: String = \"a;b\"; }".to_string(),
                "stats".to_string(),
            ]
        );
    }

    #[test]
    fn brace_balance_counts() {
        assert_eq!(brace_balance("a { b { c }"), 1);
        assert_eq!(brace_balance("{}"), 0);
        assert_eq!(brace_balance("}"), -1);
    }
}
