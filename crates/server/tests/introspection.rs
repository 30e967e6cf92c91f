//! Observability integration tests over loopback TCP: per-request
//! commit timelines reconstructed from wire-propagated trace ids, the
//! remote stats protocol (including the slow-query ring with per-step
//! est-vs-actual plan rows), and typed refusal of newer-protocol
//! peers. The span-capture tests share one process-global recorder, so
//! everything that needs a `Collector` lives in a single test.

use good_core::derived::View;
use good_core::gen::bench_scheme;
use good_core::matching::explain_plan_profiled;
use good_core::ops::NodeAddition;
use good_core::pattern::Pattern;
use good_core::program::{Operation, Program};
use good_server::client::Client;
use good_server::net::{NetConfig, NetServer};
use good_server::proto::{encode, read_frame, ErrCode, Frame, ProtoError, VERSION};
use good_server::{Server, ServerConfig};
use good_store::vfs::{FaultPlan, FaultVfs, Vfs};
use good_store::Store;
use good_trace::{ArgValue, Collector, Span, SpanTree};
use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Held by the tests that run the matcher in-process and by the one
/// that reads the matcher's process-global counters.
static MATCHER: Mutex<()> = Mutex::new(());

fn start_net(server_config: ServerConfig) -> NetServer {
    let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::new(FaultPlan::reliable(23)));
    let store =
        Store::create_with_vfs(vfs, "/obs/db.journal", bench_scheme()).expect("create store");
    let server = Server::start(store, server_config);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    NetServer::start(server, listener, NetConfig::default()).expect("start net server")
}

fn labeled_program(label: &str) -> Program {
    Program::from_ops([Operation::NodeAdd(NodeAddition::new(
        Pattern::new(),
        label,
        [],
    ))])
}

/// Find the span arg `trace` and compare to an id.
fn has_trace(span: &Span, id: u64) -> bool {
    span.args
        .iter()
        .any(|(key, value)| *key == "trace" && *value == ArgValue::UInt(id))
}

fn arg_u64(span: &Span, key: &str) -> Option<u64> {
    span.args.iter().find_map(|(k, v)| {
        (*k == key).then(|| match v {
            ArgValue::UInt(n) => *n,
            other => panic!("arg {key} is {other:?}, expected UInt"),
        })
    })
}

fn end_ns(span: &Span) -> u64 {
    span.start_ns + span.dur_ns
}

/// The tentpole acceptance test: three client threads churn traced
/// submits over the wire while a collector captures spans from the net
/// reader, ack pump, and writer threads. For every trace id the full
/// commit timeline — enqueue → batch (fsync inside) → publish →
/// commit → ack — must reconstruct from the capture, ordered by the
/// process-wide monotonic span clock. The same capture must also
/// canonicalize into a permutation-independent `SpanTree` (spans carry
/// `(thread, seq)` so build order is deterministic under churn).
#[test]
fn wire_trace_reconstructs_commit_timeline_under_churn() {
    let collector = Arc::new(Collector::new());
    let previous = good_trace::install(collector.clone());
    assert!(previous.is_none(), "test requires the global recorder");

    let net = start_net(ServerConfig {
        queue_capacity: 64,
        max_batch: 4,
        ..ServerConfig::default()
    });
    let addr = net.local_addr();
    const THREADS: u64 = 3;
    const PER_THREAD: u64 = 5;
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for i in 0..PER_THREAD {
                    let trace = 1_000 * (t + 1) + i;
                    let request = client
                        .submit_traced(&labeled_program(&format!("T{t}x{i}")), Some(trace))
                        .expect("submit");
                    client.wait_ack(request).expect("ack");
                }
                client.goodbye().expect("goodbye");
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("worker");
    }
    net.shutdown().expect("shutdown");
    good_trace::uninstall();
    let spans = collector.take();

    for t in 0..THREADS {
        for i in 0..PER_THREAD {
            let trace = 1_000 * (t + 1) + i;
            let enqueue = spans
                .iter()
                .find(|s| s.name == "server/enqueue" && has_trace(s, trace))
                .unwrap_or_else(|| panic!("trace {trace}: no enqueue span"));
            let commit = spans
                .iter()
                .find(|s| s.name == "server/commit" && has_trace(s, trace))
                .unwrap_or_else(|| panic!("trace {trace}: no commit span"));
            let ack = spans
                .iter()
                .find(|s| s.name == "net/ack" && has_trace(s, trace))
                .unwrap_or_else(|| panic!("trace {trace}: no ack span"));

            // The commit span nests inside its batch span on the
            // writer thread; the batch interval covers it.
            let batch = spans
                .iter()
                .filter(|s| s.name == "server/batch" && s.thread == commit.thread)
                .find(|s| s.start_ns <= commit.start_ns && end_ns(s) >= end_ns(commit))
                .unwrap_or_else(|| panic!("trace {trace}: commit span has no covering batch"));
            // The batch durably fsynced (inside execute_group) and
            // published before any of its commit spans opened.
            let fsync = spans
                .iter()
                .filter(|s| s.name == "store/fsync" && s.thread == commit.thread)
                .find(|s| s.start_ns >= batch.start_ns && end_ns(s) <= commit.start_ns)
                .unwrap_or_else(|| panic!("trace {trace}: no fsync inside the batch window"));
            let publish = spans
                .iter()
                .filter(|s| s.name == "server/publish" && s.thread == commit.thread)
                .find(|s| s.start_ns >= end_ns(fsync) && end_ns(s) <= commit.start_ns)
                .unwrap_or_else(|| panic!("trace {trace}: no publish between fsync and commit"));

            // The reconstructed timeline, on the process-monotonic
            // span clock: enqueue precedes the batch drain; fsync,
            // publish, and the commit record follow in stage order;
            // the ack leaves last, from the ack-pump thread.
            assert!(
                enqueue.start_ns <= batch.start_ns,
                "trace {trace}: enqueue after batch"
            );
            assert!(
                publish.start_ns >= end_ns(fsync),
                "trace {trace}: publish before fsync"
            );
            assert!(
                commit.start_ns >= end_ns(publish),
                "trace {trace}: commit before publish"
            );
            assert!(
                ack.start_ns >= commit.start_ns,
                "trace {trace}: ack before commit"
            );
            assert!(
                ack.thread != commit.thread,
                "ack pump is not the writer thread"
            );
            assert!(
                enqueue.thread != commit.thread,
                "net reader is not the writer thread"
            );

            // The commit span carries the stage breakdown.
            assert_eq!(arg_u64(commit, "trace"), Some(trace));
            assert!(arg_u64(commit, "queue_wait_ns").is_some());
            assert!(arg_u64(commit, "total_ns").is_some());
            assert!(arg_u64(commit, "epoch").is_some());
            assert!(
                arg_u64(commit, "commit_seq").is_some(),
                "all submits commit"
            );
            assert!(arg_u64(ack, "request").is_some(), "ack names its request");
        }
    }

    // Satellite: SpanTree canonicalization is permutation-independent
    // even for this capture from four-plus concurrent threads. Build
    // the tree from the capture as-is and from a scrambled copy
    // (reversed, then rotated); after canonicalize() both render
    // byte-identically because (thread, seq) fixes the build order and
    // content-sorting erases thread interleaving.
    let mut scrambled: Vec<Span> = spans.clone();
    scrambled.reverse();
    let pivot = scrambled.len() / 3;
    scrambled.rotate_left(pivot);
    let mut tree_a = SpanTree::build(&spans);
    let mut tree_b = SpanTree::build(&scrambled);
    tree_a.canonicalize();
    tree_b.canonicalize();
    assert_eq!(
        tree_a.render(),
        tree_b.render(),
        "canonicalized SpanTree must not depend on capture order"
    );
    assert!(!tree_a.roots.is_empty());
}

/// The stats protocol end to end: a live loopback server answers
/// `Frame::Stats` with a parseable JSON snapshot whose slow-query ring
/// holds a captured query complete with per-step estimated-vs-actual
/// plan rows.
#[test]
fn stats_roundtrip_reports_slow_query_with_plan_rows() {
    let net = start_net(ServerConfig {
        // Every query is "slow" at a zero threshold, so the ring
        // deterministically captures the probe query below.
        slow_query_ns: 0,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(net.local_addr()).expect("connect");
    client
        .submit_wait(&labeled_program("Obj1"))
        .expect("commit");
    let probe = "MATCH (o:Obj1) RETURN o";
    let (_, _, rows) = client.query(probe, None).expect("query");
    assert_eq!(rows.len(), 1);
    // A GOODQL closure runs the starred edge addition on the reader
    // thread: one (quiescent) fixpoint round even with no Info to link.
    client
        .query("MATCH (a:Info)-[:links-to*]->(b:Info) RETURN a, b", None)
        .expect("closure query");

    let stats = client.stats().expect("stats round-trip");
    let parsed: serde_json::Value = serde_json::from_str(&stats)
        .unwrap_or_else(|err| panic!("unparseable stats: {err}\n{stats}"));

    // Top-level sections.
    for section in ["net", "server", "mvcc", "metrics", "slow"] {
        assert!(parsed.get(section).is_some(), "missing section {section}");
    }
    assert_eq!(parsed["net"]["connections"].as_u64(), Some(1));
    assert!(parsed["server"]["epoch"].as_u64().unwrap() >= 1);
    assert!(parsed["server"]["queue_capacity"].as_u64().unwrap() > 0);
    assert!(!parsed["mvcc"]["retained"].as_seq().unwrap().is_empty());

    // Live metrics flow without any Recorder installed: the counters
    // for the frames this very test sent must be present and nonzero.
    let metrics = &parsed["metrics"];
    assert!(metrics["counters"]["net/frames/submit"].as_u64().unwrap() >= 1);
    assert!(metrics["counters"]["net/frames/query"].as_u64().unwrap() >= 1);
    assert!(metrics["counters"]["server/committed"].as_u64().unwrap() >= 1);
    assert!(metrics["counters"]["fixpoint.rounds"].as_u64().unwrap() >= 1);
    assert!(metrics["counters"]["fixpoint.delta_edges"]
        .as_u64()
        .is_some());
    let query_hist = &metrics["histograms"]["net/query_ns"];
    assert!(query_hist["count"].as_u64().unwrap() >= 1);
    assert!(!query_hist["buckets"].as_seq().unwrap().is_empty());

    // The slow ring captured both queries: each names its layer (the
    // three front-end stages and the size of the answer) next to its
    // profiled plan's per-step estimated-vs-actual rows.
    let entries = parsed["slow"]["entries"].as_seq().expect("slow entries");
    for (text, rows) in [
        (probe, 1),
        ("MATCH (a:Info)-[:links-to*]->(b:Info) RETURN a, b", 0),
    ] {
        let slow_query = entries
            .iter()
            .find(|e| e["kind"].as_str() == Some("query") && e["detail"].as_str() == Some(text))
            .unwrap_or_else(|| panic!("slow ring must hold {text}"));
        for stage in ["parse_ns", "compile_ns", "execute_ns"] {
            assert!(
                slow_query["stages"][stage].as_u64().is_some(),
                "{slow_query:?}"
            );
        }
        assert_eq!(slow_query["stages"]["rows"].as_u64(), Some(rows));
        let plan = &slow_query["plan"];
        assert!(plan["strategy"].as_str().is_some(), "plan: {plan:?}");
        let steps = plan["steps"].as_seq().expect("plan steps");
        assert!(!steps.is_empty());
        for step in steps {
            assert!(step["est_rows"].as_f64().is_some(), "step: {step:?}");
            assert!(
                step["actual_rows"].as_u64().is_some(),
                "profiled plan must carry actuals: {step:?}"
            );
        }
        // The logged plan is EXPLAIN's on the same snapshot: steps,
        // access paths, estimates and actuals.
        let _serial = MATCHER.lock().unwrap_or_else(PoisonError::into_inner);
        let epoch = slow_query["epoch"].as_u64().expect("epoch");
        let snapshot = net.server().snapshot_at(epoch).expect("retained");
        let query = good_query::parse_query(text).expect("parses");
        let compiled = good_query::compile(&query, snapshot.instance().scheme()).expect("compiles");
        let (scratch, derived, _) =
            good_query::exec::derive(snapshot.instance(), &compiled).expect("derives");
        let (pattern, nodes) = compiled.pattern(true);
        let explained =
            explain_plan_profiled(&pattern, View::new(&scratch, &derived)).expect("explains");
        let explained_json: serde_json::Value =
            serde_json::from_str(&explained.to_json()).expect("plan JSON");
        assert_eq!(*plan, explained_json, "{text}");
        let by_node: BTreeMap<_, _> = nodes.into_iter().map(|(var, node)| (node, var)).collect();
        let rendered = explained.render_with(|node| by_node.get(&node).cloned());
        let text_plan = good_query::explain(snapshot.instance(), text).expect("EXPLAIN");
        assert!(
            text_plan.ends_with(&rendered),
            "{text_plan}\n---\n{rendered}"
        );
    }

    client.goodbye().expect("goodbye");
    net.shutdown().expect("shutdown");
}

/// Slow commits land in the same ring, tagged with their wire trace id
/// and stage breakdown.
#[test]
fn slow_commits_are_captured_with_trace_and_stages() {
    let net = start_net(ServerConfig {
        slow_commit_ns: 0, // every commit is "slow"
        ..ServerConfig::default()
    });
    let mut client = Client::connect(net.local_addr()).expect("connect");
    let request = client
        .submit_traced(&labeled_program("Slow"), Some(777))
        .expect("submit");
    client.wait_ack(request).expect("ack");

    let stats = client.stats().expect("stats");
    let parsed: serde_json::Value = serde_json::from_str(&stats).expect("parseable");
    let entries = parsed["slow"]["entries"].as_seq().expect("entries");
    let commit = entries
        .iter()
        .find(|e| e["kind"].as_str() == Some("commit") && e["trace"].as_u64() == Some(777))
        .expect("slow commit with wire trace id");
    for stage in ["queue_wait_ns", "execute_ns", "publish_ns"] {
        assert!(
            commit["stages"][stage].as_u64().is_some(),
            "missing {stage}"
        );
    }
    assert!(commit["total_ns"].as_u64().unwrap() >= 1);
    assert!(commit["epoch"].as_u64().unwrap() >= 1);

    client.goodbye().expect("goodbye");
    net.shutdown().expect("shutdown");
}

/// A peer speaking a newer protocol version gets a clean, typed
/// `UnsupportedVersion` refusal naming both versions — then a Goodbye —
/// not a summary hangup.
#[test]
fn newer_version_hello_is_refused_with_typed_error_not_a_drop() {
    let net = start_net(ServerConfig::default());
    let stream = TcpStream::connect(net.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    // A Hello from the future: valid framing, version byte bumped.
    let mut hello = encode(&Frame::Hello { session: 0 });
    hello[4] = VERSION + 1;
    writer.write_all(&hello).expect("write");

    match read_frame(&mut reader).expect("typed reply, not a hangup") {
        Some(Frame::Err {
            code: ErrCode::UnsupportedVersion,
            detail,
            ..
        }) => {
            assert!(
                detail.contains(&format!("{}", VERSION + 1))
                    && detail.contains(&format!("{VERSION}")),
                "detail must name both versions: {detail}"
            );
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    assert!(matches!(
        read_frame(&mut reader).expect("read"),
        Some(Frame::Goodbye { .. })
    ));

    // And the decoder itself reports the mismatch as a typed pair.
    match good_server::proto::decode(&hello) {
        Err(ProtoError::Version { got, want }) => {
            assert_eq!((got, want), (VERSION + 1, VERSION));
        }
        other => panic!("expected ProtoError::Version, got {other:?}"),
    }

    net.shutdown().expect("shutdown");
}

/// Object keys of `value`, in document order.
fn keys(value: &serde_json::Value) -> Vec<&str> {
    let entries = value.as_map().expect("a JSON object");
    entries
        .iter()
        .map(|(key, _)| key.as_str().expect("string key"))
        .collect()
}

/// The golden for schema 1 of the stats document: its sections and
/// their fields, the metric names a fixed scripted exchange must
/// produce, the full catalogue a server process may produce, and the
/// histogram field names. Renaming or dropping any of them is a
/// `STATS_SCHEMA` bump, not a silent edit — `good-db top` and every
/// dashboard scraping `Stats` read these names.
#[test]
fn stats_document_schema_1_is_pinned() {
    // Present after the exchange below, whatever else this process ran.
    const REQUIRED_COUNTERS: &[&str] = &[
        "fixpoint.delta_edges",
        "fixpoint.rounds",
        "match.calls",
        "match.negation_filtered",
        "net/accepted",
        "net/acks",
        "net/frames/query",
        "net/frames/snapshot",
        "net/frames/stats",
        "net/frames/submit",
        "op.applied",
        "op.na.dedup_hits",
        "planner.expand",
        "server/committed",
        "server/enqueued",
        "server/sessions_opened",
    ];
    const REQUIRED_GAUGES: &[&str] = &[
        "net/connections",
        "net/inflight",
        "server/queue_depth",
        "server/sessions",
    ];
    const REQUIRED_HISTOGRAMS: &[&str] = &[
        "net/query_ns",
        "net/stats_ns",
        "server/batch_size",
        "server/commit_ns",
        "server/exec_ns",
        "server/publish_ns",
        "server/queue_wait_ns",
        "store/fsync_ns",
    ];
    // Every other name the workspace registers: touched only by other
    // paths (refusals, deletions, methods, tracing, profiled EXPLAIN).
    const OTHER_COUNTERS: &[&str] = &[
        "instance.edge_del.bulk_rebuild",
        "instance.edge_del.incremental",
        "instance.node_del.bulk_rebuild",
        "instance.node_del.incremental",
        "method.calls",
        "net/bad_frame",
        "net/frames/other",
        "net/quota_reject",
        "net/shed",
        "net/version_reject",
        "planner.wcoj",
        "server/queue_full",
        "server/rejected",
    ];
    const OTHER_HISTOGRAMS: &[&str] = &["match.find_ns", "match.plan.est_error_pct"];

    let net = start_net(ServerConfig::default());
    let mut client = Client::connect(net.local_addr()).expect("connect");
    client
        .submit_wait(&labeled_program("Pin1"))
        .expect("commit");
    client
        .query("MATCH (o:Pin1) RETURN o", None)
        .expect("probe query");
    client
        .query("MATCH (a:Info)-[:links-to*]->(b:Info) RETURN a, b", None)
        .expect("closure query");
    client.snapshot(None, false).expect("snapshot");
    client.stats().expect("first stats");
    let stats = client.stats().expect("second stats");
    client.goodbye().expect("goodbye");
    net.shutdown().expect("shutdown");

    assert!(stats.starts_with("{\"schema\":1,"), "{stats}");
    let doc: serde_json::Value = serde_json::from_str(&stats).expect("parseable stats");
    assert_eq!(
        keys(&doc),
        ["schema", "net", "server", "mvcc", "metrics", "slow"]
    );
    assert_eq!(
        doc["schema"].as_u64(),
        Some(u64::from(good_server::STATS_SCHEMA))
    );
    assert_eq!(
        keys(&doc["net"]),
        [
            "connections",
            "max_connections",
            "total_accepted",
            "session_inflight",
            "draining"
        ]
    );
    assert_eq!(
        keys(&doc["server"]),
        [
            "epoch",
            "queue_depth",
            "queue_capacity",
            "max_batch",
            "sessions",
            "draining",
            "failed"
        ]
    );
    assert_eq!(keys(&doc["mvcc"]), ["epoch", "retain_versions", "retained"]);
    assert_eq!(keys(&doc["slow"]), ["dropped", "entries"]);
    assert_eq!(keys(&doc["metrics"]), ["counters", "gauges", "histograms"]);

    let pinned = |section: &str, required: &[&str], other: &[&str]| {
        let present = keys(&doc["metrics"][section]);
        for name in required {
            assert!(
                present.contains(name),
                "{section}: {name} missing from {present:?}"
            );
        }
        for name in &present {
            assert!(
                required.contains(name) || other.contains(name),
                "{section}: {name} is not in the schema-1 catalogue"
            );
        }
    };
    pinned("counters", REQUIRED_COUNTERS, OTHER_COUNTERS);
    pinned("gauges", REQUIRED_GAUGES, &[]);
    pinned("histograms", REQUIRED_HISTOGRAMS, OTHER_HISTOGRAMS);
    for (name, histogram) in doc["metrics"]["histograms"].as_map().expect("histograms") {
        assert_eq!(
            keys(histogram),
            ["count", "sum", "max", "buckets"],
            "histogram {name:?}"
        );
    }
}

/// `match.find_ns` is observed whenever live metrics are on, recorder or
/// not: with none installed, a GOODQL query adds as many samples to it
/// as it adds matcher calls to `match.calls`.
#[test]
fn match_find_ns_counts_every_matcher_call_without_a_recorder() {
    let net = start_net(ServerConfig::default());
    let mut client = Client::connect(net.local_addr()).expect("connect");
    client
        .submit_wait(&labeled_program("Info"))
        .expect("commit");
    let counts = || {
        let metrics = good_trace::metrics_snapshot();
        let finds = metrics.histogram("match.find_ns").map_or(0, |h| h.count);
        (metrics.counter("match.calls").unwrap_or(0), finds)
    };
    // Other tests in this binary match (and record) concurrently: retry,
    // for up to a minute, until one query's window is ours alone.
    let started = std::time::Instant::now();
    let mut attempts = (0..).take_while(|_| started.elapsed() < Duration::from_secs(60));
    let quiet = attempts.any(|_| {
        let (calls, finds) = counts();
        let recorded = good_trace::enabled();
        let query = "MATCH (a:Info)-[:links-to*]->(b:Info) RETURN a, b";
        client.query(query, None).expect("query");
        let (calls_after, finds_after) = counts();
        assert!(calls_after > calls);
        !recorded && !good_trace::enabled() && calls_after - calls == finds_after - finds
    });
    assert!(quiet, "match.find_ns never kept pace with match.calls");
    client.goodbye().expect("goodbye");
    net.shutdown().expect("shutdown");
}

/// A query past `slow_query_ns` executes once: the same closure query
/// advances `fixpoint.rounds` and `match.calls` as far on a server that
/// logs every query as slow as on one at the default threshold.
#[test]
fn a_slow_query_executes_once() {
    let _serial = MATCHER.lock().unwrap_or_else(PoisonError::into_inner);
    // The matcher's counters, then every server's query frames, submit
    // frames and commits in this process.
    let names = [
        "fixpoint.rounds",
        "match.calls",
        "net/frames/query",
        "net/frames/submit",
        "server/committed",
    ];
    let counts = || {
        let metrics = good_trace::metrics_snapshot();
        names.map(|name| metrics.counter(name).unwrap_or(0))
    };
    let advance = |slow_query_ns| {
        let net = start_net(ServerConfig {
            slow_query_ns,
            ..ServerConfig::default()
        });
        let mut client = Client::connect(net.local_addr()).expect("connect");
        client
            .submit_wait(&labeled_program("Info"))
            .expect("commit");
        // Other tests in this binary serve requests concurrently: retry,
        // for up to a minute, until two windows in a row serve only this
        // query and advance the matcher's counters alike.
        let started = std::time::Instant::now();
        let mut attempts = (0..).take_while(|_| started.elapsed() < Duration::from_secs(60));
        let mut last = None;
        let quiet = attempts.any(|_| {
            let before = counts();
            let query = "MATCH (a:Info)-[:links-to*]->(b:Info) RETURN a, b";
            client.query(query, None).expect("query");
            let after = counts();
            let [rounds, calls, queries, submits, commits] =
                std::array::from_fn(|at| after[at] - before[at]);
            if (queries, submits, commits) != (1, 0, 0) {
                last = None;
                return false;
            }
            last.replace((rounds, calls)) == Some((rounds, calls))
        });
        assert!(quiet, "no quiet window at slow_query_ns = {slow_query_ns}");
        client.goodbye().expect("goodbye");
        net.shutdown().expect("shutdown");
        last.expect("measured")
    };
    let slow = advance(0);
    let fast = advance(ServerConfig::default().slow_query_ns);
    assert_eq!(slow, fast, "(fixpoint.rounds, match.calls) per query");
    assert!(fast.0 >= 1 && fast.1 >= 1, "{fast:?}");
}
