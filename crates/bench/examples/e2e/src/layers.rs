//! The traced run: a seeded sample of the workload's requests replayed
//! **in process** through each layer's public functions, with this
//! file's own span recorder around every call. Nothing inside the
//! program is instrumented; the spans live in memory and are written
//! to `<dir>/<workload>.trace.json` when the run ends.

use crate::gen::{link, link_pairs, named_info, query_ops, unlink, QueryOp, Seeded, DATES};
use crate::report::Metric;
use crate::rig::{server_config, set_up, write_seed_journal, CountingVfs, Rig, VfsCounters};
use crate::run::{Measured, Spec};
use crate::stats::{fastest, median, percentile, quiet};
use good_core::instance::Instance;
use good_core::label::Label;
use good_core::matching::{find_matchings, find_matchings_with, MatchConfig};
use good_core::ops::NodeAddition;
use good_core::pattern::Pattern;
use good_core::planner::plan;
use good_core::program::{Env, Operation, Program};
use good_core::snapshot::SnapshotCell;
use good_core::value::Value;
use good_query::compile::Step;
use good_query::{compile, execute, parse_query, Backend, CompiledQuery};
use good_server::proto::{self, Frame};
use good_server::Server;
use good_store::vfs::{FaultPlan, FaultVfs, Vfs};
use good_store::Store;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One recorded span.
struct SpanRecord {
    name: &'static str,
    request: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// The benchmark's span recorder: name, start, end, the span that
/// caused it, and the request all of a request's spans share.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
    request: u64,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `body` inside a span named `name`, child of the span open
    /// at the time. The clock is read immediately around `body`.
    fn span<T>(&mut self, name: &'static str, body: impl FnOnce(&mut Recorder) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(SpanRecord {
            name,
            request: self.request,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(index);
        let start_ns = self.now_ns();
        let out = body(self);
        let end_ns = self.now_ns();
        self.open.pop();
        self.spans[index].start_ns = start_ns;
        self.spans[index].end_ns = end_ns;
        out
    }

    /// A span around a call that opens no spans of its own.
    fn call<T>(&mut self, name: &'static str, body: impl FnOnce() -> T) -> T {
        self.span(name, |_| body())
    }

    /// Self time (µs) of every span, by name: its duration minus the
    /// part its child spans cover.
    fn self_times_us(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            by_name.entry(span.name).or_default().push(own as f64 / 1e3);
        }
        by_name
    }

    fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {index}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}{}",
                span.name,
                span.request,
                span.start_ns,
                span.end_ns,
                if index + 1 == self.spans.len() {
                    ""
                } else {
                    ","
                }
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// The path-derivation half of `good_query::execute`, through the same
/// public calls: scratch clone, derived labels, edge-addition program.
fn derive(db: &Instance, compiled: &CompiledQuery) -> Instance {
    let mut scratch = db.clone();
    for (class, label) in compiled.derived_triples() {
        scratch
            .extend_multivalued(class.clone(), label, class)
            .expect("derived label registers");
    }
    let mut env = Env::new();
    for step in compiled.core_steps() {
        match step {
            Step::Op(op) => op.apply(&mut scratch, &mut env),
            Step::Star(star) => star.apply(&mut scratch, &mut env),
        }
        .expect("derivation applies");
    }
    scratch
}

/// Counts a query replay reports beside its spans.
#[derive(Default)]
struct QueryFacts {
    rows: Vec<f64>,
    matchings: Vec<f64>,
    rows_bytes: Vec<f64>,
}

fn replay_query(rec: &mut Recorder, db: &Instance, text: &str, facts: &mut QueryFacts) {
    let request = rec.request;
    let compiled = rec.span("request", |rec| {
        let frame = Frame::Query {
            request,
            at: None,
            pattern: text.to_string(),
            trace: None,
        };
        let bytes = rec.call("server.proto/encode_query", || proto::encode(&frame));
        black_box(rec.call("server.proto/decode_query", || proto::decode(&bytes)))
            .expect("decodes");
        let query = rec
            .call("query.parser/parse", || parse_query(text))
            .expect("parses");
        let compiled = rec
            .call("query.compile/compile", || compile(&query, db.scheme()))
            .expect("compiles");
        let output = rec
            .call("query.exec/execute", || {
                execute(db, &compiled, Backend::Core)
            })
            .expect("executes");
        facts.rows.push(output.rows.len() as f64);
        let reply = Frame::Rows {
            request,
            epoch: 0,
            columns: output.columns,
            rows: output.rows,
        };
        let bytes = rec.call("server.proto/encode_rows", || proto::encode(&reply));
        facts.rows_bytes.push(bytes.len() as f64);
        black_box(rec.call("server.proto/decode_rows", || proto::decode(&bytes))).expect("decodes");
        compiled
    });
    // `execute` taken apart: the same public calls it makes, timed one
    // by one (spans inside the program are a later change).
    rec.span("request.decomposed", |rec| {
        let scratch = rec.call("query.exec/derive", || derive(db, &compiled));
        let (pattern, _) = compiled.pattern(true);
        black_box(rec.call("core.planner/plan", || plan(&pattern, &scratch)));
        let matchings = rec
            .call("core.matching/find", || {
                find_matchings_with(&pattern, &scratch, MatchConfig::default())
            })
            .expect("matches");
        facts.matchings.push(matchings.len() as f64);
    });
}

fn replay_commit(
    rec: &mut Recorder,
    db: &Instance,
    cell: &SnapshotCell,
    program: &Program,
    bytes_out: &mut Vec<f64>,
) {
    let request = rec.request;
    rec.span("commit", |rec| {
        let bytes = rec.call("server.proto/encode_submit", || {
            proto::encode_submit(request, program, None)
        });
        bytes_out.push(bytes.len() as f64);
        black_box(rec.call("server.proto/decode_submit", || proto::decode(&bytes)))
            .expect("decodes");
        let pattern = program.ops()[0].pattern();
        black_box(rec.call("core.matching/anchor_find", || find_matchings(pattern, db)))
            .expect("matches");
        let mut next = db.clone();
        let mut env = Env::new();
        rec.call("core.ops/link_apply", || program.apply(&mut next, &mut env))
            .expect("applies");
        let next = Arc::new(next);
        rec.call("core.snapshot/publish", || cell.publish_arc(next));
    });
}

/// An anchored `NodeAddition` (`Tag -of-> Info` for one named `Info`)
/// timed against an existing population of `Tag`s: one per `Info`
/// created on the first date, or one per `Info` when `every_date`. The
/// named `Info` already has its `Tag`, so the timed operation does all
/// of the addition's duplicate search and the instance does not grow.
fn node_add_samples(
    rec: &mut Recorder,
    name: &'static str,
    seeded: &Seeded,
    every_date: bool,
    keys: &[usize],
) {
    let tag_of = |pattern: Pattern, info| {
        Program::from_ops([Operation::NodeAdd(NodeAddition::new(
            pattern,
            "Tag",
            [(Label::new("of"), info)],
        ))])
    };
    let mut db = seeded.instance.clone();
    let mut env = Env::new();
    let mut populate = Pattern::new();
    let info = populate.node("Info");
    if !every_date {
        let date = populate.printable("Date", Value::date(1990, 1, 1));
        populate.edge(info, "created", date);
    }
    tag_of(populate, info)
        .apply(&mut db, &mut env)
        .expect("population applies");
    for &k in keys {
        // Objects created on the first date have a Tag in both populations.
        let mut pattern = Pattern::new();
        let info = named_info(&mut pattern, k / DATES * DATES);
        let program = tag_of(pattern, info);
        let mut next = db.clone();
        rec.request += 1;
        let report = rec
            .call(name, || program.apply(&mut next, &mut env))
            .expect("node addition applies");
        assert!(report.created_nodes.is_empty(), "the Tag already exists");
    }
}

/// Layer metrics read straight off the recorder: metric name, span
/// name, unit, and the factor from µs to that unit.
const LAYER_METRICS: [(&str, &str, &str, f64); 20] = [
    (
        "proto.encode_query_ns",
        "server.proto/encode_query",
        "ns",
        1e3,
    ),
    (
        "proto.decode_query_ns",
        "server.proto/decode_query",
        "ns",
        1e3,
    ),
    (
        "proto.encode_rows_us",
        "server.proto/encode_rows",
        "us",
        1.0,
    ),
    (
        "proto.decode_rows_us",
        "server.proto/decode_rows",
        "us",
        1.0,
    ),
    (
        "proto.encode_submit_us",
        "server.proto/encode_submit",
        "us",
        1.0,
    ),
    (
        "proto.decode_submit_us",
        "server.proto/decode_submit",
        "us",
        1.0,
    ),
    ("parser.parse_us", "query.parser/parse", "us", 1.0),
    ("compile.compile_us", "query.compile/compile", "us", 1.0),
    ("planner.plan_us", "core.planner/plan", "us", 1.0),
    ("matching.find_us", "core.matching/find", "us", 1.0),
    (
        "matching.anchor_find_us",
        "core.matching/anchor_find",
        "us",
        1.0,
    ),
    ("exec.execute_us", "query.exec/execute", "us", 1.0),
    ("exec.derive_us", "query.exec/derive", "us", 1.0),
    ("ops.link_apply_us", "core.ops/link_apply", "us", 1.0),
    ("ops.node_add_us_few", "core.ops/node_add_few", "us", 1.0),
    ("ops.node_add_us_many", "core.ops/node_add_many", "us", 1.0),
    ("snapshot.publish_ns", "core.snapshot/publish", "ns", 1e3),
    ("server.submit_wait_us", "server/submit_wait", "us", 1.0),
    ("store.execute_us", "store/execute", "us", 1.0),
    (
        "store.group32_us_per_program",
        "store/execute_group32",
        "us",
        1.0 / 32.0,
    ),
];

/// The in-process spans one query round trip passes through.
const ROUND_TRIP_SPANS: [&str; 7] = [
    "server.proto/encode_query",
    "server.proto/decode_query",
    "query.parser/parse",
    "query.compile/compile",
    "query.exec/execute",
    "server.proto/encode_rows",
    "server.proto/decode_rows",
];

/// Everything the traced run adds to the short untraced run it
/// follows: layer medians from the replay, plus the loopback
/// measurements that need a live server.
pub fn trace(
    spec: &Spec,
    seed: u64,
    dir: &Path,
    scale: f64,
    e2e: &Measured,
    trace_file: &Path,
) -> io::Result<Vec<Metric>> {
    let mut rec = Recorder::new();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7472_6163_6564);
    // The replayed sample: as many queries and commits as fifteen blocks
    // of the loopback run hold, and one sync block of node additions.
    let scaled = |n: usize| ((n as f64 * scale).round() as usize).max(2);
    let query_count = scaled(spec.query_block * 15);
    let commit_count = scaled(spec.sync_block * 15);
    let node_add_count = scaled(spec.sync_block).min(commit_count);

    // ---- live server: snapshot round trip, collector on/off ---------------
    let mut rig = set_up(dir, spec.shape, seed)?;
    let query_sample = query_ops(spec.query, spec.shape.infos(), query_count, &mut rng);
    let snapshot_rtt_us: Vec<f64> = (0..scaled(200))
        .map(|_| {
            let started = Instant::now();
            black_box(rig.client.snapshot(None, false)).expect("snapshot round trip");
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let overhead_pct = collector_overhead_pct(&mut rig, &query_sample)?;
    let (seeded, _) = rig.shut_down()?;
    std::fs::remove_file(dir.join("db.journal"))?;
    let db = &seeded.instance;

    // ---- query path, in process ------------------------------------------
    let mut facts = QueryFacts::default();
    for op in &query_sample {
        rec.request += 1;
        replay_query(&mut rec, db, &op.text, &mut facts);
    }

    // ---- commit path, in process -----------------------------------------
    let pairs = link_pairs(&seeded, commit_count, &mut rng);
    let cell = SnapshotCell::new(db.clone());
    let mut submit_bytes = Vec::new();
    for &(i, j) in &pairs {
        rec.request += 1;
        replay_commit(&mut rec, db, &cell, &link(i, j), &mut submit_bytes);
    }
    let keys: Vec<usize> = pairs.iter().map(|&(i, _)| i).collect();
    let keys = &keys[..node_add_count];
    node_add_samples(&mut rec, "core.ops/node_add_few", &seeded, false, keys);
    node_add_samples(&mut rec, "core.ops/node_add_many", &seeded, true, keys);

    // ---- server and store, in process, no TCP ----------------------------
    let programs: Vec<Program> = pairs
        .iter()
        .flat_map(|&(i, j)| [link(i, j), unlink(i, j)])
        .collect();
    {
        // No disk either: the commit queue and writer thread alone.
        let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::new(FaultPlan::reliable(seed)));
        let journal = Path::new("/e2e/db.journal");
        write_seed_journal(vfs.as_ref(), journal, &seeded)?;
        let store = Store::open_with_vfs(vfs, journal).map_err(io::Error::other)?;
        let server = Server::start(store, server_config());
        let session = server.open_session();
        for program in &programs {
            rec.request += 1;
            let ack = rec
                .call("server/submit_wait", || {
                    server.submit_wait(session, program.clone())
                })
                .map_err(io::Error::other)?;
            ack.outcome.map_err(io::Error::other)?;
        }
        server.shutdown().map_err(io::Error::other)?;
    }
    let fsync_us = {
        // Real files: `Store::execute` (one fsync each) and
        // `Store::execute_group` of 32 (one fsync per group).
        let counters = Arc::new(VfsCounters::default());
        counters.time_fsyncs();
        let vfs: Arc<dyn Vfs> = Arc::new(CountingVfs {
            counters: Arc::clone(&counters),
        });
        let journal = dir.join("layers.journal");
        write_seed_journal(vfs.as_ref(), &journal, &seeded)?;
        let mut store = Store::open_with_vfs(vfs, &journal).map_err(io::Error::other)?;
        counters.take_fsync_ns();
        for program in &programs {
            rec.request += 1;
            rec.call("store/execute", || store.execute(program))
                .map_err(io::Error::other)?;
        }
        for group in programs.chunks_exact(32) {
            rec.request += 1;
            rec.call("store/execute_group32", || store.execute_group(group))
                .map_err(io::Error::other)?;
        }
        drop(store);
        std::fs::remove_file(&journal)?;
        counters
            .take_fsync_ns()
            .into_iter()
            .chain(e2e.fsync_ns.iter().copied())
            .map(|ns| ns as f64 / 1e3)
            .collect::<Vec<f64>>()
    };

    std::fs::write(trace_file, rec.to_json(spec.name, seed))?;

    // ---- metrics -----------------------------------------------------------
    let self_us = rec.self_times_us();
    let samples_of = |span: &str| self_us.get(span).map_or(&[][..], Vec::as_slice);
    // A layer's median self time in µs (0 for a layer nothing exercised).
    let layer_us = |span: &str| match samples_of(span) {
        [] => 0.0,
        samples => median(samples),
    };
    let mut metrics: Vec<Metric> = LAYER_METRICS
        .iter()
        .map(|&(name, span, unit, per_us)| {
            let mut metric = Metric::of_samples(name, unit, samples_of(span));
            metric.value *= per_us;
            metric
        })
        .collect();

    let single = Metric::single;
    let of_samples = Metric::of_samples;
    let execute_us = layer_us("query.exec/execute");
    metrics.push(single(
        "exec.nonmatch_us",
        "us",
        (execute_us - layer_us("query.exec/derive") - layer_us("core.matching/find")).max(0.0),
    ));
    metrics.push(of_samples("exec.rows", "count", &facts.rows));
    metrics.push(of_samples("matching.rows", "count", &facts.matchings));
    metrics.push(of_samples("proto.rows_bytes", "B", &facts.rows_bytes));
    metrics.push(of_samples("proto.submit_bytes", "B", &submit_bytes));
    metrics.push(of_samples("net.snapshot_rtt_us", "us", &snapshot_rtt_us));

    // The in-process layers one query round trip passes through; what
    // the loopback round trip costs beyond them is the residual (TCP,
    // syscalls, thread wake-ups, snapshot load).
    // Like against like: the layer figures are medians over every
    // replayed sample, so the round trip they are subtracted from is
    // the median over every loopback sample, not the quietest tenth.
    let query_p50_us = median(&e2e.queries.latencies());
    let in_process: f64 = ROUND_TRIP_SPANS.iter().map(|span| layer_us(span)).sum();
    metrics.push(single("net.residual_us", "us", query_p50_us - in_process));
    metrics.push(single(
        "layers.sum_over_e2e",
        "ratio",
        in_process / query_p50_us,
    ));
    metrics.push(single("trace.collector_overhead_pct", "%", overhead_pct));

    // Store and filesystem, from the short loopback run.
    let commits = e2e.acked_commits.max(1) as f64;
    let recovery_s = fastest(&e2e.recovery_secs);
    metrics.push(single("store.open_seed_s", "s", e2e.open_seed_s));
    metrics.push(single(
        "store.replay_us_per_record",
        "us",
        (recovery_s - e2e.open_seed_s).max(0.0) * 1e6 / (e2e.journal_records.max(2) - 1) as f64,
    ));
    metrics.push(of_samples("vfs.fsync_us", "us", &fsync_us));
    metrics.push(single(
        "vfs.fsyncs_per_commit",
        "ratio",
        e2e.vfs.fsyncs as f64 / commits,
    ));
    metrics.push(single(
        "vfs.appends_per_commit",
        "ratio",
        e2e.vfs.appends as f64 / commits,
    ));
    metrics.push(single(
        "vfs.bytes_per_commit",
        "B",
        e2e.vfs.bytes as f64 / commits,
    ));

    // The client's view of the short loopback run.
    let query_lat = e2e.queries.latencies();
    let commit_lat = e2e.sync.latencies();
    metrics.push(single(
        "client.query_p99_us",
        "us",
        percentile(&query_lat, 0.99),
    ));
    // One commit per fsync: two thirds of this is the host's disk,
    // which drifts by a fifth from minute to minute here, so the sync
    // commit's latency is reported but not bounded.
    metrics.push(single(
        "client.commit_p50_us",
        "us",
        quiet(&e2e.sync.block_p50s(), false),
    ));
    metrics.push(single(
        "client.commit_p99_us",
        "us",
        percentile(&commit_lat, 0.99),
    ));
    for metric in crate::report::end_to_end(e2e) {
        if ["queries_per_s", "query_p50_us", "commits_per_s"].contains(&metric.name.as_str()) {
            metrics.push(single(
                &format!("spread.{}_pct", metric.name),
                "%",
                metric.spread_pct,
            ));
        }
    }
    metrics.push(single("instance.nodes", "count", e2e.instance.0 as f64));
    metrics.push(single("instance.edges", "count", e2e.instance.1 as f64));
    metrics.push(single("instance.approx_bytes", "B", e2e.instance.2 as f64));
    Ok(metrics)
}

/// Loopback query latency with a `good_trace::Collector` installed
/// against none, in alternating blocks: the cost of the program's own
/// span machinery on this workload's query, percent of the untraced
/// latency (both read from the quietest tenth of their blocks).
fn collector_overhead_pct(rig: &mut Rig, sample: &[QueryOp]) -> io::Result<f64> {
    let block = (sample.len() / 40).max(1);
    let mut block_p50s = [Vec::new(), Vec::new()];
    for (index, ops) in sample.chunks(block).enumerate() {
        let traced = index % 2;
        if traced == 1 {
            good_trace::install(Arc::new(good_trace::Collector::new()));
        }
        let latencies: Result<Vec<f64>, _> = ops
            .iter()
            .map(|op| {
                let started = Instant::now();
                let reply = rig.client.query(&op.text, None);
                reply.map(|_| started.elapsed().as_secs_f64() * 1e6)
            })
            .collect();
        good_trace::uninstall();
        block_p50s[traced].push(median(&latencies.map_err(io::Error::other)?));
    }
    let [off, on] = block_p50s;
    if on.is_empty() {
        return Ok(0.0);
    }
    let (off, on) = (quiet(&off, false), quiet(&on, false));
    Ok((on - off) / off * 100.0)
}
