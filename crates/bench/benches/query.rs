//! E20 — GOODQL query throughput: the text front end end to end
//! (EXPERIMENTS.md §E20).
//!
//! Three query shapes over the deterministic `instance_of` workloads:
//!
//! * **filter** — a two-hop predicate query (name lookup joined
//!   through `links-to`), the point-ish shape interactive sessions
//!   run, at 400 Infos.
//! * **join** — the `e2e` benchmark's `join` query: a date-filtered
//!   two-hop `links-to` join returning hundreds of rows, where the
//!   matcher's row emission and the id-level projection do the work,
//!   at 1600 Infos.
//! * **closure** — a transitive-closure property path
//!   (`-[:links-to*]->`), the shape that exercises the starred
//!   edge-addition fixpoint, at 100 Infos.
//!
//! Each shape runs on all three execution lanes (core pattern matcher,
//! relational encoding, Tarski algebra), plus one lane measuring
//! parse + compile alone — the front-end overhead a cached program
//! would save.
//!
//! Prints criterion-style lines and emits machine-readable results to
//! `BENCH_query.json` in the workspace root. Doubles as the CI query
//! smoke: `--check <baseline.json>` re-measures the core-lane and
//! compile medians and fails on regression past the tolerance, and
//! fails if the closure's core lane takes more than twice its
//! relational lane in that same run; the three lanes are also asserted
//! row-identical on every shape before anything is timed.

use good_bench::instance_of;
use good_core::instance::Instance;
use good_query::{compile, parse_query, Backend};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

const SAMPLES: usize = 7;
const TARGET_SAMPLE_NANOS: u128 = 40_000_000; // ~40ms per sample
                                              // Full query execution medians are noisier than the pure matcher
                                              // medians E18 gates (three lanes, allocation-heavy materialization),
                                              // so the tolerance is wider and the floor higher.
const CHECK_TOLERANCE: f64 = 1.25;
const CHECK_SLACK_NANOS: u128 = 20_000;
/// Ceiling on `closure@100/core` over `closure@100/relational`, both
/// measured in the checking run (ROADMAP's semi-naive target).
const CLOSURE_CORE_OVER_RELATIONAL: f64 = 2.0;

const FILTER_QUERY: &str = "MATCH (a:Info)-[:links-to]->(b:Info), \
                            (b)-[:name]->(n:String) \
                            WHERE n STARTS WITH \"info-1\" RETURN a, n";
const JOIN_QUERY: &str = "MATCH (a:Info)-[:created]->(d:Date), (a)-[:links-to]->(b:Info), \
                          (b)-[:links-to]->(c:Info) \
                          WHERE d = date(1990-01-03) RETURN a, c";
const CLOSURE_QUERY: &str = "MATCH (a:Info)-[:links-to*]->(b:Info) RETURN DISTINCT a, b";

struct Measurement {
    name: String,
    ns: u128,
    rows: usize,
}

fn format_nanos(nanos: u128) -> String {
    let nanos = nanos as f64;
    if nanos < 1_000.0 {
        format!("{nanos:.2} ns")
    } else if nanos < 1_000_000.0 {
        format!("{:.2} µs", nanos / 1_000.0)
    } else if nanos < 1_000_000_000.0 {
        format!("{:.2} ms", nanos / 1_000_000.0)
    } else {
        format!("{:.2} s", nanos / 1_000_000_000.0)
    }
}

/// Median per-iteration time of `routine` over `SAMPLES` samples, each
/// sized to roughly `TARGET_SAMPLE_NANOS`.
fn measure(mut routine: impl FnMut()) -> u128 {
    let start = Instant::now();
    routine();
    let once = start.elapsed().as_nanos().max(1);
    let iterations = (TARGET_SAMPLE_NANOS / once).clamp(1, 10_000);
    let mut samples: Vec<u128> = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let start = Instant::now();
        for _ in 0..iterations {
            routine();
        }
        samples.push(start.elapsed().as_nanos() / iterations);
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn workspace_path(file: &str) -> PathBuf {
    let mut path = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.pop(); // crates/
    path.pop(); // workspace root
    path.push(file);
    path
}

fn json_num_field(line: &str, key: &str) -> Option<u128> {
    let start = line.find(key)? + key.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Extract `(name, ns)` pairs from a previously emitted
/// `BENCH_query.json` (flat hand-formatted JSON, one result per line —
/// no parser dependency needed).
fn parse_baseline(text: &str) -> Vec<(String, u128)> {
    text.lines()
        .filter_map(|line| {
            let start = line.find("\"name\": \"")? + "\"name\": \"".len();
            let end = start + line[start..].find('"')?;
            let ns = json_num_field(line, "\"ns\": ")?;
            Some((line[start..end].to_string(), ns))
        })
        .collect()
}

/// Measure one query shape on all three lanes (after asserting they
/// agree), tagging results `{shape}@{infos}/{lane}`.
fn measure_shape(db: &Instance, shape: &str, infos: usize, text: &str) -> Vec<Measurement> {
    let rows_by_lane: Vec<usize> = Backend::ALL
        .iter()
        .map(|&backend| {
            good_query::run(db, text, backend)
                .unwrap_or_else(|err| panic!("{shape}/{}: {err}", backend.name()))
                .rows
                .len()
        })
        .collect();
    assert!(
        rows_by_lane.windows(2).all(|pair| pair[0] == pair[1]),
        "{shape}: lanes disagree on row count: {rows_by_lane:?}"
    );
    Backend::ALL
        .iter()
        .map(|&backend| {
            let ns = measure(|| {
                good_query::run(db, text, backend).expect("query");
            });
            Measurement {
                name: format!("{shape}@{infos}/{}", backend.name()),
                ns,
                rows: rows_by_lane[0],
            }
        })
        .collect()
}

fn measure_all() -> Vec<Measurement> {
    let filter_db = instance_of(400);
    let join_db = instance_of(1600);
    let closure_db = instance_of(100);

    // Front-end overhead: parse + compile, no execution.
    let compile_ns = measure(|| {
        let query = parse_query(FILTER_QUERY).expect("parse");
        compile(&query, filter_db.scheme()).expect("compile");
    });
    let mut measurements = vec![Measurement {
        name: "compile/filter".into(),
        ns: compile_ns,
        rows: 0,
    }];
    measurements.extend(measure_shape(&filter_db, "filter", 400, FILTER_QUERY));
    measurements.extend(measure_shape(&join_db, "join", 1600, JOIN_QUERY));
    measurements.extend(measure_shape(&closure_db, "closure", 100, CLOSURE_QUERY));
    measurements
}

/// CI smoke: re-measure the compile and core-lane medians, fail past
/// tolerance against the recorded baseline.
fn run_check(baseline_arg: &str) -> ! {
    let path = if std::path::Path::new(baseline_arg).is_absolute() {
        PathBuf::from(baseline_arg)
    } else {
        workspace_path(baseline_arg)
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("cannot read baseline {}: {err}", path.display());
            std::process::exit(1);
        }
    };
    let baseline = parse_baseline(&text);
    if baseline.is_empty() {
        eprintln!("no results found in baseline {}", path.display());
        std::process::exit(1);
    }
    println!("E20 query smoke — medians vs {}", path.display());

    // Only the deterministic-cost lanes gate CI (the relational and
    // Tarski lanes are reference implementations, tracked but not
    // gated).
    let gated = [
        "compile/filter",
        "filter@400/core",
        "join@1600/core",
        "closure@100/core",
    ];
    let current = measure_all();
    let mut failed = false;
    for m in current.iter().filter(|m| gated.contains(&m.name.as_str())) {
        match baseline.iter().find(|(name, _)| *name == m.name) {
            Some((_, base_ns)) => {
                let ratio = m.ns as f64 / *base_ns as f64;
                let allowed = (*base_ns as f64 * CHECK_TOLERANCE) as u128 + CHECK_SLACK_NANOS;
                let verdict = if m.ns > allowed {
                    failed = true;
                    "REGRESSED"
                } else {
                    "ok"
                };
                println!(
                    "{:<22} {:>12}  baseline {:>12}  ratio {ratio:.3}  {verdict}",
                    m.name,
                    format_nanos(m.ns),
                    format_nanos(*base_ns),
                );
            }
            None => {
                failed = true;
                println!("{:<22} missing from baseline", m.name);
            }
        }
    }
    // The semi-naive fixpoint's standing gate, fresh against fresh: the
    // core lane's starred edge addition must stay within 2x of the
    // relational lane's BFS on the same closure, measured in this run.
    let ns_of = |name: &str| {
        let found = current.iter().find(|m| m.name == name);
        found.unwrap_or_else(|| panic!("{name} not measured")).ns
    };
    let (core, relational) = (ns_of("closure@100/core"), ns_of("closure@100/relational"));
    let ratio = core as f64 / relational as f64;
    let verdict = if ratio > CLOSURE_CORE_OVER_RELATIONAL {
        failed = true;
        "TOO SLOW"
    } else {
        "ok"
    };
    println!(
        "closure@100 core/relational {ratio:.2}  (limit {CLOSURE_CORE_OVER_RELATIONAL:.1})  {verdict}"
    );
    if failed {
        eprintln!(
            "query medians regressed more than 25% vs baseline, or the closure core lane \
             fell behind 2x the relational lane"
        );
        std::process::exit(1);
    }
    println!("query medians within tolerance of baseline");
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(position) = args.iter().position(|a| a == "--check") {
        let Some(baseline) = args.get(position + 1) else {
            eprintln!("error: --check requires a baseline path");
            std::process::exit(1);
        };
        run_check(baseline);
    }

    println!("E20 GOODQL query throughput — three lanes, text to rows");
    let measurements = measure_all();
    for m in &measurements {
        println!(
            "E20-query/{:<20} [median {:>12}]  ({} rows)",
            m.name,
            format_nanos(m.ns),
            m.rows,
        );
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"E20-query\",");
    json.push_str("  \"results\": [\n");
    for (index, m) in measurements.iter().enumerate() {
        let comma = if index + 1 == measurements.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"ns\": {}, \"rows\": {}}}{comma}",
            m.name, m.ns, m.rows
        );
    }
    json.push_str("  ]\n}\n");

    let path = workspace_path("BENCH_query.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(err) => eprintln!("could not write {}: {err}", path.display()),
    }
}
