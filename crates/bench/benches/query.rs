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
//! relational encoding, Tarski algebra), asserted row-identical before
//! anything is timed, plus one lane measuring parse + compile alone —
//! the front-end overhead a cached program would save.

use good_bench::harness::{Bench, Bound, Gate};
use good_bench::instance_of;
use good_core::instance::Instance;
use good_query::{compile, parse_query, Backend};

const FILTER_QUERY: &str = "MATCH (a:Info)-[:links-to]->(b:Info), \
                            (b)-[:name]->(n:String) \
                            WHERE n STARTS WITH \"info-1\" RETURN a, n";
const JOIN_QUERY: &str = "MATCH (a:Info)-[:created]->(d:Date), (a)-[:links-to]->(b:Info), \
                          (b)-[:links-to]->(c:Info) \
                          WHERE d = date(1990-01-03) RETURN a, c";
const CLOSURE_QUERY: &str = "MATCH (a:Info)-[:links-to*]->(b:Info) RETURN DISTINCT a, b";

// Only the deterministic-cost lanes gate CI (the relational and Tarski
// lanes are reference implementations, tracked but not gated). Full
// query execution medians are noisier than the pure matcher medians
// E18 gates (allocation-heavy materialization), so the tolerance is
// wider and the floor higher.
const GATES: &[Gate] = &[
    Gate::vs_baseline("compile/filter", 1.25, 20_000.0),
    Gate::vs_baseline("filter@400/core", 1.25, 20_000.0),
    Gate::vs_baseline("join@1600/core", 1.25, 20_000.0),
    Gate::vs_baseline("closure@100/core", 1.25, 20_000.0),
    // The semi-naive fixpoint's standing gate, fresh against fresh: the
    // core lane's starred edge addition must stay within 2x of the
    // relational lane's BFS on the same closure.
    Gate::same_run(
        "closure@100/core",
        "closure@100/relational",
        Bound::AtMost(2.0),
    ),
];

/// Measure one query shape on all three lanes (after asserting they
/// agree), as the cases `{shape}/{lane}`.
fn time_shape(bench: &mut Bench, db: &Instance, shape: &str, text: &str) {
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
    for backend in Backend::ALL {
        bench
            .time(&format!("{shape}/{}", backend.name()), || {
                good_query::run(db, text, backend).expect("query")
            })
            .note("rows", rows_by_lane[0] as f64);
    }
}

fn main() {
    Bench::run("query", GATES, |bench| {
        let filter_db = instance_of(400);
        // Front-end overhead: parse + compile, no execution.
        bench.time("compile/filter", || {
            let query = parse_query(FILTER_QUERY).expect("parse");
            compile(&query, filter_db.scheme()).expect("compile")
        });
        time_shape(bench, &filter_db, "filter@400", FILTER_QUERY);
        time_shape(bench, &instance_of(1600), "join@1600", JOIN_QUERY);
        time_shape(bench, &instance_of(100), "closure@100", CLOSURE_QUERY);
    });
}
