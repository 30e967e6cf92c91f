//! E18 — cost-based planner: binary materializing join vs the
//! worst-case-optimal generic join on cyclic patterns
//! (EXPERIMENTS.md §E18).
//!
//! Three lanes on a triangle query over the hub-and-spoke instance
//! (see `good_bench::hub_instance` — the shape where edge-at-a-time
//! joins materialize ~half a million open wedges that the closing
//! edge then discards):
//!
//! * **binary** — `find_matchings_binary`: materializing edge-at-a-
//!   time join, the textbook baseline the planner must beat.
//! * **wcoj** — `find_match_table(.., PlanShape::GenericJoin)`: generic
//!   join, per-variable sorted-intersection of candidate sets.
//! * **auto** — `find_matchings`: the cost-based planner's own pick
//!   (it must route this pattern to the generic join).
//!
//! Plus planned medians for the acyclic regression canaries (chain-3
//! and the Figure-4 anchored pattern at 1 600 Infos) to catch planner
//! overhead creeping into point-ish queries.

use good_bench::harness::{Bench, Bound, Gate};
use good_bench::{anchored_pattern, chain_pattern, hub_instance, instance_of, triangle_pattern};
use good_core::prelude::*;

const SPOKES: usize = 2_400;
const HUBS: usize = 6;

// Planned medians within 10% of the baseline; acyclic ones sit in the
// tens of µs, so a 2µs floor absorbs timer granularity without hiding a
// real regression.
const GATES: &[Gate] = &[
    Gate::vs_baseline("triangle-hub/wcoj", 1.10, 2_000.0),
    Gate::vs_baseline("triangle-hub/auto", 1.10, 2_000.0),
    Gate::vs_baseline("chain-3@1600/auto", 1.10, 2_000.0),
    Gate::vs_baseline("anchored@1600/auto", 1.10, 2_000.0),
    // The acceptance bar: the generic join must beat the materializing
    // binary join by at least this factor on the hub triangle.
    Gate::same_run(
        "triangle-hub/binary",
        "triangle-hub/wcoj",
        Bound::AtLeast(10.0),
    ),
];

fn main() {
    Bench::run("planner", GATES, |bench| {
        let db = hub_instance(SPOKES, HUBS);
        let (triangle, _) = triangle_pattern();
        let choice = plan(&triangle, &db);
        assert!(
            matches!(choice.strategy, JoinStrategy::GenericJoin),
            "planner must route the hub triangle to the generic join, picked {}",
            choice.strategy.name()
        );
        let binary_rows = find_matchings_binary(&triangle, &db).expect("binary");
        let wcoj = || find_match_table(&triangle, &db, PlanShape::GenericJoin).expect("wcoj");
        let wcoj_rows = wcoj().into_matchings();
        let auto_rows = find_matchings(&triangle, &db).expect("auto");
        assert_eq!(binary_rows, wcoj_rows, "engines disagree on the triangle");
        assert_eq!(binary_rows, auto_rows, "engines disagree on the triangle");
        let matchings = binary_rows.len() as f64;
        bench
            .time("triangle-hub/binary", || {
                find_matchings_binary(&triangle, &db).expect("binary")
            })
            .note("matchings", matchings);
        bench
            .time("triangle-hub/wcoj", || wcoj().into_matchings())
            .note("matchings", matchings);
        bench
            .time("triangle-hub/auto", || {
                find_matchings(&triangle, &db).expect("auto")
            })
            .note("matchings", matchings);

        let db = instance_of(1_600);
        let canaries = [
            ("chain-3@1600/auto", chain_pattern(3).0),
            ("anchored@1600/auto", anchored_pattern("info-3").0),
        ];
        for (name, pattern) in &canaries {
            let matchings = find_matchings(pattern, &db).expect("canary").len() as f64;
            bench
                .time(name, || find_matchings(pattern, &db).expect("canary"))
                .note("matchings", matchings);
        }
    });
}
