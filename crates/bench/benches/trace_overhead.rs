//! E14 — overhead of the `good-trace` layer (EXPERIMENTS.md §E14).
//!
//! Measures matcher and operation workloads twice: with no recorder
//! installed (the shipping default — every span site must collapse to
//! one relaxed atomic load) and with a `Collector` attached (full
//! capture). `--check` gates only the tracing-off cases.

use good_bench::harness::{Bench, Gate};
use good_bench::{anchored_pattern, chain_pattern, instance_of, tag_addition};
use good_core::matching::find_matchings;
use good_core::program::{Env, Operation, Program};
use std::sync::Arc;

// Absolute slack on top of the 10%: µs-scale workloads jitter by more
// than 10% from timer granularity alone, yet an accidental always-on
// capture costs several µs there — so a 1µs floor keeps the gate
// meaningful without false alarms.
const GATES: &[Gate] = &[
    Gate::vs_baseline("match-chain2-seq@1600/off", 1.10, 1_000.0),
    Gate::vs_baseline("match-anchored-seq@400/off", 1.10, 1_000.0),
    Gate::vs_baseline("program-tag-na@400/off", 1.10, 1_000.0),
];

type Workload = (&'static str, Box<dyn FnMut()>);

/// The measured workloads. Each closure is self-contained and safe to
/// call repeatedly: the mutation workload re-applies an idempotent
/// node addition, so every timed iteration after the first exercises
/// the dedup path in both modes.
fn workloads() -> Vec<Workload> {
    let chain_db = instance_of(1600);
    let chain = chain_pattern(2).0;
    let anchored_db = instance_of(400);
    let anchored = anchored_pattern("info-0").0;
    let mut tag_db = instance_of(400);
    let tag_program = Program::from_ops([Operation::NodeAdd(tag_addition(2))]);
    vec![
        (
            "match-chain2-seq@1600",
            Box::new(move || {
                find_matchings(&chain, &chain_db).expect("valid pattern");
            }),
        ),
        (
            "match-anchored-seq@400",
            Box::new(move || {
                find_matchings(&anchored, &anchored_db).expect("valid pattern");
            }),
        ),
        (
            "program-tag-na@400",
            Box::new(move || {
                let mut env = Env::with_fuel(1_000_000);
                tag_program.apply(&mut tag_db, &mut env).expect("applies");
            }),
        ),
    ]
}

fn main() {
    Bench::run("trace", GATES, |bench| {
        for (workload, mut routine) in workloads() {
            // Tracing off: the shipping default. No recorder installed, so
            // every span site is a single relaxed load.
            good_trace::uninstall();
            bench.time(&format!("{workload}/off"), &mut routine);

            // Tracing on: full capture into a collector. One extra run
            // counts spans per iteration; the capture is dropped after the
            // case, so its growth is bounded by one case's iterations.
            let collector = Arc::new(good_trace::Collector::new());
            good_trace::swap_recorder(Some(collector.clone()));
            routine();
            let spans_per_iter = collector.take().len() as f64;
            bench
                .time(&format!("{workload}/on"), &mut routine)
                .note("spans_per_iter", spans_per_iter);
            good_trace::uninstall();
        }
    });
}
