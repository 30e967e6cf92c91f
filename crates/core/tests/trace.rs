//! Determinism and zero-cost contracts of the matcher's tracing.
//!
//! The recorder is process-global, so every test that installs one
//! serializes on a local lock.

use good_core::gen::{random_instance, GenConfig};
use good_core::pattern::Pattern;
use good_core::prelude::*;
use std::sync::{Arc, Mutex};

fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn bench_pattern() -> Pattern {
    let mut pattern = Pattern::new();
    let a = pattern.node("Info");
    let b = pattern.node("Info");
    pattern.edge(a, "links-to", b);
    pattern
}

/// Run one traced match and return the span tree.
fn traced_run(config: MatchConfig) -> good_trace::SpanTree {
    let db = random_instance(&GenConfig {
        infos: 300,
        seed: 17,
        ..GenConfig::default()
    });
    let pattern = bench_pattern();
    let collector = Arc::new(good_trace::Collector::new());
    let previous = good_trace::swap_recorder(Some(collector.clone()));
    let result = find_matchings_with(&pattern, &db, config);
    good_trace::swap_recorder(previous);
    result.expect("match succeeds");
    good_trace::SpanTree::build(&collector.take())
}

#[test]
fn sequential_seeded_runs_produce_byte_identical_span_trees() {
    let _guard = lock();
    let first = traced_run(MatchConfig::sequential()).render();
    let second = traced_run(MatchConfig::sequential()).render();
    assert!(!first.is_empty());
    assert!(first.contains("match/find"), "{first}");
    assert!(first.contains("match/plan"), "{first}");
    assert!(first.contains("match/roots"), "{first}");
    assert_eq!(first, second, "sequential trace must be deterministic");
}

#[test]
fn parallel_seeded_runs_produce_the_same_canonical_tree() {
    let _guard = lock();
    let config = MatchConfig {
        threads: 4,
        parallel_threshold: 0,
    };
    let mut first = traced_run(config);
    let mut second = traced_run(config);
    // Raw capture order depends on worker scheduling; the canonical
    // sort must erase it completely.
    first.canonicalize();
    second.canonicalize();
    let first = first.render();
    let second = second.render();
    assert!(first.contains("match/morsel"), "{first}");
    assert_eq!(
        first, second,
        "canonicalized parallel trace must be thread-schedule independent"
    );
}

#[test]
fn no_recorder_means_tracing_stays_disabled_and_captures_nothing() {
    let _guard = lock();
    good_trace::uninstall();
    assert!(!good_trace::enabled());
    let db = random_instance(&GenConfig {
        infos: 50,
        seed: 17,
        ..GenConfig::default()
    });
    find_matchings_with(&bench_pattern(), &db, MatchConfig::sequential()).expect("match succeeds");
    // Installing a collector *after* the run proves nothing was queued
    // anywhere: the capture starts empty.
    let collector = Arc::new(good_trace::Collector::new());
    let previous = good_trace::swap_recorder(Some(collector.clone()));
    good_trace::swap_recorder(previous);
    assert!(collector.take().is_empty());
    assert!(!good_trace::enabled());
}

/// One traced starred edge addition over a chain of `n` Infos: the span
/// tree and the number of rounds the live counter saw.
fn traced_star(n: usize) -> (good_trace::SpanTree, u64) {
    use good_core::macros::recursion::transitive_closure_star;
    let mut db = Instance::new(good_core::gen::bench_scheme());
    let nodes: Vec<_> = (0..n)
        .map(|_| db.add_object("Info").expect("node"))
        .collect();
    for pair in nodes.windows(2) {
        db.add_edge(pair[0], "links-to", pair[1]).expect("edge");
    }
    let (seed, star) = transitive_closure_star("Info", "links-to", "rec-links-to");
    seed.apply(&mut db).expect("seed");
    let rounds = || {
        good_trace::metrics_snapshot()
            .counter("fixpoint.rounds")
            .unwrap_or(0)
    };
    let before = rounds();
    let collector = Arc::new(good_trace::Collector::new());
    let previous = good_trace::swap_recorder(Some(collector.clone()));
    let result = star.apply(&mut db, &mut Env::new());
    good_trace::swap_recorder(previous);
    result.expect("star succeeds");
    (
        good_trace::SpanTree::build(&collector.take()),
        rounds() - before,
    )
}

#[test]
fn fixpoint_rounds_are_traced_deterministically_and_counted_live() {
    let _guard = lock();
    // Paths of length 2, 3, 4, 5 appear in rounds 1..=4; round 5 is quiet.
    let (first, counted) = traced_star(6);
    let (second, _) = traced_star(6);
    let first = first.render();
    assert_eq!(first, second.render(), "fixpoint trace is deterministic");
    assert_eq!(counted, 5, "the always-on counter needs no recorder state");
    let rounds: Vec<&str> = first
        .lines()
        .filter(|line| line.contains("fixpoint/round"))
        .collect();
    assert_eq!(rounds.len(), 5, "{first}");
    assert!(
        rounds[0].contains("round=1 delta_edges=0 matchings=4 edges_added=4 seeded=0"),
        "{first}"
    );
    assert!(
        rounds[1].contains("round=2 delta_edges=4 matchings=3 edges_added=3 seeded=1"),
        "{first}"
    );
    assert!(
        rounds[4].contains("round=5 delta_edges=1 matchings=0 edges_added=0 seeded=1"),
        "{first}"
    );
    // Each round sits under its `op/EA` span, the matcher under the round.
    assert!(first.starts_with("op/EA"), "{first}");
    assert!(first.contains("\n  fixpoint/round"), "{first}");
    assert!(first.contains("\n    match/find"), "{first}");
    let delta = good_trace::metrics_snapshot().counter("fixpoint.delta_edges");
    assert!(delta.is_some_and(|edges| edges >= 10), "{delta:?}");
}
