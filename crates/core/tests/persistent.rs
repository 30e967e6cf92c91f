//! Differential property tests for the persistent (structurally
//! shared) instance representation.
//!
//! The persistent `Instance` must be *observationally identical* to one
//! that shares nothing. Each case drives a random workload down two
//! lanes:
//!
//! * **persistent lane** — one instance mutated in place while a
//!   cheap (`Arc`-bump) clone is retained after every step, exactly
//!   the sharing pattern the MVCC version ring produces;
//! * **recovered lane** — the same programs applied to an instance that
//!   is rebuilt between steps by a JSON round trip through
//!   `Instance::from_parts`, the recovery path: structure fully
//!   unshared, ids carried over by the serialised arena slots.
//!
//! After every step the two lanes must render bit-identically, the
//! full index/adjacency audit must pass on the shared lane, and at the
//! end every retained clone must still render exactly as it did the
//! moment it was taken — later in-place mutation through
//! `Arc::make_mut` must never reach into a shared node.
//!
//! One more case checks the planner's figures, which the index's
//! postings carry, against a count over the graph's edges.

use good_core::derived::View;
use good_core::gen::{random_instance, random_workload, GenConfig};
use good_core::instance::Instance;
use good_core::program::{Env, DEFAULT_FUEL};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// `instance` as recovery rebuilds it from its serialised form.
fn recover(instance: &Instance) -> Instance {
    let json = serde_json::to_string(instance).expect("serialise");
    serde_json::from_str(&json).expect("recover")
}

fn run_case(seed: u64, infos: usize, steps: usize) {
    let config = GenConfig {
        infos,
        seed,
        ..GenConfig::default()
    };
    let mut shared = random_instance(&config);
    let mut recovered = recover(&shared);
    let mut env = Env::with_fuel(DEFAULT_FUEL);
    let mut retained: Vec<(Instance, String)> = Vec::new();
    for (step, program) in random_workload(seed, steps).iter().enumerate() {
        // Apply to scratch copies so a model-rejected program leaves
        // both lanes untouched (the store commits the same way).
        env.refuel();
        let mut next = shared.clone();
        let shared_outcome = program.apply(&mut next, &mut env).map(drop);
        env.refuel();
        let mut next_recovered = recover(&recovered);
        let recovered_outcome = program.apply(&mut next_recovered, &mut env).map(drop);
        assert_eq!(
            shared_outcome.is_ok(),
            recovered_outcome.is_ok(),
            "lanes diverged on outcome at step {step} (seed {seed})"
        );
        if shared_outcome.is_ok() {
            shared = next;
            recovered = next_recovered;
        }
        let rendered = shared.to_dot("lane");
        assert_eq!(
            rendered,
            recovered.to_dot("lane"),
            "persistent and recovered lanes diverged at step {step} (seed {seed})"
        );
        shared
            .validate()
            .unwrap_or_else(|err| panic!("audit failed at step {step} (seed {seed}): {err}"));
        retained.push((shared.clone(), rendered));
    }
    // Frozen-history check: every retained clone still renders exactly
    // as it did when taken.
    for (step, (snapshot, rendered)) in retained.iter().enumerate() {
        assert_eq!(
            &snapshot.to_dot("lane"),
            rendered,
            "retained clone from step {step} drifted (seed {seed})"
        );
        snapshot.validate().expect("retained clone audit");
    }
}

/// Over `bench_scheme` the planner's figures read off the adjacency
/// index are exact: each scheme triple's edge count and distinct
/// endpoints equal a count over the graph's edges.
fn check_triples(config: &GenConfig) {
    let db = random_instance(config);
    for (src, label, dst) in db.scheme().triples() {
        let (mut edges, mut sources, mut targets) = (0u64, BTreeSet::new(), BTreeSet::new());
        for edge in db.to_graph().edges() {
            let class = |node| db.node_label(node).expect("live");
            if edge.payload == label && class(edge.src) == src && class(edge.dst) == dst {
                edges += 1;
                sources.insert(edge.src);
                targets.insert(edge.dst);
            }
        }
        let expected = (edges > 0).then_some((edges, sources.len() as u64, targets.len() as u64));
        assert_eq!(
            View::from(&db).triple(src, label, dst),
            expected,
            "{src} -{label}-> {dst} ({config:?})"
        );
    }
}

#[test]
fn smoke_differential_small() {
    run_case(42, 30, 12);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn persistent_equals_unshared_under_random_workloads(
        seed in 0u64..1_000_000,
        infos in 5usize..60,
        steps in 2usize..14,
    ) {
        run_case(seed, infos, steps);
    }

    #[test]
    fn planner_figures_equal_a_count_over_the_edges(
        seed in 0u64..1_000_000,
        infos in 1usize..60,
        distinct_dates in 1usize..=5,
    ) {
        check_triples(&GenConfig { infos, avg_links: 2.0, distinct_dates, seed });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // Nightly-only: the deep sweep (see .github/workflows/ci.yml).
    #[test]
    #[ignore = "nightly: 512-case persistent/recovered differential sweep"]
    fn nightly_persistent_equals_unshared(
        seed in 0u64..100_000_000,
        infos in 5usize..150,
        steps in 2usize..24,
    ) {
        run_case(seed, infos, steps);
    }
}
