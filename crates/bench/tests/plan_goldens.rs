//! Plan-rendering golden tests: `Plan::render` for the canonical
//! chain, star, and triangle patterns (profiled against fixed
//! deterministic instances) must be byte-identical to the checked-in
//! files under `tests/goldens/`.
//!
//! The goldens pin the whole explain surface — binding order, access
//! paths, cardinality estimates, actual row counts, the
//! expand-vs-generic-join decision, and the root-candidate footer — so
//! planner changes show up as reviewable diffs.
//!
//! When an intentional planner or rendering change lands, regenerate
//! with
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p good-bench --test plan_goldens
//! ```
//!
//! and commit the diff.

use good_bench::{chain_pattern, hub_instance, instance_of, triangle_pattern};
use good_core::prelude::*;
use std::path::PathBuf;

fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
}

/// A star pattern: one center Info linking out to three leaf Infos.
fn star_pattern() -> Pattern {
    let mut pattern = Pattern::new();
    let center = pattern.node("Info");
    for _ in 0..3 {
        let leaf = pattern.node("Info");
        pattern.edge(center, "links-to", leaf);
    }
    pattern
}

/// The plan renderings under golden test, as `(file name, contents)`.
fn plan_renderings() -> Vec<(&'static str, String)> {
    let hub = hub_instance(120, 6);
    let random = instance_of(100);

    let (chain, _) = chain_pattern(3);
    let (triangle, _) = triangle_pattern();
    let star = star_pattern();

    vec![
        (
            "plan-chain.txt",
            explain_plan_profiled(&chain, &random)
                .expect("chain plan")
                .render(),
        ),
        (
            "plan-star.txt",
            explain_plan_profiled(&star, &random)
                .expect("star plan")
                .render(),
        ),
        (
            "plan-triangle.txt",
            explain_plan_profiled(&triangle, &hub)
                .expect("triangle plan")
                .render(),
        ),
    ]
}

#[test]
fn plan_renderings_match_the_checked_in_goldens() {
    let update = std::env::var_os("UPDATE_GOLDENS").is_some();
    let dir = goldens_dir();
    if update {
        std::fs::create_dir_all(&dir).expect("create goldens dir");
    }
    for (name, contents) in plan_renderings() {
        let path = dir.join(name);
        if update {
            std::fs::write(&path, &contents).expect("write golden");
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|err| {
            panic!(
                "missing golden {name}: {err}\n\
                 regenerate with UPDATE_GOLDENS=1 cargo test -p good-bench --test plan_goldens"
            )
        });
        assert!(
            golden == contents,
            "plan rendering {name} drifted from its golden.\n\
             If the change is intentional, regenerate with\n\
             UPDATE_GOLDENS=1 cargo test -p good-bench --test plan_goldens\n\
             --- golden ---\n{golden}\n--- current ---\n{contents}"
        );
    }
}

#[test]
fn plan_renderings_are_deterministic() {
    // Goldens are only meaningful if regeneration is byte-stable.
    assert_eq!(plan_renderings(), plan_renderings());
}

#[test]
fn triangle_golden_uses_the_generic_join() {
    // The hub instance is exactly the shape the WCOJ path exists for;
    // keep the golden honest about the strategy decision.
    let (triangle, _) = triangle_pattern();
    let choice = plan(&triangle, &hub_instance(120, 6));
    assert!(matches!(choice.strategy, JoinStrategy::GenericJoin));
}
