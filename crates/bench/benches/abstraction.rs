//! E3 — abstraction scaling over group structure: many small groups vs
//! few large groups. Validates that duplicate elimination is driven by
//! β-set hashing (cost ≈ Σ|β-sets|), not pairwise comparison (≈ n²).

use good_bench::grouped_instance;
use good_bench::harness::Bench;
use good_core::instance::Instance;
use good_core::ops::Abstraction;
use good_core::pattern::Pattern;

fn abstract_links(mut db: Instance) -> Instance {
    let mut p = Pattern::new();
    let info = p.node("Info");
    Abstraction::new(p, info, "Grp", "member", "links-to")
        .apply(&mut db)
        .expect("applies");
    db
}

fn main() {
    Bench::run("abstraction", &[], |bench| {
        // Constant total population (~240 members), varying partitioning.
        for groups in [4usize, 16, 64] {
            bench.time_with_setup(
                &format!("group-count/{groups}"),
                || grouped_instance(groups, 240 / groups),
                abstract_links,
            );
        }
        for members in [10usize, 40, 160] {
            bench.time_with_setup(
                &format!("population/{}", members * 8),
                || grouped_instance(8, members),
                abstract_links,
            );
        }
    });
}
