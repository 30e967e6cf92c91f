//! E1 — pattern matching scaling: the planned backtracking matcher vs
//! the naive cross-product enumerator, over instance size and pattern
//! length. Validates the qualitative claim that candidate-driven
//! matching makes patterns a tractable end-user primitive.

use good_bench::harness::Bench;
use good_bench::{anchored_pattern, chain_pattern, instance_of, SIZES};
use good_core::matching::{find_match_table, find_matchings, find_matchings_naive, PlanShape};

fn main() {
    Bench::run("matching", &[], |bench| {
        for size in SIZES {
            let db = instance_of(size);
            let (pattern, _) = chain_pattern(3);
            bench.time(&format!("planned-by-instance-size/{size}"), || {
                find_matchings(&pattern, &db).expect("matches")
            });
        }

        let db = instance_of(400);
        for length in [1usize, 2, 3, 4] {
            let (pattern, _) = chain_pattern(length);
            bench.time(&format!("planned-by-pattern-length/{length}"), || {
                find_matchings(&pattern, &db).expect("matches")
            });
        }

        // The naive engine is exponential in pattern size; keep it small.
        for size in [30usize, 60, 120] {
            let db = instance_of(size);
            let (pattern, _) = chain_pattern(2);
            bench.time(&format!("naive-baseline/naive/{size}"), || {
                find_matchings_naive(&pattern, &db).expect("matches")
            });
            bench.time(&format!("naive-baseline/planned/{size}"), || {
                find_matchings(&pattern, &db).expect("matches")
            });
        }

        // Ablation: dynamic most-constrained-node selection vs a static
        // id-order schedule, same candidate derivation. The pattern is
        // adversarial for the static order: the selective printable anchor
        // is declared LAST, so the static schedule starts from the
        // unconstrained Info nodes while the dynamic one starts at the
        // anchor. The dynamic lane doubles as the anchored point query:
        // printable anchors should make it near-O(answer).
        for size in SIZES {
            let db = instance_of(size);
            let (pattern, _, _) = anchored_pattern("info-7");
            bench.time(&format!("selection-ablation/dynamic/{size}"), || {
                find_matchings(&pattern, &db).expect("matches")
            });
            bench.time(&format!("selection-ablation/static/{size}"), || {
                let table = find_match_table(&pattern, &db, PlanShape::IdOrder);
                table.expect("matches").into_matchings()
            });
        }
    });
}
