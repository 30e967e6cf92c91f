//! E7 — the three pattern-evaluation routes of Section 5 raced: the
//! native backtracking matcher, the relational backend (classes as
//! tables, joins — the Antwerp prototype) and the Tarski binary-
//! relation backend (the Indiana route). Also measures load time into
//! each store.

use good_bench::harness::Bench;
use good_bench::{chain_pattern, instance_of, SIZES};
use good_core::label::Label;
use good_core::matching::find_matchings;
use good_relational::backend::RelBackend;
use good_tarski::TarskiBackend;

fn main() {
    Bench::run("backends", &[], |bench| {
        let (pattern, _) = chain_pattern(3);
        let classes = vec![Label::new("Info"); 3];
        let edges = vec![Label::new("links-to"); 2];
        for size in SIZES {
            let db = instance_of(size);
            let relational = RelBackend::from_instance(&db);
            let tarski = TarskiBackend::from_instance(&db);
            bench.time(&format!("match/native/{size}"), || {
                find_matchings(&pattern, &db).expect("matches")
            });
            bench.time(&format!("match/relational/{size}"), || {
                relational.match_pattern(&pattern).expect("matches")
            });
            bench.time(&format!("match/tarski/{size}"), || {
                tarski.match_pattern(&pattern).expect("matches")
            });
            bench.time(&format!("load/relational/{size}"), || {
                RelBackend::from_instance(&db)
            });
            bench.time(&format!("load/tarski/{size}"), || {
                TarskiBackend::from_instance(&db)
            });
            // Tarski's native strength: pure composition chains.
            bench.time(&format!("path-expression/tarski-compose/{size}"), || {
                tarski.eval_path(&classes, &edges).expect("path")
            });
        }
    });
}
