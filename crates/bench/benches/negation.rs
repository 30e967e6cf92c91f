//! E5 — the cost of negation: the matcher's built-in crossed-pattern
//! semantics vs the Figure 27 three-operation macro expansion.
//! Validates that the macro costs roughly two extra full passes.

use good_bench::harness::Bench;
use good_bench::{instance_of, SIZES};
use good_core::macros::negation::expand_negation;
use good_core::matching::find_matchings;
use good_core::pattern::Pattern;
use good_core::program::Env;

/// "Infos that do not link to anything" — the paper's No-Sound idiom.
fn sink_pattern() -> Pattern {
    let mut p = Pattern::new();
    let info = p.node("Info");
    let other = p.negated_node("Info");
    p.negated_edge(info, "links-to", other);
    p
}

fn main() {
    Bench::run("negation", &[], |bench| {
        for size in SIZES {
            let db = instance_of(size);
            let crossed = sink_pattern();
            bench.time(&format!("direct-negation/{size}"), || {
                find_matchings(&crossed, &db).expect("matches")
            });
            bench.time_with_setup(
                &format!("macro-expansion/{size}"),
                || instance_of(size),
                |mut db| {
                    let expansion =
                        expand_negation(&sink_pattern(), "Intermediate").expect("crossed");
                    expansion
                        .evaluate(&mut db, &mut Env::new())
                        .expect("evaluates");
                    db
                },
            );
            // The positive part alone, for reference.
            let mut positive = Pattern::new();
            positive.node("Info");
            bench.time(&format!("positive-baseline/{size}"), || {
                find_matchings(&positive, &db).expect("matches")
            });
        }
    });
}
