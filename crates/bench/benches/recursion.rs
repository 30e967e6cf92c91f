//! E4 — transitive closure three ways over chain length:
//! the recursive-method simulation (Figure 29), the starred-edge-
//! addition fixpoint (Figure 28), and the direct graph algorithm as the
//! substrate baseline. Reports the overhead factor of expressing
//! recursion through GOOD methods.

use good_bench::chain_instance;
use good_bench::harness::Bench;
use good_core::label::Label;
use good_core::macros::recursion::{transitive_closure_method, transitive_closure_star};
use good_core::method::execute_call;
use good_core::program::Env;

fn main() {
    Bench::run("recursion", &[], |bench| {
        let links = Label::new("links-to");
        for length in [8usize, 16, 32] {
            bench.time_with_setup(
                &format!("recursive-method/{length}"),
                || chain_instance(length),
                |mut db| {
                    let (method, call) =
                        transitive_closure_method("Info", "links-to", "rec-links-to");
                    let mut env = Env::with_fuel(10_000_000);
                    env.register(method);
                    execute_call(&call, &mut db, &mut env).expect("closure");
                    db
                },
            );
            bench.time_with_setup(
                &format!("starred-fixpoint/{length}"),
                || chain_instance(length),
                |mut db| {
                    let (seed, star) = transitive_closure_star("Info", "links-to", "rec-links-to");
                    let mut env = Env::with_fuel(10_000_000);
                    seed.apply(&mut db).expect("seed");
                    star.apply(&mut db, &mut env).expect("fixpoint");
                    db
                },
            );
            let db = chain_instance(length);
            bench.time(&format!("direct-graph-closure/{length}"), || {
                good_graph::algo::transitive_closure_by(db.graph(), |e| e.label == links)
            });
        }
    });
}
