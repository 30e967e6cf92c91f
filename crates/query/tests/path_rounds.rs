//! Delta seeding survives the move to derived relations: the closure
//! query `e2e` serves, over its ring instance, runs one fixpoint round
//! per ring position and hands the seeded rounds O(pairs) delta edges.
//! A test binary of its own, because the `fixpoint.*` counters are
//! process-wide.

use good_core::gen::bench_scheme;
use good_core::instance::Instance;
use good_graph::NodeId;
use good_query::{run, Backend};

/// Ring length and ring count of `e2e`'s `closure` instance.
const RING: usize = 20;
const RINGS: usize = 10;

fn counter(name: &str) -> u64 {
    good_trace::metrics_snapshot().counter(name).unwrap_or(0)
}

#[test]
fn one_closure_query_runs_one_round_per_ring_position() {
    let mut db = Instance::new(bench_scheme());
    for _ in 0..RINGS {
        let ring: Vec<NodeId> = (0..RING)
            .map(|_| db.add_object("Info").expect("node"))
            .collect();
        for (at, &node) in ring.iter().enumerate() {
            db.add_edge(node, "links-to", ring[(at + 1) % RING])
                .expect("edge");
        }
    }
    let (rounds, delta) = (counter("fixpoint.rounds"), counter("fixpoint.delta_edges"));
    let text = "MATCH (a:Info)-[:links-to*]->(b:Info) RETURN DISTINCT a, b";
    let rows = run(&db, text, Backend::Core).expect("runs").rows;
    let pairs = RINGS * RING * RING;
    assert_eq!(rows.len(), pairs);
    // Round k adds the walks of length k + 1; the round after the
    // length-RING walks (every node back to itself) adds nothing.
    assert_eq!(counter("fixpoint.rounds") - rounds, RING as u64);
    // Each seeded round is handed the previous round's new pairs only.
    let delta = counter("fixpoint.delta_edges") - delta;
    assert_eq!(delta, ((RING - 1) * RINGS * RING) as u64);
    assert!(delta <= pairs as u64);
}
