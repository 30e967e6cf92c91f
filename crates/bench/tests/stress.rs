//! Nightly stress suite (run with `cargo test --release -- --ignored`;
//! scheduled in CI). Exercises a batched edge deletion on the 10 000-object
//! stress instance — too slow for the per-commit test run, which covers
//! the same property at small scale.

use good_bench::{chain_pattern, stress_instance};
use good_core::ops::EdgeDeletion;

#[test]
#[ignore = "10k-object stress run; exercised by the nightly CI schedule"]
fn batched_edge_deletion_keeps_indexes_coherent_at_scale() {
    let mut db = stress_instance();
    let (pattern, nodes) = chain_pattern(2);
    let report = EdgeDeletion::single(pattern, nodes[0], "links-to", nodes[1])
        .apply(&mut db)
        .expect("edge deletion applies");
    assert!(report.edges_deleted > 0);
    db.validate().expect("invariants after bulk deletion");
}
