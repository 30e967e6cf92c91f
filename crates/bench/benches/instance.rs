//! E10 — the instance layer itself: bulk loading with invariant
//! enforcement, printable-node deduplication pressure, full validation,
//! isomorphism checking, and serde round-trips. Validates that
//! invariant enforcement stays O(1) amortized per mutation.

use good_bench::harness::{Bench, Bound, Gate};
use good_bench::{instance_of, SIZES};
use good_core::gen::bench_scheme;
use good_core::instance::Instance;
use good_core::value::Value;

/// A JSON round trip should cost about what building the same instance
/// through the API costs: no document tree between text and value.
const GATES: &[Gate] = &[Gate::same_run(
    "serde-roundtrip/1600",
    "bulk-load/1600",
    Bound::AtMost(2.0),
)];

fn main() {
    Bench::run("instance", GATES, |bench| {
        for size in SIZES {
            bench.time(&format!("bulk-load/{size}"), || instance_of(size));
            let db = instance_of(size);
            bench.time(&format!("validate/{size}"), || {
                db.validate().expect("valid")
            });
            bench.time(&format!("serde-roundtrip/{size}"), || {
                let json = serde_json::to_string(&db).expect("serializes");
                serde_json::from_str::<Instance>(&json).expect("deserializes")
            });
        }
        // Heavy dedup: many inserts of the same few values.
        for inserts in [1_000usize, 4_000, 16_000] {
            bench.time(&format!("printable-dedup/{inserts}"), || {
                let mut db = Instance::new(bench_scheme());
                for index in 0..inserts {
                    db.add_printable("String", Value::str(format!("v{}", index % 16)))
                        .expect("dedups");
                }
                db
            });
        }
        for size in [50usize, 100, 200] {
            let (a, b) = (instance_of(size), instance_of(size));
            bench.time(&format!("isomorphism/{size}"), || {
                assert!(a.isomorphic_to(&b))
            });
        }
    });
}
