//! E16 — snapshot publish cost on the persistent instance
//! (EXPERIMENTS.md §E16).
//!
//! Measures the writer-side publish path at growing instance sizes,
//! two ways:
//!
//! * **persistent** — `cell.publish(db.clone())`: the shipping path.
//!   `Instance` is structurally shared, so the clone is a handful of
//!   `Arc` bumps and the publish a pointer rotation — cost should be
//!   essentially flat in instance size.
//! * **clone-based** — `cell.publish(db.deep_clone())`: the
//!   pre-persistent cost model, where every publish paid a full
//!   structural copy of the graph and its indexes (`instance_bytes` of
//!   them, noted per case) — cost grows linearly with the instance.

use good_bench::harness::{Bench, Gate};
use good_bench::instance_of;
use good_core::snapshot::{RetentionPolicy, SnapshotCell};
use std::sync::Arc;

const SIZES: [usize; 4] = [1_600, 6_400, 25_600, 100_000];

// Persistent publishes are sub-µs; a 500ns floor absorbs timer and
// scheduler granularity without hiding a real complexity regression
// (the clone-based path costs tens of ms at the top size).
const GATES: &[Gate] = &[
    Gate::vs_baseline("persistent@1600", 1.10, 500.0),
    Gate::vs_baseline("persistent@6400", 1.10, 500.0),
    Gate::vs_baseline("persistent@25600", 1.10, 500.0),
    Gate::vs_baseline("persistent@100000", 1.10, 500.0),
];

fn main() {
    Bench::run("publish", GATES, |bench| {
        for nodes in SIZES {
            let db = Arc::new(instance_of(nodes));
            let instance_bytes = db.approx_bytes() as f64;
            // No history: the ring would otherwise retain every iteration's
            // publish (cheap for the persistent lane, ruinous for deep
            // clones), and retention is not what this experiment measures.
            let cell = SnapshotCell::new_shared(Arc::clone(&db), RetentionPolicy::none());
            bench
                .time(&format!("persistent@{nodes}"), || {
                    cell.publish((*db).clone())
                })
                .note("instance_bytes", instance_bytes);
            bench
                .time(&format!("clone-based@{nodes}"), || {
                    cell.publish(db.deep_clone())
                })
                .note("instance_bytes", instance_bytes);
        }
    });
}
