//! E16 — snapshot publish cost on the persistent instance
//! (EXPERIMENTS.md §E16).
//!
//! Measures the writer-side publish path, `cell.publish(db.clone())`,
//! at growing instance sizes (`instance_bytes` noted per case).
//! `Instance` is structurally shared, so the clone is a handful of `Arc`
//! bumps and the publish a pointer rotation — cost should be essentially
//! flat in instance size.
//!
//! `edit-publish@*` adds the edit a commit makes: clone, toggle one
//! `links-to` edge, publish under the default retention — so the path
//! copies of the edit and the drop of the version the ring trims are
//! both in the figure.

use good_bench::harness::{Bench, Gate};
use good_bench::instance_of;
use good_core::label::Label;
use good_core::snapshot::{RetentionPolicy, SnapshotCell};
use std::sync::Arc;

const SIZES: [usize; 4] = [1_600, 6_400, 25_600, 100_000];

// Persistent publishes are sub-µs; a 500ns floor absorbs timer and
// scheduler granularity without hiding a real complexity regression
// (a full structural copy costs hundreds of ms at the top size). An
// edit costs tens of µs, so its floor is wider.
const GATES: &[Gate] = &[
    Gate::vs_baseline("persistent@1600", 1.10, 500.0),
    Gate::vs_baseline("persistent@6400", 1.10, 500.0),
    Gate::vs_baseline("persistent@25600", 1.10, 500.0),
    Gate::vs_baseline("persistent@100000", 1.10, 500.0),
    Gate::vs_baseline("edit-publish@1600", 1.25, 2_000.0),
    Gate::vs_baseline("edit-publish@6400", 1.25, 2_000.0),
    Gate::vs_baseline("edit-publish@25600", 1.25, 2_000.0),
    Gate::vs_baseline("edit-publish@100000", 1.25, 2_000.0),
];

fn main() {
    Bench::run("publish", GATES, |bench| {
        for nodes in SIZES {
            let db = Arc::new(instance_of(nodes));
            let instance_bytes = db.approx_bytes() as f64;
            // No history: the ring would otherwise retain every iteration's
            // publish, and retention is not what this experiment measures.
            let cell = SnapshotCell::new_shared(Arc::clone(&db), RetentionPolicy::none());
            bench
                .time(&format!("persistent@{nodes}"), || {
                    cell.publish((*db).clone())
                })
                .note("instance_bytes", instance_bytes);

            let links_to = Label::new("links-to");
            let infos: Vec<_> = db.nodes_with_label(&Label::new("Info")).collect();
            let (src, dst) = (infos[0], infos[infos.len() / 2]);
            assert!(!db.has_edge(src, &links_to, dst), "the toggled edge is new");
            let cell = SnapshotCell::new_shared(Arc::clone(&db), RetentionPolicy::default());
            let mut current = Arc::clone(&db);
            bench
                .time(&format!("edit-publish@{nodes}"), || {
                    let mut next = (*current).clone();
                    if !next.delete_edge_between(src, &links_to, dst) {
                        next.add_edge(src, links_to.clone(), dst)
                            .expect("links-to fits the scheme");
                    }
                    current = Arc::new(next);
                    cell.publish_arc(Arc::clone(&current))
                })
                .note("instance_bytes", instance_bytes);
        }
    });
}
