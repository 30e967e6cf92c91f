//! E13 — crash-recovery cost: `Store::open` (journal replay) latency
//! as a function of journal length, and the effect of checkpointing
//! (EXPERIMENTS.md §3).

use good_bench::harness::{Bench, Gate};
use good_bench::{labeled_program, temp_journal};
use good_core::gen::bench_scheme;
use good_store::Store;

const JOURNAL_LENGTHS: [usize; 3] = [100, 400, 1600];

const GATES: &[Gate] = &[
    Gate::vs_baseline("replay/records-1600", 1.25, 20_000.0),
    Gate::vs_baseline("replay-checkpointed/records-1600", 1.25, 20_000.0),
];

fn main() {
    Bench::run("recovery", GATES, |bench| {
        for records in JOURNAL_LENGTHS {
            let path = temp_journal("recovery");
            let mut store = Store::create(&path, bench_scheme()).expect("create");
            for index in 0..records {
                store
                    .execute(&labeled_program(&format!("Seed{index}")))
                    .expect("append");
            }
            let nodes = store.instance().node_count() as f64;
            drop(store);
            bench
                .time(&format!("replay/records-{records}"), || {
                    let reopened = Store::open(&path).expect("open");
                    assert_eq!(reopened.record_count(), records + 1);
                })
                .note("nodes", nodes);

            // The checkpointed counterpart at the longest journal: the same
            // state collapsed into one snapshot record — what recovery
            // costs after housekeeping.
            if records == JOURNAL_LENGTHS[JOURNAL_LENGTHS.len() - 1] {
                let mut store = Store::open(&path).expect("open");
                store.checkpoint().expect("checkpoint");
                drop(store);
                bench
                    .time(&format!("replay-checkpointed/records-{records}"), || {
                        let reopened = Store::open(&path).expect("open");
                        assert_eq!(reopened.record_count(), 1);
                    })
                    .note("nodes", nodes);
            }
            let _ = std::fs::remove_file(&path);
        }
    });
}
