//! E11 — the durability layer: journal append throughput, replay
//! (open) latency, and checkpoint cost, over journal length.

use good_bench::harness::Bench;
use good_bench::{labeled_program, temp_journal};
use good_core::gen::bench_scheme;
use good_core::label::Label;
use good_core::ops::NodeAddition;
use good_core::pattern::Pattern;
use good_core::program::{Operation, Program};
use good_store::Store;
use std::path::Path;

fn tag_program() -> Program {
    let mut pattern = Pattern::new();
    let info = pattern.node("Info");
    Program::from_ops([Operation::NodeAdd(NodeAddition::new(
        pattern,
        "Tag",
        [(Label::new("of"), info)],
    ))])
}

/// A fresh store at `path`, replacing whatever journal was there.
fn fresh(path: &Path) -> Store {
    let _ = std::fs::remove_file(path);
    Store::create(path, bench_scheme()).expect("create")
}

fn populated(path: &Path, records: usize) -> Store {
    let mut store = fresh(path);
    for index in 0..records {
        store
            .execute(&labeled_program(&format!("Seed{index}")))
            .expect("execute");
    }
    store
}

fn main() {
    Bench::run("store", &[], |bench| {
        let path = temp_journal("store");
        let mut store = fresh(&path);
        let mut index = 0usize;
        bench.time("append/execute+fsync", || {
            index += 1;
            store
                .execute(&labeled_program(&format!("Seed{index}")))
                .expect("execute")
        });
        let mut store = fresh(&path);
        let tag = tag_program();
        bench.time("append/execute-with-matching", || {
            store.execute(&tag).expect("execute")
        });
        drop(store);

        for records in [10usize, 100, 400] {
            drop(populated(&path, records));
            bench.time(&format!("open-replay/{records}"), || {
                Store::open(&path).expect("open")
            });
            bench.time_with_setup(
                &format!("checkpoint/{records}"),
                || populated(&path, records),
                |mut store| {
                    store.checkpoint().expect("checkpoint");
                    store
                },
            );
        }
        let _ = std::fs::remove_file(&path);
    });
}
