//! E15 — the concurrent session server: group-commit throughput as a
//! function of the writer's batch ceiling, and snapshot-reader latency
//! with and without a writer flooding the queue (EXPERIMENTS.md §3).
//! On one or two cores the concurrency numbers measure
//! scheduling/amortization effects, not parallel speedup.

use good_bench::harness::Bench;
use good_bench::{
    labeled_program, memory_server, pipelined_programs, submit_all_in_process, PIPELINED_PROGRAMS,
};
use good_core::matching::find_matchings;
use good_core::pattern::Pattern;
use good_server::Server;
use std::time::Instant;

const BATCH_SIZES: [usize; 4] = [1, 4, 16, 64];
const READ_SAMPLES: usize = 400;

/// One reader observation per sample: take a fresh snapshot and run the
/// Info-links-to-Info pattern over it — the workload a monitoring
/// query would run against the published state.
fn read_latencies(server: &Server) -> Vec<f64> {
    let mut pattern = Pattern::new();
    let a = pattern.node("Info");
    let b = pattern.node("Info");
    pattern.edge(a, "links-to", b);
    (0..READ_SAMPLES)
        .map(|_| {
            let start = Instant::now();
            let snapshot = server.snapshot();
            let matchings = find_matchings(&pattern, snapshot.instance()).expect("valid pattern");
            std::hint::black_box(matchings.len());
            start.elapsed().as_nanos() as f64
        })
        .collect()
}

fn main() {
    Bench::run("server", &[], |bench| {
        // With the queue kept full the writer forms groups up to its
        // ceiling, so the sweep exposes the fsync amortization (one sync per
        // group, not per program).
        for max_batch in BATCH_SIZES {
            let mut batches = 0;
            bench
                .time_with_setup(
                    &format!("throughput/max-batch-{max_batch}"),
                    || {
                        let server = memory_server(PIPELINED_PROGRAMS + 1, max_batch);
                        (server, pipelined_programs())
                    },
                    |(server, programs)| {
                        let server = submit_all_in_process(server, programs);
                        batches = server.epoch();
                        server
                    },
                )
                .note("programs", PIPELINED_PROGRAMS as f64)
                .note("batches", batches as f64);
        }

        // Reader latency: idle baseline, then the same observation while a
        // writer floods the queue from another thread.
        let server = memory_server(PIPELINED_PROGRAMS + 1, 16);
        let session = server.open_session();
        for i in 0..32 {
            server
                .submit_wait(session, labeled_program(&format!("Seed{i}")))
                .expect("seed");
        }
        bench.latencies("read-latency/idle", read_latencies(&server));
        let under_load = std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..2_000u32 {
                    server
                        .submit_wait(session, labeled_program(&format!("Load{i}")))
                        .expect("load");
                }
            });
            read_latencies(&server)
        });
        bench.latencies("read-latency/under-write-load", under_load);
    });
}
