//! E17 — the TCP wire-protocol front end: submit round-trip latency
//! (p50, p99) as a function of concurrent loopback client count, and
//! pipelined wire throughput against the in-process session API at a
//! matched batch ceiling (EXPERIMENTS.md §3).
//!
//! `--check` gates the round-trip p50 at the two smallest client counts
//! against the recorded baseline (the larger counts measure queueing on
//! however many cores the runner has, not the wire) and the
//! wire/in-process throughput ratio against a fixed floor, both sides
//! measured fresh so the gate compares like with like on any machine.

use good_bench::harness::{Bench, Bound, Gate};
use good_bench::{
    labeled_program, loopback, memory_server, pipelined_programs, submit_all_in_process,
    PipelinedWire, PIPELINED_MAX_BATCH, PIPELINED_PROGRAMS,
};
use good_server::client::Client;
use std::time::Instant;

/// Concurrent-client sweep: each count submits TOTAL_OPS round trips.
const CLIENT_COUNTS: [usize; 4] = [8, 32, 128, 256];
const TOTAL_OPS: usize = 4096;

const GATES: &[Gate] = &[
    // p50 may drift up to 50% (+ absolute slack for scheduler spikes on
    // shared runners) over the recorded baseline.
    Gate::vs_baseline("round-trip/clients-8", 1.5, 500_000.0),
    Gate::vs_baseline("round-trip/clients-32", 1.5, 500_000.0),
    // The wire must keep at least this fraction of in-process pipelined
    // throughput (time in-process / time over TCP, same programs).
    Gate::same_run(
        "pipelined/in-process",
        "pipelined/tcp",
        Bound::AtLeast(0.75),
    ),
];

/// N concurrent clients each running TOTAL_OPS/N submit round trips;
/// per-op latencies are pooled.
fn round_trips(clients: usize) -> Vec<f64> {
    let server = memory_server(TOTAL_OPS + 1, 16);
    let net = loopback(server, CLIENT_COUNTS[CLIENT_COUNTS.len() - 1] + 8, 64);
    let addr = net.local_addr();
    let per_client = (TOTAL_OPS / clients).max(1);
    let samples = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                std::thread::Builder::new()
                    .name(format!("bench-client-{c}"))
                    .stack_size(256 * 1024)
                    .spawn_scoped(scope, move || {
                        let mut client = Client::connect(addr).expect("connect");
                        let mut times = Vec::with_capacity(per_client);
                        for i in 0..per_client {
                            let program = labeled_program(&format!("L{c}x{i}"));
                            let begin = Instant::now();
                            client
                                .submit_wait_retrying(&program, 64)
                                .expect("submit round trip");
                            times.push(begin.elapsed().as_nanos() as f64);
                        }
                        client.goodbye().expect("goodbye");
                        times
                    })
                    .expect("spawn bench client")
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("bench client"))
            .collect()
    });
    net.shutdown().expect("shutdown");
    samples
}

fn main() {
    Bench::run("net", GATES, |bench| {
        for clients in CLIENT_COUNTS {
            bench.latencies(
                &format!("round-trip/clients-{clients}"),
                round_trips(clients),
            );
        }

        bench
            .time_with_setup(
                "pipelined/tcp",
                PipelinedWire::start,
                PipelinedWire::submit_all,
            )
            .note("programs", PIPELINED_PROGRAMS as f64);
        // The in-process reference at the same batch ceiling and workload.
        bench
            .time_with_setup(
                "pipelined/in-process",
                || {
                    let server = memory_server(PIPELINED_PROGRAMS + 1, PIPELINED_MAX_BATCH);
                    (server, pipelined_programs())
                },
                |(server, programs)| submit_all_in_process(server, programs),
            )
            .note("programs", PIPELINED_PROGRAMS as f64);
    });
}
