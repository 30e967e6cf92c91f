//! E19 — the cost of always-on observability: pipelined wire
//! throughput (E17's shape) with the live-metrics path enabled vs
//! disabled via the `set_live_metrics` kill switch, and the stats
//! round-trip latency of `Frame::Stats` against a warm server
//! (EXPERIMENTS.md §3).
//!
//! `--check` fails when the live metrics cost more than the overhead
//! budget of E17-pipelined throughput, or when the stats round-trip
//! p50 regresses past the recorded baseline (plus generous
//! shared-runner slack).

use good_bench::harness::{Bench, Bound, Gate};
use good_bench::{labeled_program, PipelinedWire, PIPELINED_PROGRAMS};
use std::time::Instant;

/// Stats round trips timed against a warm server.
const STATS_OPS: usize = 512;

const GATES: &[Gate] = &[
    // The live-metrics overhead budget: the enabled arm keeps at least
    // 98% of the disabled arm's throughput (time off / time on).
    Gate::same_run(
        "pipelined/live-off",
        "pipelined/live-on",
        Bound::AtLeast(0.98),
    ),
    Gate::vs_baseline("stats-round-trip", 3.0, 2_000_000.0),
];

/// Stats round trips against a server warmed with 64 commits, so the
/// snapshot carries live counters, histograms, the MVCC ring, and
/// nonempty slow-log bookkeeping — the realistic serving cost, not an
/// empty-registry best case.
fn stats_round_trips() -> Vec<f64> {
    let mut wire = PipelinedWire::start();
    let client = wire.client();
    for i in 0..64 {
        client
            .submit_wait(&labeled_program(&format!("W{i}")))
            .expect("warm");
    }
    (0..STATS_OPS)
        .map(|_| {
            let begin = Instant::now();
            let json = client.stats().expect("stats round trip");
            let elapsed = begin.elapsed().as_nanos() as f64;
            assert!(json.starts_with('{'), "stats reply must be JSON");
            elapsed
        })
        .collect()
}

fn main() {
    Bench::run("obs", GATES, |bench| {
        for (arm, enabled) in [("live-off", false), ("live-on", true)] {
            good_trace::set_live_metrics(enabled);
            bench
                .time_with_setup(
                    &format!("pipelined/{arm}"),
                    PipelinedWire::start,
                    PipelinedWire::submit_all,
                )
                .note("programs", PIPELINED_PROGRAMS as f64);
        }
        bench.latencies("stats-round-trip", stats_round_trips());
    });
}
