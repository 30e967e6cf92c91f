//! E12 — morsel-parallel matching scaling (EXPERIMENTS.md §3).
//!
//! Runs the planned matcher over the 10 000-object stress instance at
//! 1/2/4/8 worker threads on three patterns (the anchored Figure-4
//! point query and 2-/3-node link chains) and asserts bit-for-bit
//! result equality across thread counts. The envelope's `cores` says
//! how many of those threads could actually run at once.

use good_bench::harness::Bench;
use good_bench::{anchored_pattern, chain_pattern, stress_instance};
use good_core::matching::{find_matchings_with, MatchConfig};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    Bench::run("parallel", &[], |bench| {
        let db = stress_instance();
        let patterns = [
            ("figure4-anchored", anchored_pattern("info-0").0),
            ("chain-2", chain_pattern(2).0),
            ("chain-3", chain_pattern(3).0),
        ];
        for (name, pattern) in &patterns {
            let sequential = find_matchings_with(pattern, &db, MatchConfig::sequential())
                .expect("valid pattern");
            for threads in THREAD_COUNTS {
                let config = MatchConfig {
                    threads,
                    parallel_threshold: 128,
                };
                // Determinism contract: identical results at every count.
                let result = find_matchings_with(pattern, &db, config).expect("valid pattern");
                assert_eq!(sequential, result, "{name} differs at {threads} threads");
                bench
                    .time(&format!("{name}/threads-{threads}"), || {
                        find_matchings_with(pattern, &db, config).expect("valid pattern")
                    })
                    .note("matchings", sequential.len() as f64);
            }
        }
    });
}
