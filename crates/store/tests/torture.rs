//! Crash-recovery torture tests.
//!
//! The fast tests here run in tier-1 CI on fixed seeds; the full
//! matrix (every crash point of larger workloads across many seeds,
//! ≥200 schedules) is `#[ignore]`d and runs in the nightly job via
//! `cargo test --workspace --release -- --ignored`.

use good_store::torture::{crash_sweep, fault_soak, SoakConfig, TortureConfig};
use proptest::prelude::*;

#[test]
fn smoke_every_crash_point_recovers_to_a_committed_prefix() {
    let config = TortureConfig {
        seed: 7,
        programs: 6,
        checkpoint_every: 3,
        max_batch: 1,
    };
    let report = crash_sweep(&config).unwrap_or_else(|failure| panic!("{failure}"));
    assert!(
        report.crash_points >= 15,
        "workload too small to be interesting: {} ops",
        report.crash_points
    );
    for outcome in &report.outcomes {
        if let Some(recovered_to) = outcome.recovered_to {
            assert!(
                outcome.acked <= recovered_to && recovered_to <= outcome.attempted,
                "crash {}: recovered to {recovered_to}, window [{}, {}]",
                outcome.crash_at,
                outcome.acked,
                outcome.attempted
            );
        }
    }
    // At least one schedule must exercise the torn-append path, or the
    // sweep is not covering the contract it exists for.
    assert!(
        report.outcomes.iter().any(|o| o
            .fault_log
            .iter()
            .any(|l| l.contains("CRASH during append"))),
        "no schedule crashed mid-append"
    );
}

#[test]
fn same_seed_reproduces_identical_fault_sequences() {
    let config = TortureConfig {
        seed: 21,
        programs: 5,
        checkpoint_every: 2,
        max_batch: 1,
    };
    let a = crash_sweep(&config).unwrap_or_else(|failure| panic!("{failure}"));
    let b = crash_sweep(&config).unwrap_or_else(|failure| panic!("{failure}"));
    // Outcome equality includes every schedule's textual fault log, so
    // this is the byte-for-byte reproducibility contract.
    assert_eq!(a, b);
    let c = crash_sweep(&TortureConfig { seed: 22, ..config })
        .unwrap_or_else(|failure| panic!("{failure}"));
    assert!(a != c, "different seeds should differ somewhere");
}

/// A batch of one is a plain `execute`: at `max_batch: 1` the smoke
/// sweep lands every schedule where the per-program sweep it replaced
/// did — the `(crash_at, acked, attempted, recovered_to)` list below
/// was recorded from that sweep.
#[test]
fn single_program_batches_reproduce_the_per_program_sweep() {
    let config = TortureConfig {
        seed: 7,
        programs: 6,
        checkpoint_every: 3,
        max_batch: 1,
    };
    let report = crash_sweep(&config).unwrap_or_else(|failure| panic!("{failure}"));
    let schedules: Vec<_> = (report.outcomes.iter())
        .map(|o| (o.crash_at, o.acked, o.attempted, o.recovered_to))
        .collect();
    let recorded = "[(0, 0, 0, None), (1, 0, 0, None), (2, 0, 0, None), (3, 0, 0, None), \
        (4, 0, 1, Some(0)), (5, 0, 1, Some(0)), (6, 1, 1, Some(1)), (7, 1, 1, Some(1)), \
        (8, 1, 2, Some(1)), (9, 1, 2, Some(1)), (10, 2, 3, Some(2)), (11, 2, 3, Some(2)), \
        (12, 3, 3, Some(3)), (13, 3, 3, Some(3)), (14, 3, 3, Some(3)), (15, 3, 3, Some(3)), \
        (16, 3, 3, Some(3)), (17, 3, 3, Some(3)), (18, 3, 3, Some(3)), (19, 3, 3, Some(3)), \
        (20, 3, 3, Some(3)), (21, 3, 4, Some(3)), (22, 3, 4, Some(3)), (23, 4, 5, Some(4)), \
        (24, 4, 5, Some(4)), (25, 5, 6, Some(5)), (26, 5, 6, Some(5)), (27, 6, 6, Some(6)), \
        (28, 6, 6, Some(6)), (29, 6, 6, Some(6)), (30, 6, 6, Some(6)), (31, 6, 6, Some(6)), \
        (32, 6, 6, Some(6)), (33, 6, 6, Some(6)), (34, 6, 6, Some(6)), (35, 6, 6, Some(6)), \
        (36, 6, 7, Some(6)), (37, 6, 7, Some(6))]";
    assert_eq!(format!("{schedules:?}"), recorded);
}

#[test]
fn smoke_fault_soak_survives_injected_faults() {
    let report = fault_soak(&SoakConfig {
        seed: 3,
        programs: 24,
        ..SoakConfig::default()
    })
    .unwrap_or_else(|failure| panic!("{failure}"));
    assert_eq!(report.programs, 24);
    assert!(
        report.applied <= 24,
        "cannot apply more programs than attempted"
    );
}

#[test]
fn smoke_every_group_commit_crash_point_lands_on_a_batch_boundary() {
    let config = TortureConfig {
        seed: 13,
        programs: 10,
        max_batch: 4,
        ..TortureConfig::default()
    };
    let report = crash_sweep(&config).unwrap_or_else(|failure| panic!("{failure}"));
    assert!(
        report.crash_points >= 15,
        "batched workload too small: {} crash points",
        report.crash_points
    );
    // The sweep must include at least one crash *between* the records
    // of a multi-record group that forced recovery to discard the
    // whole group (recovered_to == acked, i.e. the pre-batch boundary).
    assert!(
        report.outcomes.iter().any(|o| {
            o.attempted > o.acked
                && o.recovered_to == Some(o.acked)
                && o.fault_log
                    .iter()
                    .any(|l| l.contains("CRASH during append"))
        }),
        "no schedule discarded a partially-written group"
    );
    // Every schedule that interrupted a group recovered to its
    // pre-batch boundary: a crash inside the group's I/O window means
    // the commit marker was never fsynced, so full survival would need
    // the reboot tear to land exactly at the end of the un-synced
    // suffix — recovery must therefore discard the group, and the
    // verifier has already rejected anything in between.
    for outcome in report.outcomes.iter().filter(|o| o.attempted > o.acked) {
        assert_eq!(
            outcome.recovered_to,
            Some(outcome.acked),
            "crash {} kept a group whose commit marker never synced",
            outcome.crash_at
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Random small configs: every crash point of every workload shape
    // must recover. Failures print a reproduction seed via TortureFailure.
    #[test]
    fn random_configs_survive_a_full_crash_sweep(
        seed in 0u64..1_000_000,
        programs in 3usize..7,
        checkpoint_every in 0usize..4,
    ) {
        let config = TortureConfig { seed, programs, checkpoint_every, max_batch: 1 };
        if let Err(failure) = crash_sweep(&config) {
            panic!("{failure}");
        }
    }

    #[test]
    fn random_group_configs_survive_a_full_crash_sweep(
        seed in 0u64..1_000_000,
        programs in 3usize..7,
        max_batch in 2usize..5,
    ) {
        let config = TortureConfig { seed, programs, max_batch, ..TortureConfig::default() };
        if let Err(failure) = crash_sweep(&config) {
            panic!("{failure}");
        }
    }

    #[test]
    fn random_soaks_stay_consistent(seed in 0u64..1_000_000) {
        let config = SoakConfig { seed, programs: 12, ..SoakConfig::default() };
        if let Err(failure) = fault_soak(&config) {
            panic!("{failure}");
        }
    }
}

/// The full nightly matrix: every crash point of four 20-program
/// workloads — comfortably over the 200-schedule floor the durability
/// contract is certified against.
#[test]
#[ignore = "full torture matrix (~minutes); nightly runs it via --ignored"]
fn nightly_full_torture_matrix() {
    let mut schedules = 0u64;
    for seed in [1u64, 2, 3, 4] {
        let config = TortureConfig {
            seed,
            programs: 20,
            checkpoint_every: 6,
            max_batch: 1,
        };
        let report = crash_sweep(&config).unwrap_or_else(|failure| panic!("{failure}"));
        schedules += report.crash_points;
        println!("seed {seed}: {}", report.summary());
    }
    assert!(
        schedules >= 200,
        "matrix enumerated only {schedules} crash schedules"
    );
}

/// Nightly group-commit matrix: every crash point (including every
/// point between the records of one group) of four batched workloads —
/// over the 200-schedule floor the all-or-nothing-per-batch contract
/// is certified against.
#[test]
#[ignore = "full group-commit torture matrix (~minutes); nightly runs it via --ignored"]
fn nightly_group_commit_torture_matrix() {
    let mut schedules = 0u64;
    for seed in [5u64, 6, 7, 8, 9, 10, 11, 12] {
        let config = TortureConfig {
            seed,
            programs: 18,
            max_batch: 5,
            ..TortureConfig::default()
        };
        let report = crash_sweep(&config).unwrap_or_else(|failure| panic!("{failure}"));
        schedules += report.crash_points;
        println!("seed {seed}: {}", report.summary());
    }
    assert!(
        schedules >= 200,
        "group matrix enumerated only {schedules} crash schedules"
    );
}

/// Nightly soak: long workloads under aggressive fault probabilities.
#[test]
#[ignore = "long fault soak; nightly runs it via --ignored"]
fn nightly_fault_soak_matrix() {
    for seed in 0u64..16 {
        let config = SoakConfig {
            seed,
            programs: 40,
            checkpoint_every: 5,
            torn_write_probability: 0.15,
            sync_error_probability: 0.15,
            rename_error_probability: 0.3,
        };
        let report = fault_soak(&config).unwrap_or_else(|failure| panic!("{failure}"));
        println!(
            "seed {seed}: {} applied / {} attempted, {} reopens, {} checkpoint failures",
            report.applied, report.programs, report.reopens, report.checkpoint_failures
        );
    }
}
