//! The deterministic crash-recovery torture harness.
//!
//! The crate's durability claims ("a torn final record is detected and
//! ignored", "checkpoint is atomic", "a group commits all or nothing")
//! are only worth anything if they hold under real fault schedules.
//! This module enumerates them:
//!
//! * [`crash_sweep`] — commit a seeded random workload in seed-drawn
//!   batches of `1..=max_batch` programs through
//!   [`Store::execute_group`], with checkpoints and a method
//!   registration falling between batches. One run against a
//!   fault-free [`FaultVfs`] builds an **oracle** (the committed state
//!   at every batch boundary) and counts the I/O operations; then the
//!   workload re-runs once *per operation*, crashing hard at that
//!   operation, rebooting the frozen disk image (durable namespace
//!   only, un-synced tails torn at seed-chosen offsets), reopening the
//!   store, and checking **prefix consistency**: the recovered
//!   instance must be graph-isomorphic (via `good-graph`'s labeled
//!   isomorphism, through [`Instance::isomorphic_to`]) to `history[j]`
//!   for some `j` between the committed and the attempted batch count
//!   at the moment of the crash. The history holds only batch
//!   boundaries, so a crash between the records of one group must
//!   recover to a state before or after the whole group. The recovered
//!   store must then accept a probe append and survive one more
//!   reopen, which catches truncation bugs that only corrupt the
//!   *next* record. With `max_batch: 1` (the default) every batch is
//!   one program, journaled as a plain self-committing `Apply`.
//! * [`fault_soak`] — run a workload under seeded random *non-fatal*
//!   faults (torn writes, fsync failures, rename failures) and check
//!   that every failure either leaves the store consistent or poisons
//!   it, and that reopening always recovers a state consistent with an
//!   online oracle.
//!
//! Everything is deterministic in the seed: equal configs produce
//! byte-identical fault logs and equal reports, so any failure is
//! reproducible from its seed and crash point alone (see the
//! `--fault-seed` flag on `good-db`).

use crate::vfs::{FaultPlan, FaultVfs, Vfs};
use crate::{Store, StoreError};
use good_core::gen::{bench_scheme, random_workload};
use good_core::instance::Instance;
use good_core::label::Label;
use good_core::method::{Method, MethodCall, MethodSpec};
use good_core::ops::NodeAddition;
use good_core::pattern::Pattern;
use good_core::program::{Env, Operation, Program, DEFAULT_FUEL};
use good_core::scheme::Scheme;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::Arc;

/// The journal path inside the simulated filesystem.
pub const JOURNAL_PATH: &str = "/torture/db.journal";

/// Configuration for one torture sweep.
#[derive(Debug, Clone)]
pub struct TortureConfig {
    /// Seed for the workload, the batch sizes, and every fault
    /// decision.
    pub seed: u64,
    /// Number of random workload programs (a method call is spliced in
    /// after the first).
    pub programs: usize,
    /// Checkpoint before the batch holding every `n`-th program (0
    /// disables).
    pub checkpoint_every: usize,
    /// Largest group commit; batch sizes are seed-drawn in
    /// `1..=max_batch`, so 1 commits every program on its own.
    pub max_batch: usize,
}

impl Default for TortureConfig {
    fn default() -> Self {
        TortureConfig {
            seed: 42,
            programs: 16,
            checkpoint_every: 6,
            max_batch: 1,
        }
    }
}

/// One crash schedule's verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleOutcome {
    /// The I/O operation index the crash fired at.
    pub crash_at: u64,
    /// Batches committed before the crash (programs, when `max_batch`
    /// is 1).
    pub acked: usize,
    /// `acked`, plus one if the crash interrupted a batch whose records
    /// may have partially reached the disk.
    pub attempted: usize,
    /// The oracle history index the recovered state matched, or `None`
    /// when the crash predated a durable store creation (no journal
    /// survives, legitimately).
    pub recovered_to: Option<usize>,
    /// The full deterministic fault log of the schedule.
    pub fault_log: Vec<String>,
}

/// The verdicts of a full crash sweep. Equal configs produce equal
/// reports — the determinism contract torture tests assert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TortureReport {
    /// Number of crash points enumerated (= I/O ops in the workload).
    pub crash_points: u64,
    /// Per-schedule outcomes, in crash-point order.
    pub outcomes: Vec<ScheduleOutcome>,
}

impl TortureReport {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        let torn = self
            .outcomes
            .iter()
            .filter(|o| o.fault_log.iter().any(|l| l.contains("tore at")))
            .count();
        format!(
            "{} crash schedules recovered to a committed prefix ({} with torn appends)",
            self.crash_points, torn
        )
    }
}

/// A torture failure: a schedule whose recovery broke the contract.
#[derive(Debug)]
pub struct TortureFailure {
    /// The workload/fault seed.
    pub seed: u64,
    /// The crash point, if the failing run had one.
    pub crash_at: Option<u64>,
    /// What went wrong.
    pub message: String,
    /// The deterministic fault log up to the failure.
    pub fault_log: Vec<String>,
}

impl fmt::Display for TortureFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "torture schedule failed: {}", self.message)?;
        match self.crash_at {
            Some(op) => writeln!(
                f,
                "reproduce with: good-db --fault-seed {} --fault-crash-at {op}",
                self.seed
            )?,
            None => writeln!(f, "reproduce with: good-db --fault-seed {}", self.seed)?,
        }
        writeln!(f, "fault log:")?;
        for line in &self.fault_log {
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

impl std::error::Error for TortureFailure {}

/// Result alias for torture runs.
pub type TortureResult<T> = std::result::Result<T, TortureFailure>;

/// The `Mark` method: one `Mark` node attached to the receiver `Info`.
/// The sweep registers it mid-workload, so RegisterMethod records and
/// checkpoint re-logging are on the torture path.
pub fn mark_method() -> Method {
    let mut pattern = Pattern::new();
    let head = pattern.method_head("Mark");
    let receiver = pattern.node("Info");
    pattern.edge(head, good_core::label::receiver_label(), receiver);
    let na = NodeAddition::new(pattern, "Mark", [(Label::new("on"), receiver)]);
    let mut interface = Scheme::new();
    interface.add_object_label("Mark").expect("fresh scheme");
    interface.add_functional_label("on").expect("fresh scheme");
    interface.add_object_label("Info").expect("fresh scheme");
    interface
        .add_triple("Mark", "on", "Info")
        .expect("fresh scheme");
    Method::new(
        MethodSpec::new("Mark", "Info", []),
        vec![Operation::NodeAdd(na)],
        interface,
    )
}

/// A program calling [`mark_method`] on every `Info` object. The sweep
/// splices it into the workload right after the registration, so
/// method execution (K-frame construction, fuel accounting, method
/// spans) is on the torture path, not just the RegisterMethod record.
pub fn mark_call_program() -> Program {
    let mut pattern = Pattern::new();
    let receiver = pattern.node("Info");
    let call = MethodCall::new("Mark", pattern, receiver, []);
    Program::from_ops([Operation::Call(call)])
}

/// An unconditional append used to prove a recovered journal accepts
/// new records cleanly.
fn probe_program() -> Program {
    Program::from_ops([Operation::NodeAdd(NodeAddition::new(
        Pattern::new(),
        "Probe",
        [],
    ))])
}

struct RunOutcome {
    /// `Store::create` returned Ok (the journal must then survive).
    created: bool,
    acked: usize,
    attempted: usize,
}

fn failure(seed: u64, crash_at: Option<u64>, message: String, vfs: &FaultVfs) -> TortureFailure {
    TortureFailure {
        seed,
        crash_at,
        message,
        fault_log: vfs.fault_log(),
    }
}

/// Where a failed step leaves a run: a fired crash point ends it with
/// `acked` batches committed and `attempted` possibly on disk; any
/// other failure breaks the contract.
fn stopped(
    vfs: &FaultVfs,
    seed: u64,
    (acked, attempted): (usize, usize),
    what: &str,
    err: StoreError,
) -> TortureResult<RunOutcome> {
    if !vfs.crashed() {
        let message = format!("{what} failed without a crash: {err}");
        return Err(failure(seed, vfs.plan_crash_at(), message, vfs));
    }
    Ok(RunOutcome {
        created: true,
        acked,
        attempted,
    })
}

/// The seeded workload, with the `Mark` call spliced in at index 1, cut
/// into seed-drawn batches — the same cut for the golden run and every
/// crash schedule.
fn batches(config: &TortureConfig) -> Vec<Vec<Program>> {
    let mut programs = random_workload(config.seed, config.programs);
    programs.insert(1, mark_call_program());
    // Decorrelate the cut from the workload's own seed stream.
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut batches = Vec::new();
    let mut rest = programs.as_slice();
    while !rest.is_empty() {
        let take = rng.gen_range(1..=config.max_batch.clamp(1, rest.len()));
        batches.push(rest[..take].to_vec());
        rest = &rest[take..];
    }
    batches
}

/// Drive the batched workload against `vfs` until completion or the
/// first crash-induced error. A checkpoint due before any program of a
/// batch runs before the whole batch, and so does the `Mark`
/// registration before the batch holding its call. `history`, when
/// supplied, collects the committed state after creation and after
/// every committed batch — deliberately *only* batch boundaries, so
/// prefix-consistency checks against it reject any mid-batch state.
fn run_workload(
    vfs: &FaultVfs,
    config: &TortureConfig,
    mut history: Option<&mut Vec<Instance>>,
) -> TortureResult<RunOutcome> {
    let seed = config.seed;
    let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let mut store = match Store::create_with_vfs(arc, JOURNAL_PATH, bench_scheme()) {
        Ok(store) => store,
        Err(err) => {
            let mut outcome = stopped(vfs, seed, (0, 0), "store creation", err)?;
            outcome.created = false;
            return Ok(outcome);
        }
    };
    if let Some(history) = history.as_deref_mut() {
        history.push(store.instance().clone());
    }
    let mut acked = 0usize;
    let mut start = 0usize;
    for (index, batch) in batches(config).iter().enumerate() {
        let end = start + batch.len();
        let every = config.checkpoint_every;
        if every > 0 && (start.max(1)..end).any(|step| step % every == 0) {
            if let Err(err) = store.checkpoint() {
                return stopped(vfs, seed, (acked, acked), "checkpoint", err);
            }
        }
        if (start..end).contains(&1) {
            if let Err(err) = store.register_method(mark_method()) {
                return stopped(vfs, seed, (acked, acked), "method registration", err);
            }
        }
        match store.execute_group(batch) {
            Ok(outcomes) => {
                if let Some(err) = outcomes.into_iter().find_map(Result::err) {
                    let message = format!("batch {index} rejected a program: {err}");
                    return Err(failure(seed, vfs.plan_crash_at(), message, vfs));
                }
                acked += 1;
                if let Some(history) = history.as_deref_mut() {
                    history.push(store.instance().clone());
                }
            }
            // The crash interrupted this batch's records: some or all
            // of them (and the group's commit marker) may have reached
            // the disk.
            Err(err) => {
                let what = format!("batch {index}");
                return stopped(vfs, seed, (acked, acked + 1), &what, err);
            }
        }
        start = end;
    }
    Ok(RunOutcome {
        created: true,
        acked,
        attempted: acked,
    })
}

/// The fault-free golden run: the batch-boundary history plus the
/// total I/O operation count (= the crash-point space).
fn golden_run(config: &TortureConfig) -> TortureResult<(Vec<Instance>, u64)> {
    let vfs = FaultVfs::new(FaultPlan::reliable(config.seed));
    let mut history = Vec::new();
    let outcome = run_workload(&vfs, config, Some(&mut history))?;
    let expected = batches(config).len();
    if outcome.acked != expected {
        let message = format!(
            "golden run committed {} of {expected} batches",
            outcome.acked
        );
        return Err(failure(config.seed, None, message, &vfs));
    }
    Ok((history, vfs.op_count()))
}

/// Post-crash verification: reboot the frozen disk, reopen the
/// journal, and check prefix consistency — the recovered instance must
/// match `history[j]` for some `j` in `[acked, attempted]`. Then prove
/// the recovered journal accepts a probe append that survives one more
/// reopen.
fn verify_prefix_recovery(
    seed: u64,
    crash_at: u64,
    history: &[Instance],
    outcome: &RunOutcome,
    vfs: &FaultVfs,
) -> TortureResult<ScheduleOutcome> {
    let fail = |message: String| failure(seed, Some(crash_at), message, vfs);
    if !vfs.crashed() {
        return Err(fail(format!("crash point {crash_at} never fired")));
    }
    let disk = vfs.reboot();
    let arc: Arc<dyn Vfs> = Arc::new(disk.clone());
    let mut store = match Store::open_with_vfs(Arc::clone(&arc), JOURNAL_PATH) {
        Ok(store) => store,
        Err(StoreError::Io(err))
            if err.kind() == std::io::ErrorKind::NotFound && !outcome.created =>
        {
            // The crash predated a durable creation: losing the whole
            // journal is legal because nothing was ever acknowledged.
            return Ok(ScheduleOutcome {
                crash_at,
                acked: 0,
                attempted: 0,
                recovered_to: None,
                fault_log: vfs.fault_log(),
            });
        }
        Err(err) => {
            let acked = outcome.acked;
            return Err(fail(format!(
                "recovery failed after crash (acked {acked}): {err}"
            )));
        }
    };
    let recovered_to =
        (outcome.acked..=outcome.attempted).find(|&j| store.instance().isomorphic_to(&history[j]));
    let Some(recovered_to) = recovered_to else {
        return Err(fail(format!(
            "recovered state ({} nodes) matches no committed prefix in [{}, {}]",
            store.instance().node_count(),
            outcome.acked,
            outcome.attempted
        )));
    };
    // A recovered journal must accept new appends and survive another
    // open — this is what catches torn tails that were replayed but not
    // truncated (the next record would concatenate onto them).
    if let Err(err) = store.execute(&probe_program()) {
        return Err(fail(format!(
            "recovered store rejected a probe append: {err}"
        )));
    }
    drop(store);
    match Store::open_with_vfs(arc, JOURNAL_PATH) {
        Ok(reopened) if reopened.instance().label_count(&Label::new("Probe")) == 1 => {}
        Ok(_) => return Err(fail("probe append did not survive a reopen".into())),
        Err(err) => return Err(fail(format!("reopen after probe append failed: {err}"))),
    }
    Ok(ScheduleOutcome {
        crash_at,
        acked: outcome.acked,
        attempted: outcome.attempted,
        recovered_to: Some(recovered_to),
        fault_log: vfs.fault_log(),
    })
}

/// Run one crash schedule and verify prefix-consistent recovery.
fn run_crash_schedule(
    config: &TortureConfig,
    history: &[Instance],
    crash_at: u64,
) -> TortureResult<ScheduleOutcome> {
    let vfs = FaultVfs::new(FaultPlan::crash_at(config.seed, crash_at));
    let outcome = run_workload(&vfs, config, None)?;
    verify_prefix_recovery(config.seed, crash_at, history, &outcome, &vfs)
}

/// Run a single crash schedule against the seeded workload's oracle —
/// the reproduction path behind `good-db --fault-seed N
/// --fault-crash-at K`.
pub fn crash_schedule(config: &TortureConfig, crash_at: u64) -> TortureResult<ScheduleOutcome> {
    let (history, total_ops) = golden_run(config)?;
    if crash_at >= total_ops {
        return Err(TortureFailure {
            seed: config.seed,
            crash_at: Some(crash_at),
            message: format!(
                "crash point {crash_at} out of range: the workload issues {total_ops} operations"
            ),
            fault_log: Vec::new(),
        });
    }
    run_crash_schedule(config, &history, crash_at)
}

/// Enumerate every crash point of the seeded workload — every point
/// between the records of one group included — and verify that each
/// one recovers to a committed batch boundary of the oracle history.
/// See the module docs for the exact contract.
pub fn crash_sweep(config: &TortureConfig) -> TortureResult<TortureReport> {
    let (history, total_ops) = golden_run(config)?;
    let mut outcomes = Vec::with_capacity(total_ops as usize);
    for crash_at in 0..total_ops {
        outcomes.push(run_crash_schedule(config, &history, crash_at)?);
    }
    Ok(TortureReport {
        crash_points: total_ops,
        outcomes,
    })
}

/// Configuration for [`fault_soak`].
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Seed for the workload and every fault decision.
    pub seed: u64,
    /// Number of workload programs.
    pub programs: usize,
    /// Checkpoint before every `n`-th program (0 disables).
    pub checkpoint_every: usize,
    /// Per-append probability of a torn write.
    pub torn_write_probability: f64,
    /// Per-sync probability of an fsync failure.
    pub sync_error_probability: f64,
    /// Per-rename probability of a rename failure.
    pub rename_error_probability: f64,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            seed: 42,
            programs: 24,
            checkpoint_every: 7,
            torn_write_probability: 0.1,
            sync_error_probability: 0.1,
            rename_error_probability: 0.25,
        }
    }
}

/// What a soak run survived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoakReport {
    /// Programs the workload attempted.
    pub programs: usize,
    /// Programs that ended up applied (acknowledged, or ambiguous and
    /// resolved as applied on reopen).
    pub applied: usize,
    /// Times the store was poisoned and had to be reopened.
    pub reopens: usize,
    /// Checkpoint attempts that failed non-fatally (store stayed
    /// usable without a reopen).
    pub checkpoint_failures: usize,
}

/// Run the workload under seeded random non-fatal faults and verify
/// that every failure either leaves the store consistent or poisons it
/// into a reopen that recovers a state consistent with the oracle.
pub fn fault_soak(config: &SoakConfig) -> TortureResult<SoakReport> {
    let fail = |message: String, vfs: &FaultVfs| failure(config.seed, None, message, vfs);

    let programs = random_workload(config.seed, config.programs);
    let vfs = FaultVfs::new(FaultPlan::reliable(config.seed));
    let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let mut store = Store::create_with_vfs(Arc::clone(&arc), JOURNAL_PATH, bench_scheme())
        .map_err(|err| fail(format!("fault-free creation failed: {err}"), &vfs))?;
    // Creation is kept fault-free so every schedule exercises the
    // interesting part: appends, syncs, checkpoints, and reopens.
    vfs.set_probabilities(
        config.torn_write_probability,
        config.sync_error_probability,
        config.rename_error_probability,
    );

    let mut oracle = store.instance().clone();
    let mut env = Env::with_fuel(DEFAULT_FUEL);
    let mut applied = 0usize;
    let mut reopens = 0usize;
    let mut checkpoint_failures = 0usize;

    // Reopen a poisoned store from the live (not crashed) filesystem,
    // resolving whether `ambiguous` — the program whose append failed —
    // made it into the journal. Faults pause during recovery: recovery
    // I/O failing is a different scenario than this one checks.
    let reopen = |oracle: &mut Instance,
                  env: &mut Env,
                  applied: &mut usize,
                  ambiguous: Option<&Program>|
     -> TortureResult<Store> {
        vfs.set_probabilities(0.0, 0.0, 0.0);
        let recovered = Store::open_with_vfs(Arc::clone(&arc), JOURNAL_PATH)
            .map_err(|err| fail(format!("reopen after poisoning failed: {err}"), &vfs))?;
        let mut resolved = false;
        if recovered.instance().isomorphic_to(oracle) {
            resolved = true;
        } else if let Some(program) = ambiguous {
            let mut with_ambiguous = oracle.clone();
            env.refuel();
            program
                .apply(&mut with_ambiguous, env)
                .map_err(|err| fail(format!("oracle replay failed: {err}"), &vfs))?;
            if recovered.instance().isomorphic_to(&with_ambiguous) {
                *oracle = with_ambiguous;
                *applied += 1;
                resolved = true;
            }
        }
        if !resolved {
            return Err(fail(
                "reopened state matches neither the oracle nor the ambiguous program".into(),
                &vfs,
            ));
        }
        vfs.set_probabilities(
            config.torn_write_probability,
            config.sync_error_probability,
            config.rename_error_probability,
        );
        Ok(recovered)
    };

    for (step, program) in programs.iter().enumerate() {
        if config.checkpoint_every > 0 && step > 0 && step % config.checkpoint_every == 0 {
            if let Err(err) = store.checkpoint() {
                if store.poisoned().is_some() {
                    reopens += 1;
                    store = reopen(&mut oracle, &mut env, &mut applied, None)?;
                } else if matches!(err, StoreError::Io(_)) {
                    // Pre-rename failure: old journal intact, no reopen
                    // needed — but the store must still work.
                    checkpoint_failures += 1;
                } else {
                    return Err(fail(format!("unexpected checkpoint error: {err}"), &vfs));
                }
            }
        }
        match store.execute(program) {
            Ok(_) => {
                env.refuel();
                program
                    .apply(&mut oracle, &mut env)
                    .map_err(|err| fail(format!("oracle apply failed: {err}"), &vfs))?;
                applied += 1;
            }
            Err(StoreError::Model(_)) => {
                // Legitimate rejection: an earlier fault may have
                // dropped the program that introduced this program's
                // labels. The oracle must reject it identically and
                // the store state must be untouched (clone-commit).
                let mut probe = oracle.clone();
                env.refuel();
                if program.apply(&mut probe, &mut env).is_ok() {
                    return Err(fail(
                        format!("store rejected a program the oracle accepts at step {step}"),
                        &vfs,
                    ));
                }
            }
            Err(StoreError::Io(_)) => {
                // An injected append fault must poison the store, and
                // the poisoned store must refuse further mutation with
                // the documented error.
                if store.poisoned().is_none() {
                    return Err(fail(
                        format!("append fault at step {step} did not poison the store"),
                        &vfs,
                    ));
                }
                match store.execute(program) {
                    Err(StoreError::Poisoned(_)) => {}
                    other => {
                        return Err(fail(
                            format!("poisoned store accepted a mutation: {other:?}"),
                            &vfs,
                        ));
                    }
                }
                reopens += 1;
                store = reopen(&mut oracle, &mut env, &mut applied, Some(program))?;
            }
            Err(err) => {
                return Err(fail(format!("unexpected execute error: {err}"), &vfs));
            }
        }
    }
    if !store.instance().isomorphic_to(&oracle) {
        return Err(fail(
            "final store state diverged from the oracle".into(),
            &vfs,
        ));
    }
    Ok(SoakReport {
        programs: config.programs,
        applied,
        reopens,
        checkpoint_failures,
    })
}
