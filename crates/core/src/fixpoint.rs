//! Semi-naive fixpoint evaluation — the one "apply until quiet" loop
//! over operations (DESIGN.md, "Fixpoint evaluation").
//!
//! The paper's starred edge addition is "repeated as long as new edges
//! can be added" (Section 4.1), and a rule set saturates when a whole
//! round changes nothing (Section 5). Both are [`fixpoint`]: rounds of
//! rule applications, in which an edge-addition rule is fully matched
//! the first time and afterwards matched only against the edges added
//! since it was last evaluated.
//!
//! * The edges an edge-addition rule actually adds are appended to a
//!   **delta log**, one sorted batch per label; each such rule keeps a
//!   **watermark** into it.
//! * A later evaluation seeds the matcher from the log's suffix
//!   ([`matchings_using`]): additions can only *remove* matchings of a
//!   crossed pattern, so a matching the rule has not acted on yet maps
//!   some positive pattern edge onto an edge newer than its watermark.
//!   When no logged label occurs in the pattern the rule has nothing to
//!   do and is not matched at all.
//! * Anything that is not a logged edge addition — a node creation, a
//!   deletion, an abstraction, a method call — bumps an **epoch**; a
//!   rule whose epoch is stale is fully re-matched, exactly as the naive
//!   loop would.
//!
//! Rounds, fuel and `edges_added` are those of the naive loop (one fuel
//! unit per rule application, quiescent round included); only
//! `OpReport::matchings` differs — it counts the matchings each round
//! actually enumerated.
//!
//! The loop reads and writes through a [`ViewMut`]: on the commit and
//! program path that is the instance, on the query path the derived
//! relations beside it, so a property path is evaluated by this same
//! loop without storing an edge.

use crate::derived::ViewMut;
use crate::error::Result;
use crate::matching::{find_match_table, matchings_using, Delta};
use crate::ops::{EdgeAddition, OpReport};
use crate::program::{record_report, Env, Operation};
use good_trace::LiveCounter;

/// Rounds executed by [`fixpoint`], process-wide.
static LIVE_ROUNDS: LiveCounter = LiveCounter::new("fixpoint.rounds");
/// Delta-log edges handed to delta-seeded rule evaluations, process-wide.
static LIVE_DELTA_EDGES: LiveCounter = LiveCounter::new("fixpoint.delta_edges");

/// One rule of a fixpoint: an edge addition is evaluated incrementally,
/// any other operation is applied in full every round.
pub(crate) enum FixRule<'a> {
    /// Delta-seeded after its first evaluation.
    EdgeAdd(&'a EdgeAddition),
    /// Applied to the instance through [`Operation::apply`].
    Other(&'a Operation),
}

impl<'a> From<&'a Operation> for FixRule<'a> {
    fn from(op: &'a Operation) -> Self {
        match op {
            Operation::EdgeAdd(ea) => FixRule::EdgeAdd(ea),
            other => FixRule::Other(other),
        }
    }
}

/// What [`fixpoint`] did.
pub(crate) struct Fixpoint {
    /// Rounds executed, the quiescent one included.
    pub rounds: usize,
    /// Per-rule totals across all rounds, in rule order.
    pub reports: Vec<OpReport>,
}

/// Where a rule stood when it was last evaluated.
#[derive(Clone, Copy)]
struct Mark {
    /// Length of the delta log then: later entries are the rule's delta.
    watermark: usize,
    /// The epoch then: a different one now means the delta log does not
    /// describe everything that happened since.
    epoch: u64,
}

/// Apply `rules` in order, round after round, until a whole round
/// changes nothing.
pub(crate) fn fixpoint(
    rules: &[FixRule<'_>],
    mut target: ViewMut<'_>,
    env: &mut Env,
) -> Result<Fixpoint> {
    let mut log: Vec<Delta> = Vec::new();
    let mut epoch = 0u64;
    let mut marks: Vec<Option<Mark>> = vec![None; rules.len()];
    let mut reports = vec![OpReport::default(); rules.len()];
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        LIVE_ROUNDS.incr();
        let mut changed = false;
        for (index, rule) in rules.iter().enumerate() {
            let report = match rule {
                FixRule::Other(op) => {
                    let report = op.apply(target.instance, env)?;
                    if report.changed() {
                        epoch += 1;
                    }
                    report
                }
                FixRule::EdgeAdd(ea) => {
                    env.burn_fuel()?;
                    let mut op_span = good_trace::span("op", "op/EA");
                    let mark = &mut marks[index];
                    let result =
                        edge_add_round(ea, target.reborrow(), &mut log, mark, epoch, rounds);
                    record_report(&mut op_span, &result);
                    result?
                }
            };
            changed |= report.changed();
            reports[index].absorb(&report);
        }
        if !changed {
            return Ok(Fixpoint { rounds, reports });
        }
    }
}

/// One evaluation of an edge-addition rule: full when the rule is new or
/// its epoch is stale, delta-seeded otherwise.
fn edge_add_round(
    ea: &EdgeAddition,
    target: ViewMut<'_>,
    log: &mut Vec<Delta>,
    mark: &mut Option<Mark>,
    epoch: u64,
    round: usize,
) -> Result<OpReport> {
    let mut span = good_trace::span("fixpoint", "fixpoint/round");
    let delta = mark
        .filter(|at| at.epoch == epoch)
        .map(|at| &log[at.watermark..]);
    *mark = Some(Mark {
        watermark: log.len(),
        epoch,
    });
    let delta_edges: usize =
        delta.map_or(0, |delta| delta.iter().map(|(_, pairs)| pairs.len()).sum());
    LIVE_DELTA_EDGES.add(delta_edges as u64);
    let (report, added) = ea.apply_with(target, |pattern, view| match delta {
        None => find_match_table(pattern, view),
        Some(delta) => matchings_using(pattern, view, delta),
    })?;
    if span.is_live() {
        span.arg("round", round);
        span.arg("delta_edges", delta_edges);
        span.arg("matchings", report.matchings);
        span.arg("edges_added", report.edges_added);
        span.arg("seeded", delta.is_some());
    }
    log.extend(added.into_iter().filter(|(_, pairs)| !pairs.is_empty()));
    Ok(report)
}
