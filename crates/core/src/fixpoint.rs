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
//! * A linear rule `x -R→ y -e→ z ⇒ x -R→ z` ([`Linear`], the shape
//!   of the recursion macro's star and of every unbounded GOODQL path)
//!   is a **frontier sweep** in a seeded round whose delta holds no `e`
//!   edge: Δ_R by source, joined with `y`'s `e`-successors (read once per
//!   fixpoint), gives the seeded search's rows with no search. It is only
//!   the matcher `apply_with` is handed. Its additions leave derived
//!   relations' backward runs, which it never reads, unmerged until
//!   anything else evaluates or the loop ends.
//!
//! Rounds, fuel and `edges_added` are those of the naive loop (one fuel
//! unit per rule application, quiescent round included); only
//! `OpReport::matchings` differs — it counts the matchings each round
//! actually enumerated, which a sweep and the seeded search agree on.
//!
//! The loop reads and writes through a [`ViewMut`]: on the commit and
//! program path that is the instance, on the query path the derived
//! relations beside it, so a property path is evaluated by this same
//! loop without storing an edge.

use crate::derived::{View, ViewMut};
use crate::error::Result;
use crate::label::{EdgeKind, Label};
use crate::matching::{find_match_table, matchings_using, Delta, MatchTable, PlanShape};
use crate::ops::{EdgeAddition, OpReport};
use crate::pattern::PatternNode;
use crate::program::{record_report, Env, Operation};
use good_graph::NodeId;
use good_trace::LiveCounter;

/// Rounds executed by [`fixpoint`], process-wide.
static LIVE_ROUNDS: LiveCounter = LiveCounter::new("fixpoint.rounds");
/// Delta-log edges handed to delta-seeded rule evaluations, process-wide.
static LIVE_DELTA_EDGES: LiveCounter = LiveCounter::new("fixpoint.delta_edges");

/// One rule of a fixpoint: an edge addition is evaluated incrementally,
/// any other operation is applied in full every round.
pub(crate) enum FixRule<'a> {
    /// Delta-seeded after its first evaluation; swept when linear.
    EdgeAdd(&'a EdgeAddition, Option<Linear<'a>>),
    /// Applied to the instance through [`Operation::apply`].
    Other(&'a Operation),
}

impl<'a> From<&'a Operation> for FixRule<'a> {
    fn from(op: &'a Operation) -> Self {
        match op {
            Operation::EdgeAdd(ea) => FixRule::EdgeAdd(ea, Linear::of(ea)),
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

/// An edge-addition rule's state between evaluations.
#[derive(Default)]
struct Standing {
    mark: Option<Mark>,
    successors: Successors,
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
    let mut standings: Vec<Standing> = rules.iter().map(|_| Standing::default()).collect();
    let mut reports = vec![OpReport::default(); rules.len()];
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        LIVE_ROUNDS.incr();
        let mut changed = false;
        for (index, rule) in rules.iter().enumerate() {
            let report = match rule {
                FixRule::Other(op) => {
                    target.settle();
                    let report = op.apply(target.instance, env)?;
                    if report.changed() {
                        epoch += 1;
                    }
                    report
                }
                FixRule::EdgeAdd(ea, linear) => {
                    env.burn_fuel()?;
                    let mut op_span = good_trace::span("op", "op/EA");
                    let (standing, rule) = (&mut standings[index], (*ea, *linear));
                    let result =
                        edge_add_round(rule, target.reborrow(), &mut log, standing, epoch, rounds);
                    record_report(&mut op_span, &result);
                    result?
                }
            };
            changed |= report.changed();
            reports[index].absorb(&report);
        }
        if !changed {
            target.settle();
            return Ok(Fixpoint { rounds, reports });
        }
    }
}

/// One evaluation of an edge-addition rule: full when the rule is new or
/// its epoch is stale, delta-seeded otherwise, and swept when it is
/// linear and its delta holds no `e` edge.
fn edge_add_round(
    (ea, linear): (&EdgeAddition, Option<Linear<'_>>),
    mut target: ViewMut<'_>,
    log: &mut Vec<Delta>,
    standing: &mut Standing,
    epoch: u64,
    round: usize,
) -> Result<OpReport> {
    let mut span = good_trace::span("fixpoint", "fixpoint/round");
    let delta = (standing.mark)
        .filter(|at| at.epoch == epoch)
        .map(|at| &log[at.watermark..]);
    standing.mark = Some(Mark {
        watermark: log.len(),
        epoch,
    });
    let delta_edges: usize =
        delta.map_or(0, |delta| delta.iter().map(|(_, pairs)| pairs.len()).sum());
    LIVE_DELTA_EDGES.add(delta_edges as u64);
    let sweep = (linear.zip(delta))
        .filter(|(linear, delta)| delta.iter().all(|(label, _)| label != linear.e));
    // A swept round's delta is everything since the last evaluation: no
    // `e` edge and no epoch change, so the successor lists still hold.
    let (report, added) = match sweep {
        Some((linear, delta)) => {
            target.defer = true;
            let successors = &mut standing.successors;
            ea.apply_with(target, |_, view| Ok(linear.sweep(view, delta, successors)))
        }
        None => {
            standing.successors.clear();
            target.settle();
            ea.apply_with(target, |pattern, view| match delta {
                None => find_match_table(pattern, view, PlanShape::Planned),
                Some(delta) => matchings_using(pattern, view, delta),
            })
        }
    }?;
    if span.is_live() {
        span.arg("round", round);
        span.arg("delta_edges", delta_edges);
        span.arg("matchings", report.matchings);
        span.arg("edges_added", report.edges_added);
        span.arg("seeded", delta.is_some());
        span.arg("swept", sweep.is_some());
    }
    log.extend(added.into_iter().filter(|(_, pairs)| !pairs.is_empty()));
    Ok(report)
}

/// A linear rule `x -R→ y -e→ z ⇒ x -R→ z`: three distinct positive
/// class nodes with no print value or predicate, one multivalued bold
/// edge, `e ≠ R`. Its seeded rounds are a sweep.
#[derive(Clone, Copy)]
pub(crate) struct Linear<'a> {
    /// `x`, `y` and `z`, and their classes.
    nodes: [NodeId; 3],
    classes: [&'a Label; 3],
    r: &'a Label,
    e: &'a Label,
}

/// `e`'s successor lists a sweep has read, by node index.
type Successors = Vec<Option<Vec<NodeId>>>;

impl<'a> Linear<'a> {
    /// `ea` as a linear rule, if it has the shape.
    pub(crate) fn of(ea: &'a EdgeAddition) -> Option<Self> {
        let (pattern, [bold]) = (&ea.pattern, &ea.edges[..]) else {
            return None;
        };
        let mut edges: Vec<_> = pattern.graph().edges().collect();
        edges.sort_by_key(|edge| edge.payload.label != bold.label);
        let [r, e] = &edges[..] else {
            return None;
        };
        let (nodes, (r, e)) = ([r.src, r.dst, e.dst], (&r.payload.label, &e.payload.label));
        let plain = |node: &PatternNode| node.print.is_none() && node.predicate.is_none();
        let linear = pattern.node_count() == 3
            && (nodes[0] != nodes[1] && nodes[1] != nodes[2] && nodes[0] != nodes[2])
            && (edges[1].src, bold.src, bold.dst) == (nodes[1], nodes[0], nodes[2])
            && (bold.kind == EdgeKind::Multivalued && *r == bold.label && *e != bold.label)
            && !pattern.has_negation()
            && pattern.graph().nodes().all(|node| plain(node.payload));
        let [Some(x), Some(y), Some(z)] = nodes.map(|node| pattern.node_label(node)) else {
            return None;
        };
        let classes = [x, y, z];
        linear.then_some(Linear {
            nodes,
            classes,
            r,
            e,
        })
    }

    /// The seeded search's rows from `delta`, which holds no `e` edge:
    /// `(x, y, z)` for every Δ_R pair `(x, y)` of the rule's classes and
    /// every `e`-successor `z` of `y` of `z`'s class. The pairs of a
    /// derived `R` all join its relation's classes.
    fn sweep(&self, view: View<'_>, delta: &[Delta], successors: &mut Successors) -> MatchTable {
        let [x, y, z] = self.classes;
        let mut table = MatchTable::new(self.nodes.to_vec());
        // Which of `x`, `y`, `z` each column holds.
        let mut columns = [0, 1, 2];
        columns.sort_unstable_by_key(|&at| self.nodes[at]);
        let derived = view.joins(self.r);
        let side = view.incoming(z, self.e);
        let Some(side) = side.filter(|_| derived.unwrap_or((x, y)) == (x, y)) else {
            return table;
        };
        let is = |node, class| derived.is_some() || view.instance.node_label(node) == Some(class);
        for (_, pairs) in delta.iter().filter(|(label, _)| label == self.r) {
            let runs = pairs.chunk_by(|a, b| a.0 == b.0);
            for run in runs.filter(|run| is(run[0].0, x)) {
                for &(src, mid) in run.iter().filter(|pair| is(pair.1, y)) {
                    if successors.len() <= mid.index() {
                        successors.resize(mid.index() + 1, None);
                    }
                    let read = || {
                        side.get(mid)
                            .map_or_else(Vec::new, |set| set.iter().collect())
                    };
                    for &dst in successors[mid.index()].get_or_insert_with(read).iter() {
                        table.push_row(columns.map(|at| [src, mid, dst][at]));
                    }
                }
            }
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derived::Derived;
    use crate::instance::Instance;
    use crate::pattern::Pattern;
    use crate::scheme::SchemeBuilder;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Nodes of `classes`, with every label between every two classes.
    fn instance(classes: &[&str]) -> (Instance, Vec<NodeId>) {
        let mut scheme = SchemeBuilder::new().object("A").object("B");
        for (src, dst) in ["A", "B"]
            .map(|src| ["A", "B"].map(|dst| (src, dst)))
            .concat()
        {
            for label in ["r", "e", "f", "g", "s"] {
                scheme = scheme.multivalued(src, label, dst);
            }
        }
        let mut db = Instance::new(scheme.build());
        let nodes = classes.iter().map(|&class| db.add_object(class).unwrap());
        let nodes = nodes.collect();
        (db, nodes)
    }

    /// An edge `(from, label, to)` between the pattern nodes of a [`rule`].
    type Hop<'a> = (usize, &'a str, usize);

    /// `EA[edges ⇒ bold]` over pattern nodes of `classes`.
    fn rule(classes: &[&str], edges: &[Hop], (src, label, dst): Hop) -> EdgeAddition {
        let mut pattern = Pattern::new();
        let nodes: Vec<_> = classes.iter().map(|&class| pattern.node(class)).collect();
        for &(from, label, to) in edges {
            pattern.edge(nodes[from], label, nodes[to]);
        }
        EdgeAddition::multivalued(pattern, nodes[src], label, nodes[dst])
    }

    /// The instance's edges and the derived relations, settled.
    fn state(mut db: Instance, mut derived: Derived) -> (Vec<(NodeId, Label, NodeId)>, Derived) {
        ViewMut::new(&mut db, &mut derived).settle();
        let edges = db
            .edges()
            .map(|(src, label, dst)| (src, label.clone(), dst));
        (edges.collect(), derived)
    }

    proptest! {
        /// A linear rule swept or searched, over an instance or a derived
        /// `r` and nodes of two classes: one seeded round gives the same
        /// report or error, log and settled edges; among rules that add
        /// its `e` edges and read `r` backwards it saturates alike.
        #[test]
        fn a_sweep_is_the_seeded_search(
            classes in vec(0usize..2, 2..8),
            es in vec((0usize..8, 0usize..8), 4..32),
            rs in vec((0usize..8, 0usize..8, any::<bool>()), 2..32),
            (shape, derived, first) in (vec(0usize..2, 3), any::<bool>(), 0usize..4),
        ) {
            let classes: Vec<_> = classes.iter().map(|&at| ["A", "B"][at]).collect();
            let (mut db, nodes) = instance(&classes);
            // The rule set runs on eight nodes of one class.
            let ((mut rules_db, ones), relation) = (instance(&["A"; 8]), Derived::default());
            let node = |at: usize| nodes[at % nodes.len()];
            let class = |node| classes[nodes.iter().position(|&other| other == node).unwrap()];
            for (&(src, dst), &(f, g, _)) in es.iter().zip(&rs) {
                let _ = db.add_edge(node(src), "e", node(dst));
                rules_db.add_edge(ones[f], "f", ones[g]).unwrap();
                rules_db.add_edge(ones[dst], "g", ones[src]).unwrap();
            }
            let rs = rs.iter().map(|&(src, dst, seed)| ((node(src), node(dst)), seed));
            let mut rs: Vec<_> = rs.collect();
            // A derived label joins one class pair: the first pair's.
            let joins = (class(rs[0].0 .0), class(rs[0].0 .1));
            rs.sort_unstable();
            rs.dedup_by_key(|(pair, _)| *pair);
            rs.retain(|&((src, dst), _)| match derived {
                true => (class(src), class(dst)) == joins,
                false => db.add_edge(src, "r", dst).is_ok(),
            });
            let (r, mut relation) = (Label::new("r"), relation);
            if derived {
                let pairs: Vec<_> = rs.iter().map(|(pair, _)| *pair).collect();
                ViewMut::new(&mut db, &mut relation).add_edges(&r, &pairs, None).unwrap();
            }
            let seeds = rs.iter().filter(|(_, seed)| *seed).map(|(pair, _)| *pair);
            let delta: Vec<Delta> = vec![(r.clone(), seeds.collect())];
            let shape: Vec<_> = shape.iter().map(|&at| ["A", "B"][at]).collect();
            let ea = rule(&shape, &[(0, "r", 1), (1, "e", 2)], (0, "r", 2));
            let round = |linear| {
                let (mut db, mut relation, mut log) = (db.clone(), relation.clone(), delta.clone());
                let target = ViewMut::new(&mut db, derived.then_some(&mut relation));
                let mut standing = Standing { mark: Some(Mark { watermark: 0, epoch: 0 }), ..Standing::default() };
                let outcome = edge_add_round((&ea, linear), target, &mut log, &mut standing, 0, 2);
                (outcome, log, state(db, relation))
            };
            prop_assert_eq!(round(Some(Linear::of(&ea).expect("linear"))), round(None));
            let mut rules = [
                rule(&["A"; 2], &[(0, "f", 1)], (0, "r", 1)),
                rule(&["A"; 3], &[(0, "r", 1), (1, "e", 2)], (0, "r", 2)),
                rule(&["A"; 3], &[(0, "r", 1), (1, "g", 2)], (0, "e", 2)),
                rule(&["A"; 3], &[(0, "r", 1), (2, "r", 1)], (0, "s", 2)),
            ];
            rules.rotate_left(first);
            let saturate = |recognise: bool| {
                let (mut db, mut relation) = (rules_db.clone(), Derived::default());
                let rules: Vec<_> = (rules.iter())
                    .map(|ea| FixRule::EdgeAdd(ea, Linear::of(ea).filter(|_| recognise)))
                    .collect();
                let target = ViewMut::new(&mut db, derived.then_some(&mut relation));
                let outcome = fixpoint(&rules, target, &mut Env::new()).map(|done| (done.rounds, done.reports));
                (outcome, state(db, relation))
            };
            prop_assert_eq!(saturate(true), saturate(false));
        }
    }
}
