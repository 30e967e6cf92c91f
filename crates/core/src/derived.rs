//! Derived relations: edges an evaluation computes but never stores.
//!
//! A GOODQL property path has endpoint semantics, so the labels its
//! derivation program derives only have to be *matchable*. [`Derived`]
//! holds them beside an instance as flat sorted runs per label and
//! direction: keys ascending, each with its neighbours ascending. A
//! label's new pairs arrive as one sorted batch, merged at the cost of
//! the batch and the runs it touches — never a rebuild. The matcher
//! reads runs and the instance's postings alike, through [`Side`].
//! [`View`] is what the matcher and planner read: the instance plus the
//! relations (GOODQL mints every derived label fresh, so it has no
//! instance edges); [`ViewMut`] is where an edge addition writes.

use crate::error::{GoodError, Result};
use crate::instance::Instance;
use crate::label::Label;
use crate::matching::Side;
use good_graph::NodeId;

/// A derived edge `(src, dst)`.
type Pair = (NodeId, NodeId);

/// One direction of a derived relation: keys and each key's run ascending.
#[derive(Debug, Clone, Default)]
pub(crate) struct Runs {
    keys: Vec<NodeId>,
    runs: Vec<Vec<NodeId>>,
    pub(crate) edges: usize,
}

impl Runs {
    /// The neighbours of `key`, if it has any.
    pub(crate) fn get(&self, key: NodeId) -> Option<&[NodeId]> {
        (self.keys.binary_search(&key).ok()).map(|at| &self.runs[at][..])
    }

    /// Merge sorted, distinct `pairs`; returns the new ones. Each key is a
    /// [`seek`] from the last; its run takes one new neighbour by insertion,
    /// more by a stable sort (two sorted runs); new keys join in one pass.
    fn merge(&mut self, pairs: &[Pair]) -> Vec<Pair> {
        let (mut at, mut fresh, mut keyed) = (0, Vec::new(), Vec::new());
        for batch in pairs.chunk_by(|a, b| a.0 == b.0) {
            at = seek(&self.keys, at, batch[0].0);
            if self.keys.get(at) != Some(&batch[0].0) {
                keyed.push((batch[0].0, batch.iter().map(|pair| pair.1).collect()));
                fresh.extend_from_slice(batch);
                continue;
            }
            let run = &mut self.runs[at];
            let old = run.len();
            for &(key, node) in batch {
                if run[..old].binary_search(&node).is_err() {
                    run.push(node);
                    fresh.push((key, node));
                }
            }
            if run.len() == old + 1 {
                let node = run.pop().expect("pushed above");
                run.insert(run.partition_point(|other| *other < node), node);
            } else if run.len() > old && run[old - 1] > run[old] {
                run.sort();
            }
        }
        if !keyed.is_empty() {
            let old = std::mem::take(&mut self.keys).into_iter();
            keyed.extend(old.zip(std::mem::take(&mut self.runs)));
            keyed.sort_by_key(|(key, _)| *key);
            (self.keys, self.runs) = keyed.into_iter().unzip();
        }
        self.edges += fresh.len();
        fresh
    }
}

/// The first position from `from` whose key is not below `key`, galloping.
fn seek(keys: &[NodeId], from: usize, key: NodeId) -> usize {
    let (mut at, mut step) = (from, 1);
    while at + step <= keys.len() && keys[at + step - 1] < key {
        at += step;
        step *= 2;
    }
    at + keys[at..(at + step).min(keys.len())].partition_point(|k| *k < key)
}

/// One derived label's edges, all from `classes.0` to `classes.1` nodes:
/// source → targets `forward`, target → sources `backward`.
#[derive(Debug, Clone)]
struct Relation {
    label: Label,
    classes: (Label, Label),
    forward: Runs,
    backward: Runs,
}

/// Transient derived relations, one per derived edge label.
#[derive(Debug, Clone, Default)]
pub struct Derived {
    relations: Vec<Relation>,
}

impl Derived {
    /// The `(src, dst)` pairs of `label`, ascending.
    pub fn pairs<'a>(&'a self, label: &Label) -> impl Iterator<Item = Pair> + 'a {
        let forward = self.relation(label).into_iter().map(|r| &r.forward);
        let runs = forward.flat_map(|runs| runs.keys.iter().zip(&runs.runs));
        runs.flat_map(|(&src, run)| run.iter().map(move |&dst| (src, dst)))
    }

    fn relation(&self, label: &Label) -> Option<&Relation> {
        self.relations.iter().find(|r| r.label == *label)
    }

    /// Add sorted, distinct `λ` pairs; returns the new ones. A label's edges
    /// must all join one pair of classes, as the instance's `(class, λ)`
    /// index keys them; a batch that does not is refused.
    fn insert(&mut self, instance: &Instance, label: &Label, pairs: &[Pair]) -> Result<Vec<Pair>> {
        let class = |node: NodeId| instance.node_label(node).expect("matched nodes are live");
        let Some(&(src, dst)) = pairs.first() else {
            return Ok(Vec::new());
        };
        if self.relation(label).is_none() {
            let (label, classes) = (label.clone(), (class(src).clone(), class(dst).clone()));
            let (forward, backward) = Default::default();
            (self.relations).push(Relation {
                label,
                classes,
                forward,
                backward,
            });
        }
        let at = self.relations.iter().position(|r| r.label == *label);
        let relation = &mut self.relations[at.expect("pushed above")];
        let (src, dst) = &relation.classes;
        let mut joins = pairs.iter().map(|&(s, d)| (class(s), class(d)));
        if let Some((s, d)) = joins.find(|joins| *joins != (src, dst)) {
            let message = format!("derived label {label} joins {s} to {d} and {src} to {dst}");
            return Err(GoodError::InvariantViolation(message));
        }
        let fresh = relation.forward.merge(pairs);
        let mut backward: Vec<_> = fresh.iter().map(|&(src, dst)| (dst, src)).collect();
        backward.sort_unstable();
        relation.backward.merge(&backward);
        Ok(fresh)
    }
}

/// What the matcher and planner read: an instance, plus derived
/// relations if there are any (none when converted from `&Instance`).
#[derive(Debug, Clone, Copy)]
pub struct View<'a> {
    /// The instance: nodes, labels, print values and the scheme.
    pub(crate) instance: &'a Instance,
    derived: Option<&'a Derived>,
}

impl<'a> From<&'a Instance> for View<'a> {
    fn from(instance: &'a Instance) -> Self {
        View::new(instance, None)
    }
}

impl<'a> View<'a> {
    /// `instance` with `derived` beside it (empty relations add nothing).
    pub fn new(instance: &'a Instance, derived: impl Into<Option<&'a Derived>>) -> Self {
        let derived = derived
            .into()
            .filter(|derived| !derived.relations.is_empty());
        View { instance, derived }
    }

    /// [`Instance::outgoing`] through the view.
    pub(crate) fn outgoing(self, class: &Label, label: &Label) -> Option<Side<'a>> {
        match self.derived.and_then(|derived| derived.relation(label)) {
            Some(r) => (r.classes.0 == *class).then_some(Side::Runs(&r.backward, &r.forward.keys)),
            None => self.instance.outgoing(class, label).map(Side::Index),
        }
    }

    /// [`Instance::incoming`] through the view.
    pub(crate) fn incoming(self, class: &Label, label: &Label) -> Option<Side<'a>> {
        match self.derived.and_then(|derived| derived.relation(label)) {
            Some(r) => (r.classes.1 == *class).then_some(Side::Runs(&r.forward, &r.backward.keys)),
            None => self.instance.incoming(class, label).map(Side::Index),
        }
    }

    /// The planner's figures for `src -λ-> dst` — edges, distinct
    /// sources, distinct targets — read off the `(src, λ)` outgoing and
    /// `(dst, λ)` incoming sides; `None` when either is empty. Upper
    /// bounds, exact when `(src, λ)` has one target class and `(dst, λ)`
    /// one source class: in `gen::bench_scheme`, and in every derived
    /// relation, whose figures are run lengths.
    pub fn triple(self, src: &Label, label: &Label, dst: &Label) -> Option<(u64, u64, u64)> {
        let (outgoing, incoming) = (self.outgoing(src, label)?, self.incoming(dst, label)?);
        let edges = outgoing.edges().min(incoming.edges()) as u64;
        Some((
            edges,
            outgoing.support().len() as u64,
            incoming.support().len() as u64,
        ))
    }

    /// One `λ`-successor of `src`, if it has any.
    pub(crate) fn first_target(self, src: NodeId, label: &Label) -> Option<NodeId> {
        match self.derived.and_then(|derived| derived.relation(label)) {
            Some(relation) => relation.forward.get(src)?.first().copied(),
            None => self.instance.targets(src, label).next(),
        }
    }
}

/// Where an edge addition writes: the instance, or its scheme plus
/// relations that take every edge.
#[derive(Debug)]
pub struct ViewMut<'a> {
    pub(crate) instance: &'a mut Instance,
    derived: Option<&'a mut Derived>,
}

impl<'a> ViewMut<'a> {
    /// Edges go to `derived`, if given, `instance` taking only schemes.
    pub fn new(instance: &'a mut Instance, derived: impl Into<Option<&'a mut Derived>>) -> Self {
        let derived = derived.into();
        ViewMut { instance, derived }
    }

    /// The read half.
    pub(crate) fn view(&self) -> View<'_> {
        View::new(self.instance, self.derived.as_deref())
    }

    /// A shorter-lived copy, for one operation of several.
    pub(crate) fn reborrow(&mut self) -> ViewMut<'_> {
        ViewMut::new(self.instance, self.derived.as_deref_mut())
    }

    /// Add the `λ` edges `pairs`, sorted and deduplicated, unless
    /// present; returns the new ones, in order.
    pub(crate) fn add_edges(&mut self, label: &Label, pairs: &[Pair]) -> Result<Vec<Pair>> {
        if let Some(derived) = &mut self.derived {
            return derived.insert(self.instance, label, pairs);
        }
        let mut added = pairs.to_vec();
        added.retain(|&(src, dst)| !self.instance.has_edge(src, label, dst));
        for &(src, dst) in &added {
            self.instance.add_edge(src, label.clone(), dst)?;
        }
        Ok(added)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::Neighbours;
    use crate::scheme::SchemeBuilder;

    #[test]
    fn relations_index_both_directions_and_keep_one_class_pair() {
        let scheme = SchemeBuilder::new().object("A").object("B").build();
        let mut db = Instance::new(scheme);
        let [a0, a1] = [(); 2].map(|_| db.add_object("A").unwrap());
        let b = db.add_object("B").unwrap();
        let (mut derived, label) = (Derived::default(), Label::new("d"));
        let mut target = ViewMut::new(&mut db, &mut derived);
        assert_eq!(target.add_edges(&label, &[(a1, a0)]).unwrap(), [(a1, a0)]);
        assert_eq!(target.add_edges(&label, &[(a0, a1)]).unwrap(), [(a0, a1)]);
        assert!(target.add_edges(&label, &[(a0, a1)]).unwrap().is_empty());
        // A batch joining another class pair is refused whole.
        assert!(target.add_edges(&label, &[(a0, a0), (a0, b)]).is_err());
        let (class, view) = (Label::new("A"), target.view());
        assert_eq!(view.triple(&class, &label, &class), Some((2, 2, 2)));
        assert_eq!(view.first_target(a0, &label), Some(a1));
        assert!(view.outgoing(&class, &label).unwrap().get(a0).is_some());
        assert!(view.outgoing(&Label::new("B"), &label).is_none());
        assert_eq!(
            derived.pairs(&label).collect::<Vec<_>>(),
            [(a0, a1), (a1, a0)]
        );
        assert_eq!(db.edge_count(), 0);
    }

    proptest::proptest! {
        /// Rounds of random insert batches agree with a set of pairs:
        /// the new pairs each batch reports, the neighbour runs and
        /// supports of both directions, the planner's figures, the first
        /// target and the pairs.
        #[test]
        fn runs_agree_with_a_set_of_pairs(
            rounds in proptest::collection::vec(
                proptest::collection::vec((0usize..12, 0usize..12), 0..30),
                1..8,
            ),
        ) {
            use proptest::prelude::*;
            use std::collections::BTreeSet;
            let mut db = Instance::new(SchemeBuilder::new().object("A").build());
            let nodes: Vec<NodeId> = (0..12).map(|_| db.add_object("A").unwrap()).collect();
            let (class, label) = (Label::new("A"), Label::new("d"));
            let (mut derived, mut model) = (Derived::default(), BTreeSet::new());
            for round in rounds {
                let mut batch: Vec<_> = round.iter().map(|&(s, d)| (nodes[s], nodes[d])).collect();
                batch.sort_unstable();
                batch.dedup();
                let mut target = ViewMut::new(&mut db, &mut derived);
                let added = target.add_edges(&label, &batch).unwrap();
                let expected = batch.iter().filter(|pair| !model.contains(*pair));
                prop_assert!(added.iter().eq(expected));
                model.extend(added);
                let view = target.view();
                let (Some(outgoing), Some(incoming)) =
                    (view.outgoing(&class, &label), view.incoming(&class, &label))
                else {
                    prop_assert!(model.is_empty());
                    continue;
                };
                let sources: BTreeSet<_> = model.iter().map(|p| p.0).collect();
                let targets: BTreeSet<_> = model.iter().map(|p| p.1).collect();
                prop_assert!(outgoing.support().iter().eq(sources.iter().copied()));
                prop_assert!(incoming.support().iter().eq(targets.iter().copied()));
                let figures = (model.len() as u64, sources.len() as u64, targets.len() as u64);
                prop_assert_eq!(view.triple(&class, &label, &class), Some(figures));
                for &node in &nodes {
                    let succ = model.iter().filter(|p| p.0 == node).map(|p| p.1);
                    let pred = model.iter().filter(|p| p.1 == node).map(|p| p.0);
                    let run = |set: Option<Neighbours>| set.map(|set| set.iter().collect());
                    let nonempty = |run: Vec<NodeId>| (!run.is_empty()).then_some(run);
                    prop_assert_eq!(run(incoming.get(node)), nonempty(succ.clone().collect()));
                    prop_assert_eq!(run(outgoing.get(node)), nonempty(pred.collect()));
                    prop_assert_eq!(view.first_target(node, &label), succ.clone().next());
                    for other in succ {
                        prop_assert!(incoming.get(node).unwrap().contains(other));
                    }
                }
                prop_assert!(derived.pairs(&label).eq(model.iter().copied()));
            }
        }
    }

    #[test]
    fn a_class_reaching_two_target_classes_gets_upper_bounds() {
        use crate::matching::{find_match_table, find_matchings, PlanShape};
        use crate::pattern::Pattern;
        // `Info -refs->` reaches `A` from some nodes and `B` from others,
        // and `A` is also reached from `C`.
        let scheme = SchemeBuilder::new()
            .object("Info")
            .object("A")
            .object("B")
            .object("C")
            .multivalued("Info", "refs", "A")
            .multivalued("Info", "refs", "B")
            .multivalued("C", "refs", "A")
            .build();
        let mut db = Instance::new(scheme);
        let [i0, i1, i2] = [(); 3].map(|_| db.add_object("Info").unwrap());
        let [a0, a1] = [(); 2].map(|_| db.add_object("A").unwrap());
        let (b, c) = (db.add_object("B").unwrap(), db.add_object("C").unwrap());
        for (src, dst) in [(i0, a0), (i0, a1), (i1, b), (i2, b), (c, a0)] {
            db.add_edge(src, "refs", dst).unwrap();
        }
        let (info, refs, a) = (Label::new("Info"), Label::new("refs"), Label::new("A"));
        // Exact figures would be (2, 1, 2). The bound is the smaller side's
        // edge count (`A` receives 3, `Info` sends 4), the 3 `Info` nodes
        // with any `refs`, and the 2 `A` nodes with any.
        assert_eq!(View::from(&db).triple(&info, &refs, &a), Some((3, 3, 2)));
        let mut pattern = Pattern::new();
        let (x, y, z) = (pattern.node("Info"), pattern.node("A"), pattern.node("C"));
        pattern.edge(x, "refs", y);
        pattern.edge(z, "refs", y);
        let matchings = find_matchings(&pattern, &db).unwrap();
        let wcoj = find_match_table(&pattern, &db, PlanShape::GenericJoin).unwrap();
        assert_eq!(matchings, wcoj.into_matchings());
        assert_eq!(matchings.len(), 1);
    }
}
