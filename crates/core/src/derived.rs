//! Derived relations: edges an evaluation computes but never stores.
//!
//! A GOODQL property path has endpoint semantics — its answer is a set
//! of `(src, dst)` pairs — so the labels its path-derivation program
//! derives only have to be *matchable*. [`Derived`] holds such labels
//! beside an instance, in the shapes the matcher already reads off the
//! adjacency index: per label, the `(class, λ)` postings in both
//! directions, the two support sets and an edge count. They are built
//! unshared, so every insert is in place, and nothing reaches the
//! instance's graph, adjacency index or statistics.
//!
//! [`View`] is what the matcher and planner read: an instance, plus the
//! derived relations if there are any. A label the relations hold is
//! read from them, every other label from the instance, so a derived
//! label must have no instance edges: GOODQL's compiler mints every one
//! fresh against the scheme. [`ViewMut`] is
//! where an edge addition writes: the instance itself, or — with
//! derived relations — the instance's scheme (the minimal scheme
//! extension) and the relations, which take every added edge.

use crate::error::{GoodError, Result};
use crate::instance::{Instance, Postings};
use crate::label::Label;
use crate::persist::PSet;
use good_graph::NodeId;

/// One derived label's edges, all from `src_class` to `dst_class` nodes.
#[derive(Debug, Clone)]
struct Relation {
    label: Label,
    src_class: Label,
    dst_class: Label,
    /// Target → its sources.
    sources: Postings,
    /// Source → its targets.
    targets: Postings,
    out_support: PSet<NodeId>,
    in_support: PSet<NodeId>,
    edges: usize,
}

/// Transient derived relations, one per derived edge label.
#[derive(Debug, Clone, Default)]
pub struct Derived {
    relations: Vec<Relation>,
}

impl Derived {
    /// True when no edge has been derived.
    pub(crate) fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// The `(src, dst)` pairs of `label`, ascending.
    pub fn pairs<'a>(&'a self, label: &Label) -> impl Iterator<Item = (NodeId, NodeId)> + 'a {
        let targets = self.relation(label).map(|relation| &relation.targets);
        (targets.into_iter().flat_map(|postings| postings.iter()))
            .flat_map(|(&src, set)| set.iter().map(move |&dst| (src, dst)))
    }

    fn relation(&self, label: &Label) -> Option<&Relation> {
        self.relations
            .iter()
            .find(|relation| relation.label == *label)
    }

    /// Add `(src, λ, dst)`; `true` if it was new. A label's edges must
    /// all join one pair of classes, the way the instance's `(class, λ)`
    /// index keys them.
    fn insert(
        &mut self,
        instance: &Instance,
        src: NodeId,
        label: &Label,
        dst: NodeId,
    ) -> Result<bool> {
        let class = |node: NodeId| {
            (instance.node_label(node)).ok_or_else(|| GoodError::DanglingNode(format!("{node:?}")))
        };
        let (src_class, dst_class) = (class(src)?, class(dst)?);
        let at = match self.relations.iter().position(|r| r.label == *label) {
            Some(at) => at,
            None => {
                self.relations.push(Relation {
                    label: label.clone(),
                    src_class: src_class.clone(),
                    dst_class: dst_class.clone(),
                    sources: Postings::new(),
                    targets: Postings::new(),
                    out_support: PSet::new(),
                    in_support: PSet::new(),
                    edges: 0,
                });
                self.relations.len() - 1
            }
        };
        let relation = &mut self.relations[at];
        if relation.src_class != *src_class || relation.dst_class != *dst_class {
            return Err(GoodError::InvariantViolation(format!(
                "derived label {label} joins {src_class} to {dst_class} and {} to {}",
                relation.src_class, relation.dst_class
            )));
        }
        let targets = relation.targets.get_or_insert_with(&src, PSet::new);
        if !targets.insert(dst) {
            return Ok(false);
        }
        // A support set gains a node with the node's first edge.
        if targets.len() == 1 {
            relation.out_support.insert(src);
        }
        let sources = relation.sources.get_or_insert_with(&dst, PSet::new);
        sources.insert(src);
        if sources.len() == 1 {
            relation.in_support.insert(dst);
        }
        relation.edges += 1;
        Ok(true)
    }
}

/// What the matcher and planner read: an instance, plus derived
/// relations if there are any. `&Instance` converts into a view without
/// them.
#[derive(Debug, Clone, Copy)]
pub struct View<'a> {
    instance: &'a Instance,
    derived: Option<&'a Derived>,
}

impl<'a> From<&'a Instance> for View<'a> {
    fn from(instance: &'a Instance) -> Self {
        View {
            instance,
            derived: None,
        }
    }
}

/// A triple's planner figures: edge count, distinct sources, distinct
/// targets.
pub(crate) type TripleCounts = (u64, u64, u64);

impl<'a> View<'a> {
    /// `instance` with `derived` beside it (empty relations add nothing).
    pub fn new(instance: &'a Instance, derived: &'a Derived) -> Self {
        View {
            instance,
            derived: (!derived.is_empty()).then_some(derived),
        }
    }

    /// The instance: nodes, labels, print values and the scheme.
    pub(crate) fn instance(self) -> &'a Instance {
        self.instance
    }

    fn relation(self, label: &Label) -> Option<&'a Relation> {
        self.derived?.relation(label)
    }

    /// [`Instance::source_postings`] through the view.
    pub(crate) fn source_postings(self, class: &Label, label: &Label) -> Option<&'a Postings> {
        match self.relation(label) {
            Some(relation) => (relation.src_class == *class).then_some(&relation.sources),
            None => self.instance.source_postings(class, label),
        }
    }

    /// [`Instance::target_postings`] through the view.
    pub(crate) fn target_postings(self, class: &Label, label: &Label) -> Option<&'a Postings> {
        match self.relation(label) {
            Some(relation) => (relation.dst_class == *class).then_some(&relation.targets),
            None => self.instance.target_postings(class, label),
        }
    }

    /// [`Instance::out_support`] through the view.
    pub(crate) fn out_support(self, class: &Label, label: &Label) -> Option<&'a PSet<NodeId>> {
        match self.relation(label) {
            Some(relation) => (relation.src_class == *class).then_some(&relation.out_support),
            None => self.instance.out_support(class, label),
        }
    }

    /// [`Instance::in_support`] through the view.
    pub(crate) fn in_support(self, class: &Label, label: &Label) -> Option<&'a PSet<NodeId>> {
        match self.relation(label) {
            Some(relation) => (relation.dst_class == *class).then_some(&relation.in_support),
            None => self.instance.in_support(class, label),
        }
    }

    /// The planner's figures for the triple `src -λ-> dst`, `None` when
    /// no such edge exists. A derived relation's are its edge count and
    /// the lengths of its two postings maps — what the instance's
    /// statistics would report for the same edges.
    pub(crate) fn triple(self, src: &Label, label: &Label, dst: &Label) -> Option<TripleCounts> {
        match self.relation(label) {
            Some(relation) => {
                (relation.src_class == *src && relation.dst_class == *dst).then(|| {
                    let (sources, targets) = (relation.targets.len(), relation.sources.len());
                    (relation.edges as u64, sources as u64, targets as u64)
                })
            }
            None => (self.instance.stats().triple(src, label, dst)).map(|triple| {
                (
                    triple.edges,
                    triple.distinct_sources(),
                    triple.distinct_targets(),
                )
            }),
        }
    }

    /// One `λ`-successor of `src`, if it has any.
    pub(crate) fn first_target(self, src: NodeId, label: &Label) -> Option<NodeId> {
        match self.relation(label) {
            Some(relation) => relation.targets.get(&src)?.first().copied(),
            None => self.instance.targets(src, label).next(),
        }
    }
}

/// Where an edge addition writes: the instance, or the instance's
/// scheme plus derived relations that take every added edge.
/// `&mut Instance` converts into the former.
#[derive(Debug)]
pub struct ViewMut<'a> {
    pub(crate) instance: &'a mut Instance,
    derived: Option<&'a mut Derived>,
}

impl<'a> From<&'a mut Instance> for ViewMut<'a> {
    fn from(instance: &'a mut Instance) -> Self {
        ViewMut {
            instance,
            derived: None,
        }
    }
}

impl<'a> ViewMut<'a> {
    /// Edges go to `derived`; `instance` takes only scheme extensions.
    pub fn new(instance: &'a mut Instance, derived: &'a mut Derived) -> Self {
        ViewMut {
            instance,
            derived: Some(derived),
        }
    }

    /// The read half.
    pub(crate) fn view(&self) -> View<'_> {
        View {
            instance: self.instance,
            derived: self.derived.as_deref(),
        }
    }

    /// A shorter-lived copy, for one operation of several.
    pub(crate) fn reborrow(&mut self) -> ViewMut<'_> {
        ViewMut {
            instance: self.instance,
            derived: self.derived.as_deref_mut(),
        }
    }

    /// Add `(src, λ, dst)` unless present; `true` if it was new.
    pub(crate) fn add_edge(&mut self, src: NodeId, label: &Label, dst: NodeId) -> Result<bool> {
        match &mut self.derived {
            Some(derived) => derived.insert(self.instance, src, label, dst),
            None if self.instance.has_edge(src, label, dst) => Ok(false),
            None => self
                .instance
                .add_edge(src, label.clone(), dst)
                .map(|_| true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::SchemeBuilder;

    #[test]
    fn relations_index_both_directions_and_keep_one_class_pair() {
        let scheme = SchemeBuilder::new().object("A").object("B").build();
        let mut db = Instance::new(scheme);
        let [a0, a1] = [(); 2].map(|_| db.add_object("A").unwrap());
        let b = db.add_object("B").unwrap();
        let (mut derived, label) = (Derived::default(), Label::new("d"));
        let mut target = ViewMut::new(&mut db, &mut derived);
        assert!(target.add_edge(a1, &label, a0).unwrap());
        assert!(target.add_edge(a0, &label, a1).unwrap());
        assert!(!target.add_edge(a0, &label, a1).unwrap());
        assert!(target.add_edge(a0, &label, b).is_err());
        let (class, view) = (Label::new("A"), target.view());
        assert_eq!(view.triple(&class, &label, &class), Some((2, 2, 2)));
        assert_eq!(view.first_target(a0, &label), Some(a1));
        assert!(view
            .source_postings(&class, &label)
            .unwrap()
            .contains_key(&a0));
        assert!(view.out_support(&Label::new("B"), &label).is_none());
        assert_eq!(
            derived.pairs(&label).collect::<Vec<_>>(),
            [(a0, a1), (a1, a0)]
        );
        assert_eq!(db.edge_count(), 0);
    }
}
