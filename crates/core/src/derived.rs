//! Derived relations: edges an evaluation computes but never stores.
//!
//! A GOODQL property path has endpoint semantics — its answer is a set
//! of `(src, dst)` pairs — so the labels its path-derivation program
//! derives only have to be *matchable*. [`Derived`] holds such labels
//! beside an instance, in the shape the matcher and planner already
//! read off the adjacency index: per label, one [`Adjacency`] per
//! direction — postings, support set and edge count. They are built
//! unshared, so every insert is in place, and nothing reaches the
//! instance's graph or adjacency index.
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
use crate::instance::{Adjacency, Instance};
use crate::label::Label;
use good_graph::NodeId;

/// One derived label's edges, all from `src_class` to `dst_class` nodes.
#[derive(Debug, Clone)]
struct Relation {
    label: Label,
    src_class: Label,
    dst_class: Label,
    /// The `src_class` side: target → its sources.
    outgoing: Adjacency,
    /// The `dst_class` side: source → its targets.
    incoming: Adjacency,
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
        let targets = self
            .relation(label)
            .map(|relation| &relation.incoming.postings);
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
                    outgoing: Adjacency::default(),
                    incoming: Adjacency::default(),
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
        Ok(Adjacency::link(
            &mut relation.outgoing,
            &mut relation.incoming,
            src,
            dst,
        ))
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
pub type TripleCounts = (u64, u64, u64);

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

    /// [`Instance::outgoing`] through the view.
    pub(crate) fn outgoing(self, class: &Label, label: &Label) -> Option<&'a Adjacency> {
        match self.relation(label) {
            Some(relation) => (relation.src_class == *class).then_some(&relation.outgoing),
            None => self.instance.outgoing(class, label),
        }
    }

    /// [`Instance::incoming`] through the view.
    pub(crate) fn incoming(self, class: &Label, label: &Label) -> Option<&'a Adjacency> {
        match self.relation(label) {
            Some(relation) => (relation.dst_class == *class).then_some(&relation.incoming),
            None => self.instance.incoming(class, label),
        }
    }

    /// The planner's figures for the triple `src -λ-> dst`, read off the
    /// `(src, λ)` outgoing side and the `(dst, λ)` incoming side; `None`
    /// when either is empty. The edge count is the smaller of the two
    /// sides' counts, the distinct sources the outgoing support and the
    /// distinct targets the incoming support.
    ///
    /// The sides are keyed by one class and `λ`, not by the triple, so
    /// the figures are upper bounds. The edge count is exact when the
    /// instance's `src`-nodes reach only `dst`-nodes by `λ`, or its
    /// `dst`-nodes are reached only from `src`-nodes; the sources are
    /// exact under the first condition, the targets under the second.
    /// A scheme that gives `(src, λ)` one target class and `(dst, λ)` one
    /// source class — `gen::bench_scheme`, and every derived relation —
    /// makes all three exact.
    pub fn triple(self, src: &Label, label: &Label, dst: &Label) -> Option<TripleCounts> {
        let (outgoing, incoming) = (self.outgoing(src, label)?, self.incoming(dst, label)?);
        Some((
            outgoing.edges.min(incoming.edges) as u64,
            outgoing.support.len() as u64,
            incoming.support.len() as u64,
        ))
    }

    /// One `λ`-successor of `src`, if it has any.
    pub(crate) fn first_target(self, src: NodeId, label: &Label) -> Option<NodeId> {
        match self.relation(label) {
            Some(relation) => relation.incoming.postings.get(&src)?.first().copied(),
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
            .outgoing(&class, &label)
            .unwrap()
            .postings
            .contains_key(&a0));
        assert!(view.outgoing(&Label::new("B"), &label).is_none());
        assert_eq!(
            derived.pairs(&label).collect::<Vec<_>>(),
            [(a0, a1), (a1, a0)]
        );
        assert_eq!(db.edge_count(), 0);
    }

    #[test]
    fn a_class_reaching_two_target_classes_gets_upper_bounds() {
        use crate::matching::find_matchings;
        use crate::pattern::Pattern;
        use crate::wcoj::find_matchings_wcoj;
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
        assert_eq!(matchings, find_matchings_wcoj(&pattern, &db).unwrap());
        assert_eq!(matchings.len(), 1);
    }
}
