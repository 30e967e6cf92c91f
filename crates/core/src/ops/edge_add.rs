//! Edge addition (`EA`, Section 3.2).
//!
//! `EA[J, S, I, {(m1, λ1, m1'), ..., (mn, λn, mn')}]` adds, for every
//! matching `i`, the edges `(i(mℓ), λℓ, i(mℓ'))`.
//!
//! The operation is **partial**: "the result of an edge addition is not
//! defined if the addition of the required edges would yield different
//! edges (i) with the same label and leaving the same node and (ii) that
//! either are functional, or arrive in nodes with different labels."
//! The paper notes that statically checking this is undecidable, so the
//! intended behaviour is a run-time check — we perform it *before*
//! mutating, so a failed edge addition leaves the instance untouched.

use crate::error::{GoodError, Result};
use crate::instance::Instance;
use crate::label::{EdgeKind, Label};
use crate::matching::{find_matchings, EdgeTriple, Matching};
use crate::ops::OpReport;
use crate::pattern::Pattern;
use good_graph::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// One bold edge of an edge addition.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EdgeToAdd {
    /// Source pattern node.
    pub src: NodeId,
    /// Edge label (may be new to the scheme).
    pub label: Label,
    /// The label's multiplicity kind. Checked against the scheme when
    /// the label is already registered; used to register it otherwise
    /// (the paper's `S′` must know which universe the new label joins).
    pub kind: EdgeKind,
    /// Destination pattern node.
    pub dst: NodeId,
}

/// An edge addition operation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EdgeAddition {
    /// The source pattern `J`.
    pub pattern: Pattern,
    /// The bold edges to add per matching.
    pub edges: Vec<EdgeToAdd>,
}

impl EdgeAddition {
    /// Construct an edge addition.
    pub fn new(pattern: Pattern, edges: impl IntoIterator<Item = EdgeToAdd>) -> Self {
        EdgeAddition {
            pattern,
            edges: edges.into_iter().collect(),
        }
    }

    /// Convenience: a single functional bold edge.
    pub fn functional(pattern: Pattern, src: NodeId, label: impl Into<Label>, dst: NodeId) -> Self {
        EdgeAddition::new(
            pattern,
            [EdgeToAdd {
                src,
                label: label.into(),
                kind: EdgeKind::Functional,
                dst,
            }],
        )
    }

    /// Convenience: a single multivalued bold edge.
    pub fn multivalued(
        pattern: Pattern,
        src: NodeId,
        label: impl Into<Label>,
        dst: NodeId,
    ) -> Self {
        EdgeAddition::new(
            pattern,
            [EdgeToAdd {
                src,
                label: label.into(),
                kind: EdgeKind::Multivalued,
                dst,
            }],
        )
    }

    /// Apply to `db`, evolving scheme and instance. On error the
    /// instance graph is unchanged (the scheme may have been minimally
    /// extended, which is harmless and matches the paper: `S′` depends
    /// only on the operation).
    pub fn apply(&self, db: &mut Instance) -> Result<OpReport> {
        let (report, _) = self.apply_with(db, find_matchings)?;
        Ok(report)
    }

    /// [`EdgeAddition::apply`] with the matchings supplied by `matcher`
    /// (the full `find_matchings`, or the fixpoint evaluator's
    /// delta-seeded one), so validation, scheme extension, the
    /// pre-mutation check and the report stay one code path. Also
    /// returns the edges that were not there before, in the order they
    /// were added.
    pub(crate) fn apply_with(
        &self,
        db: &mut Instance,
        matcher: impl FnOnce(&Pattern, &Instance) -> Result<Vec<Matching>>,
    ) -> Result<(OpReport, Vec<EdgeTriple>)> {
        // Validate bold endpoints.
        for edge in &self.edges {
            for node in [edge.src, edge.dst] {
                let positive = self
                    .pattern
                    .graph()
                    .node(node)
                    .map(|data| !data.negated)
                    .unwrap_or(false);
                if !positive || self.pattern.node_label(node).is_none() {
                    return Err(GoodError::NodeNotInPattern(format!("{node:?}")));
                }
            }
        }

        let matchings = matcher(&self.pattern, db)?;

        // Minimal scheme extension.
        for edge in &self.edges {
            if let Some(registered) = db.scheme().edge_kind(&edge.label) {
                if registered != edge.kind {
                    return Err(GoodError::EdgeKindMismatch {
                        label: edge.label.clone(),
                        registered,
                        used: edge.kind,
                    });
                }
            } else {
                db.scheme_mut()
                    .add_edge_label(edge.label.clone(), edge.kind)?;
            }
            let src_label = self
                .pattern
                .node_label(edge.src)
                .expect("validated")
                .clone();
            let dst_label = self
                .pattern
                .node_label(edge.dst)
                .expect("validated")
                .clone();
            db.scheme_mut()
                .add_triple(src_label, edge.label.clone(), dst_label)?;
        }

        // Gather the concrete edges (a set: duplicates collapse).
        let mut to_add: BTreeSet<EdgeTriple> = BTreeSet::new();
        for matching in &matchings {
            for edge in &self.edges {
                to_add.insert((
                    matching.image(edge.src),
                    edge.label.clone(),
                    matching.image(edge.dst),
                ));
            }
        }

        // Pre-mutation consistency check (the "result is undefined"
        // conditions), against existing ∪ new edges. One existing target
        // stands for all of them: the instance invariants (enforced by
        // `Instance::add_edge`) give a functional λ at most one target
        // and all λ-successors of a node the same label.
        let mut grouped: BTreeMap<(NodeId, &Label), BTreeSet<NodeId>> = BTreeMap::new();
        for (src, label, dst) in &to_add {
            grouped.entry((*src, label)).or_default().insert(*dst);
        }
        for ((src, label), mut targets) in grouped {
            targets.extend(db.targets(src, label).next());
            let kind = db.scheme().edge_kind(label).expect("registered above");
            if kind == EdgeKind::Functional && targets.len() > 1 {
                return Err(GoodError::FunctionalConflict {
                    edge: label.clone(),
                    src: format!("{src:?}"),
                });
            }
            let labels: BTreeSet<&Label> = targets
                .iter()
                .map(|t| db.node_label(*t).expect("live"))
                .collect();
            if labels.len() > 1 {
                let mut iter = labels.into_iter();
                return Err(GoodError::TargetLabelConflict {
                    edge: label.clone(),
                    existing: iter.next().expect("nonempty").clone(),
                    new: iter.next().expect("two").clone(),
                });
            }
        }

        let mut added = Vec::new();
        for (src, label, dst) in to_add {
            if !db.has_edge(src, &label, dst) {
                db.add_edge(src, label.clone(), dst)?;
                added.push((src, label, dst));
            }
        }
        db.debug_assert_indexes();
        let report = OpReport {
            matchings: matchings.len(),
            edges_added: added.len(),
            ..OpReport::default()
        };
        Ok((report, added))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::NodeAddition;
    use crate::scheme::{Scheme, SchemeBuilder};
    use crate::value::{Value, ValueType};

    fn scheme() -> Scheme {
        SchemeBuilder::new()
            .object("Info")
            .object("Data")
            .printable("String", ValueType::Str)
            .printable("Date", ValueType::Date)
            .functional("Info", "name", "String")
            .functional("Info", "created", "Date")
            .functional("Data", "isa", "Info")
            .multivalued("Info", "links-to", "Info")
            .build()
    }

    /// Pinkfloyd(Jan 14) links to two infos which are Data nodes.
    fn pinkfloyd_instance() -> (Instance, NodeId, [NodeId; 2]) {
        let mut db = Instance::new(scheme());
        let floyd = db.add_object("Info").unwrap();
        let name = db.add_printable("String", "Pinkfloyd").unwrap();
        let date = db.add_printable("Date", Value::date(1990, 1, 14)).unwrap();
        db.add_edge(floyd, "name", name).unwrap();
        db.add_edge(floyd, "created", date).unwrap();
        let mut data_infos = [floyd; 2];
        for slot in &mut data_infos {
            let info = db.add_object("Info").unwrap();
            let data = db.add_object("Data").unwrap();
            db.add_edge(data, "isa", info).unwrap();
            db.add_edge(floyd, "links-to", info).unwrap();
            *slot = data;
        }
        (db, floyd, data_infos)
    }

    /// Figure 10: add `data-creation` from each Data of Pinkfloyd's
    /// linked infos to Pinkfloyd's creation date.
    fn figure10() -> EdgeAddition {
        let mut p = Pattern::new();
        let data = p.node("Data");
        let target = p.node("Info");
        let floyd = p.node("Info");
        let date = p.printable("Date", Value::date(1990, 1, 14));
        let name = p.printable("String", "Pinkfloyd");
        p.edge(data, "isa", target);
        p.edge(floyd, "links-to", target);
        p.edge(floyd, "created", date);
        p.edge(floyd, "name", name);
        EdgeAddition::functional(p, data, "data-creation", date)
    }

    #[test]
    fn figure10_adds_two_edges() {
        let (mut db, _, datas) = pinkfloyd_instance();
        let report = figure10().apply(&mut db).unwrap();
        assert_eq!(report.matchings, 2);
        assert_eq!(report.edges_added, 2);
        let label = Label::new("data-creation");
        for data in datas {
            let target = db.functional_target(data, &label).unwrap();
            assert_eq!(db.print_value(target), Some(&Value::date(1990, 1, 14)));
        }
        assert!(db.scheme().allows(&"Data".into(), &label, &"Date".into()));
        db.validate().unwrap();
    }

    #[test]
    fn edge_addition_is_idempotent() {
        let (mut db, _, _) = pinkfloyd_instance();
        figure10().apply(&mut db).unwrap();
        let before = db.edge_count();
        let report = figure10().apply(&mut db).unwrap();
        assert_eq!(report.edges_added, 0);
        assert_eq!(db.edge_count(), before);
    }

    #[test]
    fn figures_12_13_build_a_set() {
        // Step 1 (Fig 12): a single set node. Step 2 (Fig 13): connect
        // all infos created Jan 14 1990 with a multivalued edge.
        let (mut db, floyd, _) = pinkfloyd_instance();
        NodeAddition::new(Pattern::new(), "Created-Jan-14", [])
            .apply(&mut db)
            .unwrap();

        let mut p = Pattern::new();
        let set = p.node("Created-Jan-14");
        let info = p.node("Info");
        let date = p.printable("Date", Value::date(1990, 1, 14));
        p.edge(info, "created", date);
        let ea = EdgeAddition::multivalued(p, set, "contains", info);
        let report = ea.apply(&mut db).unwrap();
        assert_eq!(report.edges_added, 1);
        let set_node = db
            .nodes_with_label(&"Created-Jan-14".into())
            .next()
            .unwrap();
        let members: Vec<NodeId> = db.targets(set_node, &"contains".into()).collect();
        assert_eq!(members, vec![floyd]);
        db.validate().unwrap();
    }

    #[test]
    fn functional_conflict_is_detected_before_mutation() {
        // Adding a functional edge from ONE node to TWO different dates.
        let (mut db, floyd, _) = pinkfloyd_instance();
        let other_date = db.add_printable("Date", Value::date(1990, 1, 12)).unwrap();
        // Give the second date an incoming edge so the pattern can reach it.
        let second_info = db.add_object("Info").unwrap();
        db.add_edge(second_info, "created", other_date).unwrap();
        let _ = floyd;

        // Pattern: one fixed Info (Pinkfloyd) and any Date reachable as
        // a created date of any info — two matchings, one target each.
        let mut p = Pattern::new();
        let fixed = p.node("Info");
        let name = p.printable("String", "Pinkfloyd");
        p.edge(fixed, "name", name);
        let any_info = p.node("Info");
        let any_date = p.node("Date");
        p.edge(any_info, "created", any_date);
        let ea = EdgeAddition::functional(p, fixed, "latest", any_date);

        let (nodes, edges) = (db.node_count(), db.edge_count());
        let err = ea.apply(&mut db).unwrap_err();
        assert!(matches!(err, GoodError::FunctionalConflict { .. }));
        // The instance graph is untouched.
        assert_eq!((db.node_count(), db.edge_count()), (nodes, edges));
        db.validate().unwrap();
    }

    #[test]
    fn target_label_conflict_detected() {
        let s = SchemeBuilder::new()
            .object("A")
            .object("B")
            .object("C")
            .multivalued("A", "to-b", "B")
            .multivalued("A", "to-c", "C")
            .build();
        let mut db = Instance::new(s);
        let a = db.add_object("A").unwrap();
        let b = db.add_object("B").unwrap();
        let c = db.add_object("C").unwrap();
        db.add_edge(a, "to-b", b).unwrap();
        db.add_edge(a, "to-c", c).unwrap();

        // One EA adding `m` edges from A to both a B node and a C node.
        let mut p = Pattern::new();
        let pa = p.node("A");
        let pb = p.node("B");
        let pc = p.node("C");
        p.edge(pa, "to-b", pb);
        p.edge(pa, "to-c", pc);
        let ea = EdgeAddition::new(
            p,
            [
                EdgeToAdd {
                    src: pa,
                    label: Label::new("m"),
                    kind: EdgeKind::Multivalued,
                    dst: pb,
                },
                EdgeToAdd {
                    src: pa,
                    label: Label::new("m"),
                    kind: EdgeKind::Multivalued,
                    dst: pc,
                },
            ],
        );
        let err = ea.apply(&mut db).unwrap_err();
        assert!(matches!(err, GoodError::TargetLabelConflict { .. }));
        db.validate().unwrap();
    }

    #[test]
    fn conflict_with_preexisting_target_label() {
        // `a` already has an `m`-successor labeled B; adding one labeled
        // C must fail although the new edges agree among themselves.
        let s = SchemeBuilder::new()
            .object("A")
            .object("B")
            .object("C")
            .multivalued("A", "m", "B")
            .multivalued("A", "to-c", "C")
            .build();
        let mut db = Instance::new(s);
        let a = db.add_object("A").unwrap();
        let b = db.add_object("B").unwrap();
        let c = db.add_object("C").unwrap();
        db.add_edge(a, "m", b).unwrap();
        db.add_edge(a, "to-c", c).unwrap();

        let mut p = Pattern::new();
        let pa = p.node("A");
        let pc = p.node("C");
        p.edge(pa, "to-c", pc);
        let ea = EdgeAddition::multivalued(p, pa, "m", pc);
        let edges = db.edge_count();
        let err = ea.apply(&mut db).unwrap_err();
        assert!(matches!(err, GoodError::TargetLabelConflict { .. }));
        assert_eq!(db.edge_count(), edges);
    }

    #[test]
    fn kind_mismatch_with_registered_label_rejected() {
        let (mut db, _, _) = pinkfloyd_instance();
        let mut p = Pattern::new();
        let a = p.node("Info");
        let b = p.node("Info");
        p.edge(a, "links-to", b);
        // links-to is multivalued in the scheme; claim functional.
        let ea = EdgeAddition::functional(p, b, "links-to", a);
        assert!(matches!(
            ea.apply(&mut db),
            Err(GoodError::EdgeKindMismatch { .. })
        ));
    }

    #[test]
    fn bold_endpoints_must_be_pattern_nodes() {
        let (mut db, _, _) = pinkfloyd_instance();
        let mut foreign = Pattern::new();
        let f = foreign.node("Info");
        let ea = EdgeAddition::functional(Pattern::new(), f, "x", f);
        assert!(matches!(
            ea.apply(&mut db),
            Err(GoodError::NodeNotInPattern(_))
        ));
    }

    #[test]
    fn conflict_with_preexisting_functional_edge() {
        // floyd already has created -> Jan 14; adding created -> Jan 12
        // must fail even though the new edges are conflict-free among
        // themselves.
        let (mut db, _, _) = pinkfloyd_instance();
        db.add_printable("Date", Value::date(1990, 1, 12)).unwrap();
        let mut p = Pattern::new();
        let info = p.node("Info");
        let name = p.printable("String", "Pinkfloyd");
        let date = p.printable("Date", Value::date(1990, 1, 12));
        p.edge(info, "name", name);
        let ea = EdgeAddition::functional(p, info, "created", date);
        assert!(matches!(
            ea.apply(&mut db),
            Err(GoodError::FunctionalConflict { .. })
        ));
    }
}
