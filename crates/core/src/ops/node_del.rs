//! Node deletion (`ND`, Section 3.3).
//!
//! `ND[J, S, I, m]` removes, for every matching `i` of the source
//! pattern, the node `i(m)` together with all its incident edges — "the
//! maximal instance over S such that ... for each matching i of J in I,
//! i(m) is not a node of I′". The scheme is unchanged.

use crate::error::{GoodError, Result};
use crate::instance::Instance;
use crate::matching::find_matchings;
use crate::ops::OpReport;
use crate::pattern::Pattern;
use good_graph::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A node deletion operation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeDeletion {
    /// The source pattern `J`.
    pub pattern: Pattern,
    /// The (doubly outlined) pattern node whose images are removed.
    pub target: NodeId,
}

impl NodeDeletion {
    /// Construct a node deletion.
    pub fn new(pattern: Pattern, target: NodeId) -> Self {
        NodeDeletion { pattern, target }
    }

    /// Apply to `db`.
    pub fn apply(&self, db: &mut Instance) -> Result<OpReport> {
        let positive = self
            .pattern
            .graph()
            .node(self.target)
            .map(|data| !data.negated)
            .unwrap_or(false);
        if !positive || self.pattern.node_label(self.target).is_none() {
            return Err(GoodError::NodeNotInPattern(format!("{:?}", self.target)));
        }
        let matchings = find_matchings(&self.pattern, db)?;
        // Batched application: the full doomed set is computed from the
        // matchings (deduplicated — overlapping matchings may share
        // images), then removed in one pass.
        let doomed: BTreeSet<NodeId> = matchings.iter().map(|m| m.image(self.target)).collect();
        let mut report = OpReport {
            matchings: matchings.len(),
            ..OpReport::default()
        };
        report.nodes_deleted = db.delete_nodes(doomed);
        db.debug_assert_indexes();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::gen::bench_scheme as scheme;

    fn named(db: &mut Instance, name: &str) -> NodeId {
        let info = db.add_object("Info").unwrap();
        let s = db.add_printable("String", name).unwrap();
        db.add_edge(info, "name", s).unwrap();
        info
    }

    /// Figure 14: delete the Classical Music info node.
    #[test]
    fn figure14_deletes_node_and_incident_edges() {
        let mut db = Instance::new(scheme());
        let music = named(&mut db, "Music History");
        let classical = named(&mut db, "Classical Music");
        let mozart = named(&mut db, "Mozart");
        db.add_edge(music, "links-to", classical).unwrap();
        db.add_edge(classical, "links-to", mozart).unwrap();

        let mut p = Pattern::new();
        let info = p.node("Info");
        let name = p.printable("String", "Classical Music");
        p.edge(info, "name", name);
        let report = NodeDeletion::new(p, info).apply(&mut db).unwrap();

        assert_eq!(report.matchings, 1);
        assert_eq!(report.nodes_deleted, 1);
        assert!(!db.contains_node(classical));
        // Mozart is now isolated but still present (Figure 15).
        assert!(db.contains_node(mozart));
        assert_eq!(db.targets(music, &"links-to".into()).count(), 0);
        assert_eq!(db.sources(mozart, &"links-to".into()).count(), 0);
        // Its name printable also remains.
        assert!(db
            .find_printable(
                &"String".into(),
                &crate::value::Value::str("Classical Music")
            )
            .is_some());
        db.validate().unwrap();
    }

    #[test]
    fn one_deletion_removes_all_matched_images() {
        let mut db = Instance::new(scheme());
        for name in ["a", "b", "c"] {
            named(&mut db, name);
        }
        let mut p = Pattern::new();
        let info = p.node("Info");
        let report = NodeDeletion::new(p, info).apply(&mut db).unwrap();
        assert_eq!(report.nodes_deleted, 3);
        assert_eq!(db.label_count(&"Info".into()), 0);
        db.validate().unwrap();
    }

    #[test]
    fn overlapping_matchings_delete_each_node_once() {
        // Pattern Info -links-to-> Info deleting the source: with a
        // chain a->b->c, sources are a and b; both deleted exactly once.
        let mut db = Instance::new(scheme());
        let a = named(&mut db, "a");
        let b = named(&mut db, "b");
        let c = named(&mut db, "c");
        db.add_edge(a, "links-to", b).unwrap();
        db.add_edge(b, "links-to", c).unwrap();
        let mut p = Pattern::new();
        let src = p.node("Info");
        let dst = p.node("Info");
        p.edge(src, "links-to", dst);
        let report = NodeDeletion::new(p, src).apply(&mut db).unwrap();
        assert_eq!(report.matchings, 2);
        assert_eq!(report.nodes_deleted, 2);
        assert!(db.contains_node(c));
        assert!(!db.contains_node(a) && !db.contains_node(b));
    }

    #[test]
    fn deleting_with_no_matchings_is_a_noop() {
        let mut db = Instance::new(scheme());
        named(&mut db, "a");
        let mut p = Pattern::new();
        let info = p.node("Info");
        let name = p.printable("String", "nope");
        p.edge(info, "name", name);
        let report = NodeDeletion::new(p, info).apply(&mut db).unwrap();
        assert_eq!(report.matchings, 0);
        assert_eq!(report.nodes_deleted, 0);
        assert_eq!(db.label_count(&"Info".into()), 1);
    }

    #[test]
    fn target_must_be_in_pattern() {
        let mut db = Instance::new(scheme());
        let mut foreign = Pattern::new();
        let f = foreign.node("Info");
        let nd = NodeDeletion::new(Pattern::new(), f);
        assert!(matches!(
            nd.apply(&mut db),
            Err(GoodError::NodeNotInPattern(_))
        ));
    }

    #[test]
    fn negation_tag_style_deletion() {
        // The Section 3.3 "No Sound" idiom: tag everything, then delete
        // tags of matched nodes. Here: delete infos that DO link
        // somewhere, keeping only sinks.
        let mut db = Instance::new(scheme());
        let a = named(&mut db, "a");
        let b = named(&mut db, "b");
        db.add_edge(a, "links-to", b).unwrap();
        let mut p = Pattern::new();
        let src = p.node("Info");
        let dst = p.node("Info");
        p.edge(src, "links-to", dst);
        NodeDeletion::new(p, src).apply(&mut db).unwrap();
        assert!(!db.contains_node(a));
        assert!(db.contains_node(b));
    }
}
