//! Edge deletion (`ED`, Section 3.4).
//!
//! `ED[J, S, I, {(m1, λ1, m1'), ...}]` removes, for every matching `i`,
//! the edges `(i(mℓ), λℓ, i(mℓ'))`. The paper requires the deleted
//! edges to be *labeled edges in F* — i.e. present in the source
//! pattern — which we validate. The scheme is unchanged.

use crate::error::{GoodError, Result};
use crate::instance::Instance;
use crate::label::Label;
use crate::matching::{find_match_table, PlanShape};
use crate::ops::OpReport;
use crate::pattern::Pattern;
use good_graph::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// An edge deletion operation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EdgeDeletion {
    /// The source pattern `J`.
    pub pattern: Pattern,
    /// The (doubly outlined) pattern edges whose images are removed,
    /// given as `(src, λ, dst)` over pattern nodes.
    pub edges: Vec<(NodeId, Label, NodeId)>,
}

impl EdgeDeletion {
    /// Construct an edge deletion.
    pub fn new(pattern: Pattern, edges: impl IntoIterator<Item = (NodeId, Label, NodeId)>) -> Self {
        EdgeDeletion {
            pattern,
            edges: edges.into_iter().collect(),
        }
    }

    /// Convenience: delete a single edge kind.
    pub fn single(pattern: Pattern, src: NodeId, label: impl Into<Label>, dst: NodeId) -> Self {
        EdgeDeletion::new(pattern, [(src, label.into(), dst)])
    }

    /// Apply to `db`.
    pub fn apply(&self, db: &mut Instance) -> Result<OpReport> {
        // Each doomed edge must be an edge of the source pattern.
        for (src, label, dst) in &self.edges {
            let in_pattern = self.pattern.graph().out_edges(*src).any(|edge| {
                !edge.payload.negated && edge.dst == *dst && &edge.payload.label == label
            });
            if !in_pattern {
                return Err(GoodError::EdgeNotInPattern {
                    edge: label.clone(),
                });
            }
        }
        let table = find_match_table(&self.pattern, &*db, PlanShape::Planned)?;
        let mut doomed: BTreeSet<(NodeId, Label, NodeId)> = BTreeSet::new();
        for (src, label, dst) in self.edges.iter().filter(|_| !table.is_empty()) {
            let column = |node| {
                table
                    .column(node)
                    .expect("doomed edges join positive nodes")
            };
            let (src, dst) = (column(*src), column(*dst));
            doomed.extend(table.rows().map(|row| (row[src], label.clone(), row[dst])));
        }
        let mut report = OpReport {
            matchings: table.len(),
            ..OpReport::default()
        };
        // Batched application: the deduplicated triple set goes through
        // one grouped deletion pass (one out-edge scan per source).
        report.edges_deleted = db.delete_edges_between(doomed);
        db.debug_assert_indexes();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::EdgeAddition;
    use crate::value::Value;

    use crate::gen::bench_scheme as scheme;

    fn music_history() -> (Instance, NodeId) {
        let mut db = Instance::new(scheme());
        let info = db.add_object("Info").unwrap();
        let name = db.add_printable("String", "Music History").unwrap();
        let date = db.add_printable("Date", Value::date(1990, 1, 14)).unwrap();
        db.add_edge(info, "name", name).unwrap();
        db.add_edge(info, "modified", date).unwrap();
        (db, info)
    }

    /// Figure 16: update the last-modified date — ED of the old edge
    /// followed by EA of the new one.
    #[test]
    fn figure16_update_via_ed_then_ea() {
        let (mut db, info) = music_history();

        // Step 1: delete the modified edge.
        let mut p = Pattern::new();
        let pinfo = p.node("Info");
        let pname = p.printable("String", "Music History");
        let pdate = p.node("Date");
        p.edge(pinfo, "name", pname);
        p.edge(pinfo, "modified", pdate);
        let report = EdgeDeletion::single(p, pinfo, "modified", pdate)
            .apply(&mut db)
            .unwrap();
        assert_eq!(report.edges_deleted, 1);
        assert!(db.functional_target(info, &"modified".into()).is_none());

        // Step 2: add the new modified edge.
        let mut p = Pattern::new();
        let pinfo = p.node("Info");
        let pname = p.printable("String", "Music History");
        let pdate = p.printable("Date", Value::date(1990, 1, 16));
        p.edge(pinfo, "name", pname);
        db.add_printable("Date", Value::date(1990, 1, 16)).unwrap();
        EdgeAddition::functional(p, pinfo, "modified", pdate)
            .apply(&mut db)
            .unwrap();
        let target = db.functional_target(info, &"modified".into()).unwrap();
        assert_eq!(db.print_value(target), Some(&Value::date(1990, 1, 16)));
        db.validate().unwrap();
    }

    #[test]
    fn deleting_multivalued_edges() {
        let mut db = Instance::new(scheme());
        let a = db.add_object("Info").unwrap();
        let b = db.add_object("Info").unwrap();
        let c = db.add_object("Info").unwrap();
        db.add_edge(a, "links-to", b).unwrap();
        db.add_edge(a, "links-to", c).unwrap();
        db.add_edge(b, "links-to", c).unwrap();
        // Delete every links-to edge.
        let mut p = Pattern::new();
        let src = p.node("Info");
        let dst = p.node("Info");
        p.edge(src, "links-to", dst);
        let report = EdgeDeletion::single(p, src, "links-to", dst)
            .apply(&mut db)
            .unwrap();
        assert_eq!(report.matchings, 3);
        assert_eq!(report.edges_deleted, 3);
        assert_eq!(db.edge_count(), 0);
        assert_eq!(db.node_count(), 3); // nodes survive
    }

    #[test]
    fn doomed_edge_must_be_in_pattern() {
        let (mut db, _) = music_history();
        let mut p = Pattern::new();
        let pinfo = p.node("Info");
        let pdate = p.node("Date");
        // NOTE: no modified edge in the pattern.
        let ed = EdgeDeletion::single(p, pinfo, "modified", pdate);
        assert!(matches!(
            ed.apply(&mut db),
            Err(GoodError::EdgeNotInPattern { .. })
        ));
    }

    #[test]
    fn no_matchings_deletes_nothing() {
        let (mut db, _) = music_history();
        let mut p = Pattern::new();
        let pinfo = p.node("Info");
        let pname = p.printable("String", "Nope");
        let pdate = p.node("Date");
        p.edge(pinfo, "name", pname);
        p.edge(pinfo, "modified", pdate);
        let report = EdgeDeletion::single(p, pinfo, "modified", pdate)
            .apply(&mut db)
            .unwrap();
        assert_eq!(report.matchings, 0);
        assert_eq!(db.edge_count(), 2);
    }

    #[test]
    fn multiple_edges_deleted_per_matching() {
        let (mut db, info) = music_history();
        let mut p = Pattern::new();
        let pinfo = p.node("Info");
        let pname = p.node("String");
        let pdate = p.node("Date");
        p.edge(pinfo, "name", pname);
        p.edge(pinfo, "modified", pdate);
        let ed = EdgeDeletion::new(
            p,
            [
                (pinfo, Label::new("name"), pname),
                (pinfo, Label::new("modified"), pdate),
            ],
        );
        let report = ed.apply(&mut db).unwrap();
        assert_eq!(report.edges_deleted, 2);
        assert_eq!(db.out_degree(info), 0);
    }
}
