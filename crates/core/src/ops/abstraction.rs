//! Abstraction (`AB`, Section 3.5).
//!
//! `AB[J, S, I, n, K, α, β]` groups objects by set equality of one
//! multivalued property: for each matching `i`, the node `i(n)` belongs
//! to the equivalence class of all nodes sharing its `β`-successor set,
//! and each class realized by some matching receives one `K`-labeled
//! set object connected to its members by `α` edges.
//!
//! We implement the formal definition's *iff* condition literally: a
//! group node `p` gets an `α` edge to **every** node `m` whose `β`-set
//! equals the class's set — with `m` ranging over nodes of `n`'s label
//! (the label restriction is forced by the instance invariant that all
//! `α`-successors of `p` carry equal labels, and by the scheme triple
//! `(K, α, λ(n))` that the minimal scheme extension introduces).
//!
//! Abstraction "is always well defined" — this operation cannot fail
//! once its inputs validate. It is the duplicate eliminator that lifts
//! the core language to the nested relational algebra (Section 4.3).

use crate::error::{GoodError, Result};
use crate::instance::Instance;
use crate::label::{EdgeKind, Label};
use crate::matching::{find_match_table, PlanShape};
use crate::ops::OpReport;
use crate::pattern::Pattern;
use good_graph::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// An abstraction operation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Abstraction {
    /// The source pattern `J`.
    pub pattern: Pattern,
    /// The pattern node `n` whose images are grouped.
    pub node: NodeId,
    /// The object label `K` of the created set objects.
    pub group_label: Label,
    /// The multivalued label `α` connecting set objects to members.
    pub member_edge: Label,
    /// The multivalued label `β` whose target-set equality defines the
    /// grouping (drawn dashed in the paper's figures).
    pub key_edge: Label,
}

impl Abstraction {
    /// Construct an abstraction.
    pub fn new(
        pattern: Pattern,
        node: NodeId,
        group_label: impl Into<Label>,
        member_edge: impl Into<Label>,
        key_edge: impl Into<Label>,
    ) -> Self {
        Abstraction {
            pattern,
            node,
            group_label: group_label.into(),
            member_edge: member_edge.into(),
            key_edge: key_edge.into(),
        }
    }

    /// Apply to `db`, evolving scheme and instance.
    pub fn apply(&self, db: &mut Instance) -> Result<OpReport> {
        let node_label = self.pattern.positive_class(self.node)?.clone();
        // β must be a multivalued label of the scheme.
        match db.scheme().edge_kind(&self.key_edge) {
            Some(EdgeKind::Multivalued) => {}
            Some(EdgeKind::Functional) => {
                return Err(GoodError::EdgeKindMismatch {
                    label: self.key_edge.clone(),
                    registered: EdgeKind::Functional,
                    used: EdgeKind::Multivalued,
                })
            }
            None => return Err(GoodError::UnknownEdgeLabel(self.key_edge.clone())),
        }

        let table = find_match_table(&self.pattern, &*db, PlanShape::Planned)?;

        // Minimal scheme extension: K ∈ OL, α ∈ MEL, (K, α, λ(n)) ∈ P.
        db.scheme_mut().add_object_label(self.group_label.clone())?;
        db.scheme_mut()
            .add_multivalued_label(self.member_edge.clone())?;
        db.scheme_mut().add_triple(
            self.group_label.clone(),
            self.member_edge.clone(),
            node_label.clone(),
        )?;

        // β-sets realized by matchings.
        let column = table
            .column(self.node)
            .expect("the grouped node is positive");
        let realized: BTreeSet<BTreeSet<NodeId>> = (table.rows())
            .map(|row| db.target_set(row[column], &self.key_edge))
            .collect();

        // Equivalence classes: every λ(n)-labeled node with that β-set.
        let mut class_of: BTreeMap<&BTreeSet<NodeId>, Vec<NodeId>> =
            realized.iter().map(|set| (set, Vec::new())).collect();
        for candidate in db.nodes_with_label(&node_label).collect::<Vec<_>>() {
            let key = db.target_set(candidate, &self.key_edge);
            if let Some(members) = class_of.get_mut(&key) {
                members.push(candidate);
            }
        }

        // Minimality: reuse an existing K node whose α-successor set is
        // already exactly the class.
        let mut existing: BTreeMap<BTreeSet<NodeId>, NodeId> = BTreeMap::new();
        for group in db.nodes_with_label(&self.group_label).collect::<Vec<_>>() {
            existing.insert(db.target_set(group, &self.member_edge), group);
        }

        let mut report = OpReport {
            matchings: table.len(),
            ..OpReport::default()
        };
        for (_, members) in class_of {
            let member_set: BTreeSet<NodeId> = members.iter().copied().collect();
            if existing.contains_key(&member_set) {
                continue;
            }
            let group = db.add_object(self.group_label.clone())?;
            for member in &member_set {
                db.add_edge(group, self.member_edge.clone(), *member)?;
                report.edges_added += 1;
            }
            existing.insert(member_set, group);
            report.created_nodes.push(group);
        }
        db.debug_assert_indexes();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{Scheme, SchemeBuilder};
    use crate::value::ValueType;

    fn scheme() -> Scheme {
        SchemeBuilder::new()
            .object("Info")
            .object("Version")
            .printable("String", ValueType::Str)
            .functional("Info", "name", "String")
            .functional("Version", "old", "Info")
            .functional("Version", "new", "Info")
            .multivalued("Info", "links-to", "Info")
            .build()
    }

    /// The Figure 17 shape: four versioned infos; the first two link to
    /// the same pair of targets, the last two to distinct sets.
    fn versions_instance() -> (Instance, Vec<NodeId>) {
        let mut db = Instance::new(scheme());
        let targets: Vec<NodeId> = (0..4).map(|_| db.add_object("Info").unwrap()).collect();
        let mut versioned = Vec::new();
        // info0 and info1 both link to {t0, t1}; info2 links to {t1, t2};
        // info3 links to {t3}.
        let link_sets: [&[usize]; 4] = [&[0, 1], &[0, 1], &[1, 2], &[3]];
        for links in link_sets {
            let info = db.add_object("Info").unwrap();
            for &t in links {
                db.add_edge(info, "links-to", targets[t]).unwrap();
            }
            versioned.push(info);
        }
        // Chain them with version nodes: v(old=info_k, new=info_{k+1}).
        for window in versioned.windows(2) {
            let version = db.add_object("Version").unwrap();
            db.add_edge(version, "old", window[0]).unwrap();
            db.add_edge(version, "new", window[1]).unwrap();
        }
        (db, versioned)
    }

    /// Figures 18–19: abstract versioned infos over their links-to sets.
    fn figure18() -> Abstraction {
        let mut p = Pattern::new();
        let version = p.node("Version");
        let info = p.node("Info");
        p.edge(version, "old", info);
        Abstraction::new(p, info, "Same-Info", "contains", "links-to")
    }

    #[test]
    fn figure18_groups_by_link_sets() {
        let (mut db, versioned) = versions_instance();
        // Also abstract over the "new" side to cover all four infos: the
        // paper uses two tagging node additions; here two abstractions
        // with the same labels compose because of group reuse.
        let report = figure18().apply(&mut db).unwrap();
        // Matched: versioned[0..3] as old sides. β-sets: {t0,t1} (twice)
        // and {t1,t2}. Two groups.
        assert_eq!(report.matchings, 3);
        assert_eq!(report.created_nodes.len(), 2);
        // The {t0,t1} group contains both info0 and info1.
        let contains = Label::new("contains");
        let group_sizes: Vec<usize> = db
            .nodes_with_label(&"Same-Info".into())
            .map(|g| db.targets(g, &contains).count())
            .collect();
        let mut sorted = group_sizes.clone();
        sorted.sort();
        assert_eq!(sorted, vec![1, 2]);
        // info0 and info1 are in the same group.
        let g0: Vec<NodeId> = db.sources(versioned[0], &contains).collect();
        let g1: Vec<NodeId> = db.sources(versioned[1], &contains).collect();
        assert_eq!(g0, g1);
        assert_eq!(g0.len(), 1);
        db.validate().unwrap();
    }

    #[test]
    fn abstraction_is_idempotent() {
        let (mut db, _) = versions_instance();
        figure18().apply(&mut db).unwrap();
        let before = (db.node_count(), db.edge_count());
        let report = figure18().apply(&mut db).unwrap();
        assert_eq!(report.created_nodes.len(), 0);
        assert_eq!((db.node_count(), db.edge_count()), before);
    }

    #[test]
    fn members_include_unmatched_nodes_with_equal_sets() {
        // The iff condition: a node with the same β-set joins the group
        // even if the pattern did not match it.
        let (mut db, _) = versions_instance();
        let targets: Vec<NodeId> = db.nodes_with_label(&"Info".into()).collect();
        // Build an extra info (never an `old` version) linking to the
        // same set as versioned[0] ({t0, t1} = first two targets).
        let extra = db.add_object("Info").unwrap();
        db.add_edge(extra, "links-to", targets[0]).unwrap();
        db.add_edge(extra, "links-to", targets[1]).unwrap();
        figure18().apply(&mut db).unwrap();
        let contains = Label::new("contains");
        let groups_of_extra: Vec<NodeId> = db.sources(extra, &contains).collect();
        assert_eq!(groups_of_extra.len(), 1);
        assert_eq!(db.targets(groups_of_extra[0], &contains).count(), 3);
    }

    #[test]
    fn empty_beta_sets_group_together() {
        // Nodes with no β-edges share the empty set.
        let mut db = Instance::new(scheme());
        let a = db.add_object("Info").unwrap();
        let b = db.add_object("Info").unwrap();
        let mut p = Pattern::new();
        let info = p.node("Info");
        let ab = Abstraction::new(p, info, "Group", "member", "links-to");
        let report = ab.apply(&mut db).unwrap();
        assert_eq!(report.created_nodes.len(), 1);
        let group = report.created_nodes[0];
        let members: BTreeSet<NodeId> = db.target_set(group, &"member".into());
        assert_eq!(members, BTreeSet::from([a, b]));
    }

    #[test]
    fn key_edge_must_be_multivalued() {
        let (mut db, _) = versions_instance();
        let mut p = Pattern::new();
        let info = p.node("Info");
        let ab = Abstraction::new(p.clone(), info, "G", "m", "name");
        assert!(matches!(
            ab.apply(&mut db),
            Err(GoodError::EdgeKindMismatch { .. })
        ));
        let ab = Abstraction::new(p, info, "G", "m", "nope");
        assert!(matches!(
            ab.apply(&mut db),
            Err(GoodError::UnknownEdgeLabel(_))
        ));
    }

    #[test]
    fn node_must_be_in_pattern() {
        let (mut db, _) = versions_instance();
        let mut foreign = Pattern::new();
        let f = foreign.node("Info");
        let ab = Abstraction::new(Pattern::new(), f, "G", "m", "links-to");
        assert!(matches!(
            ab.apply(&mut db),
            Err(GoodError::NodeNotInPattern(_))
        ));
    }

    #[test]
    fn no_matchings_creates_no_groups() {
        let mut db = Instance::new(scheme());
        let mut p = Pattern::new();
        let version = p.node("Version");
        let info = p.node("Info");
        p.edge(version, "old", info);
        let report = Abstraction::new(p, info, "G", "m", "links-to")
            .apply(&mut db)
            .unwrap();
        assert_eq!(report.matchings, 0);
        assert!(report.created_nodes.is_empty());
        // Scheme still minimally extended.
        assert!(db.scheme().is_object_label(&"G".into()));
    }
}
