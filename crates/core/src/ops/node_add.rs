//! Node addition (`NA`, Section 3.1).
//!
//! `NA[J, S, I, K, {(λ1, m1), ..., (λn, mn)}]` adds, for each matching
//! `i` of the source pattern `J`, a new `K`-labeled node with functional
//! edges `λℓ` to `i(mℓ)` — *unless such a node already exists*. The
//! implementation follows the paper's procedural semantics (Figure 9)
//! verbatim, which yields the paper's "one to one relationship between
//! the matchings of the source pattern, restricted to the nodes in which
//! a bold edge arrives, and the nodes that are added": matchings that
//! agree on all bold-edge targets share one new node, and re-running the
//! same addition is idempotent.
//!
//! With an empty bold-edge list and the empty pattern this adds a single
//! unconditional node (Figure 12).

use crate::error::{GoodError, Result};
use crate::instance::Instance;
use crate::label::Label;
use crate::matching::find_matchings;
use crate::ops::OpReport;
use crate::pattern::Pattern;
use good_graph::NodeId;
use good_trace::LiveCounter;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// Matchings whose node already existed (the Figure 9 "if not exists").
static LIVE_DEDUP_HITS: LiveCounter = LiveCounter::new("op.na.dedup_hits");

/// A node addition operation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeAddition {
    /// The source pattern `J`.
    pub pattern: Pattern,
    /// The object label `K` of the nodes to add.
    pub label: Label,
    /// The bold functional edges: `(λℓ, mℓ)` pairs, each pointing at a
    /// node of the source pattern. The `λℓ` must be pairwise different.
    pub edges: Vec<(Label, NodeId)>,
}

impl NodeAddition {
    /// Construct a node addition.
    pub fn new(
        pattern: Pattern,
        label: impl Into<Label>,
        edges: impl IntoIterator<Item = (Label, NodeId)>,
    ) -> Self {
        NodeAddition {
            pattern,
            label: label.into(),
            edges: edges.into_iter().collect(),
        }
    }

    /// Apply to `db`, evolving scheme and instance.
    pub fn apply(&self, db: &mut Instance) -> Result<OpReport> {
        // The λℓ must be pairwise different functional edge labels.
        let mut seen = BTreeSet::new();
        for (label, node) in &self.edges {
            if !seen.insert(label) {
                return Err(GoodError::InvalidPattern(format!(
                    "node addition uses edge label {label} twice"
                )));
            }
            let is_positive = self
                .pattern
                .graph()
                .node(*node)
                .map(|data| !data.negated)
                .unwrap_or(false);
            if !is_positive || self.pattern.node_label(*node).is_none() {
                return Err(GoodError::NodeNotInPattern(format!("{node:?}")));
            }
        }

        // Enumerate matchings against the *original* instance.
        let matchings = find_matchings(&self.pattern, db)?;

        // Minimal scheme extension: K ∈ OL, λℓ ∈ FEL, (K, λℓ, λ(mℓ)) ∈ P.
        db.scheme_mut().add_object_label(self.label.clone())?;
        for (edge_label, pattern_node) in &self.edges {
            let target_label = self
                .pattern
                .node_label(*pattern_node)
                .expect("validated above")
                .clone();
            db.scheme_mut().add_functional_label(edge_label.clone())?;
            db.scheme_mut()
                .add_triple(self.label.clone(), edge_label.clone(), target_label)?;
        }

        // Figure 9: "if not exists a K-labeled node n in I′ with
        // outgoing edges (n, λℓ, i(mℓ)), 1 ≤ ℓ ≤ n, then add such a node".
        // Index existing K nodes by their λ-target vector. A node whose
        // λℓ-targets are exactly the required ones satisfies the
        // condition (extra *other* edges are irrelevant; extra λℓ edges
        // are impossible because λℓ is functional).
        let edge_labels: Vec<&Label> = self.edges.iter().map(|(l, _)| l).collect();
        let mut existing: HashMap<Vec<NodeId>, NodeId> = HashMap::new();
        for node in db.nodes_with_label(&self.label).collect::<Vec<_>>() {
            let targets: Option<Vec<NodeId>> = edge_labels
                .iter()
                .map(|label| db.functional_target(node, label))
                .collect();
            if let Some(key) = targets {
                existing.entry(key).or_insert(node);
            }
        }

        let mut report = OpReport {
            matchings: matchings.len(),
            ..OpReport::default()
        };
        // Batched application: first precompute the distinct target
        // vectors still missing a K node (matchings are in canonical
        // order, so first-seen order is deterministic), then run one
        // mutation pass over the pending vectors.
        let mut pending: Vec<Vec<NodeId>> = Vec::new();
        let mut claimed: BTreeSet<Vec<NodeId>> = BTreeSet::new();
        let mut dedup_hits = 0u64;
        for matching in &matchings {
            let key: Vec<NodeId> = self.edges.iter().map(|(_, m)| matching.image(*m)).collect();
            if existing.contains_key(&key) || !claimed.insert(key.clone()) {
                dedup_hits += 1;
                continue;
            }
            pending.push(key);
        }
        LIVE_DEDUP_HITS.add(dedup_hits);
        for key in pending {
            let fresh = db.add_object(self.label.clone())?;
            for ((edge_label, _), target) in self.edges.iter().zip(&key) {
                db.add_edge(fresh, edge_label.clone(), *target)?;
                report.edges_added += 1;
            }
            report.created_nodes.push(fresh);
        }
        db.debug_assert_indexes();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    use crate::gen::bench_scheme as scheme;

    /// Rock(Jan 14) links to Doors(Jan 12) and Floyd(Jan 14).
    fn small_instance() -> (Instance, [NodeId; 3]) {
        let mut db = Instance::new(scheme());
        let rock = db.add_object("Info").unwrap();
        let doors = db.add_object("Info").unwrap();
        let floyd = db.add_object("Info").unwrap();
        for (name, node) in [("Rock", rock), ("The Doors", doors), ("Pinkfloyd", floyd)] {
            let s = db.add_printable("String", name).unwrap();
            db.add_edge(node, "name", s).unwrap();
        }
        let d14 = db.add_printable("Date", Value::date(1990, 1, 14)).unwrap();
        let d12 = db.add_printable("Date", Value::date(1990, 1, 12)).unwrap();
        db.add_edge(rock, "created", d14).unwrap();
        db.add_edge(doors, "created", d12).unwrap();
        db.add_edge(floyd, "created", d14).unwrap();
        db.add_edge(rock, "links-to", doors).unwrap();
        db.add_edge(rock, "links-to", floyd).unwrap();
        (db, [rock, doors, floyd])
    }

    /// Figure 6: tag the infos Rock links to with bold `Rock` nodes.
    fn figure6() -> NodeAddition {
        let mut p = Pattern::new();
        let info = p.node("Info");
        let date = p.printable("Date", Value::date(1990, 1, 14));
        let name = p.printable("String", "Rock");
        let other = p.node("Info");
        p.edge(info, "created", date);
        p.edge(info, "name", name);
        p.edge(info, "links-to", other);
        NodeAddition::new(p, "Rock", [(Label::new("tagged-to"), other)])
    }

    #[test]
    fn figure6_tags_two_infos() {
        let (mut db, [_, doors, floyd]) = small_instance();
        let report = figure6().apply(&mut db).unwrap();
        assert_eq!(report.matchings, 2);
        assert_eq!(report.created_nodes.len(), 2);
        assert_eq!(report.edges_added, 2);
        // The scheme was minimally extended.
        assert!(db.scheme().is_object_label(&"Rock".into()));
        assert!(db
            .scheme()
            .allows(&"Rock".into(), &"tagged-to".into(), &"Info".into()));
        // Each tag points at one of the linked infos.
        let tagged: Vec<NodeId> = db
            .nodes_with_label(&"Rock".into())
            .map(|t| db.functional_target(t, &"tagged-to".into()).unwrap())
            .collect();
        assert!(tagged.contains(&doors) && tagged.contains(&floyd));
        db.validate().unwrap();
    }

    #[test]
    fn node_addition_is_idempotent() {
        // Figure 9's existence check makes re-application a no-op.
        let (mut db, _) = small_instance();
        figure6().apply(&mut db).unwrap();
        let before = (db.node_count(), db.edge_count());
        let report = figure6().apply(&mut db).unwrap();
        assert_eq!(report.created_nodes.len(), 0);
        assert_eq!((db.node_count(), db.edge_count()), before);
    }

    #[test]
    fn matchings_with_equal_restriction_share_one_node() {
        // Pattern: Info -links-to-> Info; bold edge only to the source.
        // Rock matches twice (two targets) but both matchings restrict
        // to the same source image, so only ONE node is added.
        let (mut db, [rock, ..]) = small_instance();
        let mut p = Pattern::new();
        let src = p.node("Info");
        let dst = p.node("Info");
        p.edge(src, "links-to", dst);
        let na = NodeAddition::new(p, "Tag", [(Label::new("of"), src)]);
        let report = na.apply(&mut db).unwrap();
        assert_eq!(report.matchings, 2);
        assert_eq!(report.created_nodes.len(), 1);
        assert_eq!(
            db.functional_target(report.created_nodes[0], &"of".into()),
            Some(rock)
        );
    }

    #[test]
    fn figure8_aggregates_pairs_of_dates() {
        // Figure 8: pairs (parent, child) of creation dates of linked
        // infos named Rock.
        let (mut db, _) = small_instance();
        let mut p = Pattern::new();
        let info = p.node("Info");
        let name = p.printable("String", "Rock");
        let parent_date = p.node("Date");
        let other = p.node("Info");
        let child_date = p.node("Date");
        p.edge(info, "name", name);
        p.edge(info, "created", parent_date);
        p.edge(info, "links-to", other);
        p.edge(other, "created", child_date);
        let na = NodeAddition::new(
            p,
            "Pair",
            [
                (Label::new("parent"), parent_date),
                (Label::new("child"), child_date),
            ],
        );
        let report = na.apply(&mut db).unwrap();
        // Two matchings: (d14, d12) via Doors and (d14, d14) via Floyd.
        assert_eq!(report.matchings, 2);
        assert_eq!(report.created_nodes.len(), 2);
        for pair in &report.created_nodes {
            assert!(db.functional_target(*pair, &"parent".into()).is_some());
            assert!(db.functional_target(*pair, &"child".into()).is_some());
        }
        db.validate().unwrap();
    }

    #[test]
    fn empty_pattern_adds_single_node() {
        // Figure 12.
        let (mut db, _) = small_instance();
        let na = NodeAddition::new(Pattern::new(), "Created-Jan-14-1990", []);
        let report = na.apply(&mut db).unwrap();
        assert_eq!(report.matchings, 1);
        assert_eq!(report.created_nodes.len(), 1);
        // Re-running adds nothing: a K node already exists.
        let report = na.apply(&mut db).unwrap();
        assert_eq!(report.created_nodes.len(), 0);
        assert_eq!(db.label_count(&"Created-Jan-14-1990".into()), 1);
    }

    #[test]
    fn duplicate_edge_labels_rejected() {
        let mut p = Pattern::new();
        let a = p.node("Info");
        let b = p.node("Info");
        p.edge(a, "links-to", b);
        let na = NodeAddition::new(p, "Pair", [(Label::new("x"), a), (Label::new("x"), b)]);
        let (mut db, _) = small_instance();
        assert!(matches!(
            na.apply(&mut db),
            Err(GoodError::InvalidPattern(_))
        ));
    }

    #[test]
    fn bold_edge_must_target_pattern_node() {
        let p = Pattern::new();
        let mut other = Pattern::new();
        let foreign = other.node("Info");
        let na = NodeAddition::new(p, "Tag", [(Label::new("of"), foreign)]);
        let (mut db, _) = small_instance();
        assert!(matches!(
            na.apply(&mut db),
            Err(GoodError::NodeNotInPattern(_))
        ));
    }

    #[test]
    fn label_clash_with_printable_universe_rejected() {
        let (mut db, _) = small_instance();
        let na = NodeAddition::new(Pattern::new(), "String", []);
        assert!(matches!(
            na.apply(&mut db),
            Err(GoodError::LabelUniverseClash { .. })
        ));
    }

    #[test]
    fn no_matchings_means_no_changes() {
        let (mut db, _) = small_instance();
        let mut p = Pattern::new();
        let info = p.node("Info");
        let name = p.printable("String", "Mozart");
        p.edge(info, "name", name);
        let na = NodeAddition::new(p, "Tag", [(Label::new("of"), info)]);
        let before = db.node_count();
        let report = na.apply(&mut db).unwrap();
        assert_eq!(report.matchings, 0);
        assert_eq!(db.node_count(), before);
        // ... but the scheme is still extended (the paper's S′ does not
        // depend on the instance).
        assert!(db.scheme().is_object_label(&"Tag".into()));
    }
}
