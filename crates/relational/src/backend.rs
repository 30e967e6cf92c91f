//! The Section 5 implementation strategy: GOOD on a relational store.
//!
//! "A prototype of the actual data management is implemented on top of
//! a relational system. Classes are stored as relations with attributes
//! for the object identifier and the functional properties. Multivalued
//! edges are stored as binary relations. The set of all matchings of
//! the pattern of a GOOD operation is expressed as an SQL query."
//!
//! [`RelBackend`] reproduces that architecture on our own relational
//! machinery: class tables (object id + print value), binary edge
//! tables with hash indexes in both directions, and pattern matching
//! evaluated as a left-deep join plan over those tables. It is a
//! genuinely different evaluation path from `good_core::matching`, and
//! the two are differentially tested (and raced in benchmark E7).

use good_core::error::{GoodError, Result};
use good_core::instance::Instance;
use good_core::label::Label;
use good_core::matching::Matching;
use good_core::pattern::{Pattern, PatternNodeKind};
use good_core::value::Value;
use good_graph::NodeId;
use std::collections::{BTreeMap, HashMap};

/// A GOOD instance stored relationally.
#[derive(Debug, Clone, Default)]
pub struct RelBackend {
    /// Class table: label → object ids (sorted).
    class_rows: BTreeMap<Label, Vec<NodeId>>,
    /// Print column of printable classes.
    prints: HashMap<NodeId, Value>,
    /// Printable lookup: (class, value) → id.
    printable_lookup: HashMap<(Label, Value), NodeId>,
    /// Binary relation per edge label, plus hash indexes both ways.
    forward: HashMap<(Label, NodeId), Vec<NodeId>>,
    backward: HashMap<(Label, NodeId), Vec<NodeId>>,
    /// Edge membership for final filtering.
    edges: HashMap<(Label, NodeId, NodeId), ()>,
}

impl RelBackend {
    /// Load an instance into relational storage.
    pub fn from_instance(db: &Instance) -> Self {
        let mut backend = RelBackend::default();
        // `nodes()` is in id order, so each class's rows come out sorted.
        for (id, data) in db.nodes() {
            (backend.class_rows.entry(data.label.clone()).or_default()).push(id);
            if let Some(value) = &data.print {
                backend.prints.insert(id, value.clone());
                let key = (data.label.clone(), value.clone());
                backend.printable_lookup.insert(key, id);
            }
        }
        for (src, label, dst) in db.edges() {
            (backend.forward.entry((label.clone(), src)).or_default()).push(dst);
            (backend.backward.entry((label.clone(), dst)).or_default()).push(src);
            backend.edges.insert((label.clone(), src, dst), ());
        }
        backend
    }

    /// Number of rows in a class table.
    pub fn class_cardinality(&self, class: &Label) -> usize {
        self.class_rows.get(class).map_or(0, Vec::len)
    }

    fn node_satisfies(&self, candidate: NodeId, node: &good_core::pattern::PatternNode) -> bool {
        if let Some(required) = &node.print {
            if self.prints.get(&candidate) != Some(required) {
                return false;
            }
        }
        if let Some(predicate) = &node.predicate {
            match self.prints.get(&candidate) {
                Some(value) if predicate.matches(value) => {}
                _ => return false,
            }
        }
        true
    }

    /// Evaluate a (positive) pattern as a join over the stored tables.
    ///
    /// Patterns with crossed parts or method heads are rejected — the
    /// Antwerp prototype compiled those into the update pipeline, which
    /// this backend does not reproduce.
    pub fn match_pattern(&self, pattern: &Pattern) -> Result<Vec<Matching>> {
        if pattern.has_negation() || pattern.has_method_head() {
            return Err(GoodError::InvalidPattern(
                "the relational backend evaluates positive patterns only".into(),
            ));
        }

        // Join order: pattern nodes, preferring ones connected to the
        // already-joined prefix (left-deep plan), tie-broken by class
        // cardinality.
        let all_nodes: Vec<NodeId> = {
            let mut nodes: Vec<NodeId> = pattern.graph().node_ids().collect();
            nodes.sort();
            nodes
        };
        let mut order: Vec<NodeId> = Vec::with_capacity(all_nodes.len());
        let mut remaining = all_nodes.clone();
        while !remaining.is_empty() {
            let pick = remaining
                .iter()
                .position(|node| {
                    pattern
                        .graph()
                        .out_edges(*node)
                        .map(|e| e.dst)
                        .chain(pattern.graph().in_edges(*node).map(|e| e.src))
                        .any(|neighbour| order.contains(&neighbour))
                })
                .unwrap_or_else(|| {
                    // No connected node: pick the smallest class table.
                    remaining
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, node)| {
                            let label = pattern.node_label(**node).cloned();
                            label.map_or(usize::MAX, |l| self.class_cardinality(&l))
                        })
                        .map(|(index, _)| index)
                        .expect("remaining nonempty")
                });
            order.push(remaining.remove(pick));
        }

        // Left-deep join over binding rows.
        let mut rows: Vec<BTreeMap<NodeId, NodeId>> = vec![BTreeMap::new()];
        for &pnode in &order {
            let data = pattern.graph().node(pnode).expect("live");
            let PatternNodeKind::Class(label) = &data.kind else {
                return Err(GoodError::InvalidPattern("method head in pattern".into()));
            };
            let mut next_rows = Vec::new();
            for row in &rows {
                // Candidate generation: via an index on an edge to a
                // bound neighbour if possible, else a class scan (or a
                // point lookup for exact printable values).
                let candidates: Vec<NodeId> = if let Some(required) = &data.print {
                    self.printable_lookup
                        .get(&(label.clone(), required.clone()))
                        .map(|id| vec![*id])
                        .unwrap_or_default()
                } else if let Some(edge) = pattern
                    .graph()
                    .in_edges(pnode)
                    .find(|e| row.contains_key(&e.src))
                {
                    self.forward
                        .get(&(edge.payload.label.clone(), row[&edge.src]))
                        .cloned()
                        .unwrap_or_default()
                } else if let Some(edge) = pattern
                    .graph()
                    .out_edges(pnode)
                    .find(|e| row.contains_key(&e.dst))
                {
                    self.backward
                        .get(&(edge.payload.label.clone(), row[&edge.dst]))
                        .cloned()
                        .unwrap_or_default()
                } else {
                    self.class_rows.get(label).cloned().unwrap_or_default()
                };
                'candidates: for candidate in candidates {
                    // Class check (index-derived candidates can have any
                    // label) + print/predicate columns.
                    let in_class = self
                        .class_rows
                        .get(label)
                        .is_some_and(|rows| rows.binary_search(&candidate).is_ok());
                    if !in_class || !self.node_satisfies(candidate, data) {
                        continue;
                    }
                    // Residual join predicates: all edges between the
                    // candidate and bound nodes must be present.
                    for edge in pattern.graph().out_edges(pnode) {
                        let dst = if edge.dst == pnode {
                            Some(candidate) // self loop
                        } else {
                            row.get(&edge.dst).copied()
                        };
                        if let Some(dst) = dst {
                            if !self.edges.contains_key(&(
                                edge.payload.label.clone(),
                                candidate,
                                dst,
                            )) {
                                continue 'candidates;
                            }
                        }
                    }
                    for edge in pattern.graph().in_edges(pnode) {
                        if edge.src == pnode {
                            continue; // handled above
                        }
                        if let Some(&src) = row.get(&edge.src) {
                            if !self.edges.contains_key(&(
                                edge.payload.label.clone(),
                                src,
                                candidate,
                            )) {
                                continue 'candidates;
                            }
                        }
                    }
                    let mut extended = row.clone();
                    extended.insert(pnode, candidate);
                    next_rows.push(extended);
                }
            }
            rows = next_rows;
            if rows.is_empty() {
                break;
            }
        }

        let mut out: Vec<Matching> = rows.into_iter().map(Matching::from_pairs).collect();
        out.sort();
        out.dedup();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use good_core::gen::{random_instance, GenConfig};
    use good_core::matching::find_matchings;
    use good_core::pattern::ValuePredicate;
    use good_core::scheme::SchemeBuilder;
    use good_core::value::ValueType;

    fn sample() -> Instance {
        random_instance(&GenConfig {
            infos: 40,
            avg_links: 2.0,
            distinct_dates: 4,
            seed: 3,
        })
    }

    fn agree(pattern: &Pattern, db: &Instance) {
        let native = find_matchings(pattern, db).unwrap();
        let relational = RelBackend::from_instance(db)
            .match_pattern(pattern)
            .unwrap();
        assert_eq!(native, relational);
    }

    #[test]
    fn single_node_pattern() {
        let db = sample();
        let mut p = Pattern::new();
        p.node("Info");
        agree(&p, &db);
    }

    #[test]
    fn edge_pattern() {
        let db = sample();
        let mut p = Pattern::new();
        let a = p.node("Info");
        let b = p.node("Info");
        p.edge(a, "links-to", b);
        agree(&p, &db);
    }

    #[test]
    fn triangle_pattern() {
        let db = sample();
        let mut p = Pattern::new();
        let a = p.node("Info");
        let b = p.node("Info");
        let c = p.node("Info");
        p.edge(a, "links-to", b);
        p.edge(b, "links-to", c);
        p.edge(a, "links-to", c);
        agree(&p, &db);
    }

    #[test]
    fn printable_point_lookup() {
        let db = sample();
        let mut p = Pattern::new();
        let info = p.node("Info");
        let name = p.printable("String", "info-7");
        p.edge(info, "name", name);
        agree(&p, &db);
    }

    #[test]
    fn predicate_columns() {
        let db = sample();
        let mut p = Pattern::new();
        let info = p.node("Info");
        let name = p.predicate_node("String", ValuePredicate::StartsWith("info-1".into()));
        p.edge(info, "name", name);
        agree(&p, &db);
    }

    #[test]
    fn disconnected_pattern_cross_product() {
        let db = random_instance(&GenConfig {
            infos: 6,
            avg_links: 1.0,
            distinct_dates: 2,
            seed: 9,
        });
        let mut p = Pattern::new();
        p.node("Info");
        p.node("Date");
        agree(&p, &db);
    }

    #[test]
    fn self_loop_pattern() {
        let scheme = SchemeBuilder::new()
            .object("N")
            .multivalued("N", "e", "N")
            .printable("S", ValueType::Str)
            .build();
        let mut db = Instance::new(scheme);
        let a = db.add_object("N").unwrap();
        let b = db.add_object("N").unwrap();
        db.add_edge(a, "e", a).unwrap();
        db.add_edge(a, "e", b).unwrap();
        let mut p = Pattern::new();
        let n = p.node("N");
        p.edge(n, "e", n);
        agree(&p, &db);
    }

    #[test]
    fn negation_rejected() {
        let db = sample();
        let mut p = Pattern::new();
        let a = p.node("Info");
        let b = p.negated_node("Info");
        p.edge(a, "links-to", b);
        assert!(RelBackend::from_instance(&db).match_pattern(&p).is_err());
    }

    #[test]
    fn random_differential_sweep() {
        for seed in 0..8 {
            let db = random_instance(&GenConfig {
                infos: 25,
                avg_links: 2.5,
                distinct_dates: 3,
                seed,
            });
            // Chain pattern of length 2 with a date constraint.
            let mut p = Pattern::new();
            let a = p.node("Info");
            let b = p.node("Info");
            let c = p.node("Info");
            let d = p.node("Date");
            p.edge(a, "links-to", b);
            p.edge(b, "links-to", c);
            p.edge(a, "created", d);
            agree(&p, &db);
        }
    }
}
