//! Storing a GOOD instance in the Tarski Data Model.
//!
//! Decomposition:
//!
//! * one binary relation `edge:<λ>` per edge label, holding its
//!   `(source, target)` pairs;
//! * one coreflexive `class:<L>` per node label, holding `(n, n)` for
//!   every node of class `L` — Tarski's standard encoding of unary
//!   predicates;
//! * one coreflexive `print:<L>=<v>` per printable constant in use.
//!
//! Everything GOOD's matcher consults is thus available to the binary
//! relation algebra: a typed edge traversal is
//! `class:A ; edge:λ ; class:B` and a print-constrained endpoint is a
//! composition with its `print:` coreflexive.

use crate::binrel::BinRel;
use good_core::instance::Instance;
use good_core::label::Label;
use good_core::value::Value;
use good_graph::NodeId;
use std::collections::BTreeMap;

/// A GOOD instance decomposed into named binary relations.
#[derive(Debug, Clone, Default)]
pub struct TarskiStore {
    relations: BTreeMap<String, BinRel<NodeId>>,
}

/// The catalog name of an edge label's relation.
pub fn edge_rel(label: &Label) -> String {
    format!("edge:{label}")
}

/// The catalog name of a class coreflexive.
pub fn class_rel(label: &Label) -> String {
    format!("class:{label}")
}

/// The catalog name of a printable-constant coreflexive.
pub fn print_rel(label: &Label, value: &Value) -> String {
    format!("print:{label}={value}")
}

impl TarskiStore {
    /// Decompose an instance.
    pub fn from_instance(db: &Instance) -> Self {
        let mut relations: BTreeMap<String, BinRel<NodeId>> = BTreeMap::new();
        let mut relate = |name, pair: (NodeId, NodeId)| {
            (relations.entry(name).or_default()).insert(pair.0, pair.1);
        };
        for (id, data) in db.nodes() {
            relate(class_rel(&data.label), (id, id));
            if let Some(value) = &data.print {
                relate(print_rel(&data.label, value), (id, id));
            }
        }
        for (src, label, dst) in db.edges() {
            relate(edge_rel(label), (src, dst));
        }
        TarskiStore { relations }
    }

    /// The catalog (for [`crate::algebra::TarskiExpr::eval`]).
    pub fn catalog(&self) -> &BTreeMap<String, BinRel<NodeId>> {
        &self.relations
    }

    /// Look up one relation (empty if absent — absent labels denote
    /// empty relations, not errors, mirroring incomplete information).
    pub fn relation(&self, name: &str) -> BinRel<NodeId> {
        self.relations.get(name).cloned().unwrap_or_default()
    }

    /// Number of stored relations.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Total number of stored pairs.
    pub fn pair_count(&self) -> usize {
        self.relations.values().map(BinRel::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use good_core::gen::bench_scheme;

    fn sample() -> (Instance, NodeId, NodeId) {
        let mut db = Instance::new(bench_scheme());
        let a = db.add_object("Info").unwrap();
        let b = db.add_object("Info").unwrap();
        let name = db.add_printable("String", "rock").unwrap();
        db.add_edge(a, "name", name).unwrap();
        db.add_edge(a, "links-to", b).unwrap();
        (db, a, b)
    }

    #[test]
    fn decomposition_contents() {
        let (db, a, b) = sample();
        let store = TarskiStore::from_instance(&db);
        assert!(store.relation("edge:links-to").contains(&a, &b));
        assert!(store.relation("class:Info").contains(&a, &a));
        assert_eq!(store.relation("class:Info").len(), 2);
        let name = db
            .find_printable(&"String".into(), &Value::str("rock"))
            .unwrap();
        assert!(store
            .relation(&format!("print:String={}", "rock"))
            .contains(&name, &name));
    }

    #[test]
    fn absent_relations_are_empty() {
        let (db, _, _) = sample();
        let store = TarskiStore::from_instance(&db);
        assert!(store.relation("edge:nope").is_empty());
    }

    #[test]
    fn pair_count_matches_instance() {
        let (db, _, _) = sample();
        let store = TarskiStore::from_instance(&db);
        // 2 edges + 3 class pairs + 1 print pair.
        assert_eq!(store.pair_count(), 6);
        assert_eq!(store.relation_count(), 5);
    }
}
