//! The negation macro (Section 4.1, Figures 26–27).
//!
//! "The general technique to simulate patterns with a crossed part in
//! GOOD utilizes deletions. First, intermediate nodes are created for
//! every matching of the non-crossed part of the pattern. Then the
//! intermediate nodes are deleted that are associated to a matching
//! that can be enlarged to the complete pattern. The intermediate nodes
//! that are left represent the desired matching."
//!
//! [`expand_negation`] produces exactly that two-operation program; the
//! surviving intermediate nodes carry one functional *slot* edge per
//! positive pattern node, so a caller (or [`NegationExpansion::read_matchings`])
//! can recover the matchings. The property tests check the expansion
//! against the matcher's built-in negation semantics
//! ([`crate::matching::find_matchings`]).

use crate::error::{GoodError, Result};
use crate::instance::Instance;
use crate::label::Label;
use crate::matching::Matching;
use crate::ops::{NodeAddition, NodeDeletion};
use crate::pattern::Pattern;
use crate::program::{Env, Operation, Program};
use good_graph::NodeId;
use std::collections::BTreeMap;

/// The result of expanding a crossed pattern.
#[derive(Debug, Clone)]
pub struct NegationExpansion {
    /// The two-step program: tag positive matchings, delete extendable
    /// tags.
    pub program: Program,
    /// The label of the intermediate (tag) nodes.
    pub intermediate: Label,
    /// Slot edge label per positive pattern node, in pattern-node order.
    pub slots: BTreeMap<NodeId, Label>,
}

impl NegationExpansion {
    /// Run the program on `db`, then read the surviving matchings back
    /// from the intermediate nodes (and delete them, leaving `db` as it
    /// was apart from scheme extensions).
    pub fn evaluate(&self, db: &mut Instance, env: &mut Env) -> Result<Vec<Matching>> {
        self.program.apply(db, env)?;
        let matchings = self.read_matchings(db);
        // Clean up the surviving intermediates.
        let mut cleanup = Pattern::new();
        let tag = cleanup.node(self.intermediate.clone());
        NodeDeletion::new(cleanup, tag).apply(db)?;
        Ok(matchings)
    }

    /// Read the matchings represented by the currently-live intermediate
    /// nodes.
    pub fn read_matchings(&self, db: &Instance) -> Vec<Matching> {
        let mut out: Vec<Matching> = db
            .nodes_with_label(&self.intermediate)
            .map(|tag| {
                Matching::from_pairs(self.slots.iter().map(|(pattern_node, slot)| {
                    (
                        *pattern_node,
                        db.functional_target(tag, slot)
                            .expect("intermediate carries all slot edges"),
                    )
                }))
            })
            .collect();
        out.sort();
        out
    }
}

/// Expand a pattern with crossed parts into core operations, using
/// `intermediate` as the tag label (it must be fresh with respect to the
/// instance's scheme objects, or at least unused by live nodes).
pub fn expand_negation(
    pattern: &Pattern,
    intermediate: impl Into<Label>,
) -> Result<NegationExpansion> {
    if !pattern.has_negation() {
        return Err(GoodError::InvalidPattern(
            "expand_negation requires a pattern with crossed parts".into(),
        ));
    }
    let intermediate = intermediate.into();
    let positive = pattern.positive_part();
    let positive_nodes = positive.positive_nodes();

    // Slot labels "<intermediate>-1", "<intermediate>-2", ...
    let slots: BTreeMap<NodeId, Label> = positive_nodes
        .iter()
        .enumerate()
        .map(|(index, node)| (*node, Label::new(format!("{intermediate}-{}", index + 1))))
        .collect();

    // Step 1 (NA): one intermediate per matching of the positive part,
    // with slot edges to every positive node — the full restriction, so
    // intermediates are in bijection with positive matchings.
    let na = NodeAddition::new(
        positive.clone(),
        intermediate.clone(),
        slots.iter().map(|(node, slot)| (slot.clone(), *node)),
    );

    // Step 2 (ND): delete intermediates whose matching extends to the
    // complete (unnegated) pattern. The source pattern is the complete
    // pattern plus the intermediate with its slot edges.
    let mut full = pattern.unnegated();
    let tag = full.node(intermediate.clone());
    for (node, slot) in &slots {
        full.edge(tag, slot.clone(), *node);
    }
    let nd = NodeDeletion::new(full, tag);

    Ok(NegationExpansion {
        program: Program::from_ops([Operation::NodeAdd(na), Operation::NodeDel(nd)]),
        intermediate,
        slots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::find_matchings;
    use crate::value::Value;

    use crate::gen::bench_scheme as scheme;

    fn instance() -> Instance {
        let mut db = Instance::new(scheme());
        // a: created == modified; b: created != modified; c: no modified.
        let d1 = Value::date(1990, 1, 12);
        let d2 = Value::date(1990, 1, 14);
        for (name, created, modified) in [
            ("a", &d1, Some(&d1)),
            ("b", &d1, Some(&d2)),
            ("c", &d2, None),
        ] {
            let info = db.add_object("Info").unwrap();
            let s = db.add_printable("String", name).unwrap();
            db.add_edge(info, "name", s).unwrap();
            let cd = db.add_printable("Date", created.clone()).unwrap();
            db.add_edge(info, "created", cd).unwrap();
            if let Some(modified) = modified {
                let md = db.add_printable("Date", modified.clone()).unwrap();
                db.add_edge(info, "modified", md).unwrap();
            }
        }
        db
    }

    /// Figure 26: infos whose created date is not also their modified
    /// date.
    fn figure26() -> Pattern {
        let mut p = Pattern::new();
        let info = p.node("Info");
        let name = p.node("String");
        let date = p.node("Date");
        p.edge(info, "name", name);
        p.edge(info, "created", date);
        p.negated_edge(info, "modified", date);
        p
    }

    #[test]
    fn expansion_agrees_with_direct_negation() {
        let pattern = figure26();
        let mut db = instance();
        let direct = find_matchings(&pattern, &db).unwrap();
        assert_eq!(direct.len(), 2); // b and c

        let expansion = expand_negation(&pattern, "Intermediate").unwrap();
        let mut env = Env::new();
        let via_macro = expansion.evaluate(&mut db, &mut env).unwrap();
        // The macro matchings are over the positive nodes only — which
        // here is all three nodes of the pattern.
        assert_eq!(via_macro, direct);
        // No intermediates are left behind.
        assert_eq!(db.label_count(&"Intermediate".into()), 0);
        db.validate().unwrap();
    }

    #[test]
    fn expansion_with_crossed_node() {
        // Infos that do not link to anything.
        let mut db = instance();
        let infos: Vec<NodeId> = db.nodes_with_label(&"Info".into()).collect();
        db.add_edge(infos[0], "links-to", infos[1]).unwrap();

        let mut p = Pattern::new();
        let info = p.node("Info");
        let other = p.negated_node("Info");
        p.edge(info, "links-to", other);

        let direct = find_matchings(&p, &db).unwrap();
        assert_eq!(direct.len(), 2); // infos[1], infos[2]

        let expansion = expand_negation(&p, "Sink").unwrap();
        let via_macro = expansion.evaluate(&mut db, &mut Env::new()).unwrap();
        // Project direct matchings onto positive nodes for comparison.
        let projected: Vec<Matching> = direct
            .iter()
            .map(|m| Matching::from_pairs([(info, m.image(info))]))
            .collect();
        assert_eq!(via_macro, projected);
    }

    #[test]
    fn program_shape_matches_figure27() {
        let expansion = expand_negation(&figure26(), "Intermediate").unwrap();
        let ops = expansion.program.ops();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].mnemonic(), "NA");
        assert_eq!(ops[1].mnemonic(), "ND");
        assert_eq!(expansion.slots.len(), 3);
    }

    #[test]
    fn rejects_patterns_without_crossed_parts() {
        let mut p = Pattern::new();
        p.node("Info");
        assert!(matches!(
            expand_negation(&p, "X"),
            Err(GoodError::InvalidPattern(_))
        ));
    }

    #[test]
    fn read_matchings_before_cleanup() {
        let pattern = figure26();
        let mut db = instance();
        let expansion = expand_negation(&pattern, "Tag").unwrap();
        expansion.program.apply(&mut db, &mut Env::new()).unwrap();
        let read = expansion.read_matchings(&db);
        assert_eq!(read.len(), 2);
        assert_eq!(db.label_count(&"Tag".into()), 2);
    }
}
