//! A rule-based layer over the basic operations (Section 5).
//!
//! "Although GOOD programs are written in a procedural way, the basic
//! operations … have a partly declarative nature. Indeed, the pattern
//! of such an operation can be seen as the (declarative) condition part
//! of a rule, while the bold or outlined part corresponds to a rule's
//! action. This simple mechanism for visualization of rules can provide
//! a basis for the development of graph-based, rule-based,
//! object-oriented database languages" — the G-Log direction (paper
//! reference 24).
//!
//! [`RuleSet`] takes that step: a set of operations interpreted as
//! rules and applied **to a fixpoint** (each round applies every rule
//! once, in order; the set saturates when a full round changes
//! nothing). Because node/edge additions are idempotent per matching
//! restriction, *additive* rule sets behave like Datalog programs:
//! saturation exists and is reached in finitely many rounds (bounded by
//! the number of derivable facts). Deletion rules make fixpoints
//! non-monotone, as in Datalog¬; the engine still detects saturation
//! and oscillating sets are caught by the fuel bound.
//!
//! Saturation runs on the delta-driven evaluator in `fixpoint.rs`
//! (DESIGN.md, "Fixpoint evaluation"), the same loop as the starred
//! edge addition of [`crate::macros::recursion`].

use crate::derived::ViewMut;
use crate::error::Result;
use crate::fixpoint::{fixpoint, FixRule};
use crate::instance::Instance;
use crate::ops::OpReport;
use crate::program::{Env, Operation};
use serde::{Deserialize, Serialize};

/// A named rule: one operation interpreted as condition ⇒ action.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Rule {
    /// Diagnostic name.
    pub name: String,
    /// The operation (its pattern is the condition, its bold/outlined
    /// part the action).
    pub op: Operation,
}

impl Rule {
    /// Construct a rule.
    pub fn new(name: impl Into<String>, op: Operation) -> Self {
        Rule {
            name: name.into(),
            op,
        }
    }
}

/// What a saturation run did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SaturationReport {
    /// Number of full rounds executed (including the final, quiescent
    /// one).
    pub rounds: usize,
    /// Per-rule totals across all rounds, in rule order. `edges_added`
    /// and the node counts are what the rule did; for an edge-addition
    /// rule `matchings` sums the matchings its rounds actually
    /// enumerated (first round in full, later rounds delta-seeded).
    pub per_rule: Vec<(String, OpReport)>,
}

/// A set of rules with fixpoint semantics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RuleSet {
    rules: Vec<Rule>,
}

impl RuleSet {
    /// An empty rule set.
    pub fn new() -> Self {
        RuleSet::default()
    }

    /// Append a rule.
    pub fn push(&mut self, rule: Rule) -> &mut Self {
        self.rules.push(rule);
        self
    }

    /// Build from rules.
    pub fn from_rules(rules: impl IntoIterator<Item = Rule>) -> Self {
        RuleSet {
            rules: rules.into_iter().collect(),
        }
    }

    /// The rules in application order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Run rounds — every rule once, in order — until a full round
    /// changes nothing (saturation). The n-rule case of the semi-naive
    /// evaluator behind the starred edge addition: an edge-addition rule
    /// is fully matched in its first round and afterwards only against
    /// the edges added since it last ran, unless a node creation,
    /// deletion, abstraction or method call happened in between.
    pub fn saturate(&self, db: &mut Instance, env: &mut Env) -> Result<SaturationReport> {
        let rules: Vec<FixRule<'_>> = self.rules.iter().map(|rule| (&rule.op).into()).collect();
        let outcome = fixpoint(&rules, ViewMut::new(db, None), env)?;
        Ok(SaturationReport {
            rounds: outcome.rounds,
            per_rule: self
                .rules
                .iter()
                .map(|rule| rule.name.clone())
                .zip(outcome.reports)
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::GoodError;
    use crate::label::Label;
    use crate::ops::{EdgeAddition, NodeAddition, NodeDeletion};
    use crate::pattern::Pattern;
    use crate::scheme::{Scheme, SchemeBuilder};
    use good_graph::NodeId;
    use std::collections::BTreeSet;

    fn scheme() -> Scheme {
        SchemeBuilder::new()
            .object("Person")
            .multivalued("Person", "parent", "Person")
            .multivalued("Person", "ancestor", "Person")
            .multivalued("Person", "same-gen", "Person")
            .build()
    }

    fn family() -> (Instance, Vec<NodeId>) {
        // A binary tree of depth 2: 0 -> (1, 2), 1 -> (3, 4).
        let mut db = Instance::new(scheme());
        let people: Vec<NodeId> = (0..5).map(|_| db.add_object("Person").unwrap()).collect();
        for (child, parent) in [(1, 0), (2, 0), (3, 1), (4, 1)] {
            db.add_edge(people[child], "parent", people[parent])
                .unwrap();
        }
        (db, people)
    }

    fn pairs(db: &Instance, label: &str) -> BTreeSet<(NodeId, NodeId)> {
        let label = Label::new(label);
        (db.edges())
            .filter(|(_, edge, _)| **edge == label)
            .map(|(src, _, dst)| (src, dst))
            .collect()
    }

    /// The classic Datalog ancestor program as two GOOD rules.
    fn ancestor_rules() -> RuleSet {
        // ancestor(x,y) :- parent(x,y).
        let mut base = Pattern::new();
        let x = base.node("Person");
        let y = base.node("Person");
        base.edge(x, "parent", y);
        let rule1 = Rule::new(
            "base",
            Operation::EdgeAdd(EdgeAddition::multivalued(base, x, "ancestor", y)),
        );
        // ancestor(x,z) :- ancestor(x,y), parent(y,z).
        let mut ind = Pattern::new();
        let x = ind.node("Person");
        let y = ind.node("Person");
        let z = ind.node("Person");
        ind.edge(x, "ancestor", y);
        ind.edge(y, "parent", z);
        let rule2 = Rule::new(
            "inductive",
            Operation::EdgeAdd(EdgeAddition::multivalued(ind, x, "ancestor", z)),
        );
        RuleSet::from_rules([rule1, rule2])
    }

    #[test]
    fn ancestor_program_saturates_to_transitive_closure() {
        let (mut db, _) = family();
        let report = ancestor_rules().saturate(&mut db, &mut Env::new()).unwrap();
        let parent = Label::new("parent");
        let expected: BTreeSet<(NodeId, NodeId)> =
            good_graph::algo::transitive_closure_by(&db.to_graph(), |label| *label == parent)
                .into_iter()
                .flat_map(|(src, dsts)| dsts.into_iter().map(move |dst| (src, dst)))
                .collect();
        assert_eq!(pairs(&db, "ancestor"), expected);
        assert_eq!(pairs(&db, "ancestor").len(), 6); // 4 direct + (3,0) + (4,0)
                                                     // Rules run in order within a round, so the inductive rule
                                                     // already sees the base facts: one productive round plus the
                                                     // quiescent one.
        assert_eq!(report.rounds, 2);
        db.validate().unwrap();
    }

    #[test]
    fn saturation_is_idempotent() {
        let (mut db, _) = family();
        let rules = ancestor_rules();
        rules.saturate(&mut db, &mut Env::new()).unwrap();
        let snapshot = db.clone();
        let second = rules.saturate(&mut db, &mut Env::new()).unwrap();
        assert_eq!(second.rounds, 1);
        assert!(db.isomorphic_to(&snapshot));
    }

    #[test]
    fn same_generation_program() {
        // same-gen(x,x)? GOOD edges are simple, so encode the classic
        // version without reflexivity:
        // same-gen(x,y) :- parent(x,p), parent(y,p), x != y is not
        // expressible (no inequality), so we accept x == y loops being
        // absent only because self-edges require (x,x) matchings —
        // which DO occur; the engine handles self-loops fine.
        let mut siblings = Pattern::new();
        let x = siblings.node("Person");
        let p = siblings.node("Person");
        let y = siblings.node("Person");
        siblings.edge(x, "parent", p);
        siblings.edge(y, "parent", p);
        let rule1 = Rule::new(
            "siblings",
            Operation::EdgeAdd(EdgeAddition::multivalued(siblings, x, "same-gen", y)),
        );
        // same-gen(x,y) :- parent(x,px), same-gen(px,py), parent(y,py).
        let mut up = Pattern::new();
        let x = up.node("Person");
        let px = up.node("Person");
        let py = up.node("Person");
        let y = up.node("Person");
        up.edge(x, "parent", px);
        up.edge(px, "same-gen", py);
        up.edge(y, "parent", py);
        let rule2 = Rule::new(
            "cousins",
            Operation::EdgeAdd(EdgeAddition::multivalued(up, x, "same-gen", y)),
        );
        let (mut db, people) = family();
        RuleSet::from_rules([rule1, rule2])
            .saturate(&mut db, &mut Env::new())
            .unwrap();
        let same_gen = pairs(&db, "same-gen");
        // Siblings: (1,2),(2,1),(3,4),(4,3) plus reflexive pairs for
        // everyone with a parent; cousins of 3/4 are none (2 has no
        // children). Check the interesting facts:
        assert!(same_gen.contains(&(people[1], people[2])));
        assert!(same_gen.contains(&(people[3], people[4])));
        assert!(same_gen.contains(&(people[1], people[1]))); // reflexive via shared parent
        assert!(!same_gen.contains(&(people[1], people[3]))); // different generations
        db.validate().unwrap();
    }

    #[test]
    fn stratified_negation_via_crossed_patterns() {
        // After computing ancestors, flag exactly the roots: people
        // with NO ancestor — a crossed-pattern (Datalog¬) rule. Running
        // it after saturation of the positive rules is stratification.
        let (mut db, people) = family();
        let mut env = Env::new();
        ancestor_rules().saturate(&mut db, &mut env).unwrap();

        let mut rootless = Pattern::new();
        let person = rootless.node("Person");
        let any = rootless.negated_node("Person");
        rootless.negated_edge(person, "ancestor", any);
        let flag_roots = Rule::new(
            "roots",
            Operation::NodeAdd(NodeAddition::new(
                rootless,
                "Root",
                [(Label::new("is"), person)],
            )),
        );
        RuleSet::from_rules([flag_roots])
            .saturate(&mut db, &mut env)
            .unwrap();
        assert_eq!(db.label_count(&"Root".into()), 1);
        let root = db.nodes_with_label(&"Root".into()).next().unwrap();
        assert_eq!(db.functional_target(root, &"is".into()), Some(people[0]));
    }

    #[test]
    fn rules_with_node_additions_saturate() {
        // Mark every person with an ancestor: flag(x) :- ancestor(x,y).
        let (mut db, _) = family();
        let mut rules = ancestor_rules();
        let mut flagged = Pattern::new();
        let x = flagged.node("Person");
        let y = flagged.node("Person");
        flagged.edge(x, "ancestor", y);
        rules.push(Rule::new(
            "flag",
            Operation::NodeAdd(NodeAddition::new(flagged, "Flag", [(Label::new("of"), x)])),
        ));
        rules.saturate(&mut db, &mut Env::new()).unwrap();
        // Everyone except the root has an ancestor.
        assert_eq!(db.label_count(&"Flag".into()), 4);
    }

    #[test]
    fn oscillating_rule_sets_hit_the_fuel_bound() {
        // add(x): create a Flag for every person; del: delete all flags.
        let mut add_pattern = Pattern::new();
        let person = add_pattern.node("Person");
        let add = Rule::new(
            "add",
            Operation::NodeAdd(NodeAddition::new(
                add_pattern,
                "Flag",
                [(Label::new("of"), person)],
            )),
        );
        let mut del_pattern = Pattern::new();
        let flag = del_pattern.node("Flag");
        let del = Rule::new(
            "del",
            Operation::NodeDel(NodeDeletion::new(del_pattern, flag)),
        );
        let (mut db, _) = family();
        let mut env = Env::with_fuel(100);
        let err = RuleSet::from_rules([add, del])
            .saturate(&mut db, &mut env)
            .unwrap_err();
        assert!(matches!(err, GoodError::OutOfFuel { .. }));
    }

    #[test]
    fn per_rule_reports_accumulate() {
        let (mut db, _) = family();
        let report = ancestor_rules().saturate(&mut db, &mut Env::new()).unwrap();
        assert_eq!(report.per_rule.len(), 2);
        assert_eq!(report.per_rule[0].0, "base");
        let base_added = report.per_rule[0].1.edges_added;
        let inductive_added = report.per_rule[1].1.edges_added;
        assert_eq!(base_added, 4);
        assert_eq!(inductive_added, 2);
    }

    #[test]
    fn empty_rule_set_saturates_immediately() {
        let (mut db, _) = family();
        let report = RuleSet::new().saturate(&mut db, &mut Env::new()).unwrap();
        assert_eq!(report.rounds, 1);
    }
}
