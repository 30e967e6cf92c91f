//! The rule-based layer (Section 5's G-Log direction): GOOD operations
//! as condition ⇒ action rules, saturated to a fixpoint — the classic
//! Datalog ancestor program running over an object base.
//!
//! Run with `cargo run --example datalog`.

use good::model::label::Label;
use good::model::ops::EdgeAddition;
use good::model::pattern::Pattern;
use good::model::program::{Env, Operation};
use good::model::rules::{Rule, RuleSet};
use good::model::scheme::SchemeBuilder;

fn main() -> Result<(), good::model::error::GoodError> {
    let scheme = SchemeBuilder::new()
        .object("Person")
        .multivalued("Person", "parent", "Person")
        .multivalued("Person", "ancestor", "Person")
        .build();
    let mut db = good::model::instance::Instance::new(scheme);

    // A family line with a branch: alice -> bob -> carol -> dave,
    // and bob -> erin.
    let people: Vec<_> = (0..5).map(|_| db.add_object("Person").unwrap()).collect();
    let names = ["alice", "bob", "carol", "dave", "erin"];
    for (child, parent) in [(1, 0), (2, 1), (3, 2), (4, 1)] {
        db.add_edge(people[child], "parent", people[parent])?;
    }

    // ancestor(x,y) :- parent(x,y).
    let mut base = Pattern::new();
    let x = base.node("Person");
    let y = base.node("Person");
    base.edge(x, "parent", y);
    let base_rule = Rule::new(
        "ancestor(x,y) :- parent(x,y)",
        Operation::EdgeAdd(EdgeAddition::multivalued(base, x, "ancestor", y)),
    );

    // ancestor(x,z) :- ancestor(x,y), parent(y,z).
    let mut step = Pattern::new();
    let x = step.node("Person");
    let y = step.node("Person");
    let z = step.node("Person");
    step.edge(x, "ancestor", y);
    step.edge(y, "parent", z);
    let step_rule = Rule::new(
        "ancestor(x,z) :- ancestor(x,y), parent(y,z)",
        Operation::EdgeAdd(EdgeAddition::multivalued(step, x, "ancestor", z)),
    );

    let rules = RuleSet::from_rules([base_rule, step_rule]);
    let report = rules.saturate(&mut db, &mut Env::new())?;
    println!("saturated in {} rounds:", report.rounds);
    for (name, ops) in &report.per_rule {
        println!("  {:45} derived {} edge(s)", name, ops.edges_added);
    }

    println!("\nancestor facts:");
    let ancestor = Label::new("ancestor");
    for (src, _, dst) in db.edges().filter(|(_, label, _)| **label == ancestor) {
        let name_of = |node| {
            people
                .iter()
                .position(|p| *p == node)
                .map(|index| names[index])
                .unwrap_or("?")
        };
        println!("  ancestor({}, {})", name_of(src), name_of(dst));
    }
    db.validate()?;
    Ok(())
}
