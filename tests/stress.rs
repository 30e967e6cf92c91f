//! Opt-in stress tests (`cargo test -- --ignored`): the same semantics
//! at a scale the regular suite doesn't pay for. Each test states its
//! rough budget on a release build.

use good::model::gen::{random_instance, GenConfig};
use good::model::label::Label;
use good::model::macros::recursion::transitive_closure_star;
use good::model::matching::find_matchings;
use good::model::ops::Abstraction;
use good::model::pattern::Pattern;
use good::model::program::Env;

/// ~1 s: a 10k-object instance, built with full invariant enforcement,
/// validated, matched, and abstracted.
#[test]
#[ignore = "stress: run with --ignored"]
fn ten_thousand_object_instance() {
    let db = random_instance(&GenConfig {
        infos: 10_000,
        avg_links: 2.0,
        distinct_dates: 16,
        seed: 7,
    });
    db.validate().unwrap();

    let mut pattern = Pattern::new();
    let a = pattern.node("Info");
    let b = pattern.node("Info");
    let c = pattern.node("Info");
    pattern.edge(a, "links-to", b);
    pattern.edge(b, "links-to", c);
    let matchings = find_matchings(&pattern, &db).unwrap();
    assert!(!matchings.is_empty());

    let mut db = db;
    let mut group_pattern = Pattern::new();
    let info = group_pattern.node("Info");
    Abstraction::new(group_pattern, info, "Grp", "member", "links-to")
        .apply(&mut db)
        .unwrap();
    db.validate().unwrap();
}

/// ~2 s: transitive closure of a 200-node chain via the starred
/// fixpoint — 19,900 derived edges.
#[test]
#[ignore = "stress: run with --ignored"]
fn transitive_closure_of_a_long_chain() {
    let mut db = good::model::instance::Instance::new(good::model::gen::bench_scheme());
    let nodes: Vec<_> = (0..200).map(|_| db.add_object("Info").unwrap()).collect();
    for window in nodes.windows(2) {
        db.add_edge(window[0], "links-to", window[1]).unwrap();
    }
    let (seed, star) = transitive_closure_star("Info", "links-to", "rec-links-to");
    let mut env = Env::with_fuel(100_000_000);
    seed.apply(&mut db).unwrap();
    star.apply(&mut db, &mut env).unwrap();
    let rec = Label::new("rec-links-to");
    let closure = db.edges().filter(|(_, label, _)| **label == rec).count();
    assert_eq!(closure, 200 * 199 / 2);
}

/// ~5 s: a long Turing run inside GOOD — increment a 24-bit number
/// (hundreds of simulated steps, each a full pass over the rule
/// blocks).
#[test]
#[ignore = "stress: run with --ignored"]
fn long_turing_run_in_good() {
    use good::turing::machine::{binary_increment, Outcome};
    let machine = binary_increment();
    let input = "1".repeat(24);
    let expected = match machine.run(&input, 1_000_000) {
        Outcome::Halted { config, .. } => config,
        Outcome::OutOfSteps(_) => unreachable!(),
    };
    let actual = good::turing::run_in_good(&machine, &input, 50_000_000).unwrap();
    assert_eq!(actual, expected);
}

/// ~2 s: the datalog ancestor rules saturating over a 12-deep binary
/// tree (8k nodes).
#[test]
#[ignore = "stress: run with --ignored"]
fn rule_saturation_over_a_big_tree() {
    use good::model::ops::EdgeAddition;
    use good::model::program::Operation;
    use good::model::rules::{Rule, RuleSet};
    use good::model::scheme::SchemeBuilder;

    let scheme = SchemeBuilder::new()
        .object("Person")
        .multivalued("Person", "parent", "Person")
        .multivalued("Person", "ancestor", "Person")
        .build();
    let mut db = good::model::instance::Instance::new(scheme);
    // A complete binary tree of depth 9 (1023 nodes).
    let mut nodes = vec![db.add_object("Person").unwrap()];
    for index in 1..1023 {
        let node = db.add_object("Person").unwrap();
        db.add_edge(node, "parent", nodes[(index - 1) / 2]).unwrap();
        nodes.push(node);
    }

    let mut base = Pattern::new();
    let x = base.node("Person");
    let y = base.node("Person");
    base.edge(x, "parent", y);
    let base_rule = Rule::new(
        "base",
        Operation::EdgeAdd(EdgeAddition::multivalued(base, x, "ancestor", y)),
    );
    let mut step = Pattern::new();
    let x = step.node("Person");
    let y = step.node("Person");
    let z = step.node("Person");
    step.edge(x, "ancestor", y);
    step.edge(y, "parent", z);
    let step_rule = Rule::new(
        "step",
        Operation::EdgeAdd(EdgeAddition::multivalued(step, x, "ancestor", z)),
    );

    let mut env = Env::with_fuel(100_000_000);
    RuleSet::from_rules([base_rule, step_rule])
        .saturate(&mut db, &mut env)
        .unwrap();
    // Ancestor count for a complete binary tree: sum over nodes of
    // their depth.
    let ancestor = Label::new("ancestor");
    let derived = db
        .edges()
        .filter(|(_, label, _)| **label == ancestor)
        .count();
    let expected: usize = (0..1023usize)
        .map(|index| ((index + 1) as f64).log2().floor() as usize)
        .sum();
    assert_eq!(derived, expected);
}
