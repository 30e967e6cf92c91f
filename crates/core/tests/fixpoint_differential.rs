//! `seminaive ≡ naive`: the delta-driven fixpoint evaluator behind the
//! starred edge addition and rule saturation against the loop it
//! replaced.
//!
//! The naive loop — re-match the whole pattern every round — is kept
//! here, as the oracle, written against the public operations only. Both
//! loops must leave the same instance, add the same number of edges per
//! rule, run the same number of rounds and burn the same fuel (one unit
//! per rule application, quiescent round included); when one fails
//! (fuel, a functional conflict arising in a later round) the other
//! must fail identically, on the same instance. `OpReport::matchings` is
//! deliberately not compared: the semi-naive loop counts the matchings
//! it enumerated.
//!
//! Tier 1 runs 64 generated cases; the nightly cron runs the 10 000-case
//! `--ignored` sweep (`cargo test --workspace --release -- --ignored`).

use good_core::error::Result;
use good_core::instance::Instance;
use good_core::label::{EdgeKind, Label};
use good_core::macros::recursion::{transitive_closure_star, RecursiveEdgeAddition};
use good_core::ops::{EdgeAddition, EdgeDeletion, EdgeToAdd, NodeAddition, OpReport};
use good_core::pattern::Pattern;
use good_core::program::{Env, Operation, DEFAULT_FUEL};
use good_core::rules::{Rule, RuleSet};
use good_core::scheme::SchemeBuilder;
use good_graph::NodeId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---- the oracle -------------------------------------------------------------

/// The starred edge addition, literally: "repeated as long as new edges
/// can be added".
fn naive_star(base: &EdgeAddition, db: &mut Instance, env: &mut Env) -> Result<OpReport> {
    let mut total = OpReport::default();
    loop {
        env.burn_fuel()?;
        let report = base.apply(db)?;
        total.absorb(&report);
        if report.edges_added == 0 {
            return Ok(total);
        }
    }
}

/// Rule saturation, literally: every rule once per round, in order,
/// until a round changes nothing.
fn naive_saturate(
    rules: &[Operation],
    db: &mut Instance,
    env: &mut Env,
) -> Result<(usize, Vec<OpReport>)> {
    let mut reports = vec![OpReport::default(); rules.len()];
    let mut rounds = 0;
    loop {
        rounds += 1;
        let mut changed = false;
        for (rule, total) in rules.iter().zip(&mut reports) {
            let report = rule.apply(db, env)?;
            changed |= report.changed();
            total.absorb(&report);
        }
        if !changed {
            return Ok((rounds, reports));
        }
    }
}

// ---- case generation --------------------------------------------------------

fn scheme() -> good_core::scheme::Scheme {
    let mut builder = SchemeBuilder::new().object("N");
    for edge in ["e", "acc", "a", "b", "back"] {
        builder = builder.multivalued("N", edge, "N");
    }
    builder.build()
}

/// A base graph over `e`: rings, a chain, a diamond with a tail, no
/// edges at all, or a random digraph (self-loops allowed); sometimes
/// with a few `acc` edges already present, so round 1 has old facts.
fn base_graph(rng: &mut StdRng) -> Instance {
    let mut db = Instance::new(scheme());
    let nodes = |db: &mut Instance, n: usize| -> Vec<NodeId> {
        (0..n).map(|_| db.add_object("N").expect("node")).collect()
    };
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let all = match rng.gen_range(0..5) {
        0 => {
            let (rings, size) = (rng.gen_range(1..=2usize), rng.gen_range(1..=4usize));
            let all = nodes(&mut db, rings * size);
            for ring in all.chunks(size) {
                for (k, &node) in ring.iter().enumerate() {
                    edges.push((node, ring[(k + 1) % size]));
                }
            }
            all
        }
        1 => {
            let all = nodes(&mut db, rng.gen_range(1..=7));
            edges.extend(all.windows(2).map(|w| (w[0], w[1])));
            all
        }
        2 => {
            let all = nodes(&mut db, 5);
            edges.extend([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)].map(|(s, d)| (all[s], all[d])));
            all
        }
        3 => nodes(&mut db, rng.gen_range(0..=4)),
        _ => {
            let all = nodes(&mut db, rng.gen_range(2..=6));
            let density = rng.gen_range(0.1..0.5);
            for &src in &all {
                for &dst in &all {
                    if rng.gen_bool(density) {
                        edges.push((src, dst));
                    }
                }
            }
            all
        }
    };
    for (src, dst) in edges {
        db.add_edge(src, "e", dst).expect("base edge");
    }
    if !all.is_empty() && rng.gen_bool(0.3) {
        for _ in 0..rng.gen_range(1..=3) {
            let src = all[rng.gen_range(0..all.len())];
            let dst = all[rng.gen_range(0..all.len())];
            db.add_edge(src, "acc", dst).expect("old fact");
        }
    }
    db
}

/// `x -first→ y [-second→ z]` over `N`, returning the pattern and its
/// nodes.
fn path_pattern(labels: &[&str]) -> (Pattern, Vec<NodeId>) {
    let mut pattern = Pattern::new();
    let nodes: Vec<NodeId> = (0..=labels.len()).map(|_| pattern.node("N")).collect();
    for (k, label) in labels.iter().enumerate() {
        pattern.edge(nodes[k], *label, nodes[k + 1]);
    }
    (pattern, nodes)
}

fn bold(src: NodeId, label: &str, kind: EdgeKind, dst: NodeId) -> EdgeToAdd {
    EdgeToAdd {
        src,
        label: Label::new(label),
        kind,
        dst,
    }
}

/// `x -from→ y ⇒ x -to→ y`.
fn copy_rule(from: &str, to: &str) -> Operation {
    let (pattern, n) = path_pattern(&[from]);
    Operation::EdgeAdd(EdgeAddition::multivalued(pattern, n[0], to, n[1]))
}

/// `x -first→ y -second→ z ⇒ x -out→ z`.
fn join_rule(first: &str, second: &str, out: &str) -> Operation {
    let (pattern, n) = path_pattern(&[first, second]);
    Operation::EdgeAdd(EdgeAddition::multivalued(pattern, n[0], out, n[2]))
}

/// A rule set whose first rule seeds `acc` (or `a`) from `e` and whose
/// remaining rules are one of the recursive shapes under test. The
/// second component says whether `[seed, rule]` is also a valid
/// seed-then-star program.
fn rule_shape(rng: &mut StdRng) -> (Vec<Operation>, bool) {
    let seed = copy_rule("e", "acc");
    match rng.gen_range(0..11) {
        // Right- and left-linear recursion.
        0 => (vec![seed, join_rule("acc", "e", "acc")], true),
        1 => (vec![seed, join_rule("e", "acc", "acc")], true),
        // Nonlinear: both occurrences of the delta label must be seeded.
        2 => (vec![seed, join_rule("acc", "acc", "acc")], true),
        // A bold edge whose endpoints coincide.
        3 => {
            let (pattern, n) = path_pattern(&["acc"]);
            let ea = EdgeAddition::multivalued(pattern, n[1], "acc", n[1]);
            (vec![seed, Operation::EdgeAdd(ea)], true)
        }
        // A self-loop pattern edge: one node is seeded, and only by
        // delta edges whose endpoints coincide.
        4 => {
            let mut pattern = Pattern::new();
            let x = pattern.node("N");
            let y = pattern.node("N");
            pattern.edge(x, "acc", x);
            pattern.edge(x, "e", y);
            let ea = EdgeAddition::multivalued(pattern, y, "acc", y);
            (
                vec![seed, copy_rule("acc", "back"), Operation::EdgeAdd(ea)],
                false,
            )
        }
        // A crossed stopping-condition edge (Figure 29's), and a crossed
        // edge that later additions switch on: non-monotone, so order
        // matters and both loops must take the same one.
        5 | 6 => {
            let (mut pattern, n) = path_pattern(&["acc", "e"]);
            if rng.gen_bool(0.5) {
                pattern.negated_edge(n[0], "acc", n[2]);
            } else {
                pattern.negated_edge(n[2], "acc", n[0]);
            }
            let ea = EdgeAddition::multivalued(pattern, n[0], "acc", n[2]);
            (vec![seed, Operation::EdgeAdd(ea)], true)
        }
        // Two bold edges per operation; the second is sometimes
        // functional, which conflicts only in a later round.
        7 => {
            let (pattern, n) = path_pattern(&["acc", "e"]);
            let second = if rng.gen_bool(0.5) {
                bold(n[2], "back", EdgeKind::Multivalued, n[0])
            } else {
                bold(n[0], "far", EdgeKind::Functional, n[2])
            };
            let first = bold(n[0], "acc", EdgeKind::Multivalued, n[2]);
            let ea = EdgeAddition::new(pattern, [first, second]);
            (vec![seed, Operation::EdgeAdd(ea)], true)
        }
        // Two mutually recursive rules.
        8 => (
            vec![
                copy_rule("e", "a"),
                join_rule("a", "e", "b"),
                join_rule("b", "e", "a"),
            ],
            false,
        ),
        // Watermark invalidation by a node-creating rule …
        9 => {
            let (pattern, n) = path_pattern(&["acc"]);
            let flag = NodeAddition::new(pattern, "Flag", [(Label::new("of"), n[0])]);
            let mut rules = vec![seed, join_rule("acc", "e", "acc")];
            rules.insert(rng.gen_range(0..=2), Operation::NodeAdd(flag));
            (rules, false)
        }
        // … and by a deleting one: base edges shadowed by a derived
        // fact are dropped (terminates: `e` only shrinks).
        _ => {
            let mut pattern = Pattern::new();
            let x = pattern.node("N");
            let y = pattern.node("N");
            pattern.edge(x, "acc", y);
            pattern.edge(x, "e", y);
            pattern.edge(y, "e", x);
            let drop = EdgeDeletion::single(pattern, x, "e", y);
            let mut rules = vec![seed, join_rule("acc", "e", "acc")];
            rules.insert(rng.gen_range(1..=2), Operation::EdgeDel(drop));
            (rules, false)
        }
    }
}

// ---- comparison -------------------------------------------------------------

/// Everything observable about an instance, as sorted lines: node ids
/// with labels, edge triples. Both loops create nodes in the same order,
/// so ids agree.
fn fingerprint(db: &Instance) -> Vec<String> {
    let graph = db.to_graph();
    let nodes = graph
        .nodes()
        .map(|n| format!("{:?} {}", n.id, n.payload.label));
    let edges = graph
        .edges()
        .map(|e| format!("{:?} -{}-> {:?}", e.src, e.payload, e.dst));
    let mut lines: Vec<String> = nodes.chain(edges).collect();
    lines.sort();
    lines
}

/// A report with the one field the two loops may differ in blanked.
fn effects(report: &OpReport) -> OpReport {
    OpReport {
        matchings: 0,
        ..report.clone()
    }
}

fn check_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let base = base_graph(&mut rng);
    let (rules, star_shaped) = rule_shape(&mut rng);
    let fuel = [3, 7, DEFAULT_FUEL][rng.gen_range(0..3usize)];
    let context = format!("seed {seed}, fuel {fuel}");

    // Rule saturation.
    let (mut naive_db, mut semi_db) = (base.clone(), base.clone());
    let (mut naive_env, mut semi_env) = (Env::with_fuel(fuel), Env::with_fuel(fuel));
    let naive = naive_saturate(&rules, &mut naive_db, &mut naive_env);
    let semi = RuleSet::from_rules(
        rules
            .iter()
            .enumerate()
            .map(|(k, op)| Rule::new(format!("r{k}"), op.clone())),
    )
    .saturate(&mut semi_db, &mut semi_env);
    match (&naive, &semi) {
        (Ok((rounds, reports)), Ok(semi)) => {
            assert_eq!(*rounds, semi.rounds, "rounds ({context})");
            for (k, (naive, (_, semi))) in reports.iter().zip(&semi.per_rule).enumerate() {
                assert_eq!(effects(naive), effects(semi), "rule {k} report ({context})");
                assert!(semi.matchings <= naive.matchings, "rule {k} ({context})");
            }
        }
        (Err(naive), Err(semi)) => {
            assert_eq!(naive.to_string(), semi.to_string(), "error ({context})");
        }
        _ => panic!("one loop failed, the other did not ({context}): {naive:?} vs {semi:?}"),
    }
    assert_eq!(
        naive_env.fuel_left(),
        semi_env.fuel_left(),
        "fuel ({context})"
    );
    assert_eq!(
        fingerprint(&naive_db),
        fingerprint(&semi_db),
        "instance ({context})"
    );
    semi_db.validate().expect("saturated instance is valid");

    // The same recursive rule as a starred edge addition after its seed.
    if !star_shaped {
        return;
    }
    let [Operation::EdgeAdd(seed_op), Operation::EdgeAdd(base_op)] = &rules[..] else {
        unreachable!("star-shaped cases are [seed, edge addition]");
    };
    let (mut naive_db, mut semi_db) = (base.clone(), base);
    seed_op.apply(&mut naive_db).expect("seed");
    seed_op.apply(&mut semi_db).expect("seed");
    let (mut naive_env, mut semi_env) = (Env::with_fuel(fuel), Env::with_fuel(fuel));
    let naive = naive_star(base_op, &mut naive_db, &mut naive_env);
    let semi = RecursiveEdgeAddition::new(base_op.clone()).apply(&mut semi_db, &mut semi_env);
    match (&naive, &semi) {
        (Ok(naive), Ok(semi)) => assert_eq!(effects(naive), effects(semi), "star ({context})"),
        (Err(naive), Err(semi)) => {
            assert_eq!(
                naive.to_string(),
                semi.to_string(),
                "star error ({context})"
            );
        }
        _ => panic!("one star failed, the other did not ({context}): {naive:?} vs {semi:?}"),
    }
    assert_eq!(
        naive_env.fuel_left(),
        semi_env.fuel_left(),
        "star fuel ({context})"
    );
    assert_eq!(
        fingerprint(&naive_db),
        fingerprint(&semi_db),
        "star instance ({context})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn seminaive_equals_naive(seed in 0u64..1_000_000) {
        check_case(seed);
    }
}

/// Nightly sweep over 10 000 consecutive seeds.
#[test]
#[ignore = "nightly: 10k-case seminaive ≡ naive sweep"]
fn seminaive_equals_naive_deep() {
    for seed in 1_000_000..1_010_000u64 {
        check_case(seed);
    }
}

/// The fuel contract of the star: one unit per round, the quiescent
/// round included. On a chain of 50 the seed leaves paths of length 1;
/// round k adds the paths of length k + 1, so rounds 1..=48 add edges
/// and round 49 finds nothing.
#[test]
fn star_on_chain_50_burns_one_fuel_unit_per_round() {
    let scheme = SchemeBuilder::new()
        .object("Info")
        .multivalued("Info", "links-to", "Info")
        .build();
    let mut db = Instance::new(scheme);
    let nodes: Vec<NodeId> = (0..50)
        .map(|_| db.add_object("Info").expect("node"))
        .collect();
    for pair in nodes.windows(2) {
        db.add_edge(pair[0], "links-to", pair[1]).expect("edge");
    }
    let (seed, star) = transitive_closure_star("Info", "links-to", "rec-links-to");
    seed.apply(&mut db).expect("seed");
    let mut env = Env::with_fuel(1_000);
    let report = star.apply(&mut db, &mut env).expect("star");
    assert_eq!(env.fuel_left(), 1_000 - 49);
    assert_eq!(report.edges_added, 50 * 49 / 2 - 49);
}
