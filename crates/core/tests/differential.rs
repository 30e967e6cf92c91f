//! Differential property tests for the matching engine.
//!
//! Random instances (via the deterministic generator in `good_core::gen`)
//! and random small patterns are thrown at the one search in each of its
//! three shapes — planned, pattern-node id order, and the
//! worst-case-optimal generic join — and at the two reference engines,
//! the naive cross-product enumerator and the materializing binary join,
//! which must all agree bit for bit. A second suite drives random GOOD
//! operations and audits every instance invariant (including
//! adjacency-index/graph agreement and incremental-planner-statistics/
//! rebuild agreement) afterwards.

use good_core::gen::{random_instance, GenConfig};
use good_core::matching::{
    explain_plan_profiled, find_match_table, find_matchings_naive, PlanShape,
};
use good_core::ops::{EdgeDeletion, NodeDeletion};
use good_core::pattern::Pattern;
use good_core::planner::find_matchings_binary;
use good_core::value::Value;
use good_graph::NodeId;
use proptest::prelude::*;

/// Blueprint for a random pattern over `bench_scheme`: up to three Info
/// nodes, random `links-to` edges among them (some negated), optional
/// exact-name anchors, optional `created`-date nodes, and optionally a
/// negated satellite node.
#[derive(Debug, Clone)]
struct PatternSpec {
    info_nodes: usize,
    links: Vec<(usize, usize, bool)>,
    name_anchor: Option<(usize, u8)>,
    date_probe: Option<usize>,
    negated_satellite: bool,
}

fn arb_pattern_spec() -> impl Strategy<Value = PatternSpec> {
    (
        1usize..=3,
        proptest::collection::vec((any::<usize>(), any::<usize>(), any::<bool>()), 0..3),
        any::<bool>(),
        (any::<usize>(), 0u8..30),
        any::<bool>(),
        any::<usize>(),
        any::<bool>(),
    )
        .prop_map(
            |(info_nodes, links, has_name, name, has_date, date_node, negated_satellite)| {
                PatternSpec {
                    info_nodes,
                    links,
                    name_anchor: has_name.then_some((name.0, name.1)),
                    date_probe: has_date.then_some(date_node),
                    negated_satellite,
                }
            },
        )
}

fn build_pattern(spec: &PatternSpec) -> Pattern {
    let mut pattern = Pattern::new();
    let infos: Vec<NodeId> = (0..spec.info_nodes).map(|_| pattern.node("Info")).collect();
    for (src, dst, negated) in &spec.links {
        let src = infos[src % infos.len()];
        let dst = infos[dst % infos.len()];
        if *negated {
            pattern.negated_edge(src, "links-to", dst);
        } else {
            pattern.edge(src, "links-to", dst);
        }
    }
    if let Some((node, index)) = &spec.name_anchor {
        let name = pattern.printable("String", Value::str(format!("info-{index}")));
        pattern.edge(infos[node % infos.len()], "name", name);
    }
    if let Some(node) = &spec.date_probe {
        let date = pattern.node("Date");
        pattern.edge(infos[node % infos.len()], "created", date);
    }
    if spec.negated_satellite {
        let satellite = pattern.negated_node("Info");
        pattern.edge(infos[0], "links-to", satellite);
    }
    pattern
}

fn arb_gen_config() -> impl Strategy<Value = GenConfig> {
    (1usize..=24, 0u64..1_000_000, 1usize..=5).prop_map(|(infos, seed, distinct_dates)| GenConfig {
        infos,
        avg_links: 2.0,
        distinct_dates,
        seed,
    })
}

proptest! {
    /// Every plan shape ≡ naive ≡ binary join on random instances and
    /// patterns, and profiled EXPLAIN counts the rows the planned shape
    /// serves.
    #[test]
    fn engines_agree(config in arb_gen_config(), spec in arb_pattern_spec()) {
        let db = random_instance(&config);
        let pattern = build_pattern(&spec);
        let naive = find_matchings_naive(&pattern, &db).expect("valid pattern");
        let binary = find_matchings_binary(&pattern, &db).expect("valid pattern");
        prop_assert_eq!(&naive, &binary, "naive vs binary join");
        for shape in [PlanShape::Planned, PlanShape::IdOrder, PlanShape::GenericJoin] {
            let table = find_match_table(&pattern, &db, shape).expect("valid pattern");
            if shape == PlanShape::Planned {
                let plan = explain_plan_profiled(&pattern, &db).expect("valid pattern");
                prop_assert_eq!(plan.actual_matchings, table.len(), "EXPLAIN");
            }
            prop_assert_eq!(&table.into_matchings(), &naive, "{:?} vs naive", shape);
        }
    }

    /// Deleting random nodes and edges through the batched operation
    /// paths preserves every instance invariant, including exact
    /// agreement of the incrementally maintained adjacency index with a
    /// fresh rebuild (checked inside `validate`).
    #[test]
    fn batched_deletions_preserve_invariants(
        config in arb_gen_config(),
        name_index in 0u8..30,
        delete_sources in any::<bool>(),
    ) {
        let mut db = random_instance(&config);

        // ED: unlink every links-to edge matched by a 2-node pattern.
        let mut p = Pattern::new();
        let src = p.node("Info");
        let dst = p.node("Info");
        p.edge(src, "links-to", dst);
        let target = if delete_sources { src } else { dst };
        EdgeDeletion::single(p.clone(), src, "links-to", dst)
            .apply(&mut db)
            .expect("edge deletion applies");
        db.validate().expect("invariants after edge deletion");

        // ND: delete one named info (if the name exists) with all
        // incident edges.
        let mut p2 = Pattern::new();
        let info = p2.node("Info");
        let name = p2.printable("String", Value::str(format!("info-{name_index}")));
        p2.edge(info, "name", name);
        NodeDeletion::new(p2, info).apply(&mut db).expect("node deletion applies");
        db.validate().expect("invariants after node deletion");

        // ND over the (now edgeless) links pattern is a no-op but must
        // still keep every index coherent.
        NodeDeletion::new(p, target).apply(&mut db).expect("no-op deletion applies");
        db.validate().expect("invariants after no-op deletion");
    }
}
