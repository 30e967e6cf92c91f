//! The per-figure reproduction index (DESIGN.md F1–F31): one test per
//! paper artifact, spanning crates. These are intentionally terse —
//! deeper assertions live in `good-hypermedia`'s unit tests — and serve
//! as the canonical "is every figure reproduced?" checklist.

use good::hypermedia::{build_instance, build_versions_instance, figures};
use good::model::label::Label;
use good::model::matching::{find_matchings, find_matchings_naive};
use good::model::program::Env;
use good::model::value::Value;

#[test]
fn f1_scheme_builds_and_validates() {
    let scheme = good::hypermedia::build_scheme();
    scheme.validate().unwrap();
    assert!(!scheme.to_dot("fig1").is_empty());
}

#[test]
fn f2_f3_instance_validates_with_shared_printables() {
    let (db, _) = build_instance();
    db.validate().unwrap();
    assert_eq!(db.label_count(&Label::new("Date")), 2);
}

#[test]
fn f4_f5_pattern_has_two_matchings() {
    let (db, h) = build_instance();
    let (pattern, nodes) = figures::fig4_pattern();
    let matchings = find_matchings(&pattern, &db).unwrap();
    assert_eq!(matchings.len(), 2);
    let others: Vec<_> = matchings.iter().map(|m| m.image(nodes.other)).collect();
    assert!(others.contains(&h.doors) && others.contains(&h.pinkfloyd));
    assert_eq!(find_matchings_naive(&pattern, &db).unwrap(), matchings);
}

#[test]
fn f6_f7_node_addition_tags_targets() {
    let (mut db, _) = build_instance();
    let report = figures::fig6_node_addition().apply(&mut db).unwrap();
    assert_eq!(report.created_nodes.len(), 2);
    db.validate().unwrap();
}

#[test]
fn f8_aggregate_pairs() {
    let (mut db, _) = build_instance();
    let report = figures::fig8_node_addition().apply(&mut db).unwrap();
    assert_eq!((report.matchings, report.created_nodes.len()), (4, 4));
}

#[test]
fn f10_f11_edge_addition() {
    let (mut db, _) = build_instance();
    let report = figures::fig10_edge_addition().apply(&mut db).unwrap();
    assert_eq!(report.edges_added, 2);
    db.validate().unwrap();
}

#[test]
fn f12_f13_set_building() {
    let (mut db, h) = build_instance();
    let set = figures::figs12_13_build_set(&mut db, &mut Env::new()).unwrap();
    let members: Vec<_> = db.targets(set, &Label::new("contains")).collect();
    assert!(members.contains(&h.rock_new) && members.contains(&h.pinkfloyd));
}

#[test]
fn f14_f15_node_deletion_isolates_mozart() {
    let (mut db, h) = build_instance();
    figures::fig14_node_deletion().apply(&mut db).unwrap();
    assert!(!db.contains_node(h.classical));
    assert!(db.contains_node(h.mozart));
    assert_eq!(db.in_degree(h.mozart), 0);
}

#[test]
fn f16_update_modified_date() {
    let (mut db, h) = build_instance();
    figures::fig16_update(&mut db, &mut Env::new()).unwrap();
    let date = db
        .functional_target(h.music_history, &Label::new("modified"))
        .unwrap();
    assert_eq!(db.print_value(date), Some(&Value::date(1990, 1, 16)));
}

#[test]
fn f17_f19_abstraction_groups() {
    let (mut db, h) = build_versions_instance();
    for ab in figures::fig18_abstractions() {
        ab.apply(&mut db).unwrap();
    }
    assert_eq!(db.label_count(&Label::new("Same-Info")), 3);
    let contains = Label::new("contains");
    let g0: Vec<_> = db.sources(h.documents[0], &contains).collect();
    let g1: Vec<_> = db.sources(h.documents[1], &contains).collect();
    assert_eq!(g0, g1);
}

#[test]
fn f20_f21_update_method() {
    let (mut db, h) = build_instance();
    db.add_printable("Date", Value::date(1990, 1, 16)).unwrap();
    let mut env = Env::new();
    env.register(figures::fig20_update_method());
    good::model::method::execute_call(&figures::fig21_update_call(), &mut db, &mut env).unwrap();
    let date = db
        .functional_target(h.music_history, &Label::new("modified"))
        .unwrap();
    assert_eq!(db.print_value(date), Some(&Value::date(1990, 1, 16)));
    assert_eq!(db.scheme(), &good::hypermedia::build_scheme());
}

#[test]
fn f22_remove_old_versions_recursion() {
    let (mut db, h) = build_instance();
    let mut env = Env::new();
    figures::remove_rock_old_versions(&mut db, &mut env, &h).unwrap();
    assert!(!db.contains_node(h.rock_old));
    assert!(!db.contains_node(h.version));
    assert!(db.contains_node(h.rock_new));
}

#[test]
fn f23_f25_elapsed_days_method() {
    let (mut db, h) = build_instance();
    figures::method_e_apply(&mut db, &mut Env::new()).unwrap();
    let days = db
        .functional_target(h.music_history, &Label::new("days-unmod"))
        .unwrap();
    assert_eq!(db.print_value(days), Some(&Value::int(2)));
    assert_eq!(db.label_count(&Label::new("Elapsed")), 0);
}

#[test]
fn f26_f27_negation_macro_equivalence() {
    let (mut db, _) = build_instance();
    let (pattern, _, _) = figures::fig26_pattern();
    let direct = find_matchings(&pattern, &db).unwrap();
    let expansion = figures::fig27_expansion();
    let via_macro = expansion.evaluate(&mut db, &mut Env::new()).unwrap();
    assert_eq!(via_macro, direct);
}

#[test]
fn f28_f29_transitive_closure_method() {
    let (mut db, h) = build_instance();
    let (method, call) = figures::figs28_29_closure();
    let mut env = Env::new();
    env.register(method);
    good::model::method::execute_call(&call, &mut db, &mut env).unwrap();
    let rec = Label::new("rec-links-to");
    assert!(db.has_edge(h.music_history, &rec, h.mozart));
    assert!(db.has_edge(h.music_history, &rec, h.pinkfloyd_contents[1]));
}

#[test]
fn f30_f31_inheritance_query() {
    let (db, h) = build_instance();
    let results = figures::fig30_query(&db).unwrap();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].0, h.reference);
    assert_eq!(
        db.print_value(results[0].1),
        Some(&Value::str("The Beatles"))
    );
}
