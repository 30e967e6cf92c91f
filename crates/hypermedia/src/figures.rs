//! One constructor per operation figure of the paper (Figures 4–31),
//! over the hyper-media scheme and instance.
//!
//! Each `figN_*` function returns the pattern/operation/method the
//! figure depicts; the tests in this module (and the repository-level
//! `tests/figures.rs`) assert the outcomes the paper describes, and the
//! `repro` binary regenerates DOT renderings of all of them.

use crate::instance::InstanceHandles;
use good_core::error::Result;
use good_core::instance::Instance;
use good_core::label::Label;
use good_core::macros::negation::{expand_negation, NegationExpansion};
use good_core::macros::recursion::transitive_closure_method;
use good_core::matching::Matching;
use good_core::method::{Method, MethodCall, MethodSpec};
use good_core::ops::{Abstraction, EdgeAddition, EdgeDeletion, NodeAddition, NodeDeletion};
use good_core::pattern::Pattern;
use good_core::program::{Env, Operation};
use good_core::scheme::Scheme;
use good_core::value::Value;
use good_graph::NodeId;

/// Handles into the Figure 4 pattern.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Nodes {
    /// The Rock info node (created Jan 14).
    pub info: NodeId,
    /// The date printable node.
    pub date: NodeId,
    /// The name printable node.
    pub name: NodeId,
    /// The linked info node the query locates.
    pub other: NodeId,
}

/// Figure 4: "an info node, created on Jan 14, 1990, with name Rock
/// which is linked to another info node".
pub fn fig4_pattern() -> (Pattern, Fig4Nodes) {
    let mut p = Pattern::new();
    let info = p.node("Info");
    let date = p.printable("Date", Value::date(1990, 1, 14));
    let name = p.printable("String", "Rock");
    let other = p.node("Info");
    p.edge(info, "created", date);
    p.edge(info, "name", name);
    p.edge(info, "links-to", other);
    (
        p,
        Fig4Nodes {
            info,
            date,
            name,
            other,
        },
    )
}

/// Figure 6: tag the infos located by Figure 4 with new `Rock` nodes
/// connected by `tagged-to` edges.
pub fn fig6_node_addition() -> NodeAddition {
    let (pattern, nodes) = fig4_pattern();
    NodeAddition::new(
        pattern,
        "Rock-Tag",
        [(Label::new("tagged-to"), nodes.other)],
    )
}

/// Figure 8: derive `Pair` aggregates of (parent, child) creation dates
/// for infos named Rock and the infos they link to.
pub fn fig8_node_addition() -> NodeAddition {
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
    NodeAddition::new(
        p,
        "Pair",
        [
            (Label::new("parent"), parent_date),
            (Label::new("child"), child_date),
        ],
    )
}

/// Figure 10: associate the creation date of the Pinkfloyd info with the
/// data infos it links to, via new `data-creation` edges.
pub fn fig10_edge_addition() -> EdgeAddition {
    let mut p = Pattern::new();
    let data = p.node("Data");
    let target = p.node("Info");
    let floyd = p.node("Info");
    let date = p.printable("Date", Value::date(1990, 1, 14));
    let name = p.printable("String", "Pinkfloyd");
    p.edge(data, "isa", target);
    p.edge(floyd, "links-to", target);
    p.edge(floyd, "created", date);
    p.edge(floyd, "name", name);
    EdgeAddition::functional(p, data, "data-creation", date)
}

/// Figures 12–13: build the set of all infos created on Jan 14, 1990 —
/// a singleton node addition followed by a multivalued edge addition.
/// Returns the set node.
pub fn figs12_13_build_set(db: &mut Instance, env: &mut Env) -> Result<NodeId> {
    let mut member = Pattern::new();
    let info = member.node("Info");
    let date = member.printable("Date", Value::date(1990, 1, 14));
    member.edge(info, "created", date);
    let (set, _) = good_core::macros::setbuild::build_set(
        db,
        env,
        "Created-Jan-14-1990",
        member,
        info,
        "contains",
    )?;
    Ok(set)
}

/// Figure 14: delete the info node named Classical Music.
pub fn fig14_node_deletion() -> NodeDeletion {
    let mut p = Pattern::new();
    let info = p.node("Info");
    let name = p.printable("String", "Classical Music");
    p.edge(info, "name", name);
    NodeDeletion::new(p, info)
}

/// Figure 16: update the last-modified date of Music History from
/// Jan 14 to Jan 16 — an edge deletion followed by an edge addition.
pub fn fig16_update(db: &mut Instance, env: &mut Env) -> Result<()> {
    let mut selector = Pattern::new();
    let info = selector.node("Info");
    let name = selector.printable("String", "Music History");
    selector.edge(info, "name", name);
    good_core::macros::update::set_functional_to_printable(
        db,
        env,
        &selector,
        info,
        "modified",
        "Date",
        Value::date(1990, 1, 16),
    )?;
    Ok(())
}

/// Figure 18: abstraction grouping version-old infos by the equality of
/// their `links-to` sets into `Same-Info` group objects.
///
/// The paper first tags the infos of interest with two node additions;
/// here the tagging is folded into the source pattern (the abstraction
/// matches infos pointed at by a version's `old` or `new` edge via two
/// abstractions sharing labels, which compose because groups are
/// reused).
pub fn fig18_abstractions() -> [Abstraction; 2] {
    let over = |edge: &str| {
        let mut p = Pattern::new();
        let version = p.node("Version");
        let info = p.node("Info");
        p.edge(version, edge, info);
        Abstraction::new(p, info, "Same-Info", "contains", "links-to")
    };
    [over("old"), over("new")]
}

/// Figure 20: the `Update` method — change the last-modified date of an
/// info node to the Date parameter.
pub fn fig20_update_method() -> Method {
    let spec = MethodSpec::new(
        "Update",
        "Info",
        [(Label::new("parameter"), Label::new("Date"))],
    );
    // ED: delete the receiver's modified edge.
    let mut p1 = Pattern::new();
    let head1 = p1.method_head("Update");
    let info1 = p1.node("Info");
    let old_date = p1.node("Date");
    p1.edge(head1, good_core::label::receiver_label(), info1);
    p1.edge(info1, "modified", old_date);
    let ed = EdgeDeletion::single(p1, info1, "modified", old_date);
    // EA: add the new modified edge to the parameter.
    let mut p2 = Pattern::new();
    let head2 = p2.method_head("Update");
    let info2 = p2.node("Info");
    let new_date = p2.node("Date");
    p2.edge(head2, good_core::label::receiver_label(), info2);
    p2.edge(head2, "parameter", new_date);
    let ea = EdgeAddition::functional(p2, info2, "modified", new_date);
    Method::new(
        spec,
        vec![Operation::EdgeDel(ed), Operation::EdgeAdd(ea)],
        Scheme::new(),
    )
}

/// Figure 21: call `Update` on every info named Music History with the
/// date Jan 16, 1990.
pub fn fig21_update_call() -> MethodCall {
    let mut p = Pattern::new();
    let info = p.node("Info");
    let name = p.printable("String", "Music History");
    let date = p.printable("Date", Value::date(1990, 1, 16));
    p.edge(info, "name", name);
    MethodCall::new("Update", p, info, [(Label::new("parameter"), date)])
}

/// Figure 22: the recursive `R-O-V` (Remove-Old-Versions) method.
///
/// Body: (1) recursively remove the versions older than the previous
/// version; (2) delete the previous info node; (3) delete the now
/// useless version node. Recursion halts when a receiver has no
/// previous version.
pub fn fig22_remove_old_versions() -> Method {
    let spec = MethodSpec::new("R-O-V", "Info", []);

    // Op 1: recursive call on the previous version.
    let mut p1 = Pattern::new();
    let head1 = p1.method_head("R-O-V");
    let current1 = p1.node("Info");
    let version1 = p1.node("Version");
    let previous1 = p1.node("Info");
    p1.edge(head1, good_core::label::receiver_label(), current1);
    p1.edge(version1, "new", current1);
    p1.edge(version1, "old", previous1);
    let recurse = MethodCall::new("R-O-V", p1, previous1, []);

    // Op 2: delete the previous info node.
    let mut p2 = Pattern::new();
    let head2 = p2.method_head("R-O-V");
    let current2 = p2.node("Info");
    let version2 = p2.node("Version");
    let previous2 = p2.node("Info");
    p2.edge(head2, good_core::label::receiver_label(), current2);
    p2.edge(version2, "new", current2);
    p2.edge(version2, "old", previous2);
    let delete_previous = NodeDeletion::new(p2, previous2);

    // Op 3: delete the version node (its old edge is gone by now).
    let mut p3 = Pattern::new();
    let head3 = p3.method_head("R-O-V");
    let current3 = p3.node("Info");
    let version3 = p3.node("Version");
    p3.edge(head3, good_core::label::receiver_label(), current3);
    p3.edge(version3, "new", current3);
    let delete_version = NodeDeletion::new(p3, version3);

    Method::new(
        spec,
        vec![
            Operation::Call(recurse),
            Operation::NodeDel(delete_previous),
            Operation::NodeDel(delete_version),
        ],
        Scheme::new(),
    )
}

/// Figure 23: the method `D` computing the number of days elapsed
/// between two dates.
///
/// **Substitution note** (see DESIGN.md): the paper gives only `D`'s
/// specification and interface — its body necessarily uses an external
/// function, since date arithmetic is not expressible over printable
/// constants by graph transformations. We implement `D` as a *system
/// method*: for every (old, new) pair of dates matched by `pattern`,
/// an `Elapsed` node with `olddate`, `newdate` and `diff` edges is
/// materialized, exactly as the Figure 23 interface describes.
pub fn method_d_apply(
    db: &mut Instance,
    pattern: &Pattern,
    old_node: NodeId,
    new_node: NodeId,
) -> Result<Vec<NodeId>> {
    let matchings = good_core::matching::find_matchings(pattern, db)?;
    let mut created = Vec::new();
    for matching in &matchings {
        let old_image = matching.image(old_node);
        let new_image = matching.image(new_node);
        let old_date = db
            .print_value(old_image)
            .and_then(Value::as_date)
            .expect("olddate is a Date printable");
        let new_date = db
            .print_value(new_image)
            .and_then(Value::as_date)
            .expect("newdate is a Date printable");
        let diff = old_date.days_until(new_date);
        // Deduplicate like a node addition would.
        let exists = db.nodes_with_label(&"Elapsed".into()).any(|e| {
            db.functional_target(e, &"olddate".into()) == Some(old_image)
                && db.functional_target(e, &"newdate".into()) == Some(new_image)
        });
        if exists {
            continue;
        }
        let elapsed = db.add_object("Elapsed")?;
        db.add_edge(elapsed, "olddate", old_image)?;
        db.add_edge(elapsed, "newdate", new_image)?;
        let number = db.add_printable("Number", diff)?;
        db.add_edge(elapsed, "diff", number)?;
        created.push(elapsed);
    }
    Ok(created)
}

/// Figures 24–25: the method `E` — for each info node, compute the
/// number of days elapsed between its creation and last modification as
/// a `days-unmod` edge. Internally calls `D` (Figure 25); the `Elapsed`
/// intermediates are filtered out by `E`'s interface (Figure 24).
pub fn method_e_apply(db: &mut Instance, env: &mut Env) -> Result<()> {
    let call_scheme = db.scheme().clone();

    // --- body step 1: MC D over (created, modified) pairs --------------
    let mut pd = Pattern::new();
    let info = pd.node("Info");
    let created = pd.node("Date");
    let modified = pd.node("Date");
    pd.edge(info, "created", created);
    pd.edge(info, "modified", modified);
    // Register Elapsed & friends through a scheme-extending NA/EA pair,
    // then let the system method fill the data in.
    register_elapsed(db, env)?;
    method_d_apply(db, &pd, created, modified)?;

    // --- body step 2: EA days-unmod from Info to the diff number -------
    let mut pe = Pattern::new();
    let info2 = pe.node("Info");
    let created2 = pe.node("Date");
    let modified2 = pe.node("Date");
    let elapsed2 = pe.node("Elapsed");
    let number2 = pe.node("Number");
    pe.edge(info2, "created", created2);
    pe.edge(info2, "modified", modified2);
    pe.edge(elapsed2, "olddate", created2);
    pe.edge(elapsed2, "newdate", modified2);
    pe.edge(elapsed2, "diff", number2);
    env.burn_fuel()?;
    EdgeAddition::functional(pe, info2, "days-unmod", number2).apply(db)?;

    // --- interface restriction (Figure 24): Info -days-unmod→ Number ---
    let mut interface = Scheme::new();
    interface.add_object_label("Info")?;
    interface.add_printable_label("Number", good_core::value::ValueType::Int)?;
    interface.add_functional("Info", "days-unmod", "Number")?;
    let result_scheme = call_scheme.union(&interface)?;
    db.restrict_to_scheme(&result_scheme);
    Ok(())
}

/// Register the `Elapsed` class (D's interface, Figure 23) in the
/// instance's scheme via scheme-evolving operations.
fn register_elapsed(db: &mut Instance, env: &mut Env) -> Result<()> {
    // NA over an unmatchable pattern would still extend the scheme, but
    // Elapsed needs edges to Date/Number which NA can only add toward
    // pattern nodes. Use NA with a pattern over two Dates and a Number;
    // zero or more matchings is fine — NA is idempotent per restriction
    // and we delete any materialized nodes right away, keeping only the
    // scheme extension.
    let mut p = Pattern::new();
    let old = p.node("Date");
    let new = p.node("Date");
    let number = p.node("Number");
    let na = NodeAddition::new(
        p,
        "Elapsed",
        [
            (Label::new("olddate"), old),
            (Label::new("newdate"), new),
            (Label::new("diff"), number),
        ],
    );
    env.burn_fuel()?;
    na.apply(db)?;
    // Drop whatever the registration NA materialized — D fills in the
    // real Elapsed nodes.
    let mut cleanup = Pattern::new();
    let elapsed = cleanup.node("Elapsed");
    env.burn_fuel()?;
    NodeDeletion::new(cleanup, elapsed).apply(db)?;
    Ok(())
}

/// Figure 26: the crossed-edge query "give the names of the info nodes
/// with a creation date that is different from its last-modified date".
/// Returns the pattern plus the (info, name) pattern nodes.
pub fn fig26_pattern() -> (Pattern, NodeId, NodeId) {
    let mut p = Pattern::new();
    let info = p.node("Info");
    let name = p.node("String");
    let date = p.node("Date");
    p.edge(info, "name", name);
    p.edge(info, "created", date);
    p.negated_edge(info, "modified", date);
    (p, info, name)
}

/// Figure 27: the simulation of Figure 26 through intermediate nodes.
pub fn fig27_expansion() -> NegationExpansion {
    let (pattern, _, _) = fig26_pattern();
    expand_negation(&pattern, "Intermediate").expect("figure 26 pattern has a crossed part")
}

/// Figures 28–29: transitive closure of `links-to` as `rec-links-to`,
/// via the recursive-method simulation. Returns `(method, initial call)`.
pub fn figs28_29_closure() -> (Method, MethodCall) {
    transitive_closure_method("Info", "links-to", "rec-links-to")
}

/// Figure 30: names of references occurring in the Jazz document — a
/// query that uses the inherited `name` property directly on the
/// `Reference` class. Returns the pattern plus the (reference, name)
/// nodes.
pub fn fig30_pattern() -> (Pattern, NodeId, NodeId) {
    let mut p = Pattern::new();
    let reference = p.node("Reference");
    let jazz = p.node("Info");
    let jazz_name = p.printable("String", "Jazz");
    let ref_name = p.node("String");
    p.edge(jazz, "name", jazz_name);
    p.edge(reference, "in", jazz);
    p.edge(reference, "name", ref_name);
    (p, reference, ref_name)
}

/// Figure 31: the internal translation of Figure 30 over the base
/// scheme (explicit `isa` hop).
pub fn fig31_pattern(scheme: &Scheme) -> Pattern {
    let (pattern, _, _) = fig30_pattern();
    good_core::inheritance::rewrite_pattern(&pattern, scheme)
        .expect("figure 30 rewrites over the hyper-media isa hierarchy")
}

/// Run the Figure 30 query with inheritance semantics, returning the
/// matched (reference, name-node) pairs.
pub fn fig30_query(db: &Instance) -> Result<Vec<(NodeId, NodeId)>> {
    let (pattern, reference, name) = fig30_pattern();
    let matchings: Vec<Matching> =
        good_core::inheritance::find_matchings_with_inheritance(&pattern, db)?;
    Ok(matchings
        .iter()
        .map(|m| (m.image(reference), m.image(name)))
        .collect())
}

/// Convenience: apply Figure 22's `R-O-V` to the handles' newest Rock
/// version (registering the method in `env`).
pub fn remove_rock_old_versions(
    db: &mut Instance,
    env: &mut Env,
    _handles: &InstanceHandles,
) -> Result<()> {
    env.register(fig22_remove_old_versions());
    // The Figure 2 instance has TWO infos named Rock (old and new
    // version); R-O-V must be received by the one that has a version
    // pointing at it with `new`.
    let mut p = Pattern::new();
    let info = p.node("Info");
    let name_node = p.printable("String", "Rock");
    let version = p.node("Version");
    p.edge(info, "name", name_node);
    p.edge(version, "new", info);
    let call = MethodCall::new("R-O-V", p, info, []);
    good_core::method::execute_call(&call, db, env)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::build_instance;
    use crate::versions::build_versions_instance;
    use good_core::matching::{find_matchings, find_matchings_naive};

    #[test]
    fn fig4_has_two_matchings_on_the_paper_instance() {
        let (db, h) = build_instance();
        let (pattern, nodes) = fig4_pattern();
        let matchings = find_matchings(&pattern, &db).unwrap();
        assert_eq!(
            matchings.len(),
            2,
            "the paper says two matchings (Figure 5)"
        );
        for m in &matchings {
            assert_eq!(m.image(nodes.info), h.rock_new);
        }
        let others: Vec<NodeId> = matchings.iter().map(|m| m.image(nodes.other)).collect();
        assert!(others.contains(&h.doors) && others.contains(&h.pinkfloyd));
        assert_eq!(find_matchings_naive(&pattern, &db).unwrap(), matchings);
    }

    #[test]
    fn fig6_7_tags_doors_and_pinkfloyd() {
        let (mut db, h) = build_instance();
        let report = fig6_node_addition().apply(&mut db).unwrap();
        assert_eq!(report.created_nodes.len(), 2);
        let tagged: Vec<NodeId> = db
            .nodes_with_label(&"Rock-Tag".into())
            .map(|t| db.functional_target(t, &"tagged-to".into()).unwrap())
            .collect();
        assert!(tagged.contains(&h.doors) && tagged.contains(&h.pinkfloyd));
        db.validate().unwrap();
    }

    #[test]
    fn fig8_creates_pairs_for_four_matchings() {
        // "As can be verified, there are four matchings of the source
        // pattern in the hyper-media object base instance."
        let (mut db, _) = build_instance();
        let report = fig8_node_addition().apply(&mut db).unwrap();
        assert_eq!(report.matchings, 4);
        // "The four added nodes will have the node label pair": the
        // date pairs (14,12), (14,14), (12,12), (12,14) are all
        // distinct, so all four matchings materialize.
        assert_eq!(report.created_nodes.len(), 4);
        db.validate().unwrap();
    }

    #[test]
    fn fig10_11_adds_data_creation_edges() {
        let (mut db, h) = build_instance();
        let report = fig10_edge_addition().apply(&mut db).unwrap();
        assert_eq!(report.matchings, 2);
        assert_eq!(report.edges_added, 2);
        let label = Label::new("data-creation");
        // The two Data nodes isa-ing Pinkfloyd's contents have the edge.
        let mut count = 0;
        for data in db.nodes_with_label(&"Data".into()).collect::<Vec<_>>() {
            if let Some(target) = db.functional_target(data, &label) {
                assert_eq!(db.print_value(target), Some(&Value::date(1990, 1, 14)));
                let info = db.functional_target(data, &"isa".into()).unwrap();
                assert!(h.pinkfloyd_contents.contains(&info));
                count += 1;
            }
        }
        assert_eq!(count, 2);
        db.validate().unwrap();
    }

    #[test]
    fn figs12_13_collect_jan14_infos() {
        let (mut db, h) = build_instance();
        let mut env = Env::new();
        let set = figs12_13_build_set(&mut db, &mut env).unwrap();
        let members: Vec<NodeId> = db.targets(set, &"contains".into()).collect();
        assert_eq!(members.len(), 2);
        assert!(members.contains(&h.rock_new) && members.contains(&h.pinkfloyd));
    }

    #[test]
    fn fig14_15_deletes_classical_music_isolating_mozart() {
        let (mut db, h) = build_instance();
        fig14_node_deletion().apply(&mut db).unwrap();
        assert!(!db.contains_node(h.classical));
        assert!(db.contains_node(h.mozart));
        assert_eq!(db.in_degree(h.mozart), 0);
        assert_eq!(db.targets(h.music_history, &"links-to".into()).count(), 2);
        db.validate().unwrap();
    }

    #[test]
    fn fig16_updates_music_history_modified_date() {
        let (mut db, h) = build_instance();
        fig16_update(&mut db, &mut Env::new()).unwrap();
        let date = db
            .functional_target(h.music_history, &"modified".into())
            .unwrap();
        assert_eq!(db.print_value(date), Some(&Value::date(1990, 1, 16)));
    }

    #[test]
    fn figs17_19_abstraction_groups_shared_link_sets() {
        let (mut db, h) = build_versions_instance();
        for ab in fig18_abstractions() {
            ab.apply(&mut db).unwrap();
        }
        let contains = Label::new("contains");
        // documents[0] and documents[1] (same link set) share a group.
        let g0: Vec<NodeId> = db.sources(h.documents[0], &contains).collect();
        let g1: Vec<NodeId> = db.sources(h.documents[1], &contains).collect();
        assert_eq!(g0, g1);
        assert_eq!(g0.len(), 1);
        // documents[2] and documents[3] are in distinct groups.
        let g2: Vec<NodeId> = db.sources(h.documents[2], &contains).collect();
        let g3: Vec<NodeId> = db.sources(h.documents[3], &contains).collect();
        assert_ne!(g2, g3);
        // Three groups total (Figure 19).
        assert_eq!(db.label_count(&"Same-Info".into()), 3);
        db.validate().unwrap();
    }

    #[test]
    fn figs20_21_update_method() {
        let (mut db, h) = build_instance();
        db.add_printable("Date", Value::date(1990, 1, 16)).unwrap();
        let mut env = Env::new();
        env.register(fig20_update_method());
        good_core::method::execute_call(&fig21_update_call(), &mut db, &mut env).unwrap();
        let date = db
            .functional_target(h.music_history, &"modified".into())
            .unwrap();
        assert_eq!(db.print_value(date), Some(&Value::date(1990, 1, 16)));
        // Other infos untouched; no frames left.
        assert!(db
            .functional_target(h.rock_new, &"modified".into())
            .is_none());
        db.validate().unwrap();
    }

    #[test]
    fn fig22_removes_the_old_rock_version() {
        let (mut db, h) = build_instance();
        let mut env = Env::new();
        remove_rock_old_versions(&mut db, &mut env, &h).unwrap();
        assert!(!db.contains_node(h.rock_old), "old version deleted");
        assert!(!db.contains_node(h.version), "version node deleted");
        assert!(db.contains_node(h.rock_new), "receiver survives");
        // The Doors (linked from the old version too) survives.
        assert!(db.contains_node(h.doors));
        db.validate().unwrap();
    }

    #[test]
    fn fig22_removes_whole_chains() {
        // Build a 4-deep version chain and call R-O-V on the newest.
        let (mut db, h) = build_versions_instance();
        let mut env = Env::new();
        env.register(fig22_remove_old_versions());
        let mut p = Pattern::new();
        let info = p.node("Info");
        let version = p.node("Version");
        p.edge(version, "new", info);
        // Receiver: the newest document — the one that is never `old`.
        let old_version = p.negated_node("Version");
        p.negated_edge(old_version, "old", info);
        let call = MethodCall::new("R-O-V", p, info, []);
        good_core::method::execute_call(&call, &mut db, &mut env).unwrap();
        // Only the newest document survives; all three versions and the
        // three older documents are gone.
        assert!(db.contains_node(h.documents[3]));
        for doc in &h.documents[..3] {
            assert!(!db.contains_node(*doc));
        }
        assert_eq!(db.label_count(&"Version".into()), 0);
        // Targets are untouched.
        for target in h.targets {
            assert!(db.contains_node(target));
        }
        db.validate().unwrap();
    }

    #[test]
    fn figs23_25_days_unmodified() {
        let (mut db, h) = build_instance();
        let mut env = Env::new();
        method_e_apply(&mut db, &mut env).unwrap();
        // Music History: created Jan 12, modified Jan 14 → 2 days.
        let days = db
            .functional_target(h.music_history, &"days-unmod".into())
            .expect("days-unmod installed");
        assert_eq!(db.print_value(days), Some(&Value::int(2)));
        // The Elapsed intermediates are gone (interface filtering).
        assert!(!db.scheme().is_object_label(&"Elapsed".into()));
        assert_eq!(db.label_count(&"Elapsed".into()), 0);
        db.validate().unwrap();
    }

    #[test]
    fn fig26_27_negation_query() {
        let (mut db, h) = build_instance();
        let (pattern, info, _) = fig26_pattern();
        // Direct semantics: every info with a created date where no
        // modified edge points to the same date. Music History's
        // modified (Jan 14) differs from created (Jan 12), so it
        // qualifies; so do all the never-modified infos with a created
        // date.
        let direct = find_matchings(&pattern, &db).unwrap();
        assert!(direct.iter().any(|m| m.image(info) == h.music_history));
        // All 9 named infos have created dates and only Music History
        // has a modified edge (to a different date) → 9 matchings.
        assert_eq!(direct.len(), 9);

        // Figure 27 expansion agrees.
        let expansion = fig27_expansion();
        let via_macro = expansion.evaluate(&mut db, &mut Env::new()).unwrap();
        assert_eq!(via_macro, direct);
    }

    #[test]
    fn figs28_29_transitive_closure() {
        let (mut db, h) = build_instance();
        let (method, call) = figs28_29_closure();
        let mut env = Env::new();
        env.register(method);
        good_core::method::execute_call(&call, &mut db, &mut env).unwrap();
        let rec = Label::new("rec-links-to");
        // music-history ⇒ pinkfloyd's contents via rock/pinkfloyd.
        assert!(db.has_edge(h.music_history, &rec, h.pinkfloyd));
        assert!(db.has_edge(h.music_history, &rec, h.pinkfloyd_contents[0]));
        assert!(db.has_edge(h.music_history, &rec, h.mozart));
        // Equal to the graph-theoretic closure.
        let links = Label::new("links-to");
        let expected = good_graph::algo::transitive_closure_by(&db.to_graph(), |l| *l == links);
        for (src, dsts) in expected {
            for dst in dsts {
                assert!(db.has_edge(src, &rec, dst), "missing {src:?}->{dst:?}");
            }
        }
        db.validate().unwrap();
    }

    #[test]
    fn figs30_31_inheritance_query() {
        let (db, h) = build_instance();
        let results = fig30_query(&db).unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].0, h.reference);
        assert_eq!(
            db.print_value(results[0].1),
            Some(&Value::str("The Beatles"))
        );
        // The rewritten pattern is valid over the base scheme while the
        // original is not.
        let (original, _, _) = fig30_pattern();
        assert!(original.validate(db.scheme()).is_err());
        fig31_pattern(db.scheme()).validate(db.scheme()).unwrap();
    }
}
