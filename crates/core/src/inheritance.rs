//! Inheritance (Section 4.2).
//!
//! The paper marks some functional scheme edges as subclass (`isa`)
//! edges and gives them macro semantics: "using inheritance in
//! formulating GOOD queries comes down to working in a virtual instance
//! obtained by explicitly adding the properties of the target nodes of
//! an isa-link to the source nodes as well. Clearly, this
//! transformation can be computed by a number of consecutive edge
//! additions."
//!
//! Two equivalent routes are provided, and tested against each other:
//!
//! * [`virtual_instance`] — materialize the virtual view: every node
//!   inherits the outgoing properties of its (transitive) `isa` targets;
//! * [`rewrite_pattern`] — the Figure 30 → Figure 31 rewriting: an edge
//!   using an inherited property is re-routed through an explicit chain
//!   of `isa` edges to a superclass node. [`find_matchings_with_inheritance`]
//!   runs a rewritten pattern and projects the matchings back onto the
//!   original pattern nodes.

use crate::error::{GoodError, Result};
use crate::instance::Instance;
use crate::label::Label;
use crate::matching::{find_matchings, Matching};
use crate::pattern::{Pattern, PatternNodeKind};
use crate::scheme::Scheme;
use good_graph::NodeId;
use std::collections::{HashMap, VecDeque};

/// Map from a re-rooted pattern edge `(original src, λ, dst)` to the
/// chain node that now carries the property.
pub type RerouteMap = HashMap<(NodeId, Label, NodeId), NodeId>;

/// Materialize the inheritance view: a clone of `db` in which every
/// object additionally carries the outgoing edges of all objects
/// reachable from it via marked `isa` edges.
///
/// Functional properties already present on the subclass object win
/// over inherited ones (overriding). Two *different* inherited values
/// for the same functional property with no own value is the ambiguity
/// the paper warns about ("the user must be very careful to define the
/// isa-links unambiguously") and is reported as an error.
pub fn virtual_instance(db: &Instance) -> Result<Instance> {
    let mut out = db.clone();
    let subclass: Vec<(Label, Label, Label)> = db.scheme().subclass_triples().cloned().collect();
    if subclass.is_empty() {
        return Ok(out);
    }
    let isa_labels: Vec<Label> = {
        let mut labels: Vec<Label> = subclass.iter().map(|(_, edge, _)| edge.clone()).collect();
        labels.sort();
        labels.dedup();
        labels
    };

    // Extend the scheme: for every subclass triple (Sub, isa, Sup) and
    // every (Sup, λ, T) ∈ P with λ not itself a subclass edge, allow
    // (Sub, λ, T). Iterate to a fixpoint for multi-level hierarchies.
    loop {
        let mut additions: Vec<(Label, Label, Label)> = Vec::new();
        for (sub, _, sup) in &subclass {
            for (src, edge, dst) in out.scheme().triples() {
                if src == sup
                    && !out
                        .scheme()
                        .subclass_triples()
                        .any(|(s, e, _)| s == src && e == edge)
                    && !out.scheme().allows(sub, edge, dst)
                {
                    additions.push((sub.clone(), edge.clone(), dst.clone()));
                }
            }
        }
        if additions.is_empty() {
            break;
        }
        for (src, edge, dst) in additions {
            out.scheme_mut().add_triple(src, edge, dst)?;
        }
    }

    // Instance level: BFS along instance isa edges, collecting each
    // node's (transitive) superclass objects, then copying their
    // non-isa outgoing edges down.
    let nodes: Vec<NodeId> = out.nodes().map(|(node, _)| node).collect();
    for node in nodes {
        // Collect ancestor objects.
        let mut ancestors = Vec::new();
        let mut queue = VecDeque::from([node]);
        let mut seen = vec![node];
        while let Some(current) = queue.pop_front() {
            for isa in &isa_labels {
                for target in out.targets(current, isa).collect::<Vec<_>>() {
                    if !seen.contains(&target) {
                        seen.push(target);
                        ancestors.push(target);
                        queue.push_back(target);
                    }
                }
            }
        }
        // Copy their properties (closest ancestor first — `ancestors`
        // is in BFS order).
        let mut functional_sources: HashMap<Label, NodeId> = HashMap::new();
        for ancestor in ancestors {
            for (src, label, target) in out.incident_edges(ancestor) {
                if src != ancestor {
                    continue;
                }
                if isa_labels.contains(&label) {
                    continue;
                }
                match out.scheme().edge_kind(&label) {
                    Some(crate::label::EdgeKind::Functional) => {
                        if let Some(own) = out.functional_target(node, &label) {
                            if own != target {
                                if let Some(&origin) = functional_sources.get(&label) {
                                    // Two distinct inherited values.
                                    if origin != ancestor {
                                        return Err(GoodError::InvariantViolation(format!(
                                            "ambiguous inheritance of functional property {label}"
                                        )));
                                    }
                                }
                                // Own value (or closest ancestor) wins.
                                continue;
                            }
                        } else {
                            out.add_edge(node, label.clone(), target)?;
                            functional_sources.insert(label, ancestor);
                        }
                    }
                    Some(crate::label::EdgeKind::Multivalued) => {
                        out.add_edge(node, label.clone(), target)?;
                    }
                    None => {
                        return Err(GoodError::UnknownEdgeLabel(label));
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Rewrite a pattern that uses inherited properties (Figure 30) into an
/// explicit pattern over the base scheme (Figure 31): for every pattern
/// edge `(m, λ, t)` not licensed from `λ(m)`, insert the shortest chain
/// of `isa` edges from `m` to an ancestor class that *does* license
/// `λ`, and re-root the edge there.
pub fn rewrite_pattern(pattern: &Pattern, scheme: &Scheme) -> Result<Pattern> {
    rewrite_pattern_with_map(pattern, scheme).map(|(rewritten, _)| rewritten)
}

/// Like [`rewrite_pattern`], additionally returning, for every re-rooted
/// edge, the mapping `(original src, λ, dst) → new src` — the chain node
/// that now carries the property. Operation compilers (the method
/// machinery's subclass dispatch) use this to retarget their edge
/// specifications.
pub fn rewrite_pattern_with_map(
    pattern: &Pattern,
    scheme: &Scheme,
) -> Result<(Pattern, RerouteMap)> {
    let mut reroutes = HashMap::new();
    let mut out = pattern.clone();
    let edges: Vec<(good_graph::EdgeId, NodeId, NodeId, Label, bool)> = out
        .graph()
        .edges()
        .map(|e| {
            (
                e.id,
                e.src,
                e.dst,
                e.payload.label.clone(),
                e.payload.negated,
            )
        })
        .collect();
    // Cache of inserted superclass chain nodes per (pattern node, class).
    let mut chain_nodes: HashMap<(NodeId, Label), NodeId> = HashMap::new();

    for (edge_id, src, dst, label, negated) in edges {
        let src_data = out.graph().node(src).expect("live").clone();
        let PatternNodeKind::Class(src_label) = &src_data.kind else {
            continue; // method-head edges are not rewritten
        };
        let Some(dst_label) = out.node_label(dst).cloned() else {
            continue;
        };
        if scheme.allows(src_label, &label, &dst_label) {
            continue;
        }
        // Find the shortest isa path from src_label to a class licensing
        // (class, λ, dst_label).
        let path = isa_path_to_licensor(scheme, src_label, &label, &dst_label)?;
        // Re-root: walk the path, inserting (or reusing) chain nodes.
        let mut current = src;
        for (isa_edge, super_label) in path {
            let key = (current, super_label.clone());
            let super_node = *chain_nodes
                .entry(key)
                .or_insert_with(|| out.node(super_label));
            // Add the isa edge if we just created the node (entry API
            // can't tell us, so check for an existing edge).
            let already = out
                .graph()
                .out_edges(current)
                .any(|e| e.dst == super_node && e.payload.label == isa_edge);
            if !already {
                out.edge(current, isa_edge, super_node);
            }
            current = super_node;
        }
        // Move the property edge to the final chain node.
        out.graph_mut().remove_edge(edge_id);
        reroutes.insert((src, label.clone(), dst), current);
        if negated {
            out.negated_edge(current, label, dst);
        } else {
            out.edge(current, label, dst);
        }
    }
    Ok((out, reroutes))
}

/// Shortest `isa`-path from `from` to a class that licenses
/// `(class, edge, dst)`, as a list of `(isa edge label, superclass)`.
pub(crate) fn isa_path_to_licensor(
    scheme: &Scheme,
    from: &Label,
    edge: &Label,
    dst: &Label,
) -> Result<Vec<(Label, Label)>> {
    let mut queue = VecDeque::from([from.clone()]);
    let mut parent: HashMap<Label, (Label, Label)> = HashMap::new(); // class -> (via isa, from class)
    let mut seen = vec![from.clone()];
    while let Some(current) = queue.pop_front() {
        if &current != from && scheme.allows(&current, edge, dst) {
            // Reconstruct the path.
            let mut path = Vec::new();
            let mut cursor = current.clone();
            while cursor != *from {
                let (via, prev) = parent[&cursor].clone();
                path.push((via, cursor.clone()));
                cursor = prev;
            }
            path.reverse();
            return Ok(path);
        }
        for (src, via, sup) in scheme.subclass_triples() {
            if src == &current && !seen.contains(sup) {
                seen.push(sup.clone());
                parent.insert(sup.clone(), (via.clone(), current.clone()));
                queue.push_back(sup.clone());
            }
        }
    }
    Err(GoodError::EdgeNotInScheme {
        src: from.clone(),
        edge: edge.clone(),
        dst: dst.clone(),
    })
}

/// Match `pattern` with inheritance semantics: rewrite it over the
/// scheme's `isa` hierarchy, run the matcher, and project the matchings
/// back onto the original pattern's nodes (the rewriting preserves the
/// original node ids).
pub fn find_matchings_with_inheritance(pattern: &Pattern, db: &Instance) -> Result<Vec<Matching>> {
    let rewritten = rewrite_pattern(pattern, db.scheme())?;
    let original_nodes = pattern.positive_nodes();
    let mut projected: Vec<Matching> = find_matchings(&rewritten, db)?
        .into_iter()
        .map(|m| {
            Matching::from_pairs(
                original_nodes
                    .iter()
                    .filter_map(|node| m.get(*node).map(|image| (*node, image))),
            )
        })
        .collect();
    projected.sort();
    projected.dedup();
    Ok(projected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::SchemeBuilder;
    use crate::value::{Value, ValueType};

    /// Info with name; Reference isa Info; References occur `in` Infos.
    fn scheme() -> Scheme {
        SchemeBuilder::new()
            .object("Info")
            .object("Reference")
            .printable("String", ValueType::Str)
            .functional("Info", "name", "String")
            .subclass("Reference", "isa", "Info")
            .multivalued("Reference", "in", "Info")
            .build()
    }

    /// A Jazz info containing a reference whose underlying info is named
    /// "The Beatles" (the Figure 2 situation behind Figure 30).
    fn instance() -> (Instance, NodeId, NodeId) {
        let mut db = Instance::new(scheme());
        let jazz = db.add_object("Info").unwrap();
        let jazz_name = db.add_printable("String", "Jazz").unwrap();
        db.add_edge(jazz, "name", jazz_name).unwrap();
        let beatles = db.add_object("Info").unwrap();
        let beatles_name = db.add_printable("String", "The Beatles").unwrap();
        db.add_edge(beatles, "name", beatles_name).unwrap();
        let reference = db.add_object("Reference").unwrap();
        db.add_edge(reference, "isa", beatles).unwrap();
        db.add_edge(reference, "in", jazz).unwrap();
        (db, reference, beatles)
    }

    /// Figure 30: the user asks for names of references in Jazz —
    /// `name` is an Info property used directly on a Reference node.
    fn figure30() -> (Pattern, NodeId, NodeId) {
        let mut p = Pattern::new();
        let reference = p.node("Reference");
        let jazz = p.node("Info");
        let jazz_name = p.printable("String", "Jazz");
        let ref_name = p.node("String");
        p.edge(jazz, "name", jazz_name);
        p.edge(reference, "in", jazz);
        p.edge(reference, "name", ref_name); // inherited property!
        (p, reference, ref_name)
    }

    #[test]
    fn figure30_is_invalid_without_inheritance() {
        let (db, _, _) = instance();
        let (pattern, _, _) = figure30();
        assert!(find_matchings(&pattern, &db).is_err());
    }

    #[test]
    fn rewrite_produces_figure31() {
        let (pattern, reference, _) = figure30();
        let rewritten = rewrite_pattern(&pattern, &scheme()).unwrap();
        // One extra Info node, reached from Reference via isa, now
        // carries the name edge.
        assert_eq!(rewritten.node_count(), pattern.node_count() + 1);
        rewritten.validate(&scheme()).unwrap();
        let has_isa = rewritten
            .graph()
            .out_edges(reference)
            .any(|e| e.payload.label.as_str() == "isa");
        assert!(has_isa);
    }

    #[test]
    fn inherited_query_finds_the_beatles() {
        let (db, reference, _) = instance();
        let (pattern, pref, pname) = figure30();
        let matchings = find_matchings_with_inheritance(&pattern, &db).unwrap();
        assert_eq!(matchings.len(), 1);
        assert_eq!(matchings[0].image(pref), reference);
        let name_node = matchings[0].image(pname);
        assert_eq!(db.print_value(name_node), Some(&Value::str("The Beatles")));
    }

    #[test]
    fn virtual_instance_attaches_inherited_properties() {
        let (db, reference, _) = instance();
        let view = virtual_instance(&db).unwrap();
        // In the view the reference itself carries the name edge.
        let name = view.functional_target(reference, &"name".into()).unwrap();
        assert_eq!(view.print_value(name), Some(&Value::str("The Beatles")));
        view.validate().unwrap();
        // The original is untouched.
        assert!(db.functional_target(reference, &"name".into()).is_none());
    }

    #[test]
    fn virtual_instance_agrees_with_rewriting() {
        let (db, _, _) = instance();
        let (pattern, pref, pname) = figure30();
        let via_rewrite = find_matchings_with_inheritance(&pattern, &db).unwrap();
        let view = virtual_instance(&db).unwrap();
        let via_view = find_matchings(&pattern, &view).unwrap();
        // Projected onto (reference, name) images, the two agree.
        let project = |ms: &[Matching]| -> Vec<(NodeId, NodeId)> {
            let mut v: Vec<_> = ms.iter().map(|m| (m.image(pref), m.image(pname))).collect();
            v.sort();
            v.dedup();
            v
        };
        assert_eq!(project(&via_rewrite), project(&via_view));
    }

    #[test]
    fn multi_level_hierarchies() {
        let scheme = SchemeBuilder::new()
            .object("A")
            .object("B")
            .object("C")
            .printable("String", ValueType::Str)
            .functional("C", "prop", "String")
            .subclass("A", "isa", "B")
            .subclass("B", "isa", "C")
            .build();
        let mut db = Instance::new(scheme);
        let a = db.add_object("A").unwrap();
        let b = db.add_object("B").unwrap();
        let c = db.add_object("C").unwrap();
        let value = db.add_printable("String", "v").unwrap();
        db.add_edge(a, "isa", b).unwrap();
        db.add_edge(b, "isa", c).unwrap();
        db.add_edge(c, "prop", value).unwrap();

        let view = virtual_instance(&db).unwrap();
        assert_eq!(view.functional_target(a, &"prop".into()), Some(value));
        assert_eq!(view.functional_target(b, &"prop".into()), Some(value));

        // Pattern using prop directly on A rewrites through two hops.
        let mut p = Pattern::new();
        let pa = p.node("A");
        let pv = p.printable("String", "v");
        p.edge(pa, "prop", pv);
        let matchings = find_matchings_with_inheritance(&p, &db).unwrap();
        assert_eq!(matchings.len(), 1);
        assert_eq!(matchings[0].image(pa), a);
    }

    #[test]
    fn own_property_overrides_inherited() {
        let scheme = SchemeBuilder::new()
            .object("Sub")
            .object("Sup")
            .printable("String", ValueType::Str)
            .functional("Sup", "p", "String")
            .functional("Sub", "p", "String")
            .subclass("Sub", "isa", "Sup")
            .build();
        let mut db = Instance::new(scheme);
        let sub = db.add_object("Sub").unwrap();
        let sup = db.add_object("Sup").unwrap();
        let own = db.add_printable("String", "own").unwrap();
        let inherited = db.add_printable("String", "inherited").unwrap();
        db.add_edge(sub, "isa", sup).unwrap();
        db.add_edge(sub, "p", own).unwrap();
        db.add_edge(sup, "p", inherited).unwrap();
        let view = virtual_instance(&db).unwrap();
        assert_eq!(view.functional_target(sub, &"p".into()), Some(own));
    }

    #[test]
    fn unresolvable_property_stays_an_error() {
        let (db, _, _) = instance();
        let mut p = Pattern::new();
        let info = p.node("Info");
        let other = p.node("Info");
        p.edge(info, "in", other); // `in` belongs to Reference, Info has no isa
        assert!(matches!(
            find_matchings_with_inheritance(&p, &db),
            Err(GoodError::EdgeNotInScheme { .. })
        ));
    }
}
