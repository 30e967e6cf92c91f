//! Pattern-directed browsing (Section 5).
//!
//! The paper's footnote 1 stresses that the full instance graph is
//! never shown to the user; instead "the GOOD transformation language
//! provides tractable primitives for manipulating and visualizing
//! relevant parts of the instance graph", and the Antwerp interface
//! offered "tools for pattern-directed browsing" (paper reference 13).
//!
//! This module is that browsing layer:
//!
//! * [`neighborhood`] — the sub-instance within `radius` edges of a
//!   node (direction-agnostic), the "expand this object" gesture;
//! * [`matched_subinstance`] — the sub-instance induced by all images
//!   of a pattern's matchings, the "show me what this query touches"
//!   gesture;
//! * both return real [`Instance`]s (validating, renderable to DOT,
//!   queryable further) whose node identities are preserved, so a
//!   browsing session can walk from view to view.

use crate::error::Result;
use crate::instance::Instance;
use crate::matching::find_matchings;
use crate::pattern::Pattern;
use good_graph::NodeId;
use std::collections::{BTreeSet, VecDeque};

/// Restrict `db` to `keep`: the induced sub-instance on those nodes
/// (all edges whose endpoints both survive). Node ids are preserved.
fn induced(db: &Instance, keep: &BTreeSet<NodeId>) -> Instance {
    let mut view = db.clone();
    let doomed = view
        .nodes()
        .map(|(node, _)| node)
        .filter(|node| !keep.contains(node));
    view.delete_nodes(doomed.collect::<Vec<_>>());
    view
}

/// The sub-instance within `radius` edges of `start`, ignoring edge
/// direction (a browsing user wants to see incoming references too).
pub fn neighborhood(db: &Instance, start: NodeId, radius: usize) -> Instance {
    let mut keep = BTreeSet::new();
    if !db.contains_node(start) {
        return induced(db, &keep);
    }
    let mut queue = VecDeque::from([(start, 0usize)]);
    keep.insert(start);
    while let Some((node, depth)) = queue.pop_front() {
        if depth == radius {
            continue;
        }
        for (src, _, dst) in db.incident_edges(node) {
            let next = if src == node { dst } else { src };
            if keep.insert(next) {
                queue.push_back((next, depth + 1));
            }
        }
    }
    induced(db, &keep)
}

/// The sub-instance induced by the images of all matchings of
/// `pattern` — every node some matching maps onto, with all edges
/// among them.
pub fn matched_subinstance(db: &Instance, pattern: &Pattern) -> Result<Instance> {
    let matchings = find_matchings(pattern, db)?;
    let mut keep = BTreeSet::new();
    for matching in &matchings {
        for (_, image) in matching.iter() {
            keep.insert(image);
        }
    }
    Ok(induced(db, &keep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::SchemeBuilder;
    use crate::value::ValueType;

    fn setup() -> (Instance, Vec<NodeId>) {
        let scheme = SchemeBuilder::new()
            .object("Info")
            .printable("String", ValueType::Str)
            .functional("Info", "name", "String")
            .multivalued("Info", "links-to", "Info")
            .build();
        let mut db = Instance::new(scheme);
        // A chain a -> b -> c -> d with names.
        let nodes: Vec<NodeId> = (0..4)
            .map(|index| {
                let info = db.add_object("Info").unwrap();
                let name = db.add_printable("String", format!("doc-{index}")).unwrap();
                db.add_edge(info, "name", name).unwrap();
                info
            })
            .collect();
        for window in nodes.windows(2) {
            db.add_edge(window[0], "links-to", window[1]).unwrap();
        }
        (db, nodes)
    }

    #[test]
    fn radius_zero_is_just_the_node() {
        let (db, nodes) = setup();
        let view = neighborhood(&db, nodes[1], 0);
        assert_eq!(view.node_count(), 1);
        assert_eq!(view.edge_count(), 0);
        view.validate().unwrap();
    }

    #[test]
    fn radius_one_includes_names_and_both_link_directions() {
        let (db, nodes) = setup();
        let view = neighborhood(&db, nodes[1], 1);
        // b + its name + a (incoming) + c (outgoing).
        assert_eq!(view.node_count(), 4);
        assert!(view.contains_node(nodes[0]));
        assert!(view.contains_node(nodes[2]));
        assert!(!view.contains_node(nodes[3]));
        // Induced edges: a->b, b->c, b->name(b). The names of a and c
        // are outside the radius.
        assert_eq!(view.edge_count(), 3);
        view.validate().unwrap();
    }

    #[test]
    fn radius_grows_monotonically() {
        let (db, nodes) = setup();
        let mut previous = 0;
        for radius in 0..5 {
            let count = neighborhood(&db, nodes[0], radius).node_count();
            assert!(count >= previous);
            previous = count;
        }
        // Radius 5 covers everything (chain of 4 + names).
        assert_eq!(previous, db.node_count());
    }

    #[test]
    fn dead_start_node_yields_empty_view() {
        let (mut db, nodes) = setup();
        db.delete_node(nodes[0]);
        let view = neighborhood(&db, nodes[0], 2);
        assert_eq!(view.node_count(), 0);
    }

    #[test]
    fn matched_subinstance_shows_query_territory() {
        let (db, nodes) = setup();
        let mut pattern = Pattern::new();
        let a = pattern.node("Info");
        let b = pattern.node("Info");
        pattern.edge(a, "links-to", b);
        let view = matched_subinstance(&db, &pattern).unwrap();
        // All four infos participate in some matching; names do not.
        assert_eq!(view.node_count(), 4);
        assert_eq!(view.edge_count(), 3); // the chain's links survive
        for node in nodes {
            assert!(view.contains_node(node));
        }
        view.validate().unwrap();
    }

    #[test]
    fn matched_subinstance_of_unmatched_pattern_is_empty() {
        let (db, _) = setup();
        let mut pattern = Pattern::new();
        let info = pattern.node("Info");
        let name = pattern.printable("String", "nope");
        pattern.edge(info, "name", name);
        let view = matched_subinstance(&db, &pattern).unwrap();
        assert_eq!(view.node_count(), 0);
    }

    #[test]
    fn views_are_further_queryable() {
        let (db, nodes) = setup();
        let view = neighborhood(&db, nodes[1], 1);
        let mut pattern = Pattern::new();
        let a = pattern.node("Info");
        let b = pattern.node("Info");
        pattern.edge(a, "links-to", b);
        let matchings = find_matchings(&pattern, &view).unwrap();
        assert_eq!(matchings.len(), 2); // a->b and b->c inside the view
    }
}
