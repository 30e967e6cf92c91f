//! Generic (worst-case-optimal) join evaluation for cyclic patterns.
//!
//! Binary edge-at-a-time plans are doomed on cyclic patterns: whatever
//! the join order, some prefix materializes an *open* version of the
//! cycle (all wedges of a triangle, say) before the closing edge can
//! filter it, and that intermediate can be asymptotically larger than
//! the final result (the AGM bound — see "Foundations of Modern Query
//! Languages for Graph Databases" in PAPERS.md). The generic-join
//! discipline avoids this by joining one *variable* at a time instead:
//! each pattern node binds to the sorted intersection of **all** its
//! candidate sets under the current partial assignment — every
//! bound-neighbour posting list, the support sets of its still-unbound
//! edges, and its printable/predicate constraints — so no partial
//! assignment survives that violates any already-decidable edge.
//!
//! This is not a separate engine: it is the matcher's one compiled-step
//! loop ([`crate::matching`]) with pruning on. Every step of that loop
//! already iterates the smallest neighbour set among its links to bound
//! nodes and membership-probes the rest; the generic-join shape adds
//! the support sets of the edges to nodes not bound yet. The variable
//! order comes from the cost-based planner ([`crate::planner::plan`]),
//! which selects this shape when a pattern's costed estimate predicts a
//! binary blow-up; [`find_matchings_wcoj`] forces it for any pattern.
//!
//! Results are canonical — sorted, deduplicated, negation
//! post-filtered — and bit-identical to every other engine; the
//! differential proptest suite (`tests/differential.rs`) enforces this.

use crate::error::Result;
use crate::instance::Instance;
use crate::matching::{matchings_in_order, Matching};
use crate::pattern::Pattern;
use crate::planner::plan;

/// Find all matchings of `pattern` with the generic-join discipline,
/// regardless of what strategy the planner would pick. Results are
/// bit-identical to [`crate::matching::find_matchings`].
pub fn find_matchings_wcoj(pattern: &Pattern, instance: &Instance) -> Result<Vec<Matching>> {
    matchings_in_order(pattern, instance, true, |positive| {
        plan(positive, instance).order
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::{find_matchings, find_matchings_naive};

    use crate::gen::bench_scheme as scheme;

    fn cyclic_instance() -> Instance {
        let mut db = Instance::new(scheme());
        let nodes: Vec<_> = (0..8).map(|_| db.add_object("Info").unwrap()).collect();
        // A 4-cycle, a triangle sharing a node with it, a self-loop,
        // and a pendant.
        for k in 0..4 {
            db.add_edge(nodes[k], "links-to", nodes[(k + 1) % 4])
                .unwrap();
        }
        db.add_edge(nodes[3], "links-to", nodes[4]).unwrap();
        db.add_edge(nodes[4], "links-to", nodes[5]).unwrap();
        db.add_edge(nodes[5], "links-to", nodes[3]).unwrap();
        db.add_edge(nodes[6], "links-to", nodes[6]).unwrap();
        db.add_edge(nodes[6], "links-to", nodes[7]).unwrap();
        let name = db.add_printable("String", "hub").unwrap();
        db.add_edge(nodes[3], "name", name).unwrap();
        db
    }

    fn assert_engines_agree(pattern: &Pattern, db: &Instance) {
        let planned = find_matchings(pattern, db).unwrap();
        let naive = find_matchings_naive(pattern, db).unwrap();
        let wcoj = find_matchings_wcoj(pattern, db).unwrap();
        assert_eq!(planned, naive);
        assert_eq!(planned, wcoj);
    }

    #[test]
    fn triangle_matches_agree_with_all_engines() {
        let db = cyclic_instance();
        let mut p = Pattern::new();
        let a = p.node("Info");
        let b = p.node("Info");
        let c = p.node("Info");
        p.edge(a, "links-to", b);
        p.edge(b, "links-to", c);
        p.edge(c, "links-to", a);
        assert_engines_agree(&p, &db);
        // Three rotations of the {3,4,5} triangle, plus the self-loop
        // node matching all three variables at once (homomorphisms are
        // not injective).
        assert_eq!(find_matchings(&p, &db).unwrap().len(), 4);
    }

    #[test]
    fn four_cycle_and_chains_agree() {
        let db = cyclic_instance();
        let mut square = Pattern::new();
        let n: Vec<_> = (0..4).map(|_| square.node("Info")).collect();
        for k in 0..4 {
            square.edge(n[k], "links-to", n[(k + 1) % 4]);
        }
        assert_engines_agree(&square, &db);

        let mut chain = Pattern::new();
        let a = chain.node("Info");
        let b = chain.node("Info");
        let c = chain.node("Info");
        chain.edge(a, "links-to", b);
        chain.edge(b, "links-to", c);
        assert_engines_agree(&chain, &db);
    }

    #[test]
    fn self_loops_and_printables_agree() {
        let db = cyclic_instance();
        let mut p = Pattern::new();
        let x = p.node("Info");
        p.edge(x, "links-to", x);
        assert_engines_agree(&p, &db);

        let mut anchored = Pattern::new();
        let info = anchored.node("Info");
        let name = anchored.printable("String", "hub");
        let other = anchored.node("Info");
        anchored.edge(info, "name", name);
        anchored.edge(info, "links-to", other);
        assert_engines_agree(&anchored, &db);
    }

    #[test]
    fn negation_and_empty_pattern_agree() {
        let db = cyclic_instance();
        let mut p = Pattern::new();
        let info = p.node("Info");
        let other = p.negated_node("Info");
        p.edge(info, "links-to", other);
        assert_engines_agree(&p, &db);
        assert_engines_agree(&Pattern::new(), &db);
    }

    #[test]
    fn disconnected_pattern_cross_product_agrees() {
        let db = cyclic_instance();
        let mut p = Pattern::new();
        let a = p.node("Info");
        let b = p.node("Info");
        let c = p.node("Info");
        p.edge(a, "links-to", b);
        let _ = c; // isolated third node
        assert_engines_agree(&p, &db);
    }
}
