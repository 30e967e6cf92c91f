//! The recursion macro (Section 4.1, Figures 28–29).
//!
//! A *starred* edge addition is "repeated as long as new edges can be
//! added". [`RecursiveEdgeAddition`] provides that fixpoint semantics
//! directly, and [`transitive_closure_method`] implements the paper's
//! general simulation: a recursive method whose body performs the
//! underlying non-starred operation and then calls itself on a pattern
//! "augmented with a crossed part that corresponds to the starred part:
//! this expresses the stopping condition for the recursion" (Figure 29).
//!
//! The star runs on the delta-driven evaluator in `fixpoint.rs`
//! (DESIGN.md, "Fixpoint evaluation"); the Figure 29 method is kept as
//! the paper-fidelity construction, not an execution path.
//!
//! The canonical instance is transitive closure of a multivalued
//! property (`links-to` ⇒ `rec-links-to`), which the paper proves is
//! "impossible using only the basic five operations".

use crate::error::Result;
use crate::fixpoint::{fixpoint, FixRule};
use crate::instance::Instance;
use crate::label::{Label, RECEIVER_EDGE};
use crate::method::{Method, MethodCall, MethodSpec};
use crate::ops::{EdgeAddition, OpReport};
use crate::pattern::Pattern;
use crate::program::{Env, Operation};
use crate::scheme::Scheme;
use serde::{Deserialize, Serialize};

/// A starred edge addition: apply the underlying [`EdgeAddition`] until
/// it adds no new edges.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecursiveEdgeAddition {
    /// The underlying (non-starred) edge addition.
    pub base: EdgeAddition,
}

impl RecursiveEdgeAddition {
    /// Construct from the underlying edge addition.
    pub fn new(base: EdgeAddition) -> Self {
        RecursiveEdgeAddition { base }
    }

    /// Iterate to fixpoint: single-rule saturation by the semi-naive
    /// evaluator (DESIGN.md, "Fixpoint evaluation"). Round 1 matches the
    /// whole pattern; every later round matches only embeddings that use
    /// an edge added in the round before. Each round burns one unit of
    /// fuel, the final quiescent one included, so a (theoretically
    /// impossible for EA, but cheap to guard) runaway loop is caught by
    /// the environment.
    ///
    /// In the returned report `edges_added` is the number of edges the
    /// star added; `matchings` counts the matchings the rounds actually
    /// enumerated (round 1 in full, later rounds delta-seeded), not the
    /// pattern's matchings in the final instance.
    pub fn apply(&self, db: &mut Instance, env: &mut Env) -> Result<OpReport> {
        let mut outcome = fixpoint(&[FixRule::EdgeAdd(&self.base)], db, env)?;
        Ok(outcome.reports.remove(0))
    }
}

/// Build the paper's Figure 29 construction for the transitive closure
/// of `base_edge` over `node_label` into `closure_edge`: a recursive
/// method `RLT` plus the program that seeds and invokes it.
///
/// Returns `(method, seed, call)`:
/// * `seed` is the Figure 28 first operation — the plain edge addition
///   deriving `closure_edge` for directly `base_edge`-connected pairs —
///   expressed as a method call so the whole computation is one
///   registered-method affair; concretely it is the initial `MC` whose
///   pattern is `X -base→ Y`, calling the method with receiver `X` and
///   argument `Y`.
/// * `method` must be registered in the [`Env`] before running `call`.
pub fn transitive_closure_method(
    node_label: impl Into<Label>,
    base_edge: impl Into<Label>,
    closure_edge: impl Into<Label>,
) -> (Method, MethodCall) {
    let node_label = node_label.into();
    let base_edge = base_edge.into();
    let closure_edge = closure_edge.into();
    let method_name = format!("TC-{closure_edge}");
    let arg = Label::new("arg");

    let spec = MethodSpec::new(
        method_name.clone(),
        node_label.clone(),
        [(arg.clone(), node_label.clone())],
    );

    // Body op 1: the underlying edge addition — add
    // receiver -closure→ argument.
    let mut p1 = Pattern::new();
    let head1 = p1.method_head(&method_name);
    let recv1 = p1.node(node_label.clone());
    let arg1 = p1.node(node_label.clone());
    p1.edge(head1, Label::system(RECEIVER_EDGE), recv1);
    p1.edge(head1, arg.clone(), arg1);
    let ea = EdgeAddition::multivalued(p1, recv1, closure_edge.clone(), arg1);

    // Body op 2: the recursive call — for each `next` with
    // argument -base→ next and NOT receiver -closure→ next (the crossed
    // stopping condition), call self with (receiver, next).
    let mut p2 = Pattern::new();
    let head2 = p2.method_head(&method_name);
    let recv2 = p2.node(node_label.clone());
    let arg2 = p2.node(node_label.clone());
    let next2 = p2.node(node_label.clone());
    p2.edge(head2, Label::system(RECEIVER_EDGE), recv2);
    p2.edge(head2, arg.clone(), arg2);
    p2.edge(arg2, base_edge.clone(), next2);
    p2.negated_edge(recv2, closure_edge.clone(), next2);
    let recursive = MethodCall::new(method_name.clone(), p2, recv2, [(arg.clone(), next2)]);

    // The method's interface declares the closure edge so it survives
    // the final restriction.
    let mut interface = Scheme::new();
    interface
        .add_object_label(node_label.clone())
        .expect("fresh interface scheme");
    interface
        .add_multivalued(node_label.clone(), closure_edge.clone(), node_label.clone())
        .expect("fresh interface scheme");

    let method = Method::new(
        spec,
        vec![Operation::EdgeAdd(ea), Operation::Call(recursive)],
        interface,
    );

    // The initial call (bottom of Figure 29): for every directly
    // connected pair.
    let mut p = Pattern::new();
    let src = p.node(node_label.clone());
    let dst = p.node(node_label);
    p.edge(src, base_edge, dst);
    let call = MethodCall::new(method_name, p, src, [(arg, dst)]);

    (method, call)
}

/// Convenience: the Figure 28 starred-edge-addition formulation of
/// transitive closure, as a [`RecursiveEdgeAddition`]-based program.
/// Returns `(seed, star)` — apply `seed` once, then `star` to fixpoint.
pub fn transitive_closure_star(
    node_label: impl Into<Label>,
    base_edge: impl Into<Label>,
    closure_edge: impl Into<Label>,
) -> (EdgeAddition, RecursiveEdgeAddition) {
    let node_label = node_label.into();
    let base_edge = base_edge.into();
    let closure_edge = closure_edge.into();

    // Seed: X -base→ Y ⇒ X -closure→ Y.
    let mut p = Pattern::new();
    let x = p.node(node_label.clone());
    let y = p.node(node_label.clone());
    p.edge(x, base_edge.clone(), y);
    let seed = EdgeAddition::multivalued(p, x, closure_edge.clone(), y);

    // Star: X -closure→ Y -base→ Z ⇒ X -closure→ Z, repeated.
    let mut p = Pattern::new();
    let x = p.node(node_label.clone());
    let y = p.node(node_label.clone());
    let z = p.node(node_label);
    p.edge(x, closure_edge.clone(), y);
    p.edge(y, base_edge, z);
    let star = RecursiveEdgeAddition::new(EdgeAddition::multivalued(p, x, closure_edge, z));

    (seed, star)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::execute_call;
    use crate::scheme::{Scheme, SchemeBuilder};
    use good_graph::NodeId;
    use std::collections::BTreeSet;

    fn scheme() -> Scheme {
        SchemeBuilder::new()
            .object("Info")
            .multivalued("Info", "links-to", "Info")
            .multivalued("Info", "rec-links-to", "Info")
            .build()
    }

    fn chain(n: usize) -> (Instance, Vec<NodeId>) {
        let mut db = Instance::new(scheme());
        let nodes: Vec<NodeId> = (0..n).map(|_| db.add_object("Info").unwrap()).collect();
        for w in nodes.windows(2) {
            db.add_edge(w[0], "links-to", w[1]).unwrap();
        }
        (db, nodes)
    }

    fn closure_pairs(db: &Instance) -> BTreeSet<(NodeId, NodeId)> {
        let label = Label::new("rec-links-to");
        db.graph()
            .edges()
            .filter(|e| e.payload.label == label)
            .map(|e| (e.src, e.dst))
            .collect()
    }

    fn expected_closure(db: &Instance) -> BTreeSet<(NodeId, NodeId)> {
        let links = Label::new("links-to");
        let tc = good_graph::algo::transitive_closure_by(db.graph(), |e| e.label == links);
        tc.into_iter()
            .flat_map(|(src, dsts)| dsts.into_iter().map(move |dst| (src, dst)))
            .collect()
    }

    #[test]
    fn starred_edge_addition_computes_closure_on_chain() {
        let (mut db, nodes) = chain(5);
        let (seed, star) = transitive_closure_star("Info", "links-to", "rec-links-to");
        let mut env = Env::new();
        let seeded = seed.apply(&mut db).unwrap();
        let starred = star.apply(&mut db, &mut env).unwrap();
        // `edges_added` is the star's contract; `matchings` only counts
        // what the delta-seeded rounds enumerated.
        assert_eq!((seeded.edges_added, starred.edges_added), (4, 6));
        assert_eq!(closure_pairs(&db), expected_closure(&db));
        assert_eq!(closure_pairs(&db).len(), 10); // C(5,2) ordered pairs on a chain
        assert!(closure_pairs(&db).contains(&(nodes[0], nodes[4])));
        db.validate().unwrap();
    }

    #[test]
    fn starred_edge_addition_handles_cycles() {
        let (mut db, nodes) = chain(3);
        db.add_edge(nodes[2], "links-to", nodes[0]).unwrap();
        let (seed, star) = transitive_closure_star("Info", "links-to", "rec-links-to");
        let mut env = Env::new();
        seed.apply(&mut db).unwrap();
        let starred = star.apply(&mut db, &mut env).unwrap();
        // On a cycle everything reaches everything, including itself.
        assert_eq!(starred.edges_added, 6);
        assert_eq!(closure_pairs(&db).len(), 9);
        assert_eq!(closure_pairs(&db), expected_closure(&db));
    }

    #[test]
    fn recursive_method_computes_closure() {
        let (mut db, _) = chain(5);
        let (method, call) = transitive_closure_method("Info", "links-to", "rec-links-to");
        let mut env = Env::new();
        env.register(method);
        execute_call(&call, &mut db, &mut env).unwrap();
        assert_eq!(closure_pairs(&db), expected_closure(&db));
        // No frame residue.
        assert!(db.graph().nodes().all(|n| !n.payload.label.is_system()));
        db.validate().unwrap();
    }

    #[test]
    fn recursive_method_handles_cycles_and_diamonds() {
        let (mut db, nodes) = chain(4);
        db.add_edge(nodes[3], "links-to", nodes[1]).unwrap(); // cycle 1-2-3
        db.add_edge(nodes[0], "links-to", nodes[2]).unwrap(); // shortcut
        let (method, call) = transitive_closure_method("Info", "links-to", "rec-links-to");
        let mut env = Env::new();
        env.register(method);
        execute_call(&call, &mut db, &mut env).unwrap();
        assert_eq!(closure_pairs(&db), expected_closure(&db));
    }

    #[test]
    fn method_and_star_agree() {
        let (mut db_a, nodes) = chain(6);
        db_a.add_edge(nodes[5], "links-to", nodes[2]).unwrap();
        let mut db_b = db_a.clone();

        let (seed, star) = transitive_closure_star("Info", "links-to", "rec-links-to");
        let mut env = Env::new();
        seed.apply(&mut db_a).unwrap();
        star.apply(&mut db_a, &mut env).unwrap();

        let (method, call) = transitive_closure_method("Info", "links-to", "rec-links-to");
        env.register(method);
        execute_call(&call, &mut db_b, &mut env).unwrap();

        assert_eq!(closure_pairs(&db_a), closure_pairs(&db_b));
    }

    #[test]
    fn empty_base_relation_terminates_immediately() {
        let mut db = Instance::new(scheme());
        db.add_object("Info").unwrap();
        let (method, call) = transitive_closure_method("Info", "links-to", "rec-links-to");
        let mut env = Env::new();
        env.register(method);
        execute_call(&call, &mut db, &mut env).unwrap();
        assert!(closure_pairs(&db).is_empty());
    }

    #[test]
    fn fuel_bounds_runaway_fixpoints() {
        let (mut db, _) = chain(50);
        let (seed, star) = transitive_closure_star("Info", "links-to", "rec-links-to");
        seed.apply(&mut db).unwrap();
        let mut env = Env::with_fuel(3);
        let err = star.apply(&mut db, &mut env).unwrap_err();
        assert!(matches!(err, crate::error::GoodError::OutOfFuel { .. }));
    }
}
