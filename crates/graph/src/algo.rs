//! Graph algorithms used across the reproduction.
//!
//! A textbook algorithm on [`Graph`], written against the public API so
//! it works for any payload types: the transitive closure is the ground
//! truth the paper's recursive-method simulation of transitive closure
//! (Figures 28–29), rule saturation and the figure reproductions are
//! checked against.

use crate::graph::{Graph, NodeId};
use std::collections::{HashMap, HashSet, VecDeque};

/// The transitive closure as a map `node -> set of strictly-later nodes`
/// (i.e. excluding the node itself unless it lies on a cycle), restricted
/// to edges whose payload satisfies `follow`.
///
/// This is the reference semantics for the paper's `rec-links-to`
/// example: an edge `(m, n)` is in the closure iff there is a non-empty
/// path of `follow` edges from `m` to `n`.
pub fn transitive_closure_by<N, E>(
    graph: &Graph<N, E>,
    mut follow: impl FnMut(&E) -> bool,
) -> HashMap<NodeId, HashSet<NodeId>> {
    // Collect the filtered successor lists once.
    let mut succ: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    for node in graph.node_ids() {
        succ.insert(node, Vec::new());
    }
    for edge in graph.edges() {
        if follow(edge.payload) {
            succ.get_mut(&edge.src).expect("src is live").push(edge.dst);
        }
    }
    let mut closure = HashMap::new();
    for node in graph.node_ids() {
        // BFS from each direct successor, so `node` itself is included
        // only when it is on a cycle.
        let mut seen: HashSet<NodeId> = HashSet::new();
        let mut queue: VecDeque<NodeId> = succ[&node].iter().copied().collect();
        for first in &succ[&node] {
            seen.insert(*first);
        }
        while let Some(next) = queue.pop_front() {
            for s in &succ[&next] {
                if seen.insert(*s) {
                    queue.push_back(*s);
                }
            }
        }
        closure.insert(node, seen);
    }
    closure
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> (Graph<usize, ()>, Vec<NodeId>) {
        let mut g = Graph::new();
        let ids: Vec<_> = (0..n).map(|i| g.add_node(i)).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], ());
        }
        (g, ids)
    }

    #[test]
    fn transitive_closure_on_chain_excludes_self() {
        let (g, ids) = chain(4);
        let tc = transitive_closure_by(&g, |_| true);
        assert_eq!(tc[&ids[0]].len(), 3);
        assert!(!tc[&ids[0]].contains(&ids[0]));
        assert!(tc[&ids[2]].contains(&ids[3]));
        assert!(tc[&ids[3]].is_empty());
    }

    #[test]
    fn transitive_closure_includes_self_on_cycle() {
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, a, ());
        let tc = transitive_closure_by(&g, |_| true);
        assert!(tc[&a].contains(&a));
        assert!(tc[&a].contains(&b));
    }
}
