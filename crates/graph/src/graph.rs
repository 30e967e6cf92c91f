//! The directed labeled multigraph.
//!
//! [`Graph<N, E>`] stores node payloads `N` and edge payloads `E` in
//! generational arenas with per-node incidence lists (plain vectors:
//! patterns, schemes and DOT renders are small and unshared), so the
//! matcher in `good-core` walks a pattern's edges both ways without
//! scanning. Parallel edges are allowed here. An instance does not live
//! here: `good-core` stores its edges as triples and builds a `Graph`
//! only to render or compare one.

use crate::arena::{Arena, ArenaId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a node in a [`Graph`]: its slot in the node arena, so a
/// node arena's ids are node ids (a graph built
/// [`with_nodes`](Graph::with_nodes) keeps them).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub ArenaId);

/// Identifier of an edge in a [`Graph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub(crate) ArenaId);

impl NodeId {
    /// Dense slot index, usable as a key for side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0.index()
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{:?}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{:?}", self.0)
    }
}

#[derive(Debug, Clone)]
struct NodeSlot<N> {
    payload: N,
    out_edges: Vec<EdgeId>,
    in_edges: Vec<EdgeId>,
}

#[derive(Debug, Clone)]
struct EdgeSlot<E> {
    payload: E,
    src: NodeId,
    dst: NodeId,
}

/// A borrowed view of a node: its id, payload and degree information.
#[derive(Debug, Clone, Copy)]
pub struct NodeRef<'g, N> {
    /// The node's identifier.
    pub id: NodeId,
    /// The node's payload.
    pub payload: &'g N,
    /// Number of outgoing edges.
    pub out_degree: usize,
    /// Number of incoming edges.
    pub in_degree: usize,
}

/// A borrowed view of an edge: its id, payload and endpoints.
#[derive(Debug, Clone, Copy)]
pub struct EdgeRef<'g, E> {
    /// The edge's identifier.
    pub id: EdgeId,
    /// The edge's payload.
    pub payload: &'g E,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
}

/// # Example
///
/// ```
/// use good_graph::Graph;
///
/// let mut graph: Graph<&str, &str> = Graph::new();
/// let info = graph.add_node("Info");
/// let date = graph.add_node("Date");
/// let edge = graph.add_edge(info, date, "created");
/// assert_eq!(graph.edge_ref(edge).map(|e| (e.src, e.dst)), Some((info, date)));
/// graph.remove_node(date);           // cascades to the edge
/// assert_eq!(graph.edge_count(), 0);
/// assert!(graph.contains_node(info));
/// ```
/// A directed multigraph with payloads on nodes and edges.
///
/// Both arenas live in persistent tries, so `clone()` is O(1) and a
/// clone shares all storage with the original until either side writes.
/// It has no serialized form: `good-core` writes patterns as triples.
#[derive(Debug, Clone)]
pub struct Graph<N, E> {
    nodes: Arena<NodeSlot<N>>,
    edges: Arena<EdgeSlot<E>>,
}

impl<N, E> Default for Graph<N, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N, E> Graph<N, E> {
    /// Create an empty graph.
    pub fn new() -> Self {
        Graph {
            nodes: Arena::new(),
            edges: Arena::new(),
        }
    }

    /// Number of live nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of live edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Exclusive upper bound on node slot indexes (for dense side tables).
    #[inline]
    pub fn node_index_bound(&self) -> usize {
        self.nodes.index_bound()
    }
}

/// Mutation requires `Clone` payloads: writes path-copy any trie nodes
/// shared with live snapshots.
impl<N: Clone, E: Clone> Graph<N, E> {
    /// `nodes`' payloads under `nodes`' ids (generations and free slots
    /// included), no edges yet.
    pub fn with_nodes(nodes: &Arena<N>) -> Self {
        let mut graph = Graph::new();
        graph.nodes = nodes.map(|payload| NodeSlot {
            payload: payload.clone(),
            out_edges: Vec::new(),
            in_edges: Vec::new(),
        });
        graph
    }

    /// Add a node carrying `payload`.
    pub fn add_node(&mut self, payload: N) -> NodeId {
        NodeId(self.nodes.insert(NodeSlot {
            payload,
            out_edges: Vec::new(),
            in_edges: Vec::new(),
        }))
    }

    /// Add an edge `src -> dst` carrying `payload`.
    ///
    /// # Panics
    /// Panics if either endpoint is not a live node — connecting dead
    /// nodes is always a logic error in the layers above.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, payload: E) -> EdgeId {
        let live = |node: NodeId| self.nodes.contains(node.0);
        assert!(live(src), "add_edge: source {src:?} is not live");
        assert!(live(dst), "add_edge: destination {dst:?} is not live");
        let id = EdgeId(self.edges.insert(EdgeSlot { payload, src, dst }));
        let slot = self.nodes.get_mut(src.0).expect("checked above");
        slot.out_edges.push(id);
        let slot = self.nodes.get_mut(dst.0).expect("checked above");
        slot.in_edges.push(id);
        id
    }

    /// Remove an edge, returning its payload if it was live.
    pub fn remove_edge(&mut self, id: EdgeId) -> Option<E> {
        let slot = self.edges.remove(id.0)?;
        if let Some(src) = self.nodes.get_mut(slot.src.0) {
            src.out_edges.retain(|&edge| edge != id);
        }
        if let Some(dst) = self.nodes.get_mut(slot.dst.0) {
            dst.in_edges.retain(|&edge| edge != id);
        }
        Some(slot.payload)
    }

    /// Remove a node and all incident edges, returning its payload if it
    /// was live.
    pub fn remove_node(&mut self, id: NodeId) -> Option<N> {
        let slot = self.nodes.remove(id.0)?;
        for edge in slot.out_edges.iter().chain(slot.in_edges.iter()) {
            if let Some(removed) = self.edges.remove(edge.0) {
                // Detach the far endpoint (self-loops were already removed
                // from our own slot by taking it out of the arena).
                let far = if removed.src == id {
                    removed.dst
                } else {
                    removed.src
                };
                if far != id {
                    if let Some(far_slot) = self.nodes.get_mut(far.0) {
                        far_slot.out_edges.retain(|e| e != edge);
                        far_slot.in_edges.retain(|e| e != edge);
                    }
                }
            }
        }
        Some(slot.payload)
    }

    /// Mutable access to a node payload.
    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut N> {
        self.nodes.get_mut(id.0).map(|slot| &mut slot.payload)
    }

    /// Mutable access to an edge payload.
    #[inline]
    pub fn edge_mut(&mut self, id: EdgeId) -> Option<&mut E> {
        self.edges.get_mut(id.0).map(|slot| &mut slot.payload)
    }
}

impl<N, E> Graph<N, E> {
    /// True if `id` is a live node.
    #[inline]
    pub fn contains_node(&self, id: NodeId) -> bool {
        self.nodes.contains(id.0)
    }

    /// Shared access to a node payload.
    #[inline]
    pub fn node(&self, id: NodeId) -> Option<&N> {
        self.nodes.get(id.0).map(|slot| &slot.payload)
    }

    /// Full borrowed view of an edge.
    pub fn edge_ref(&self, id: EdgeId) -> Option<EdgeRef<'_, E>> {
        self.edges.get(id.0).map(|slot| EdgeRef {
            id,
            payload: &slot.payload,
            src: slot.src,
            dst: slot.dst,
        })
    }

    /// Full borrowed view of a node.
    pub fn node_ref(&self, id: NodeId) -> Option<NodeRef<'_, N>> {
        self.nodes.get(id.0).map(|slot| NodeRef {
            id,
            payload: &slot.payload,
            out_degree: slot.out_edges.len(),
            in_degree: slot.in_edges.len(),
        })
    }

    /// Iterate over all live nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeRef<'_, N>> {
        self.nodes.iter().map(|(id, slot)| NodeRef {
            id: NodeId(id),
            payload: &slot.payload,
            out_degree: slot.out_edges.len(),
            in_degree: slot.in_edges.len(),
        })
    }

    /// Iterate over all live node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.ids().map(NodeId)
    }

    /// Iterate over all live edges.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef<'_, E>> {
        self.edges.iter().map(|(id, slot)| EdgeRef {
            id: EdgeId(id),
            payload: &slot.payload,
            src: slot.src,
            dst: slot.dst,
        })
    }

    /// Iterate over all live edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges.ids().map(EdgeId)
    }

    /// Outgoing edges of `node` (empty iterator if the node is dead).
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = EdgeRef<'_, E>> {
        self.nodes
            .get(node.0)
            .map_or(&[][..], |slot| &slot.out_edges)
            .iter()
            .filter_map(|&edge| self.edge_ref(edge))
    }

    /// Incoming edges of `node` (empty iterator if the node is dead).
    pub fn in_edges(&self, node: NodeId) -> impl Iterator<Item = EdgeRef<'_, E>> {
        self.nodes
            .get(node.0)
            .map_or(&[][..], |slot| &slot.in_edges)
            .iter()
            .filter_map(|&edge| self.edge_ref(edge))
    }

    /// Out-degree of `node` (0 if dead).
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.nodes
            .get(node.0)
            .map_or(0, |slot| slot.out_edges.len())
    }

    /// In-degree of `node` (0 if dead).
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.nodes.get(node.0).map_or(0, |slot| slot.in_edges.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Graph<&'static str, &'static str>, Vec<NodeId>) {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b, "ab");
        g.add_edge(a, c, "ac");
        g.add_edge(b, d, "bd");
        g.add_edge(c, d, "cd");
        (g, vec![a, b, c, d])
    }

    #[test]
    fn build_and_query() {
        let (g, ids) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_degree(ids[0]), 2);
        assert_eq!(g.in_degree(ids[3]), 2);
        let succ: Vec<_> = g.out_edges(ids[0]).map(|edge| edge.dst).collect();
        assert_eq!(succ.len(), 2);
        assert!(succ.contains(&ids[1]) && succ.contains(&ids[2]));
    }

    #[test]
    fn parallel_edges_allowed() {
        let mut g: Graph<(), &str> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, "x");
        g.add_edge(a, b, "x");
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_degree(a), 2);
    }

    #[test]
    fn remove_edge_detaches_both_sides() {
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let e = g.add_edge(a, b, ());
        assert_eq!(g.remove_edge(e), Some(()));
        assert_eq!(g.out_degree(a), 0);
        assert_eq!(g.in_degree(b), 0);
        assert_eq!(g.edge_count(), 0);
        // Double-remove is a no-op.
        assert_eq!(g.remove_edge(e), None);
    }

    #[test]
    fn remove_node_cascades_to_incident_edges() {
        let (mut g, ids) = diamond();
        g.remove_node(ids[1]); // remove "b"
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2); // ab and bd are gone
        assert_eq!(g.out_degree(ids[0]), 1);
        assert_eq!(g.in_degree(ids[3]), 1);
    }

    #[test]
    fn remove_node_with_self_loop() {
        let mut g: Graph<&str, ()> = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(a, a, ());
        g.add_edge(a, b, ());
        assert_eq!(g.remove_node(a), Some("a"));
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.in_degree(b), 0);
        assert!(g.contains_node(b));
    }

    #[test]
    fn stale_node_id_is_rejected() {
        let mut g: Graph<u32, ()> = Graph::new();
        let a = g.add_node(1);
        g.remove_node(a);
        let b = g.add_node(2);
        assert_eq!(g.node(a), None);
        assert_eq!(g.node(b), Some(&2));
    }

    #[test]
    #[should_panic(expected = "add_edge: source")]
    fn add_edge_to_dead_node_panics() {
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.remove_node(a);
        g.add_edge(a, b, ());
    }

    #[test]
    fn endpoints_and_refs() {
        let mut g: Graph<&str, &str> = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let e = g.add_edge(a, b, "ab");
        let r = g.edge_ref(e).unwrap();
        assert_eq!((*r.payload, r.src, r.dst), ("ab", a, b));
        let n = g.node_ref(a).unwrap();
        assert_eq!((n.out_degree, n.in_degree), (1, 0));
    }
}
