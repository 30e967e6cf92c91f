//! Object base instances.
//!
//! Section 2 of the paper: an instance over a scheme `S` is a finite
//! labeled graph `I = (N, E)` whose node labels come from `OL ∪ POL`,
//! whose printable nodes carry a print constant, and whose edges conform
//! to the triple set `P`, subject to three invariants:
//!
//! 1. all `λ`-successors of a node carry the same node label;
//! 2. functional `λ` admits at most one `λ`-successor per node;
//! 3. printable nodes are unique per (label, print value) — "if
//!    `λ(n1) = λ(n2)` is in `POL` and `print(n1) = print(n2)` then
//!    `n1 = n2`".
//!
//! [`Instance`] enforces all of this *at mutation time*, maintains label
//! and printable-value indexes for the matcher, and owns its scheme
//! because the GOOD operations evolve scheme and instance together.

use crate::error::{GoodError, Result};
use crate::label::{EdgeKind, Label, NodeKind};
use crate::persist::{PMap, PSet, SharedMap};
use crate::scheme::Scheme;
use crate::value::Value;
use good_graph::dot::{DotEdge, DotNode};
use good_graph::{EdgeId, Graph, NodeId};
use good_trace::LiveCounter;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};

// Which deletion strategy batched deletes took (see `delete_nodes`).
static LIVE_NODE_DEL_BULK: LiveCounter = LiveCounter::new("instance.node_del.bulk_rebuild");
static LIVE_NODE_DEL_INCREMENTAL: LiveCounter = LiveCounter::new("instance.node_del.incremental");
static LIVE_EDGE_DEL_BULK: LiveCounter = LiveCounter::new("instance.edge_del.bulk_rebuild");
static LIVE_EDGE_DEL_INCREMENTAL: LiveCounter = LiveCounter::new("instance.edge_del.incremental");

/// Payload of an instance node: its class label, plus the print constant
/// for printable nodes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeData {
    /// The node's class label.
    pub label: Label,
    /// The print constant (exactly for printable nodes).
    pub print: Option<Value>,
}

/// Payload of an instance edge: its edge label.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeData {
    /// The edge's label.
    pub label: Label,
}

/// Per-key postings of the adjacency index: anchor node → sorted
/// neighbour set.
pub type Postings = PMap<NodeId, PSet<NodeId>>;

/// Batched deletions at least this large (and dooming a sizable graph
/// fraction) rebuild the adjacency index wholesale instead of
/// unindexing edge by edge.
const BULK_REBUILD_MIN: usize = 64;

/// The `λ` edges at the nodes of one class, seen from one side: the
/// adjacency index's entry under a `(class, λ)` key. The matcher reads
/// it, and a derived relation's runs, through `crate::matching::Side`.
///
/// On the outgoing side the class is the sources', and `postings` maps
/// each target to its class-labelled `λ`-sources (the candidates for a
/// pattern node whose out-edge target is already bound). On the
/// incoming side the class is the targets', and `postings` maps each
/// source to its class-labelled `λ`-targets. All sets are sorted for
/// determinism.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Adjacency {
    /// Other endpoint → the class's nodes across a `λ` edge from it.
    pub(crate) postings: Postings,
    /// The class's nodes with at least one `λ` edge on this side —
    /// intersected to seed candidates for pattern nodes with no bound
    /// neighbour.
    pub(crate) support: PSet<NodeId>,
    /// Number of `λ` edges on this side.
    pub(crate) edges: usize,
}

impl Adjacency {
    /// Other endpoint → the class's nodes across a `λ` edge from it.
    pub fn postings(&self) -> &Postings {
        &self.postings
    }

    /// Forget the edge between `anchor` and `node`; `node` stays in the
    /// support only if `keep_support`. `true` when the side is empty.
    fn remove(&mut self, anchor: NodeId, node: NodeId, keep_support: bool) -> bool {
        if let Some(set) = self.postings.get_mut(&anchor) {
            if set.remove(&node) {
                self.edges -= 1;
            }
            if set.is_empty() {
                self.postings.remove(&anchor);
            }
        }
        if !keep_support {
            self.support.remove(&node);
        }
        self.postings.is_empty()
    }

    /// Rough heap footprint in bytes.
    fn approx_bytes(&self) -> usize {
        self.postings.approx_bytes()
            + self
                .postings
                .values()
                .map(PSet::approx_bytes)
                .sum::<usize>()
            + self.support.approx_bytes()
    }
}

/// The label-pair adjacency index: for every edge `(s, λ, t)` it
/// records `s`'s side under `(λ(s), λ)` in `outgoing` and `t`'s under
/// `(λ(t), λ)` in `incoming`, so the matcher derives candidate sets from
/// index lookups and intersections instead of scanning whole label
/// extents or edge lists, and the planner reads its figures off the
/// same entries (`crate::derived::View::triple`).
///
/// The maps are nested (`node label → edge label → side`) rather than
/// keyed by a `(Label, Label)` tuple so the read path can probe with
/// two borrowed `&Label`s — a tuple key would force two `String`
/// clones per lookup, and `has_edge` sits in the matcher's innermost
/// loop.
///
/// Every level is a persistent [`PMap`]/[`PSet`], so cloning the index
/// is a few `Arc` bumps and indexing one edge path-copies only the
/// O(log n) nodes around the two touched sides — the property that
/// makes snapshot publishes O(delta) (see `crate::snapshot`).
#[derive(Debug, Clone, Default, PartialEq)]
struct AdjacencyIndex {
    outgoing: SharedMap<Label, SharedMap<Label, Adjacency>>,
    incoming: SharedMap<Label, SharedMap<Label, Adjacency>>,
}

/// Borrowed-key probe of a nested index map — no allocation.
fn nested_get<'a, T>(
    map: &'a SharedMap<Label, SharedMap<Label, T>>,
    node_label: &Label,
    edge: &Label,
) -> Option<&'a T> {
    map.get(node_label)?.get(edge)
}

/// Remove the `(node_label, edge)` entry of a nested index map,
/// pruning the outer entry when its inner map empties. `prune` decides
/// what to do with the inner value; returning `true` drops it.
fn nested_prune<T: Clone>(
    map: &mut SharedMap<Label, SharedMap<Label, T>>,
    node_label: &Label,
    edge: &Label,
    prune: impl FnOnce(&mut T) -> bool,
) {
    let Some(inner) = map.get_mut(node_label) else {
        return;
    };
    if let Some(value) = inner.get_mut(edge) {
        if prune(value) {
            inner.remove(edge);
        }
    }
    if inner.is_empty() {
        map.remove(node_label);
    }
}

impl AdjacencyIndex {
    /// Index the edge `(src, λ, dst)` on both its sides: `src`'s class's
    /// outgoing one and `dst`'s class's incoming one.
    fn insert(
        &mut self,
        src: NodeId,
        src_label: &Label,
        edge: &Label,
        dst: NodeId,
        dst_label: &Label,
    ) {
        let outgoing = (self.outgoing.get_or_insert_with(src_label, SharedMap::new))
            .get_or_insert_with(edge, Adjacency::default);
        let incoming = (self.incoming.get_or_insert_with(dst_label, SharedMap::new))
            .get_or_insert_with(edge, Adjacency::default);
        let targets = incoming.postings.get_or_insert_with(&src, PSet::new);
        if !targets.insert(dst) {
            return;
        }
        // A set of one is the node's first edge between these two
        // classes, so the node may be new to its support (an edge from
        // another class may have put it there: inserting again is a
        // no-op). A longer set means it is there, and the insert, which
        // path-copies even when the key is present, is skipped.
        if targets.len() == 1 {
            outgoing.support.insert(src);
        }
        let sources = outgoing.postings.get_or_insert_with(&dst, PSet::new);
        sources.insert(src);
        if sources.len() == 1 {
            incoming.support.insert(dst);
        }
        outgoing.edges += 1;
        incoming.edges += 1;
    }

    /// Unindex the edge `(src, λ, dst)`. The `src_has_out` / `dst_has_in`
    /// flags say whether the endpoints still carry *other* `λ` edges in
    /// the graph (computed by the caller after the graph mutation), which
    /// decides whether they stay in the support sets. Empty containers
    /// are pruned so the index stays equal to a fresh rebuild.
    fn remove(
        &mut self,
        (src, src_label): (NodeId, &Label),
        edge: &Label,
        (dst, dst_label): (NodeId, &Label),
        src_has_out: bool,
        dst_has_in: bool,
    ) {
        nested_prune(&mut self.outgoing, src_label, edge, |side| {
            side.remove(dst, src, src_has_out)
        });
        nested_prune(&mut self.incoming, dst_label, edge, |side| {
            side.remove(src, dst, dst_has_in)
        });
    }

    /// Build the index of `graph` from scratch (recovery, bulk deletes
    /// and the audit).
    fn build(graph: &Graph<NodeData, EdgeData>) -> Self {
        let mut index = AdjacencyIndex::default();
        for edge in graph.edges() {
            let src_label = &graph.node(edge.src).expect("live").label;
            let dst_label = &graph.node(edge.dst).expect("live").label;
            index.insert(
                edge.src,
                src_label,
                &edge.payload.label,
                edge.dst,
                dst_label,
            );
        }
        index
    }

    /// Rough heap footprint in bytes across both nested maps.
    fn approx_bytes(&self) -> usize {
        [&self.outgoing, &self.incoming]
            .into_iter()
            .map(|map| {
                map.approx_bytes()
                    + (map.values())
                        .map(|by_edge| {
                            by_edge.approx_bytes()
                                + by_edge.values().map(Adjacency::approx_bytes).sum::<usize>()
                        })
                        .sum::<usize>()
            })
            .sum()
    }
}

/// The indexes an instance derives from its graph: the label index, the
/// printable index and the adjacency index.
type Indexes = (
    SharedMap<Label, PSet<NodeId>>,
    SharedMap<Label, PMap<Value, NodeId>>,
    AdjacencyIndex,
);

/// Build the [`Indexes`] of `graph` from scratch, from borrows — the
/// recovery path and the index audit. Fails on two printable nodes
/// sharing a value.
fn build_indexes(graph: &Graph<NodeData, EdgeData>) -> Result<Indexes> {
    let mut label_index: SharedMap<Label, PSet<NodeId>> = SharedMap::new();
    let mut printable_index: SharedMap<Label, PMap<Value, NodeId>> = SharedMap::new();
    for node in graph.nodes() {
        let data = node.payload;
        label_index
            .get_or_insert_with(&data.label, PSet::new)
            .insert(node.id);
        if let Some(value) = &data.print {
            let prior = printable_index
                .get_or_insert_with(&data.label, PMap::new)
                .insert(value.clone(), node.id);
            if prior.is_some() {
                return Err(GoodError::InvariantViolation(format!(
                    "duplicate printable node {} = {value}",
                    data.label
                )));
            }
        }
    }
    Ok((label_index, printable_index, AdjacencyIndex::build(graph)))
}

/// # Example
///
/// ```
/// use good_core::instance::Instance;
/// use good_core::scheme::SchemeBuilder;
/// use good_core::value::{Value, ValueType};
///
/// let scheme = SchemeBuilder::new()
///     .object("Info")
///     .printable("String", ValueType::Str)
///     .functional("Info", "name", "String")
///     .build();
/// let mut db = Instance::new(scheme);
/// let info = db.add_object("Info")?;
/// let name = db.add_printable("String", "Rock")?;   // deduplicated
/// db.add_edge(info, "name", name)?;
/// assert_eq!(db.find_printable(&"String".into(), &Value::str("Rock")), Some(name));
/// db.validate()?;
/// # Ok::<(), good_core::error::GoodError>(())
/// ```
/// An object base instance over an owned [`Scheme`].
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(try_from = "InstanceData", into = "InstanceData")]
pub struct Instance {
    scheme: Scheme,
    graph: Graph<NodeData, EdgeData>,
    /// label → live nodes with that label (sorted for determinism).
    label_index: SharedMap<Label, PSet<NodeId>>,
    /// printable label → value → the unique node carrying it. Nested
    /// rather than keyed by `(Label, Value)` so lookups probe with two
    /// borrows instead of cloning a tuple key; the outer level is
    /// label-keyed (scheme-bounded), so it hash-probes.
    printable_index: SharedMap<Label, PMap<Value, NodeId>>,
    /// (node label, edge label) → postings, for the matcher and planner.
    adjacency: AdjacencyIndex,
}

/// Serialized form: scheme + graph; indexes are rebuilt on load.
#[derive(Serialize, Deserialize)]
struct InstanceData {
    scheme: Scheme,
    graph: Graph<NodeData, EdgeData>,
}

impl From<Instance> for InstanceData {
    fn from(instance: Instance) -> Self {
        InstanceData {
            scheme: instance.scheme,
            graph: instance.graph,
        }
    }
}

impl TryFrom<InstanceData> for Instance {
    type Error = GoodError;
    fn try_from(data: InstanceData) -> Result<Self> {
        Instance::from_parts(data.scheme, data.graph)
    }
}

impl Instance {
    /// An empty instance over `scheme`.
    pub fn new(scheme: Scheme) -> Self {
        Instance {
            scheme,
            graph: Graph::new(),
            label_index: SharedMap::new(),
            printable_index: SharedMap::new(),
            adjacency: AdjacencyIndex::default(),
        }
    }

    /// Rebuild an instance from a scheme and a raw graph, validating all
    /// invariants and reconstructing the indexes. This is the
    /// deserialization / recovery path (E13), so the indexes are built
    /// from borrows — no per-node payload clones, no id buffering.
    pub fn from_parts(scheme: Scheme, graph: Graph<NodeData, EdgeData>) -> Result<Self> {
        let (label_index, printable_index, adjacency) = build_indexes(&graph)?;
        let instance = Instance {
            scheme,
            graph,
            label_index,
            printable_index,
            adjacency,
        };
        // Content must be audited on every load (the bytes are
        // untrusted), but the derived indexes were just built from this
        // very graph — re-deriving them to compare is pure overhead in
        // release, so the index audit is debug-only here.
        instance.validate_semantics()?;
        #[cfg(debug_assertions)]
        instance.validate_indexes()?;
        Ok(instance)
    }

    /// Rough heap footprint of the graph arenas and all indexes in
    /// bytes, counting every persistent node once (shared nodes are
    /// *not* deduplicated, so this is the retained size of an unshared
    /// copy). Feeds the MVCC ring's byte-based retention policy.
    pub fn approx_bytes(&self) -> usize {
        self.graph.approx_bytes()
            + self.label_index.approx_bytes()
            + self
                .label_index
                .values()
                .map(PSet::approx_bytes)
                .sum::<usize>()
            + self.printable_index.approx_bytes()
            + self
                .printable_index
                .values()
                .map(PMap::approx_bytes)
                .sum::<usize>()
            + self.adjacency.approx_bytes()
    }

    // ---- accessors --------------------------------------------------------

    /// The instance's scheme.
    #[inline]
    pub fn scheme(&self) -> &Scheme {
        &self.scheme
    }

    /// Mutable scheme access — crate-internal: only the GOOD operations
    /// may evolve the scheme, and they keep instance and scheme in sync.
    #[inline]
    pub(crate) fn scheme_mut(&mut self) -> &mut Scheme {
        &mut self.scheme
    }

    /// Register a derived multivalued triple `(src, edge, dst)` on this
    /// instance's scheme — the same "minimal scheme extension" an edge
    /// addition performs, exposed for engines that materialize derived
    /// edges (compiled property paths) outside the operation layer.
    /// Registering a triple never invalidates existing data, so every
    /// instance invariant is preserved.
    pub fn extend_multivalued(
        &mut self,
        src: impl Into<Label>,
        edge: impl Into<Label>,
        dst: impl Into<Label>,
    ) -> Result<()> {
        self.scheme.add_multivalued(src, edge, dst)
    }

    /// The underlying graph (read-only).
    #[inline]
    pub fn graph(&self) -> &Graph<NodeData, EdgeData> {
        &self.graph
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of live edges.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// True if `node` is live.
    pub fn contains_node(&self, node: NodeId) -> bool {
        self.graph.contains_node(node)
    }

    /// The label of a live node.
    pub fn node_label(&self, node: NodeId) -> Option<&Label> {
        self.graph.node(node).map(|data| &data.label)
    }

    /// The print value of a live printable node.
    pub fn print_value(&self, node: NodeId) -> Option<&Value> {
        self.graph.node(node).and_then(|data| data.print.as_ref())
    }

    /// All live nodes with the given label, in deterministic (id) order.
    pub fn nodes_with_label<'a>(&'a self, label: &Label) -> impl Iterator<Item = NodeId> + 'a {
        self.label_index
            .get(label)
            .into_iter()
            .flat_map(|set| set.iter().copied())
    }

    /// Number of live nodes with the given label.
    pub fn label_count(&self, label: &Label) -> usize {
        self.label_index.get(label).map_or(0, PSet::len)
    }

    /// The unique printable node holding `value` under `label`, if any.
    pub fn find_printable(&self, label: &Label, value: &Value) -> Option<NodeId> {
        self.printable_index
            .get(label)
            .and_then(|values| values.get(value))
            .copied()
    }

    /// The target of the (at most one) functional `λ`-edge leaving
    /// `node`.
    pub fn functional_target(&self, node: NodeId, label: &Label) -> Option<NodeId> {
        self.graph
            .out_edges(node)
            .find(|edge| &edge.payload.label == label)
            .map(|edge| edge.dst)
    }

    /// All `λ`-successors of `node`, in edge insertion order.
    pub fn targets<'a>(
        &'a self,
        node: NodeId,
        label: &'a Label,
    ) -> impl Iterator<Item = NodeId> + 'a {
        self.graph
            .out_edges(node)
            .filter(move |edge| &edge.payload.label == label)
            .map(|edge| edge.dst)
    }

    /// All `λ`-predecessors of `node`.
    pub fn sources<'a>(
        &'a self,
        node: NodeId,
        label: &'a Label,
    ) -> impl Iterator<Item = NodeId> + 'a {
        self.graph
            .in_edges(node)
            .filter(move |edge| &edge.payload.label == label)
            .map(|edge| edge.src)
    }

    /// Out-degree of `node` over all edge labels (0 if absent).
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.graph.out_degree(node)
    }

    /// In-degree of `node` over all edge labels (0 if absent).
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.graph.in_degree(node)
    }

    /// The `λ`-successor set of `node` as a sorted set — the paper's
    /// `{r : (m, β, r) ∈ E}`, which abstraction groups by.
    pub fn target_set(&self, node: NodeId, label: &Label) -> BTreeSet<NodeId> {
        self.targets(node, label).collect()
    }

    /// True if the edge `(src, λ, dst)` is present. Low-degree sources
    /// are scanned directly — cheaper than the two label hashes an index
    /// probe costs — while high-degree ones go through the adjacency
    /// index so the check stays degree-independent.
    pub fn has_edge(&self, src: NodeId, label: &Label, dst: NodeId) -> bool {
        const SCAN_LIMIT: usize = 8;
        if self.graph.out_degree(src) <= SCAN_LIMIT {
            return self
                .graph
                .out_edges(src)
                .any(|edge| edge.dst == dst && &edge.payload.label == label);
        }
        let Some(src_label) = self.node_label(src) else {
            return false;
        };
        (self.outgoing(src_label, label))
            .and_then(|side| side.postings.get(&dst))
            .is_some_and(|set| set.contains(&src))
    }

    /// The `λ` edges leaving `class` nodes: target → its sorted
    /// `class`-labelled sources, the sources with any, and their count.
    /// `None` means no such edge exists.
    pub fn outgoing(&self, class: &Label, edge: &Label) -> Option<&Adjacency> {
        nested_get(&self.adjacency.outgoing, class, edge)
    }

    /// The `λ` edges entering `class` nodes: source → its sorted
    /// `class`-labelled targets, the targets with any, and their count.
    pub fn incoming(&self, class: &Label, edge: &Label) -> Option<&Adjacency> {
        nested_get(&self.adjacency.incoming, class, edge)
    }

    /// The id of the edge `(src, λ, dst)`, if present.
    pub fn edge_between(&self, src: NodeId, label: &Label, dst: NodeId) -> Option<EdgeId> {
        self.graph
            .out_edges(src)
            .find(|edge| edge.dst == dst && &edge.payload.label == label)
            .map(|edge| edge.id)
    }

    // ---- mutation -----------------------------------------------------------

    /// Add an object node of class `label`.
    pub fn add_object(&mut self, label: impl Into<Label>) -> Result<NodeId> {
        let label = label.into();
        match self.scheme.node_kind(&label) {
            Some(NodeKind::Object) => {}
            Some(NodeKind::Printable) => {
                return Err(GoodError::PrintMismatch {
                    label,
                    kind: NodeKind::Printable,
                })
            }
            None => return Err(GoodError::UnknownNodeLabel(label)),
        }
        let id = self.graph.add_node(NodeData {
            label: label.clone(),
            print: None,
        });
        self.label_index
            .get_or_insert_with(&label, PSet::new)
            .insert(id);
        Ok(id)
    }

    /// Add (or retrieve) the printable node of class `label` holding
    /// `value`. Printable nodes are deduplicated, as required by the
    /// instance definition.
    pub fn add_printable(
        &mut self,
        label: impl Into<Label>,
        value: impl Into<Value>,
    ) -> Result<NodeId> {
        let label = label.into();
        let value = value.into();
        let expected = match self.scheme.node_kind(&label) {
            Some(NodeKind::Printable) => self.scheme.printable_type(&label).expect("printable"),
            Some(NodeKind::Object) => {
                return Err(GoodError::PrintMismatch {
                    label,
                    kind: NodeKind::Object,
                })
            }
            None => return Err(GoodError::UnknownNodeLabel(label)),
        };
        if value.value_type() != expected {
            return Err(GoodError::ValueTypeMismatch {
                label,
                expected,
                value,
            });
        }
        if let Some(existing) = self
            .printable_index
            .get(&label)
            .and_then(|values| values.get(&value))
        {
            return Ok(*existing);
        }
        let id = self.graph.add_node(NodeData {
            label: label.clone(),
            print: Some(value.clone()),
        });
        self.label_index
            .get_or_insert_with(&label, PSet::new)
            .insert(id);
        self.printable_index
            .get_or_insert_with(&label, PMap::new)
            .insert(value, id);
        Ok(id)
    }

    /// Add the edge `(src, λ, dst)`, enforcing every invariant.
    ///
    /// Edge sets are *sets*: re-adding an existing edge returns the
    /// existing id. Violations of functionality or target-label
    /// consistency are errors — the paper's "the result is not defined".
    pub fn add_edge(
        &mut self,
        src: NodeId,
        label: impl Into<Label>,
        dst: NodeId,
    ) -> Result<EdgeId> {
        let label = label.into();
        let src_data = self
            .graph
            .node(src)
            .ok_or_else(|| GoodError::DanglingNode(format!("{src:?}")))?
            .clone();
        let dst_data = self
            .graph
            .node(dst)
            .ok_or_else(|| GoodError::DanglingNode(format!("{dst:?}")))?
            .clone();
        let kind = self
            .scheme
            .edge_kind(&label)
            .ok_or_else(|| GoodError::UnknownEdgeLabel(label.clone()))?;
        if !self.scheme.allows(&src_data.label, &label, &dst_data.label) {
            return Err(GoodError::EdgeNotInScheme {
                src: src_data.label,
                edge: label,
                dst: dst_data.label,
            });
        }
        // Set semantics: identical edge already present → reuse.
        if let Some(existing) = self.edge_between(src, &label, dst) {
            return Ok(existing);
        }
        // Invariants over existing λ-successors of src.
        for edge in self.graph.out_edges(src) {
            if edge.payload.label != label {
                continue;
            }
            if kind == EdgeKind::Functional {
                return Err(GoodError::FunctionalConflict {
                    edge: label,
                    src: format!("{}({src:?})", src_data.label),
                });
            }
            let existing_label = self.graph.node(edge.dst).expect("live").label.clone();
            if existing_label != dst_data.label {
                return Err(GoodError::TargetLabelConflict {
                    edge: label,
                    existing: existing_label,
                    new: dst_data.label,
                });
            }
        }
        let id = self.graph.add_edge(
            src,
            dst,
            EdgeData {
                label: label.clone(),
            },
        );
        self.adjacency
            .insert(src, &src_data.label, &label, dst, &dst_data.label);
        Ok(id)
    }

    /// Delete a node with all incident edges. Deleting a dead node is a
    /// no-op returning `false`.
    pub fn delete_node(&mut self, node: NodeId) -> bool {
        if !self.graph.contains_node(node) {
            return false;
        }
        // Capture the incident edge triples before the cascade removes
        // them: the index updates need the endpoint labels, which are
        // unreachable once the node is dead. Self-loops show up in both
        // edge lists, so the in-pass skips them.
        let mut incident: Vec<(NodeId, Label, Label, NodeId, Label)> = Vec::new();
        for edge in self.graph.out_edges(node) {
            let dst_label = self.graph.node(edge.dst).expect("live").label.clone();
            let src_label = self.graph.node(node).expect("live").label.clone();
            incident.push((
                node,
                src_label,
                edge.payload.label.clone(),
                edge.dst,
                dst_label,
            ));
        }
        for edge in self.graph.in_edges(node) {
            if edge.src == node {
                continue;
            }
            let src_label = self.graph.node(edge.src).expect("live").label.clone();
            let dst_label = self.graph.node(node).expect("live").label.clone();
            incident.push((
                edge.src,
                src_label,
                edge.payload.label.clone(),
                node,
                dst_label,
            ));
        }
        if !self.remove_node_untracked(node) {
            return false;
        }
        for (src, src_label, edge_label, dst, dst_label) in incident {
            self.unindex_edge(src, &src_label, &edge_label, dst, &dst_label);
        }
        true
    }

    /// Remove a node from the graph plus the label/printable indexes,
    /// leaving the adjacency index stale. Callers either unindex the
    /// captured incident edges afterwards (`delete_node`) or rebuild the
    /// whole index (the bulk path of `delete_nodes`).
    fn remove_node_untracked(&mut self, node: NodeId) -> bool {
        let Some(data) = self.graph.remove_node(node) else {
            return false;
        };
        if let Some(set) = self.label_index.get_mut(&data.label) {
            set.remove(&node);
            if set.is_empty() {
                self.label_index.remove(&data.label);
            }
        }
        if let Some(value) = &data.print {
            if let Some(values) = self.printable_index.get_mut(&data.label) {
                values.remove(value);
                if values.is_empty() {
                    self.printable_index.remove(&data.label);
                }
            }
        }
        true
    }

    /// Delete every node in `nodes` with all incident edges, returning
    /// how many were live. The batched entry point for the node-deletion
    /// operation: dead ids (already deleted earlier in the batch) are
    /// skipped silently. Batches that doom a sizable fraction of the
    /// graph skip per-edge unindexing and rebuild the adjacency index
    /// once — O(surviving edges) instead of O(doomed edges × degree).
    pub fn delete_nodes(&mut self, nodes: impl IntoIterator<Item = NodeId>) -> usize {
        let doomed: Vec<NodeId> = nodes.into_iter().collect();
        if doomed.len() >= BULK_REBUILD_MIN && doomed.len() * 8 >= self.graph.node_count() {
            LIVE_NODE_DEL_BULK.incr();
            let removed = doomed
                .into_iter()
                .filter(|node| self.remove_node_untracked(*node))
                .count();
            self.adjacency = AdjacencyIndex::build(&self.graph);
            removed
        } else {
            LIVE_NODE_DEL_INCREMENTAL.incr();
            doomed
                .into_iter()
                .filter(|node| self.delete_node(*node))
                .count()
        }
    }

    /// Delete an edge by id. Deleting a dead edge is a no-op returning
    /// `false`.
    pub fn delete_edge(&mut self, edge: EdgeId) -> bool {
        let Some(edge_ref) = self.graph.edge_ref(edge) else {
            return false;
        };
        let (src, dst) = (edge_ref.src, edge_ref.dst);
        let edge_label = edge_ref.payload.label.clone();
        let src_label = self.graph.node(src).expect("live").label.clone();
        let dst_label = self.graph.node(dst).expect("live").label.clone();
        if self.graph.remove_edge(edge).is_none() {
            return false;
        }
        self.unindex_edge(src, &src_label, &edge_label, dst, &dst_label);
        true
    }

    /// Unindex one removed edge, rechecking endpoint support against the
    /// (already mutated) graph.
    fn unindex_edge(
        &mut self,
        src: NodeId,
        src_label: &Label,
        edge_label: &Label,
        dst: NodeId,
        dst_label: &Label,
    ) {
        let src_has_out = self
            .graph
            .out_edges(src)
            .any(|e| &e.payload.label == edge_label);
        let dst_has_in = self
            .graph
            .in_edges(dst)
            .any(|e| &e.payload.label == edge_label);
        self.adjacency.remove(
            (src, src_label),
            edge_label,
            (dst, dst_label),
            src_has_out,
            dst_has_in,
        );
    }

    /// Delete the edge `(src, λ, dst)` if present.
    pub fn delete_edge_between(&mut self, src: NodeId, label: &Label, dst: NodeId) -> bool {
        match self.edge_between(src, label, dst) {
            Some(edge) => self.delete_edge(edge),
            None => false,
        }
    }

    /// Delete every edge triple in `triples`, returning how many were
    /// present. The batched entry point for the edge-deletion operation:
    /// triples are grouped by source so each source's out-edge list is
    /// scanned once, instead of once per doomed triple.
    pub fn delete_edges_between(
        &mut self,
        triples: impl IntoIterator<Item = (NodeId, Label, NodeId)>,
    ) -> usize {
        let mut by_src: BTreeMap<NodeId, Vec<(Label, NodeId)>> = BTreeMap::new();
        for (src, label, dst) in triples {
            by_src.entry(src).or_default().push((label, dst));
        }
        let mut doomed: Vec<EdgeId> = Vec::new();
        for (src, pairs) in &by_src {
            for edge in self.graph.out_edges(*src) {
                if pairs
                    .iter()
                    .any(|(label, dst)| edge.dst == *dst && &edge.payload.label == label)
                {
                    doomed.push(edge.id);
                }
            }
        }
        if doomed.len() >= BULK_REBUILD_MIN && doomed.len() * 2 >= self.graph.edge_count() {
            LIVE_EDGE_DEL_BULK.incr();
            let removed = doomed
                .into_iter()
                .filter(|edge| self.graph.remove_edge(*edge).is_some())
                .count();
            self.adjacency = AdjacencyIndex::build(&self.graph);
            removed
        } else {
            LIVE_EDGE_DEL_INCREMENTAL.incr();
            doomed
                .into_iter()
                .filter(|edge| self.delete_edge(*edge))
                .count()
        }
    }

    /// Restrict this instance to `scheme`: remove every node whose label
    /// is unknown to `scheme` and every edge whose triple is not in its
    /// `P` — "the largest subinstance of I that is an instance over S′"
    /// (footnote 4, the method-interface semantics).
    pub fn restrict_to_scheme(&mut self, scheme: &Scheme) {
        let doomed_nodes: Vec<NodeId> = self
            .graph
            .nodes()
            .filter(|n| !scheme.is_node_label(&n.payload.label))
            .map(|n| n.id)
            .collect();
        for node in doomed_nodes {
            self.delete_node(node);
        }
        let doomed_edges: Vec<EdgeId> = self
            .graph
            .edges()
            .filter(|e| {
                let src = &self.graph.node(e.src).expect("live").label;
                let dst = &self.graph.node(e.dst).expect("live").label;
                !scheme.allows(src, &e.payload.label, dst)
            })
            .map(|e| e.id)
            .collect();
        for edge in doomed_edges {
            self.delete_edge(edge);
        }
        self.scheme = scheme.clone();
    }

    // ---- validation -----------------------------------------------------

    /// Check every instance invariant from Section 2. The mutators make
    /// violations unrepresentable; this is the independent auditor used
    /// by tests and deserialization. Equivalent to
    /// [`Instance::validate_semantics`] followed by
    /// [`Instance::validate_indexes`].
    pub fn validate(&self) -> Result<()> {
        self.validate_semantics()?;
        self.validate_indexes()
    }

    /// The *semantic* half of [`Instance::validate`]: scheme
    /// consistency, node label/print invariants, printable uniqueness,
    /// and edge conformance — everything that can be wrong about the
    /// graph *content*. Runs in O(nodes + edges); does not touch the
    /// derived indexes, so it is safe on paths where the indexes were
    /// just built (deserialization, recovery).
    pub fn validate_semantics(&self) -> Result<()> {
        self.scheme.validate()?;
        for node in self.graph.nodes() {
            let data = node.payload;
            match self.scheme.node_kind(&data.label) {
                Some(NodeKind::Object) => {
                    if data.print.is_some() {
                        return Err(GoodError::InvariantViolation(format!(
                            "object node {} carries a print value",
                            data.label
                        )));
                    }
                }
                Some(NodeKind::Printable) => {
                    let Some(value) = &data.print else {
                        return Err(GoodError::InvariantViolation(format!(
                            "printable node {} lacks a print value",
                            data.label
                        )));
                    };
                    let expected = self.scheme.printable_type(&data.label).expect("printable");
                    if value.value_type() != expected {
                        return Err(GoodError::InvariantViolation(format!(
                            "printable node {} holds a {} value, expected {expected}",
                            data.label,
                            value.value_type()
                        )));
                    }
                }
                None => return Err(GoodError::UnknownNodeLabel(data.label.clone())),
            }
        }
        // Printable uniqueness.
        let mut seen: HashMap<(&Label, &Value), NodeId> = HashMap::new();
        for node in self.graph.nodes() {
            if let Some(value) = &node.payload.print {
                if let Some(previous) = seen.insert((&node.payload.label, value), node.id) {
                    return Err(GoodError::InvariantViolation(format!(
                        "printable nodes {previous:?} and {:?} share value {value}",
                        node.id
                    )));
                }
            }
        }
        // Edge conformance + per-(node, label) invariants.
        for node in self.graph.node_ids() {
            let mut by_label: HashMap<&Label, Vec<NodeId>> = HashMap::new();
            for edge in self.graph.out_edges(node) {
                by_label
                    .entry(&edge.payload.label)
                    .or_default()
                    .push(edge.dst);
            }
            let src_label = &self.graph.node(node).expect("live").label;
            for (label, targets) in by_label {
                let kind = self
                    .scheme
                    .edge_kind(label)
                    .ok_or_else(|| GoodError::UnknownEdgeLabel(label.clone()))?;
                if kind == EdgeKind::Functional && targets.len() > 1 {
                    return Err(GoodError::InvariantViolation(format!(
                        "functional edge {label} leaves {src_label} {} times",
                        targets.len()
                    )));
                }
                let mut distinct = BTreeSet::new();
                let mut seen_targets = BTreeSet::new();
                for target in &targets {
                    // Edge sets are sets: a parallel duplicate of the same
                    // triple would double-count in the adjacency postings.
                    if !seen_targets.insert(*target) {
                        return Err(GoodError::InvariantViolation(format!(
                            "duplicate parallel edge ({src_label}, {label}) to {target:?}"
                        )));
                    }
                    let dst_label = &self.graph.node(*target).expect("live").label;
                    distinct.insert(dst_label.clone());
                    if !self.scheme.allows(src_label, label, dst_label) {
                        return Err(GoodError::InvariantViolation(format!(
                            "edge ({src_label}, {label}, {dst_label}) not in P"
                        )));
                    }
                }
                if distinct.len() > 1 {
                    return Err(GoodError::InvariantViolation(format!(
                        "{label}-successors carry different labels: {distinct:?}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// The *index* half of [`Instance::validate`]: the incrementally
    /// maintained label, printable and adjacency indexes must each equal
    /// what a fresh rebuild from the graph produces (empty containers
    /// are pruned on removal precisely so the comparison is equality).
    /// This is the expensive audit; release hot paths reach it only
    /// through [`Instance::debug_assert_indexes`], which compiles it out.
    pub fn validate_indexes(&self) -> Result<()> {
        let (label_index, printable_index, adjacency) = build_indexes(&self.graph)?;
        for (name, in_sync) in [
            ("label", label_index == self.label_index),
            ("printable", printable_index == self.printable_index),
            ("adjacency", adjacency == self.adjacency),
        ] {
            if !in_sync {
                return Err(GoodError::InvariantViolation(format!(
                    "{name} index out of sync with graph"
                )));
            }
        }
        Ok(())
    }

    /// Debug-build audit that every index agrees with the graph; compiled
    /// out in release builds. The GOOD operations call this after each
    /// batched mutation pass.
    #[inline]
    pub fn debug_assert_indexes(&self) {
        #[cfg(debug_assertions)]
        self.validate().expect("instance indexes out of sync");
    }

    // ---- comparison & rendering -------------------------------------------

    /// Are two instances isomorphic (equal up to the choice of node
    /// identities)? Node keys are (label, print value); edge keys are
    /// labels.
    pub fn isomorphic_to(&self, other: &Instance) -> bool {
        good_graph::iso::isomorphic(
            &self.graph,
            &other.graph,
            |n| (n.label.clone(), n.print.clone()),
            |n| (n.label.clone(), n.print.clone()),
            |e| e.label.clone(),
            |e| e.label.clone(),
        )
    }

    /// Render as Graphviz DOT in the paper's conventions.
    pub fn to_dot(&self, title: &str) -> String {
        let scheme = &self.scheme;
        good_graph::dot::to_dot(
            &self.graph,
            title,
            |_, data| {
                let mut label = data.label.as_str().to_string();
                if let Some(value) = &data.print {
                    label.push('\n');
                    label.push_str(&value.to_string());
                }
                if scheme.is_printable_label(&data.label) {
                    DotNode::oval(label)
                } else {
                    DotNode::boxed(label)
                }
            },
            |data| DotEdge {
                label: data.label.as_str().into(),
                double_arrow: scheme.edge_kind(&data.label) == Some(EdgeKind::Multivalued),
                bold: false,
                dashed: false,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::SchemeBuilder;
    use crate::value::ValueType;

    fn scheme() -> Scheme {
        SchemeBuilder::new()
            .object("Info")
            .object("Version")
            .printable("String", ValueType::Str)
            .printable("Date", ValueType::Date)
            .functional("Info", "name", "String")
            .functional("Info", "created", "Date")
            .functional("Version", "old", "Info")
            .functional("Version", "new", "Info")
            .multivalued("Info", "links-to", "Info")
            .build()
    }

    #[test]
    fn add_nodes_and_edges() {
        let mut db = Instance::new(scheme());
        let info = db.add_object("Info").unwrap();
        let name = db.add_printable("String", "Rock").unwrap();
        db.add_edge(info, "name", name).unwrap();
        assert_eq!(db.node_count(), 2);
        assert_eq!(db.edge_count(), 1);
        assert_eq!(db.functional_target(info, &"name".into()), Some(name));
        db.validate().unwrap();
    }

    #[test]
    fn printable_nodes_are_deduplicated() {
        let mut db = Instance::new(scheme());
        let a = db.add_printable("Date", Value::date(1990, 1, 12)).unwrap();
        let b = db.add_printable("Date", Value::date(1990, 1, 12)).unwrap();
        assert_eq!(a, b);
        assert_eq!(db.node_count(), 1);
        let c = db.add_printable("Date", Value::date(1990, 1, 14)).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn printable_value_type_checked() {
        let mut db = Instance::new(scheme());
        assert!(matches!(
            db.add_printable("Date", "not a date"),
            Err(GoodError::ValueTypeMismatch { .. })
        ));
    }

    #[test]
    fn object_vs_printable_confusion_rejected() {
        let mut db = Instance::new(scheme());
        assert!(matches!(
            db.add_object("String"),
            Err(GoodError::PrintMismatch { .. })
        ));
        assert!(matches!(
            db.add_printable("Info", "x"),
            Err(GoodError::PrintMismatch { .. })
        ));
        assert!(matches!(
            db.add_object("Nope"),
            Err(GoodError::UnknownNodeLabel(_))
        ));
    }

    #[test]
    fn edges_must_conform_to_scheme() {
        let mut db = Instance::new(scheme());
        let version = db.add_object("Version").unwrap();
        let name = db.add_printable("String", "x").unwrap();
        assert!(matches!(
            db.add_edge(version, "name", name),
            Err(GoodError::EdgeNotInScheme { .. })
        ));
        let info = db.add_object("Info").unwrap();
        assert!(matches!(
            db.add_edge(info, "unknown", name),
            Err(GoodError::UnknownEdgeLabel(_))
        ));
    }

    #[test]
    fn functional_edges_are_single_valued() {
        let mut db = Instance::new(scheme());
        let info = db.add_object("Info").unwrap();
        let a = db.add_printable("String", "a").unwrap();
        let b = db.add_printable("String", "b").unwrap();
        db.add_edge(info, "name", a).unwrap();
        assert!(matches!(
            db.add_edge(info, "name", b),
            Err(GoodError::FunctionalConflict { .. })
        ));
        // Idempotent re-add of the same edge succeeds.
        db.add_edge(info, "name", a).unwrap();
        assert_eq!(db.edge_count(), 1);
    }

    #[test]
    fn multivalued_edges_are_sets() {
        let mut db = Instance::new(scheme());
        let a = db.add_object("Info").unwrap();
        let b = db.add_object("Info").unwrap();
        let e1 = db.add_edge(a, "links-to", b).unwrap();
        let e2 = db.add_edge(a, "links-to", b).unwrap();
        assert_eq!(e1, e2);
        assert_eq!(db.edge_count(), 1);
        let c = db.add_object("Info").unwrap();
        db.add_edge(a, "links-to", c).unwrap();
        assert_eq!(db.targets(a, &"links-to".into()).count(), 2);
    }

    #[test]
    fn target_label_consistency_enforced() {
        // A scheme where comment may point at String or Number —
        // per-node, the successors must still agree on one label.
        let s = SchemeBuilder::new()
            .object("Info")
            .printable("String", ValueType::Str)
            .printable("Number", ValueType::Int)
            .multivalued("Info", "comment", "String")
            .multivalued("Info", "comment", "Number")
            .build();
        let mut db = Instance::new(s);
        let info = db.add_object("Info").unwrap();
        let text = db.add_printable("String", "hello").unwrap();
        let num = db.add_printable("Number", 5i64).unwrap();
        db.add_edge(info, "comment", text).unwrap();
        assert!(matches!(
            db.add_edge(info, "comment", num),
            Err(GoodError::TargetLabelConflict { .. })
        ));
        // A different Info node may use the other label.
        let info2 = db.add_object("Info").unwrap();
        db.add_edge(info2, "comment", num).unwrap();
        db.validate().unwrap();
    }

    #[test]
    fn delete_node_cleans_indexes() {
        let mut db = Instance::new(scheme());
        let info = db.add_object("Info").unwrap();
        let name = db.add_printable("String", "Rock").unwrap();
        db.add_edge(info, "name", name).unwrap();
        assert!(db.delete_node(name));
        assert_eq!(db.edge_count(), 0);
        assert_eq!(
            db.find_printable(&"String".into(), &Value::str("Rock")),
            None
        );
        assert_eq!(db.label_count(&"String".into()), 0);
        // Deleting again is a no-op.
        assert!(!db.delete_node(name));
        db.validate().unwrap();
        // The value can be re-added afterwards.
        db.add_printable("String", "Rock").unwrap();
    }

    #[test]
    fn delete_edge_between() {
        let mut db = Instance::new(scheme());
        let a = db.add_object("Info").unwrap();
        let b = db.add_object("Info").unwrap();
        db.add_edge(a, "links-to", b).unwrap();
        assert!(db.delete_edge_between(a, &"links-to".into(), b));
        assert!(!db.delete_edge_between(a, &"links-to".into(), b));
        assert_eq!(db.edge_count(), 0);
    }

    #[test]
    fn incomplete_information_is_fine() {
        // "There could even be info nodes without any outgoing edges."
        let mut db = Instance::new(scheme());
        db.add_object("Info").unwrap();
        db.validate().unwrap();
    }

    #[test]
    fn restrict_to_scheme_drops_foreign_parts() {
        let mut db = Instance::new(scheme());
        let info = db.add_object("Info").unwrap();
        let name = db.add_printable("String", "x").unwrap();
        db.add_edge(info, "name", name).unwrap();
        // Extend the scheme with a temporary class and tag the node.
        db.scheme_mut().add_object_label("Temp").unwrap();
        db.scheme_mut().add_functional("Temp", "t", "Info").unwrap();
        let temp = db.add_object("Temp").unwrap();
        db.add_edge(temp, "t", info).unwrap();
        let original = scheme();
        db.restrict_to_scheme(&original);
        assert_eq!(db.label_count(&"Temp".into()), 0);
        assert_eq!(db.node_count(), 2);
        assert_eq!(db.edge_count(), 1);
        assert_eq!(db.scheme(), &original);
        db.validate().unwrap();
    }

    #[test]
    fn isomorphism_up_to_node_identity() {
        let build = |names: [&str; 2]| {
            let mut db = Instance::new(scheme());
            let a = db.add_object("Info").unwrap();
            let b = db.add_object("Info").unwrap();
            let na = db.add_printable("String", names[0]).unwrap();
            let nb = db.add_printable("String", names[1]).unwrap();
            db.add_edge(a, "name", na).unwrap();
            db.add_edge(b, "name", nb).unwrap();
            db.add_edge(a, "links-to", b).unwrap();
            db
        };
        let x = build(["Rock", "Jazz"]);
        let y = build(["Rock", "Jazz"]);
        let z = build(["Rock", "Blues"]);
        assert!(x.isomorphic_to(&y));
        assert!(!x.isomorphic_to(&z));
    }

    #[test]
    fn adjacency_index_answers_queries() {
        let mut db = Instance::new(scheme());
        let a = db.add_object("Info").unwrap();
        let b = db.add_object("Info").unwrap();
        let c = db.add_object("Info").unwrap();
        db.add_edge(a, "links-to", c).unwrap();
        db.add_edge(b, "links-to", c).unwrap();
        db.add_edge(a, "links-to", b).unwrap();
        let info: Label = "Info".into();
        let links: Label = "links-to".into();
        let (out, inn) = (
            db.outgoing(&info, &links).unwrap(),
            db.incoming(&info, &links).unwrap(),
        );
        let sorted = |set: &PSet<NodeId>| set.iter().copied().collect::<Vec<_>>();
        // Sources of c via links-to: {a, b}; targets of a: {b, c}.
        assert_eq!(sorted(out.postings.get(&c).unwrap()), vec![a, b]);
        assert_eq!(sorted(inn.postings.get(&a).unwrap()), vec![b, c]);
        // Supports and edge counts.
        assert_eq!(sorted(&out.support), vec![a, b]);
        assert_eq!(sorted(&inn.support), vec![b, c]);
        assert_eq!((out.edges, inn.edges), (3, 3));
        assert!(db.has_edge(a, &links, c));
        assert!(!db.has_edge(c, &links, a));
        db.validate().unwrap();
    }

    #[test]
    fn adjacency_index_tracks_deletions() {
        let mut db = Instance::new(scheme());
        let a = db.add_object("Info").unwrap();
        let b = db.add_object("Info").unwrap();
        let c = db.add_object("Info").unwrap();
        db.add_edge(a, "links-to", b).unwrap();
        db.add_edge(a, "links-to", c).unwrap();
        let info: Label = "Info".into();
        let links: Label = "links-to".into();
        db.delete_edge_between(a, &links, b);
        // a still supports out (edge to c survives); b lost in-support.
        let out = db.outgoing(&info, &links).unwrap();
        assert!(out.support.contains(&a));
        assert!(out.postings.get(&b).is_none());
        assert_eq!(out.edges, 1);
        db.validate().unwrap();
        // Node deletion cascades out of the index too.
        db.delete_node(c);
        assert!(db.outgoing(&info, &links).is_none());
        assert!(db.incoming(&info, &links).is_none());
        db.validate().unwrap();
    }

    #[test]
    fn the_audit_catches_a_node_missing_from_any_index() {
        let mut db = Instance::new(scheme());
        let (info, other) = (
            db.add_object("Info").unwrap(),
            db.add_object("Info").unwrap(),
        );
        let name = db.add_printable("String", "Rock").unwrap();
        db.add_edge(info, "name", name).unwrap();
        db.add_edge(other, "links-to", info).unwrap();
        db.validate().unwrap();
        let (class, links) = (Label::new("Info"), Label::new("links-to"));
        let mut dropped_label = db.clone();
        dropped_label
            .label_index
            .get_mut(&class)
            .unwrap()
            .remove(&info);
        let mut dropped_printable = db.clone();
        (dropped_printable
            .printable_index
            .get_mut(&Label::new("String")))
        .unwrap()
        .remove(&Value::str("Rock"));
        let mut dropped_adjacency = db.clone();
        (dropped_adjacency.adjacency.outgoing.get_mut(&class))
            .and_then(|by_edge| by_edge.get_mut(&links))
            .unwrap()
            .support
            .remove(&other);
        for broken in [dropped_label, dropped_printable, dropped_adjacency] {
            assert!(broken.validate().is_err());
        }
    }

    #[test]
    fn adjacency_index_survives_self_loop_deletion() {
        let mut db = Instance::new(scheme());
        let a = db.add_object("Info").unwrap();
        let b = db.add_object("Info").unwrap();
        db.add_edge(a, "links-to", a).unwrap();
        db.add_edge(a, "links-to", b).unwrap();
        db.validate().unwrap();
        db.delete_node(a);
        db.validate().unwrap();
        let info: Label = "Info".into();
        let links: Label = "links-to".into();
        assert!(db.outgoing(&info, &links).is_none());
    }

    #[test]
    fn batched_deletion_helpers() {
        let mut db = Instance::new(scheme());
        let a = db.add_object("Info").unwrap();
        let b = db.add_object("Info").unwrap();
        let c = db.add_object("Info").unwrap();
        let links: Label = "links-to".into();
        db.add_edge(a, "links-to", b).unwrap();
        db.add_edge(a, "links-to", c).unwrap();
        db.add_edge(b, "links-to", c).unwrap();
        let removed = db.delete_edges_between(vec![
            (a, links.clone(), b),
            (a, links.clone(), c),
            (a, links.clone(), b), // duplicate: counted once
        ]);
        assert_eq!(removed, 2);
        assert_eq!(db.edge_count(), 1);
        db.validate().unwrap();
        let gone = db.delete_nodes(vec![a, b, b]);
        assert_eq!(gone, 2);
        assert_eq!(db.node_count(), 1);
        db.validate().unwrap();
    }

    #[test]
    fn serde_roundtrip_rebuilds_indexes() {
        let mut db = Instance::new(scheme());
        let info = db.add_object("Info").unwrap();
        let name = db.add_printable("String", "Rock").unwrap();
        db.add_edge(info, "name", name).unwrap();
        let json = serde_json::to_string(&db).unwrap();
        let back: Instance = serde_json::from_str(&json).unwrap();
        back.validate().unwrap();
        assert!(back.isomorphic_to(&db));
        assert!(back
            .find_printable(&"String".into(), &Value::str("Rock"))
            .is_some());
    }

    #[test]
    fn dot_contains_print_values() {
        let mut db = Instance::new(scheme());
        let info = db.add_object("Info").unwrap();
        let name = db.add_printable("String", "Rock").unwrap();
        db.add_edge(info, "name", name).unwrap();
        let dot = db.to_dot("instance");
        assert!(dot.contains("String\\nRock"));
        assert!(dot.contains("shape=box"));
    }
}
