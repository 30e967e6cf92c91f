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
//! [`Instance`] enforces all of this *at mutation time* and owns its
//! scheme, because the GOOD operations evolve scheme and instance
//! together. It stores the two sets and nothing else: `N` is an arena of
//! [`NodeData`], `E` a set of triples `(src, λ, dst)` whose one store is
//! the adjacency index — no edge ids, no per-node edge lists. Label and
//! printable indexes serve the matcher; [`Instance::to_graph`] builds a
//! `good_graph` view with the same node ids for isomorphism and DOT.

use crate::error::{GoodError, Result};
use crate::label::{EdgeKind, Label, NodeKind};
use crate::persist::{PMap, PSet, SharedMap};
use crate::scheme::Scheme;
use crate::value::Value;
use good_graph::{Arena, NodeId};
use good_trace::LiveCounter;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

mod view;

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

/// An edge `(src, λ, dst)`.
pub type Edge = (NodeId, Label, NodeId);

/// Per-key postings of the adjacency index: anchor node → sorted
/// neighbour set.
pub type Postings = PMap<NodeId, PSet<NodeId>>;

/// Batched deletions at least this large (and dooming a sizable
/// fraction) rebuild the adjacency index instead of unfiling each edge.
const BULK_REBUILD_MIN: usize = 64;

/// The `λ` edges at the nodes of one class, seen from one side: the
/// adjacency index's entry under a `(λ, class)` key, which the matcher
/// reads (like a derived relation's runs) through `crate::matching::Side`.
/// On the outgoing side the class is the sources', and `postings` maps
/// each target to its class-labelled `λ`-sources; on the incoming side
/// the class is the targets', and `postings` maps each source to its
/// class-labelled `λ`-targets. All sets are sorted for determinism.
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
        let sets: usize = self.postings.values().map(PSet::approx_bytes).sum();
        self.postings.approx_bytes() + sets + self.support.approx_bytes()
    }
}

/// One side of the adjacency index: edge label → class → entry.
type Sides = SharedMap<Label, SharedMap<Label, Adjacency>>;
/// A set a node anchors on one side, with its class or edge label.
type Anchored<'a> = (&'a Label, &'a PSet<NodeId>);

/// The adjacency index, the instance's edge store: edge `(s, λ, t)` is
/// filed as `s` under `(λ, λ(s))` in `outgoing` and as `t` under
/// `(λ, λ(t))` in `incoming`. The matcher seeds candidates from these
/// entries, the planner reads its figures off them, and a node's `λ`
/// edges are the postings it anchors under `λ`. Nested maps let reads
/// probe with two borrowed `&Label`s; every level is persistent, so a
/// clone is a few `Arc` bumps and filing an edge path-copies O(log n)
/// nodes per side — what makes publishes O(delta) (`crate::snapshot`).
#[derive(Debug, Clone, Default, PartialEq)]
struct AdjacencyIndex {
    outgoing: Sides,
    incoming: Sides,
}

/// The sets `node` anchors under `edge` on one side, with their class.
fn sets_at<'a>(sides: &'a Sides, edge: &Label, node: NodeId) -> impl Iterator<Item = Anchored<'a>> {
    (sides.get(edge).into_iter())
        .flat_map(|by_class| by_class.iter())
        .filter_map(move |(class, side)| side.postings.get(&node).map(|set| (class, set)))
}

/// The sets `node` anchors on one side, with their edge label.
fn all_sets_at(sides: &Sides, node: NodeId) -> impl Iterator<Item = Anchored<'_>> {
    (sides.iter()).flat_map(move |(edge, by_class)| {
        (by_class.values()).filter_map(move |side| side.postings.get(&node).map(|set| (edge, set)))
    })
}

/// File `id` in the label and (if printable) printable indexes.
fn index_node(
    labels: &mut SharedMap<Label, PSet<NodeId>>,
    values: &mut SharedMap<Label, PMap<Value, NodeId>>,
    id: NodeId,
    data: &NodeData,
) {
    labels.get_or_insert_with(&data.label, PSet::new).insert(id);
    if let Some(value) = &data.print {
        (values.get_or_insert_with(&data.label, PMap::new)).insert(value.clone(), id);
    }
}

/// The class of a live node.
fn class_of(nodes: &Arena<NodeData>, node: NodeId) -> Option<&Label> {
    nodes.get(node.0).map(|data| &data.label)
}

fn dangling(node: NodeId) -> GoodError {
    GoodError::DanglingNode(format!("{node:?}"))
}

impl AdjacencyIndex {
    /// File the edge `(src, λ, dst)` on both its sides; `false` if it
    /// was there already.
    fn insert(&mut self, src: (NodeId, &Label), edge: &Label, dst: (NodeId, &Label)) -> bool {
        for (sides, (node, class), anchor) in [
            (&mut self.outgoing, src, dst.0),
            (&mut self.incoming, dst, src.0),
        ] {
            let entry = (sides.get_or_insert_with(edge, SharedMap::new))
                .get_or_insert_with(class, Adjacency::default);
            if !entry
                .postings
                .get_or_insert_with(&anchor, PSet::new)
                .insert(node)
            {
                return false;
            }
            // Inserting a present key still path-copies: probe first.
            if !entry.support.contains(&node) {
                entry.support.insert(node);
            }
            entry.edges += 1;
        }
        true
    }

    /// Unfile the edge `(src, λ, dst)`; `false` if it was not there.
    /// Empty containers are pruned, so the index stays equal to a fresh
    /// build from its triples.
    fn remove(&mut self, src: (NodeId, &Label), edge: &Label, dst: (NodeId, &Label)) -> bool {
        let targets = (self.incoming.get(edge))
            .and_then(|by_class| by_class.get(dst.1)?.postings.get(&src.0));
        if !targets.is_some_and(|set| set.contains(&dst.0)) {
            return false;
        }
        // An endpoint stays in a side's support while another λ-edge
        // holds it there: a neighbour in some class besides this one.
        let keeps = |sides: &Sides, (node, _): (NodeId, &Label), (_, other): (NodeId, &Label)| {
            (sets_at(sides, edge, node)).any(|(class, set)| set.len() > usize::from(class == other))
        };
        let (src_keeps, dst_keeps) = (
            keeps(&self.incoming, src, dst),
            keeps(&self.outgoing, dst, src),
        );
        for (sides, (node, class), anchor, keep) in [
            (&mut self.outgoing, src, dst.0, src_keeps),
            (&mut self.incoming, dst, src.0, dst_keeps),
        ] {
            let by_class = sides.get_mut(edge).expect("the edge was found filed");
            if by_class
                .get_mut(class)
                .expect("both sides file every edge")
                .remove(anchor, node, keep)
            {
                by_class.remove(class);
            }
            if by_class.is_empty() {
                sides.remove(edge);
            }
        }
        true
    }

    /// The index of `triples` over `nodes`, built from scratch (load,
    /// bulk deletes, the audit). Fails on a dead endpoint or a repeat.
    fn build<'a>(
        nodes: &Arena<NodeData>,
        triples: impl IntoIterator<Item = (NodeId, &'a Label, NodeId)>,
    ) -> Result<Self> {
        let mut index = AdjacencyIndex::default();
        for (src, edge, dst) in triples {
            let src_label = class_of(nodes, src).ok_or_else(|| dangling(src))?;
            let dst_label = class_of(nodes, dst).ok_or_else(|| dangling(dst))?;
            if !index.insert((src, src_label), edge, (dst, dst_label)) {
                let repeat = format!("edge ({src:?}, {edge}, {dst:?}) listed twice");
                return Err(GoodError::InvariantViolation(repeat));
            }
        }
        Ok(index)
    }

    /// Every edge, read off the outgoing side, in no particular order.
    fn triples(&self) -> impl Iterator<Item = (NodeId, &Label, NodeId)> {
        (self.outgoing.iter()).flat_map(|(edge, by_class)| {
            (by_class.values())
                .flat_map(|side| side.postings.iter())
                .flat_map(move |(&dst, sources)| sources.iter().map(move |&src| (src, edge, dst)))
        })
    }
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
///
/// Serialized as `{scheme, nodes, triples}`: the node arena slot by
/// slot (ids and generations survive), then every edge in
/// [`Instance::edges`] order. The indexes are rebuilt on load.
#[derive(Debug, Clone, Default)]
pub struct Instance {
    scheme: Scheme,
    nodes: Arena<NodeData>,
    /// label → live nodes with that label (sorted for determinism).
    label_index: SharedMap<Label, PSet<NodeId>>,
    /// printable label → value → the unique node carrying it, probed
    /// with two borrows rather than a cloned `(Label, Value)` key.
    printable_index: SharedMap<Label, PMap<Value, NodeId>>,
    /// The edges, filed under (edge label, node label).
    adjacency: AdjacencyIndex,
}

impl Serialize for Instance {
    fn serialize(&self, out: &mut serde::Serializer) -> std::result::Result<(), serde::Error> {
        out.begin_map()?;
        out.field("scheme", &self.scheme)?;
        out.field("nodes", &self.nodes)?;
        out.name("triples")?;
        out.collect_seq(self.edges())?;
        out.end_map()
    }
}

/// Reads `{scheme, nodes, triples}`, and, one way, the `{scheme, graph}`
/// document of the edge-arena store, so journals written before recover.
impl Deserialize for Instance {
    fn deserialize(de: &mut serde::Deserializer<'_>) -> std::result::Result<Self, serde::Error> {
        let (mut scheme, mut nodes, mut triples) = (None, None, None);
        de.begin_map("Instance")?;
        while let Some(key) = de.next_key()? {
            match &*key {
                "scheme" => scheme = Some(de.value()?),
                "nodes" => nodes = Some(de.value()?),
                "triples" => triples = Some(de.value()?),
                "graph" => {
                    let graph: EdgeArenaGraph<NodeData, EdgeLabel> = de.value()?;
                    let triple =
                        |(_, e): (_, &EdgeSlot<EdgeLabel>)| (e.src, e.payload.label.clone(), e.dst);
                    nodes = Some(graph.nodes.map(|slot| slot.payload.clone()));
                    triples = Some(graph.edges.iter().map(triple).collect());
                }
                _ => de.skip_value()?,
            }
        }
        let scheme = serde::field(scheme, "scheme", "Instance")?;
        let nodes = serde::field(nodes, "nodes", "Instance")?;
        let triples: Vec<Edge> = serde::field(triples, "triples", "Instance")?;
        let triples = triples.iter().map(|(src, edge, dst)| (*src, edge, *dst));
        let load = || {
            let instance = Instance::from_parts(scheme, nodes, triples)?;
            // The bytes are untrusted, so the content is audited on every
            // load; the indexes were just built from it, so comparing them
            // with a rebuild is debug-only.
            instance.validate_semantics()?;
            #[cfg(debug_assertions)]
            instance.validate_indexes()?;
            Ok::<_, GoodError>(instance)
        };
        load().map_err(serde::Error::custom)
    }
}

/// A `good_graph::Graph` as its derived serde wrote it, as instances and
/// patterns once were: node slots also carry incidence lists, skipped.
#[derive(Deserialize)]
pub(crate) struct EdgeArenaGraph<N, E> {
    pub nodes: Arena<Payload<N>>,
    pub edges: Arena<EdgeSlot<E>>,
}

#[derive(Deserialize)]
pub(crate) struct Payload<T> {
    pub payload: T,
}

#[derive(Deserialize)]
pub(crate) struct EdgeSlot<E> {
    pub payload: E,
    pub src: NodeId,
    pub dst: NodeId,
}

#[derive(Deserialize)]
struct EdgeLabel {
    label: Label,
}

impl Instance {
    /// An empty instance over `scheme`.
    pub fn new(scheme: Scheme) -> Self {
        Instance {
            scheme,
            ..Instance::default()
        }
    }

    /// An instance of `nodes` and `triples` with every index built from
    /// scratch: the load path (E13) and the audit's reference. Fails on
    /// a dead endpoint or a repeated triple; whether the content obeys
    /// the scheme is [`Instance::validate_semantics`]'s to judge.
    fn from_parts<'a>(
        scheme: Scheme,
        nodes: Arena<NodeData>,
        triples: impl IntoIterator<Item = (NodeId, &'a Label, NodeId)>,
    ) -> Result<Self> {
        let mut instance = Instance::new(scheme);
        for (id, data) in nodes.iter() {
            let (labels, values) = (&mut instance.label_index, &mut instance.printable_index);
            index_node(labels, values, NodeId(id), data);
        }
        instance.adjacency = AdjacencyIndex::build(&nodes, triples)?;
        instance.nodes = nodes;
        Ok(instance)
    }

    /// Rough heap footprint of the node arena and all indexes in bytes,
    /// counting every persistent node once (shared nodes are *not*
    /// deduplicated, so this is the retained size of an unshared copy).
    pub fn approx_bytes(&self) -> usize {
        let (labels, values) = (&self.label_index, &self.printable_index);
        let sides = || [&self.adjacency.outgoing, &self.adjacency.incoming].into_iter();
        let by_class = || sides().flat_map(|sides| sides.values());
        let entries = by_class().flat_map(|by_class| by_class.values());
        let parts = [
            self.nodes.approx_bytes(),
            labels.approx_bytes(),
            labels.values().map(PSet::approx_bytes).sum(),
            values.approx_bytes(),
            values.values().map(PMap::approx_bytes).sum(),
            sides().map(SharedMap::approx_bytes).sum(),
            by_class().map(SharedMap::approx_bytes).sum(),
            entries.map(Adjacency::approx_bytes).sum(),
        ];
        parts.into_iter().sum()
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

    /// Register a derived multivalued triple `(src, edge, dst)` on the
    /// scheme — an edge addition's "minimal scheme extension", for engines
    /// that materialize derived edges outside the operation layer. It
    /// never invalidates existing data.
    pub fn extend_multivalued(
        &mut self,
        src: impl Into<Label>,
        edge: impl Into<Label>,
        dst: impl Into<Label>,
    ) -> Result<()> {
        self.scheme.add_multivalued(src, edge, dst)
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        let entries = (self.adjacency.outgoing.values()).flat_map(SharedMap::values);
        entries.map(|side| side.edges).sum()
    }

    /// True if `node` is live.
    pub fn contains_node(&self, node: NodeId) -> bool {
        self.nodes.contains(node.0)
    }

    /// The label of a live node.
    pub fn node_label(&self, node: NodeId) -> Option<&Label> {
        class_of(&self.nodes, node)
    }

    /// The print value of a live printable node.
    pub fn print_value(&self, node: NodeId) -> Option<&Value> {
        self.nodes.get(node.0)?.print.as_ref()
    }

    /// Every live node with its payload, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &NodeData)> {
        self.nodes.iter().map(|(id, data)| (NodeId(id), data))
    }

    /// Every edge `(src, λ, dst)`, sorted: the order depends neither on
    /// how the instance was built nor on hash iteration.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, &Label, NodeId)> {
        let mut triples: Vec<_> = self.adjacency.triples().collect();
        triples.sort_unstable();
        triples.into_iter()
    }

    /// Every edge at `node`, either way round (a self-loop once), sorted.
    pub fn incident_edges(&self, node: NodeId) -> Vec<Edge> {
        let out = (all_sets_at(&self.adjacency.incoming, node))
            .flat_map(|(edge, targets)| targets.iter().map(|&dst| (node, edge.clone(), dst)));
        let into = (all_sets_at(&self.adjacency.outgoing, node)).flat_map(|(edge, sources)| {
            let sources = sources.iter().filter(move |&&src| src != node);
            sources.map(move |&src| (src, edge.clone(), node))
        });
        let mut edges: Vec<Edge> = out.chain(into).collect();
        edges.sort_unstable();
        edges
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
        self.printable_index.get(label)?.get(value).copied()
    }

    /// The target of the (at most one) functional `λ`-edge leaving
    /// `node`.
    pub fn functional_target(&self, node: NodeId, label: &Label) -> Option<NodeId> {
        self.targets(node, label).next()
    }

    /// All `λ`-successors of `node`, in id order: they share one class
    /// (invariant 1), so they are one postings set.
    pub fn targets<'a>(&'a self, node: NodeId, label: &Label) -> impl Iterator<Item = NodeId> + 'a {
        sets_at(&self.adjacency.incoming, label, node).flat_map(|(_, set)| set.iter().copied())
    }

    /// All `λ`-predecessors of `node`, in id order: one postings set per
    /// source class, read in place when there is one, else merged.
    pub fn sources(&self, node: NodeId, label: &Label) -> impl Iterator<Item = NodeId> + '_ {
        let mut sets = sets_at(&self.adjacency.outgoing, label, node).map(|(_, set)| set);
        let first = sets.next();
        let mut merged: Vec<NodeId> = sets.flat_map(|set| set.iter().copied()).collect();
        if !merged.is_empty() {
            merged.extend(first.into_iter().flat_map(|set| set.iter().copied()));
            merged.sort_unstable();
        }
        let single = first.filter(|_| merged.is_empty());
        single
            .into_iter()
            .flat_map(|set| set.iter().copied())
            .chain(merged)
    }

    /// Out-degree of `node` over all edge labels (0 if absent).
    pub fn out_degree(&self, node: NodeId) -> usize {
        let sets = all_sets_at(&self.adjacency.incoming, node);
        sets.map(|(_, set)| set.len()).sum()
    }

    /// In-degree of `node` over all edge labels (0 if absent).
    pub fn in_degree(&self, node: NodeId) -> usize {
        let sets = all_sets_at(&self.adjacency.outgoing, node);
        sets.map(|(_, set)| set.len()).sum()
    }

    /// The `λ`-successor set of `node` as a sorted set — the paper's
    /// `{r : (m, β, r) ∈ E}`, which abstraction groups by.
    pub fn target_set(&self, node: NodeId, label: &Label) -> BTreeSet<NodeId> {
        self.targets(node, label).collect()
    }

    /// True if the edge `(src, λ, dst)` is present: one probe of
    /// `src`'s class's outgoing entry.
    pub fn has_edge(&self, src: NodeId, label: &Label, dst: NodeId) -> bool {
        (self.node_label(src))
            .and_then(|class| self.outgoing(class, label)?.postings.get(&dst))
            .is_some_and(|set| set.contains(&src))
    }

    /// The `λ` edges leaving `class` nodes: target → its sorted
    /// `class`-labelled sources, the sources with any, and their count.
    /// `None` means no such edge exists.
    pub fn outgoing(&self, class: &Label, edge: &Label) -> Option<&Adjacency> {
        self.adjacency.outgoing.get(edge)?.get(class)
    }

    /// The `λ` edges entering `class` nodes: source → its sorted
    /// `class`-labelled targets, the targets with any, and their count.
    pub fn incoming(&self, class: &Label, edge: &Label) -> Option<&Adjacency> {
        self.adjacency.incoming.get(edge)?.get(class)
    }

    // ---- mutation -----------------------------------------------------------

    /// Add an object node of class `label`.
    pub fn add_object(&mut self, label: impl Into<Label>) -> Result<NodeId> {
        let label = label.into();
        self.check_node(&label, None)?;
        Ok(self.insert_node(NodeData { label, print: None }))
    }

    /// Add (or retrieve) the printable node of class `label` holding
    /// `value`. Printable nodes are deduplicated, as required by the
    /// instance definition.
    pub fn add_printable(
        &mut self,
        label: impl Into<Label>,
        value: impl Into<Value>,
    ) -> Result<NodeId> {
        let (label, value) = (label.into(), value.into());
        self.check_node(&label, Some(&value))?;
        if let Some(existing) = self.find_printable(&label, &value) {
            return Ok(existing);
        }
        let print = Some(value);
        Ok(self.insert_node(NodeData { label, print }))
    }

    /// Refuse a node the scheme does not admit: an unknown label, a
    /// print value on an object or none on a printable, a value of the
    /// wrong type.
    fn check_node(&self, label: &Label, print: Option<&Value>) -> Result<()> {
        let Some(kind) = self.scheme.node_kind(label) else {
            return Err(GoodError::UnknownNodeLabel(label.clone()));
        };
        let expected =
            |value: &Value| self.scheme.printable_type(label) == Some(value.value_type());
        match print {
            _ if print.is_some() != (kind == NodeKind::Printable) => {
                let label = label.clone();
                Err(GoodError::PrintMismatch { label, kind })
            }
            Some(value) if !expected(value) => Err(GoodError::ValueTypeMismatch {
                label: label.clone(),
                expected: self.scheme.printable_type(label).expect("printable"),
                value: value.clone(),
            }),
            _ => Ok(()),
        }
    }

    /// Allocate a node and file it in the label and printable indexes.
    fn insert_node(&mut self, data: NodeData) -> NodeId {
        let id = NodeId(self.nodes.insert(data));
        let data = self.nodes.get(id.0).expect("just inserted");
        index_node(&mut self.label_index, &mut self.printable_index, id, data);
        id
    }

    /// Add the edge `(src, λ, dst)`, enforcing every invariant; `false`
    /// if it was already there (edge sets are *sets*). Violations of
    /// functionality or target-label consistency are errors — the
    /// paper's "the result is not defined".
    pub fn add_edge(&mut self, src: NodeId, label: impl Into<Label>, dst: NodeId) -> Result<bool> {
        let label = label.into();
        if self.check_edge(src, &label, dst)? {
            return Ok(false);
        }
        let src_label = class_of(&self.nodes, src).expect("check_edge saw it live");
        let dst_label = class_of(&self.nodes, dst).expect("check_edge saw it live");
        Ok((self.adjacency).insert((src, src_label), &label, (dst, dst_label)))
    }

    /// The one statement of the edge invariants, which `add_edge` asks
    /// before filing an edge and the audit asks of every filed one:
    /// refuse `(src, λ, dst)` beside `src`'s other `λ`-edges unless
    /// both endpoints live, `P` holds the triple and invariants 1–2
    /// hold. `true` if the edge is already there.
    fn check_edge(&self, src: NodeId, label: &Label, dst: NodeId) -> Result<bool> {
        let src_label = class_of(&self.nodes, src).ok_or_else(|| dangling(src))?;
        let dst_label = class_of(&self.nodes, dst).ok_or_else(|| dangling(dst))?;
        let kind = (self.scheme.edge_kind(label))
            .ok_or_else(|| GoodError::UnknownEdgeLabel(label.clone()))?;
        if !self.scheme.allows(src_label, label, dst_label) {
            let (src, edge, dst) = (src_label.clone(), label.clone(), dst_label.clone());
            return Err(GoodError::EdgeNotInScheme { src, edge, dst });
        }
        // `src`'s λ-targets: one of λ's classes holds them all.
        let mut present = false;
        for (class, targets) in sets_at(&self.adjacency.incoming, label, src) {
            let here = class == dst_label && targets.contains(&dst);
            present |= here;
            if kind == EdgeKind::Functional && targets.len() > usize::from(here) {
                let (edge, src) = (label.clone(), format!("{src_label}({src:?})"));
                return Err(GoodError::FunctionalConflict { edge, src });
            } else if class != dst_label {
                return Err(GoodError::TargetLabelConflict {
                    edge: label.clone(),
                    existing: class.clone(),
                    new: dst_label.clone(),
                });
            }
        }
        Ok(present)
    }

    /// Delete a node with all incident edges. Deleting a dead node is a
    /// no-op returning `false`.
    pub fn delete_node(&mut self, node: NodeId) -> bool {
        for (src, label, dst) in self.incident_edges(node) {
            self.delete_edge_between(src, &label, dst);
        }
        self.remove_node_untracked(node)
    }

    /// Remove a node from the arena and the label/printable indexes,
    /// leaving its edges filed: callers unfile them first
    /// (`delete_node`) or rebuild the adjacency index after (the bulk
    /// path of `delete_nodes`).
    fn remove_node_untracked(&mut self, node: NodeId) -> bool {
        let Some(data) = self.nodes.remove(node.0) else {
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
    /// instance rebuild the adjacency index once from the surviving
    /// triples — O(surviving edges) instead of O(doomed edges × degree).
    pub fn delete_nodes(&mut self, nodes: impl IntoIterator<Item = NodeId>) -> usize {
        let doomed: Vec<NodeId> = nodes.into_iter().collect();
        if doomed.len() < BULK_REBUILD_MIN || doomed.len() * 8 < self.node_count() {
            LIVE_NODE_DEL_INCREMENTAL.incr();
            return doomed
                .into_iter()
                .filter(|node| self.delete_node(*node))
                .count();
        }
        LIVE_NODE_DEL_BULK.incr();
        let removed = (doomed.into_iter())
            .filter(|node| self.remove_node_untracked(*node))
            .count();
        let live = |node: NodeId| self.nodes.contains(node.0);
        let survivors = (self.adjacency.triples()).filter(|(src, _, dst)| live(*src) && live(*dst));
        self.adjacency =
            AdjacencyIndex::build(&self.nodes, survivors).expect("survivors are live and distinct");
        removed
    }

    /// Delete the edge `(src, λ, dst)` if present.
    pub fn delete_edge_between(&mut self, src: NodeId, label: &Label, dst: NodeId) -> bool {
        let (Some(src_label), Some(dst_label)) =
            (class_of(&self.nodes, src), class_of(&self.nodes, dst))
        else {
            return false;
        };
        (self.adjacency).remove((src, src_label), label, (dst, dst_label))
    }

    /// Delete every edge triple in `triples`, returning how many were
    /// present. The batched entry point for the edge-deletion
    /// operation: batches that doom half the edges rebuild the index
    /// from the survivors.
    pub fn delete_edges_between(&mut self, triples: impl IntoIterator<Item = Edge>) -> usize {
        let doomed: BTreeSet<Edge> = (triples.into_iter())
            .filter(|(src, label, dst)| self.has_edge(*src, label, *dst))
            .collect();
        if doomed.len() < BULK_REBUILD_MIN || doomed.len() * 2 < self.edge_count() {
            LIVE_EDGE_DEL_INCREMENTAL.incr();
            for (src, label, dst) in &doomed {
                self.delete_edge_between(*src, label, *dst);
            }
            return doomed.len();
        }
        LIVE_EDGE_DEL_BULK.incr();
        let survivors = (self.adjacency.triples())
            .filter(|(src, label, dst)| !doomed.contains(&(*src, Label::clone(label), *dst)));
        self.adjacency =
            AdjacencyIndex::build(&self.nodes, survivors).expect("survivors are live and distinct");
        doomed.len()
    }

    /// Restrict this instance to `scheme`: remove every node whose label
    /// is unknown to `scheme` and every edge whose triple is not in its
    /// `P` — "the largest subinstance of I that is an instance over S′"
    /// (footnote 4, the method-interface semantics).
    pub fn restrict_to_scheme(&mut self, scheme: &Scheme) {
        let foreign = (self.nodes()).filter(|(_, data)| !scheme.is_node_label(&data.label));
        self.delete_nodes(foreign.map(|(node, _)| node).collect::<Vec<_>>());
        let class = |node| class_of(&self.nodes, node).expect("filed edges have live endpoints");
        let doomed: Vec<Edge> = (self.adjacency.triples())
            .filter(|(src, label, dst)| !scheme.allows(class(*src), label, class(*dst)))
            .map(|(src, label, dst)| (src, label.clone(), dst))
            .collect();
        self.delete_edges_between(doomed);
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

    /// The *semantic* half of [`Instance::validate`]: scheme, nodes,
    /// printable uniqueness and edges — everything that can be wrong
    /// about the *content*, judged by the mutators' own checks, edges in
    /// [`Instance::edges`] order so a corrupt document always reports the
    /// same fault first. It builds no index, so it suits paths where the
    /// indexes were just built (deserialization, recovery).
    pub fn validate_semantics(&self) -> Result<()> {
        self.scheme.validate()?;
        let mut seen: HashMap<(&Label, &Value), NodeId> = HashMap::new();
        for (id, NodeData { label, print }) in self.nodes() {
            self.check_node(label, print.as_ref())?;
            if let Some(other) = print
                .as_ref()
                .and_then(|value| seen.insert((label, value), id))
            {
                let text = format!("printable nodes {other:?} and {id:?} share a value");
                return Err(GoodError::InvariantViolation(text));
            }
        }
        for (src, label, dst) in self.edges() {
            self.check_edge(src, label, dst)?;
        }
        Ok(())
    }

    /// The *index* half of [`Instance::validate`]. The label and
    /// printable indexes must equal a rebuild from the node arena (a
    /// repeated printable value is `validate_semantics`' to report). The
    /// adjacency index is the edge store, so it can only agree with
    /// itself: rebuilt from its outgoing side's triples (which fails on
    /// a dead endpoint) it must come out equal. A triple filed on one
    /// side only, a support or count that disagrees with the postings,
    /// or an endpoint filed under a class it does not carry all show.
    /// This is the expensive audit; release hot paths reach it only
    /// through [`Instance::debug_assert_indexes`], which compiles it out.
    pub fn validate_indexes(&self) -> Result<()> {
        let nodes = self.nodes.clone();
        let fresh = Instance::from_parts(Scheme::new(), nodes, self.adjacency.triples())?;
        let (new, old) = (&fresh.adjacency, &self.adjacency);
        let checks = [
            (fresh.label_index == self.label_index, "label index"),
            (
                fresh.printable_index == self.printable_index,
                "printable index",
            ),
            (
                new.outgoing == old.outgoing,
                "adjacency index (outgoing side)",
            ),
            (
                new.incoming == old.incoming,
                "adjacency index (incoming side)",
            ),
        ];
        if let Some((_, name)) = checks.into_iter().find(|(in_sync, _)| !in_sync) {
            let text = format!("{name} differs from a rebuild");
            return Err(GoodError::InvariantViolation(text));
        }
        Ok(())
    }

    /// Debug-build audit that every index agrees with the instance;
    /// compiled out in release builds. The GOOD operations call this
    /// after each batched mutation pass.
    #[inline]
    pub fn debug_assert_indexes(&self) {
        #[cfg(debug_assertions)]
        self.validate().expect("instance indexes out of sync");
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

    /// `N` fresh `Info` objects.
    fn infos<const N: usize>(db: &mut Instance) -> [NodeId; N] {
        std::array::from_fn(|_| db.add_object("Info").unwrap())
    }

    /// An instance holding one `Info` named `name`.
    fn named(name: &str) -> (Instance, NodeId, NodeId) {
        let mut db = Instance::new(scheme());
        let info = db.add_object("Info").unwrap();
        let name = db.add_printable("String", name).unwrap();
        db.add_edge(info, "name", name).unwrap();
        (db, info, name)
    }

    fn info_links() -> (Label, Label) {
        (Label::new("Info"), Label::new("links-to"))
    }

    #[test]
    fn add_nodes_and_edges() {
        let (db, info, name) = named("Rock");
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
        let outcome = db.add_printable("Date", "not a date");
        assert!(matches!(outcome, Err(GoodError::ValueTypeMismatch { .. })));
    }

    #[test]
    fn object_vs_printable_confusion_rejected() {
        let mut db = Instance::new(scheme());
        let outcome = db.add_object("String");
        assert!(matches!(outcome, Err(GoodError::PrintMismatch { .. })));
        let outcome = db.add_printable("Info", "x");
        assert!(matches!(outcome, Err(GoodError::PrintMismatch { .. })));
        let outcome = db.add_object("Nope");
        assert!(matches!(outcome, Err(GoodError::UnknownNodeLabel(_))));
    }

    #[test]
    fn edges_must_conform_to_scheme() {
        let mut db = Instance::new(scheme());
        let version = db.add_object("Version").unwrap();
        let name = db.add_printable("String", "x").unwrap();
        let outcome = db.add_edge(version, "name", name);
        assert!(matches!(outcome, Err(GoodError::EdgeNotInScheme { .. })));
        let info = db.add_object("Info").unwrap();
        let outcome = db.add_edge(info, "unknown", name);
        assert!(matches!(outcome, Err(GoodError::UnknownEdgeLabel(_))));
    }

    #[test]
    fn functional_edges_are_single_valued() {
        let mut db = Instance::new(scheme());
        let info = db.add_object("Info").unwrap();
        let a = db.add_printable("String", "a").unwrap();
        let b = db.add_printable("String", "b").unwrap();
        db.add_edge(info, "name", a).unwrap();
        let outcome = db.add_edge(info, "name", b);
        assert!(matches!(outcome, Err(GoodError::FunctionalConflict { .. })));
        // Idempotent re-add of the same edge succeeds.
        db.add_edge(info, "name", a).unwrap();
        assert_eq!(db.edge_count(), 1);
    }

    #[test]
    fn multivalued_edges_are_sets() {
        let mut db = Instance::new(scheme());
        let a = db.add_object("Info").unwrap();
        let b = db.add_object("Info").unwrap();
        assert!(db.add_edge(a, "links-to", b).unwrap());
        assert!(!db.add_edge(a, "links-to", b).unwrap());
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
        let outcome = db.add_edge(info, "comment", num);
        assert!(matches!(
            outcome,
            Err(GoodError::TargetLabelConflict { .. })
        ));
        // A different Info node may use the other label.
        let info2 = db.add_object("Info").unwrap();
        db.add_edge(info2, "comment", num).unwrap();
        db.validate().unwrap();
    }

    #[test]
    fn delete_node_cleans_indexes() {
        let (mut db, _, name) = named("Rock");
        assert!(db.delete_node(name));
        assert_eq!(db.edge_count(), 0);
        let rock = db.find_printable(&"String".into(), &Value::str("Rock"));
        assert_eq!(rock, None);
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
        let [a, b] = infos(&mut db);
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
        let (mut db, info, _) = named("x");
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
            let (mut db, a, _) = named(names[0]);
            let b = db.add_object("Info").unwrap();
            let nb = db.add_printable("String", names[1]).unwrap();
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
        let [a, b, c] = infos(&mut db);
        db.add_edge(a, "links-to", c).unwrap();
        db.add_edge(b, "links-to", c).unwrap();
        db.add_edge(a, "links-to", b).unwrap();
        let (info, links) = info_links();
        let out = db.outgoing(&info, &links).unwrap();
        let inn = db.incoming(&info, &links).unwrap();
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
        let [a, b, c] = infos(&mut db);
        db.add_edge(a, "links-to", b).unwrap();
        db.add_edge(a, "links-to", c).unwrap();
        let (info, links) = info_links();
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
        let [info, other] = infos(&mut db);
        let name = db.add_printable("String", "Rock").unwrap();
        db.add_edge(info, "name", name).unwrap();
        db.add_edge(other, "links-to", info).unwrap();
        db.validate().unwrap();
        let (class, links) = info_links();
        let mut dropped_label = db.clone();
        (dropped_label.label_index.get_mut(&class).unwrap()).remove(&info);
        let mut dropped_printable = db.clone();
        let values = dropped_printable
            .printable_index
            .get_mut(&Label::new("String"));
        values.unwrap().remove(&Value::str("Rock"));
        let mut dropped_adjacency = db.clone();
        side_mut(&mut dropped_adjacency.adjacency.outgoing, &links, &class)
            .support
            .remove(&other);
        for broken in [dropped_label, dropped_printable, dropped_adjacency] {
            assert!(broken.validate().is_err());
        }
    }

    fn side_mut<'a>(sides: &'a mut Sides, edge: &Label, class: &Label) -> &'a mut Adjacency {
        let by_class = sides.get_mut(edge).unwrap();
        by_class.get_mut(class).unwrap()
    }

    #[test]
    fn the_audit_catches_a_one_sided_triple_and_a_wrong_edge_count() {
        let mut db = Instance::new(scheme());
        let [a, b, c] = infos(&mut db);
        db.add_edge(a, "links-to", b).unwrap();
        let (class, links) = info_links();
        // `a -links-to-> c` filed on one side only, and a miscount.
        let mut incoming_only = db.clone();
        let side = side_mut(&mut incoming_only.adjacency.incoming, &links, &class);
        side.postings.get_mut(&a).unwrap().insert(c);
        side.support.insert(c);
        side.edges += 1;
        let mut outgoing_only = db.clone();
        let side = side_mut(&mut outgoing_only.adjacency.outgoing, &links, &class);
        side.postings.insert(c, PSet::from_iter([a]));
        side.edges += 1;
        let mut miscounted = db.clone();
        side_mut(&mut miscounted.adjacency.outgoing, &links, &class).edges += 1;
        // A one-sided triple shows on the incoming side either way: the
        // audit rebuilds from the outgoing side's triples.
        for (broken, side) in [
            (incoming_only, "incoming"),
            (outgoing_only, "incoming"),
            (miscounted, "outgoing"),
        ] {
            let err = broken.validate().expect_err(side).to_string();
            assert!(err.contains(&format!("({side} side)")), "{err}");
        }
    }

    #[test]
    fn adjacency_index_survives_self_loop_deletion() {
        let mut db = Instance::new(scheme());
        let [a, b] = infos(&mut db);
        db.add_edge(a, "links-to", a).unwrap();
        db.add_edge(a, "links-to", b).unwrap();
        db.validate().unwrap();
        db.delete_node(a);
        db.validate().unwrap();
        let (info, links) = info_links();
        assert!(db.outgoing(&info, &links).is_none());
    }

    #[test]
    fn batched_deletion_helpers() {
        let mut db = Instance::new(scheme());
        let [a, b, c] = infos(&mut db);
        let (_, links) = info_links();
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
        let (db, _, _) = named("Rock");
        let json = serde_json::to_string(&db).unwrap();
        let back: Instance = serde_json::from_str(&json).unwrap();
        back.validate().unwrap();
        assert!(back.isomorphic_to(&db));
        let rock = back.find_printable(&"String".into(), &Value::str("Rock"));
        assert!(rock.is_some());
    }

    #[test]
    fn dot_contains_print_values() {
        let (db, _, _) = named("Rock");
        let dot = db.to_dot("instance");
        assert!(dot.contains("String\\nRock"));
        assert!(dot.contains("shape=box"));
    }
}
