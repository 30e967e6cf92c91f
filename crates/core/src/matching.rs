//! Pattern matching — the engine every GOOD operation is driven by.
//!
//! Section 3 of the paper: "a matching of J in I is a total mapping
//! `i : M → N` satisfying (1) labels are preserved, (2) print labels are
//! preserved, (3) edges are preserved." Matchings are graph
//! homomorphisms — *not* required to be injective.
//!
//! One pipeline finds every matching: validate, take the positive
//! part, pick a binding order, compile it into steps, walk them on the
//! calling thread into a flat [`MatchTable`], sort it, and drop the rows
//! a crossed (negated) part extends — the paper's extension semantics.
//! A step reads its candidates off the `(class, λ)` postings of the
//! adjacency index (or, through a [`View`], a derived relation): the
//! neighbours of a bound node, else intersected support sets, else the
//! label extent. [`find_match_table`] walks it in one of three
//! [`PlanShape`]s; the fixpoint evaluator's delta-seeded rounds and
//! [`explain_plan_profiled`] run the same pipeline, and EXPLAIN prints
//! the access path each compiled step takes.
//!
//! Two reference engines stand outside it, as differential-testing
//! ground truth: [`find_matchings_naive`] (candidate cross product,
//! E1's baseline) and [`crate::planner::find_matchings_binary`]
//! (materializing binary joins, E18's baseline). Every engine returns
//! one canonical order, so Section 3's set-oriented operations are
//! reproducible run to run.

use crate::derived::{Runs, View};
use crate::error::{GoodError, Result};
use crate::instance::{Adjacency, Instance};
use crate::label::Label;
use crate::pattern::{Pattern, PatternNode, PatternNodeKind};
use crate::persist::PSet;
use crate::planner::{self, JoinStrategy};
use crate::value::Value;
use good_graph::{EdgeId, NodeId};
use good_trace::{LiveCounter, LiveHistogram};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

static LIVE_CALLS: LiveCounter = LiveCounter::new("match.calls");
/// Positive matchings dropped because a crossed part extended them.
static LIVE_NEGATION_FILTERED: LiveCounter = LiveCounter::new("match.negation_filtered");
static LIVE_FIND_NS: LiveHistogram = LiveHistogram::new("match.find_ns");
/// Per plan step, |estimated − actual| rows as a percentage of actual
/// (recorded by profiled EXPLAIN).
static LIVE_EST_ERROR_PCT: LiveHistogram = LiveHistogram::new("match.plan.est_error_pct");

/// Edges `(src, λ, dst)` of one label as sorted `(src, dst)` pairs —
/// what an edge addition adds and the fixpoint evaluator's delta log
/// holds.
pub(crate) type Delta = (Label, Vec<(NodeId, NodeId)>);

/// A matching: a total mapping from pattern nodes to instance nodes.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Matching(BTreeMap<NodeId, NodeId>);

impl Matching {
    /// The image of a pattern node.
    ///
    /// # Panics
    /// Panics if `pattern_node` is not in the matching's domain — GOOD
    /// operations only ever ask for nodes of their own source pattern.
    pub fn image(&self, pattern_node: NodeId) -> NodeId {
        self.0[&pattern_node]
    }

    /// The image, or `None` when outside the domain.
    pub fn get(&self, pattern_node: NodeId) -> Option<NodeId> {
        self.0.get(&pattern_node).copied()
    }

    /// Iterate over `(pattern node, instance node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.0.iter().map(|(p, i)| (*p, *i))
    }

    /// Number of bound pattern nodes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the empty matching (of the empty pattern).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Build from pairs (for tests).
    pub fn from_pairs(pairs: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        Matching(pairs.into_iter().collect())
    }
}

// ---- match table --------------------------------------------------------

/// The matchings of one pattern as a flat table: one fixed-width row of
/// images per matching, columns in ascending pattern-node order. Every
/// enumeration loop emits this; [`Matching`]s are built from it only at
/// the public `find_matchings*` boundary.
///
/// Rows compare as slices, which is exactly how the `Matching`s they
/// stand for compare (same keys, values in key order), so the canonical
/// order of a table is the canonical order of its matchings.
#[derive(Debug, Clone)]
pub struct MatchTable {
    domain: Vec<NodeId>,
    images: Vec<NodeId>,
    /// Row count — kept beside `images` because the empty pattern has
    /// one matching of width zero.
    rows: usize,
}

impl MatchTable {
    /// An empty table over the pattern nodes `domain`.
    pub(crate) fn new(mut domain: Vec<NodeId>) -> Self {
        domain.sort_unstable();
        MatchTable {
            domain,
            images: Vec::new(),
            rows: 0,
        }
    }

    /// The pattern nodes the rows bind, ascending — one per column.
    pub fn domain(&self) -> &[NodeId] {
        &self.domain
    }

    /// The column holding the images of `pattern_node`, if it is bound.
    pub fn column(&self, pattern_node: NodeId) -> Option<usize> {
        self.domain.binary_search(&pattern_node).ok()
    }

    /// Number of rows (matchings).
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when there is no matching.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Row `index`: the images of [`MatchTable::domain`], in order.
    pub fn row(&self, index: usize) -> &[NodeId] {
        let width = self.domain.len();
        &self.images[index * width..(index + 1) * width]
    }

    /// All rows, in table order.
    pub fn rows(&self) -> impl Iterator<Item = &[NodeId]> + '_ {
        (0..self.rows).map(|index| self.row(index))
    }

    /// Append one row; `images` yields one image per domain node.
    pub(crate) fn push_row(&mut self, images: impl IntoIterator<Item = NodeId>) {
        self.images.extend(images);
        self.rows += 1;
        debug_assert_eq!(self.images.len(), self.rows * self.domain.len());
    }

    /// Append the row a complete binding frame (pattern-node slot →
    /// image) holds.
    pub(crate) fn push_frame(&mut self, frame: &[Option<NodeId>]) {
        let images = self.domain.iter().map(|n| frame[n.index()]);
        self.images
            .extend(images.map(|image| image.expect("complete frame")));
        self.rows += 1;
    }

    /// Sort the rows and drop repeats: the canonical order.
    fn canonicalize(&mut self) {
        // Steps emit candidates in ascending order, so a search whose
        // binding order is the column order arrives canonical.
        if (1..self.rows).all(|index| self.row(index - 1) < self.row(index)) {
            return;
        }
        let mut order: Vec<usize> = (0..self.rows).collect();
        order.sort_unstable_by(|&a, &b| self.row(a).cmp(self.row(b)));
        order.dedup_by(|a, b| self.row(*a) == self.row(*b));
        self.gather(&order);
    }

    /// Keep the rows `keep` accepts, in order.
    fn retain(&mut self, mut keep: impl FnMut(&[NodeId]) -> bool) {
        let kept: Vec<usize> = (0..self.rows)
            .filter(|&index| keep(self.row(index)))
            .collect();
        if kept.len() < self.rows {
            self.gather(&kept);
        }
    }

    fn gather(&mut self, order: &[usize]) {
        let mut images = Vec::with_capacity(order.len() * self.domain.len());
        for &index in order {
            images.extend_from_slice(self.row(index));
        }
        self.images = images;
        self.rows = order.len();
    }

    /// One [`Matching`] per row, in row order.
    pub fn into_matchings(self) -> Vec<Matching> {
        self.rows()
            .map(|row| {
                Matching(
                    self.domain
                        .iter()
                        .copied()
                        .zip(row.iter().copied())
                        .collect(),
                )
            })
            .collect()
    }
}

// ---- the benchmark's names ----------------------------------------------

/// The matcher has nothing to configure. This field-less type stays only
/// because the byte-frozen `e2e` benchmark package passes
/// `MatchConfig::default()` to [`find_matchings_with`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchConfig;

/// The matcher's thread count: always 1, the calling thread. Kept only
/// because the byte-frozen `e2e` benchmark package reports it as its
/// envelope's `matcher_threads`.
pub fn default_threads() -> usize {
    1
}

// ---- neighbour sets -----------------------------------------------------

/// A sorted set of nodes as the matcher reads it: a postings or support
/// set of the instance's adjacency index, or a run of a derived relation.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Neighbours<'a> {
    Set(&'a PSet<NodeId>),
    Run(&'a [NodeId]),
}

impl<'a> Neighbours<'a> {
    pub(crate) fn len(self) -> usize {
        match self {
            Neighbours::Set(set) => set.len(),
            Neighbours::Run(run) => run.len(),
        }
    }

    pub(crate) fn contains(self, node: NodeId) -> bool {
        match self {
            Neighbours::Set(set) => set.contains(&node),
            Neighbours::Run(run) => run.binary_search(&node).is_ok(),
        }
    }

    /// The members, ascending.
    pub(crate) fn iter(self) -> impl Iterator<Item = NodeId> + 'a {
        let (set, run) = match self {
            Neighbours::Set(set) => (Some(set), None),
            Neighbours::Run(run) => (None, Some(run)),
        };
        (set.into_iter().flat_map(PSet::iter))
            .chain(run.into_iter().flatten())
            .copied()
    }
}

/// The `λ` edges at one class's nodes, seen from one side (see
/// [`Adjacency`]): the instance's adjacency entry, or one direction of a
/// derived relation — its runs keyed by the other endpoint, and the
/// other direction's keys as the support.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Side<'a> {
    Index(&'a Adjacency),
    /// The runs keyed by the other endpoint, and the support.
    Runs(&'a Runs, &'a [NodeId]),
}

impl<'a> Side<'a> {
    /// The class's nodes across a `λ` edge from `anchor`.
    pub(crate) fn get(self, anchor: NodeId) -> Option<Neighbours<'a>> {
        match self {
            Side::Index(side) => side.postings.get(&anchor).map(Neighbours::Set),
            Side::Runs(postings, _) => postings.get(anchor).map(Neighbours::Run),
        }
    }

    /// The class's nodes with at least one `λ` edge on this side.
    pub(crate) fn support(self) -> Neighbours<'a> {
        match self {
            Side::Index(side) => Neighbours::Set(&side.support),
            Side::Runs(_, support) => Neighbours::Run(support),
        }
    }

    /// Number of `λ` edges on this side.
    pub(crate) fn edges(self) -> usize {
        match self {
            Side::Index(side) => side.edges,
            Side::Runs(postings, _) => postings.edges,
        }
    }
}

// ---- compiled search ----------------------------------------------------

/// The shared refusals of every engine: method heads must have been
/// rewritten away, and the pattern must be an instance over the scheme.
pub(crate) fn check_matchable(pattern: &Pattern, instance: &Instance) -> Result<()> {
    if pattern.has_method_head() {
        return Err(GoodError::InvalidPattern(
            "patterns with method-head nodes must be rewritten by a method call before matching"
                .into(),
        ));
    }
    pattern.validate(instance.scheme())
}

/// Does the instance node `candidate` satisfy `node`'s local constraints
/// (label, print value, predicate)?
pub(crate) fn node_compatible(instance: &Instance, node: &PatternNode, candidate: NodeId) -> bool {
    let PatternNodeKind::Class(label) = &node.kind else {
        return false;
    };
    if instance.node_label(candidate) != Some(label) {
        return false;
    }
    if let Some(required) = &node.print {
        if instance.print_value(candidate) != Some(required) {
            return false;
        }
    }
    if let Some(predicate) = &node.predicate {
        match instance.print_value(candidate) {
            Some(value) if predicate.matches(value) => {}
            _ => return false,
        }
    }
    true
}

/// One compiled binding step: everything the loop needs to enumerate
/// and check the candidates of one pattern node, resolved once per call.
/// Every candidate base is read off an index keyed by the node's class
/// label, so the label is never re-checked per candidate.
struct Step<'a> {
    node: NodeId,
    data: &'a PatternNode,
    class: &'a Label,
    /// The edges to bound nodes: the node at the other end and the
    /// `(class, λ)` side that maps its image to that image's
    /// neighbours of this class (the label hashes are paid here, once).
    /// The candidates are read off the smallest of the neighbour sets
    /// and probed against the others — the expansion edge is never
    /// re-checked, and with two or more links this is the generic
    /// join's intersection.
    links: Vec<(NodeId, Side<'a>)>,
    /// Sides of the node's self-loops (source → targets), each
    /// candidate probed for itself.
    loops: Vec<Side<'a>>,
    /// Support sets of the edges to nodes not bound yet, every
    /// candidate must be in — resolved only where they are wanted: for
    /// a step whose base they are, and for every step when pruning.
    supports: Vec<Neighbours<'a>>,
    /// Where the candidates come from.
    access: Access<'a>,
}

/// A step's candidate base, decided by [`Search::compile`], read by
/// [`Search::fill`] and printed by EXPLAIN. Every other constraint of
/// the step filters the base.
enum Access<'a> {
    /// The printable index, probed for the node's print value.
    Printable(&'a Value),
    /// The smallest neighbour set across these edges (label, outgoing)
    /// to nodes bound earlier.
    Links(Vec<(&'a Label, bool)>),
    /// The smallest support set of this many edges to nodes not bound
    /// yet — complete but over-approximate, made exact by the later
    /// steps' links.
    Supports(usize),
    /// The class's label extent.
    Extent,
}

impl Step<'_> {
    /// The step's access path as EXPLAIN prints it.
    fn describe(&self) -> String {
        let class = self.class;
        let mut filters = String::new();
        if self.data.predicate.is_some() {
            filters.push_str(" + predicate filter");
        }
        if !self.loops.is_empty() {
            filters.push_str(" + self-loop filter");
        }
        match &self.access {
            Access::Printable(value) => format!("printable probe ({class} = {value}){filters}"),
            Access::Links(anchors) => {
                let via: Vec<String> = (anchors.iter())
                    .map(|(label, outgoing)| match outgoing {
                        true => format!("-[{label}]->"),
                        false => format!("<-[{label}]-"),
                    })
                    .collect();
                let via = via.join(" / ");
                format!(
                    "index probe: ({class}, edge) postings of a bound neighbour via {via}{filters}"
                )
            }
            Access::Supports(open) => {
                format!(
                    "support intersection over {open} incident edge label(s) on {class}{filters}"
                )
            }
            Access::Extent => format!("label extent scan of {class}{filters}"),
        }
    }
}

/// The backtracking search, compiled: a binding order as [`Step`]s over
/// a [`View`]. Every `(class, λ)` lookup happens here, so the loop reads
/// derived labels exactly as stored ones. Built once per
/// `find_matchings*` call (or once per pre-bound frame shape).
struct Search<'a> {
    instance: &'a Instance,
    steps: Vec<Step<'a>>,
    /// Positive edges among the pre-bound nodes — the pattern edge,
    /// source, the edge's side (source → targets), target — probed once
    /// per frame.
    bound_edges: Vec<(EdgeId, NodeId, Side<'a>, NodeId)>,
    /// Some pattern edge's `(class, λ)` is missing from the adjacency
    /// index altogether: nothing can match.
    dead: bool,
    capacity: usize,
}

/// A search's mutable state: the binding frame (pattern-node slot →
/// image), the candidate stack (each depth's candidates sit above its
/// parent's and are popped when the depth is done), a scratch list of
/// neighbour sets, and the number of frames visited at each depth.
struct Cursor<'a> {
    frame: Vec<Option<NodeId>>,
    candidates: Vec<NodeId>,
    sets: Vec<Neighbours<'a>>,
    visited: Vec<u64>,
}

impl<'a> Search<'a> {
    /// Compile the steps binding `order` — every node of `pattern`
    /// outside `prebound`, each once — for frames in which the nodes of
    /// `prebound` are bound before the walk starts. `pattern` is a
    /// positive or unnegated pattern that passed [`check_matchable`].
    ///
    /// With `prune`, every step also drops candidates outside any
    /// support set of an edge to a node not bound yet — the generic
    /// join's "every relation holding the variable", which keeps a
    /// cyclic pattern's dead branches from being entered; a membership
    /// probe per candidate that acyclic plans are better off without.
    fn compile(
        pattern: &'a Pattern,
        view: View<'a>,
        prebound: &[NodeId],
        order: &[NodeId],
        prune: bool,
    ) -> Self {
        let graph = pattern.graph();
        let capacity = graph.node_index_bound();
        let mut bound = vec![false; capacity];
        for node in prebound {
            bound[node.index()] = true;
        }
        let class_of = |node: NodeId| match &graph.node(node).expect("live pattern node").kind {
            PatternNodeKind::Class(class) => class,
            PatternNodeKind::MethodHead(_) => {
                unreachable!("method heads are rejected before compiling")
            }
        };
        let mut dead = false;
        let mut bound_edges = Vec::new();
        for e in graph.edges() {
            if bound[e.src.index()] && bound[e.dst.index()] {
                let side = view.incoming(class_of(e.dst), &e.payload.label);
                bound_edges.extend(side.map(|side| (e.id, e.src, side, e.dst)));
                dead |= side.is_none();
            }
        }
        let mut steps = Vec::with_capacity(order.len());
        for &node in order {
            let data = graph.node(node).expect("live pattern node");
            let class = class_of(node);
            let (mut links, mut loops, mut open) = (Vec::new(), Vec::new(), Vec::new());
            let mut anchors = Vec::new();
            for edge in graph.out_edges(node) {
                let label = &edge.payload.label;
                if edge.dst == node {
                    let side = view.incoming(class, label);
                    loops.extend(side);
                    dead |= side.is_none();
                } else if bound[edge.dst.index()] {
                    let side = view.outgoing(class, label);
                    links.extend(side.map(|side| (edge.dst, side)));
                    anchors.push((label, true));
                    dead |= side.is_none();
                } else {
                    open.push((label, true));
                }
            }
            // Self-loops were taken by the outgoing pass.
            for edge in graph.in_edges(node).filter(|e| e.src != node) {
                let label = &edge.payload.label;
                if bound[edge.src.index()] {
                    let side = view.incoming(class, label);
                    links.extend(side.map(|side| (edge.src, side)));
                    anchors.push((label, false));
                    dead |= side.is_none();
                } else {
                    open.push((label, false));
                }
            }
            let access = match &data.print {
                Some(value) => Access::Printable(value),
                None if !anchors.is_empty() => Access::Links(anchors),
                None if !open.is_empty() => Access::Supports(open.len()),
                None => Access::Extent,
            };
            // Support sets are looked up only where `fill` reads them.
            let mut supports = Vec::new();
            if prune || matches!(access, Access::Supports(_)) {
                for (label, outgoing) in open {
                    let side = match outgoing {
                        true => view.outgoing(class, label),
                        false => view.incoming(class, label),
                    };
                    let support = side.map(Side::support);
                    supports.extend(support);
                    dead |= support.is_none();
                }
            }
            steps.push(Step {
                node,
                data,
                class,
                links,
                loops,
                supports,
                access,
            });
            bound[node.index()] = true;
        }
        Search {
            instance: view.instance,
            steps,
            bound_edges,
            dead,
            capacity,
        }
    }

    fn cursor(&self) -> Cursor<'a> {
        Cursor {
            frame: vec![None; self.capacity],
            candidates: Vec::new(),
            sets: Vec::new(),
            visited: vec![0; self.steps.len() + 1],
        }
    }

    /// Append to `out` the candidates of `self.steps[depth]` under the
    /// cursor's frame, in ascending order: the step's [`Access`] base,
    /// filtered by the node's predicate, its self-loops, every other
    /// link and the step's support sets.
    fn fill(&self, depth: usize, cursor: &mut Cursor<'a>, out: &mut Vec<NodeId>) {
        if self.dead {
            return;
        }
        let (instance, step) = (self.instance, &self.steps[depth]);
        let sets = &mut cursor.sets;
        sets.clear();
        for (other, side) in &step.links {
            let image = cursor.frame[other.index()].expect("bound earlier in the order");
            match side.get(image) {
                Some(set) => sets.push(set),
                None => return,
            }
        }
        // The neighbour set to iterate; its members need no probe
        // against it.
        let base = (0..sets.len())
            .filter(|_| matches!(step.access, Access::Links(_)))
            .min_by_key(|&at| sets[at].len());
        let admit = |candidate: &NodeId| {
            (step.data.predicate.is_none() || node_compatible(instance, step.data, *candidate))
                && (step.loops.iter()).all(|side| {
                    side.get(*candidate)
                        .is_some_and(|set| set.contains(*candidate))
                })
                && (0..sets.len()).all(|at| Some(at) == base || sets[at].contains(*candidate))
                && step.supports.iter().all(|set| set.contains(*candidate))
        };
        // A live search resolved every link and support set.
        match &step.access {
            Access::Printable(value) => {
                out.extend(instance.find_printable(step.class, value).filter(admit))
            }
            Access::Links(_) => out.extend(sets[base.expect("links")].iter().filter(admit)),
            Access::Supports(_) => {
                let smallest = step.supports.iter().min_by_key(|set| set.len());
                out.extend(smallest.expect("supports").iter().filter(admit))
            }
            Access::Extent => out.extend(instance.nodes_with_label(step.class).filter(admit)),
        }
    }

    /// Extend `cursor`'s frame over steps `depth..`, calling `on_match`
    /// with every complete frame until it returns `false`; the return
    /// value is `false` iff the walk was stopped.
    fn solve(
        &self,
        depth: usize,
        cursor: &mut Cursor<'a>,
        on_match: &mut impl FnMut(&[Option<NodeId>]) -> bool,
    ) -> bool {
        cursor.visited[depth] += 1;
        let Some(step) = self.steps.get(depth) else {
            return on_match(&cursor.frame);
        };
        let mut stack = std::mem::take(&mut cursor.candidates);
        let bottom = stack.len();
        self.fill(depth, cursor, &mut stack);
        let top = stack.len();
        cursor.candidates = stack;
        let mut go = true;
        for at in bottom..top {
            // Deeper steps push above `top` and pop back to it.
            cursor.frame[step.node.index()] = Some(cursor.candidates[at]);
            go = self.solve(depth + 1, cursor, on_match);
            if !go {
                break;
            }
        }
        cursor.candidates.truncate(bottom);
        go
    }

    /// Do the pre-bound images in `frame` carry every pattern edge
    /// among themselves? Never in a dead search: some pattern edge has
    /// no instance edge at all.
    fn bound_edges_hold(&self, frame: &[Option<NodeId>]) -> bool {
        let image = |node: NodeId| frame[node.index()].expect("pre-bound");
        !self.dead
            && (self.bound_edges.iter()).all(|&(_, src, side, dst)| {
                (side.get(image(src))).is_some_and(|set| set.contains(image(dst)))
            })
    }

    /// Can the pre-bound frame in `cursor` be completed at all? Stops
    /// at the first witness.
    fn extends(&self, cursor: &mut Cursor<'a>) -> bool {
        self.bound_edges_hold(&cursor.frame) && !self.solve(0, cursor, &mut |_| false)
    }

    /// Enumerate every matching into the empty `table`, unsorted: the
    /// first step's candidates seed the search, one subtree each.
    /// Returns, per step, the partial matchings that survived it.
    fn enumerate(&self, table: &mut MatchTable) -> Vec<u64> {
        let mut cursor = self.cursor();
        let Some(root) = self.steps.first() else {
            // The empty pattern has exactly one (empty) matching.
            table.push_frame(&cursor.frame);
            return Vec::new();
        };
        let mut roots = Vec::new();
        {
            let mut plan_span = good_trace::span("match", "match/plan");
            self.fill(0, &mut cursor, &mut roots);
            plan_span.arg("root_candidates", roots.len());
        }
        let mut roots_span = good_trace::span("match", "match/roots");
        let slot = root.node.index();
        for &candidate in &roots {
            cursor.frame[slot] = Some(candidate);
            self.solve(1, &mut cursor, &mut |complete| {
                table.push_frame(complete);
                true
            });
        }
        roots_span.arg("roots", roots.len());
        roots_span.arg("matchings", table.len());
        roots_span.arg("steps", cursor.visited.iter().sum::<u64>());
        cursor.visited.split_off(1)
    }
}

/// Enumerate into `table`, unsorted and possibly with repeats, every
/// matching of the positive pattern `pattern` that maps at least one
/// pattern edge onto an edge of `delta`: each occurrence of a delta
/// label in the pattern is seeded in turn by pre-binding that pattern
/// edge's endpoints to each delta pair, and the search compiled for that
/// pre-bound pair extends the frame. The seed edge itself is not probed:
/// the delta pair is in the relation by construction. A self-loop
/// pattern edge binds one node and so only takes delta pairs whose
/// endpoints coincide.
fn enumerate_seeded(pattern: &Pattern, view: View<'_>, delta: &[Delta], table: &mut MatchTable) {
    let (graph, instance) = (pattern.graph(), view.instance);
    for edge in graph.edges() {
        let seeds = delta
            .iter()
            .filter(|(label, _)| *label == edge.payload.label);
        if seeds.clone().next().is_none() {
            continue;
        }
        let src_data = graph.node(edge.src).expect("live pattern node");
        let dst_data = graph.node(edge.dst).expect("live pattern node");
        let mut prebound = vec![edge.src, edge.dst];
        prebound.dedup();
        let order = planner::order_from(pattern, view, &prebound);
        let mut search = Search::compile(pattern, view, &prebound, &order, false);
        search.bound_edges.retain(|bound| bound.0 != edge.id);
        let mut cursor = search.cursor();
        for &(src, dst) in seeds.flat_map(|(_, pairs)| pairs) {
            if (edge.src == edge.dst && src != dst)
                || !node_compatible(instance, src_data, src)
                || !node_compatible(instance, dst_data, dst)
            {
                continue;
            }
            cursor.frame[edge.src.index()] = Some(src);
            cursor.frame[edge.dst.index()] = Some(dst);
            if search.bound_edges_hold(&cursor.frame) {
                search.solve(0, &mut cursor, &mut |complete| {
                    table.push_frame(complete);
                    true
                });
            }
        }
    }
}

/// The tail every engine shares: canonical order, no repeats, crossed
/// parts filtered — [`search`]'s, and the reference engines'.
pub(crate) fn finish(pattern: &Pattern, view: View<'_>, mut table: MatchTable) -> MatchTable {
    table.canonicalize();
    drop_extendable(pattern, view, &mut table);
    table
}

/// The crossed-part filter: a matching of the positive part survives iff
/// it *cannot* be enlarged to the complete (unnegated) pattern. The
/// extension search is compiled once, for frames with the table's domain
/// pre-bound (`positive_part`/`unnegated` preserve the node arena
/// layout, so a row's columns index the full pattern's frame).
fn drop_extendable(pattern: &Pattern, view: View<'_>, table: &mut MatchTable) {
    if !pattern.has_negation() {
        return;
    }
    let full = pattern.unnegated();
    let domain = table.domain.clone();
    let order = planner::order_from(&full, view, &domain);
    let search = Search::compile(&full, view, &domain, &order, false);
    let mut cursor = search.cursor();
    table.retain(|row| {
        for (node, image) in domain.iter().zip(row) {
            cursor.frame[node.index()] = Some(*image);
        }
        !search.extends(&mut cursor)
    });
}

/// Find all matchings of `pattern` in `instance`, in canonical order.
///
/// Crossed parts are evaluated with the paper's semantics: a matching of
/// the positive part survives iff it *cannot* be enlarged to the
/// complete pattern (Section 4.1, Figure 27).
/// # Example
///
/// ```
/// use good_core::prelude::*;
///
/// let scheme = SchemeBuilder::new()
///     .object("Info")
///     .multivalued("Info", "links-to", "Info")
///     .build();
/// let mut db = Instance::new(scheme);
/// let a = db.add_object("Info")?;
/// let b = db.add_object("Info")?;
/// db.add_edge(a, "links-to", b)?;
///
/// let mut pattern = Pattern::new();
/// let src = pattern.node("Info");
/// let dst = pattern.node("Info");
/// pattern.edge(src, "links-to", dst);
///
/// let matchings = find_matchings(&pattern, &db)?;
/// assert_eq!(matchings.len(), 1);
/// assert_eq!(matchings[0].image(src), a);
/// assert_eq!(matchings[0].image(dst), b);
/// # Ok::<(), GoodError>(())
/// ```
pub fn find_matchings(pattern: &Pattern, instance: &Instance) -> Result<Vec<Matching>> {
    find_match_table(pattern, instance, PlanShape::Planned).map(MatchTable::into_matchings)
}

/// [`find_matchings`] under the field-less [`MatchConfig`]. Kept only
/// because the byte-frozen `e2e` benchmark package calls it.
pub fn find_matchings_with(
    pattern: &Pattern,
    instance: &Instance,
    _config: MatchConfig,
) -> Result<Vec<Matching>> {
    find_matchings(pattern, instance)
}

/// The binding order and pruning of the one search loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanShape {
    /// The cost-based planner's order and strategy ([`planner::plan`]):
    /// what [`find_matchings`] and every operation run.
    Planned,
    /// Pattern-node id order, no pruning: benchmark E1's ablation of
    /// the planner.
    IdOrder,
    /// The planner's order with pruning on whatever strategy it picked:
    /// the generic join's discipline (see [`planner::JoinStrategy`]),
    /// benchmark E18's `wcoj` lane, and what EXPLAIN profiles.
    GenericJoin,
}

/// [`find_matchings`] in `shape`, as the flat [`MatchTable`] the engine
/// builds — for callers that read columns and never need a map per
/// matching — over an instance or a [`View`] with derived relations
/// beside it. Every shape gives the same table.
pub fn find_match_table<'a>(
    pattern: &Pattern,
    view: impl Into<View<'a>>,
    shape: PlanShape,
) -> Result<MatchTable> {
    Ok(search(pattern, view.into(), Start::Shape(shape), false)?.table)
}

/// The matchings of `pattern` that map at least one positive pattern
/// edge onto an edge of `delta` — the later rounds of the fixpoint
/// evaluator (`fixpoint.rs`). Only the enumeration differs from
/// [`find_match_table`]'s (seeded from the delta's endpoints instead of
/// planned from a root). When no delta label occurs on an uncrossed
/// pattern edge there is nothing to seed and the pattern is not matched
/// at all.
pub(crate) fn matchings_using(
    pattern: &Pattern,
    view: View<'_>,
    delta: &[Delta],
) -> Result<MatchTable> {
    let occurs = |label: &Label| {
        let mut edges = pattern.graph().edges();
        edges.any(|e| !e.payload.negated && e.payload.label == *label)
    };
    if !delta.iter().any(|(label, _)| occurs(label)) {
        return Ok(MatchTable::new(Vec::new()));
    }
    Ok(search(pattern, view, Start::Delta(delta), false)?.table)
}

/// Where [`search`] starts enumerating.
#[derive(Clone, Copy)]
enum Start<'d> {
    /// At the first step of the order `shape` picks.
    Shape(PlanShape),
    /// At the endpoints of every edge of the delta.
    Delta(&'d [Delta]),
}

/// What one [`search`] found: the matchings, the planner's choice (for
/// the shapes that take one) and, per step of a shaped search, the
/// partial matchings that survived it and (when asked) its access path.
struct Found {
    table: MatchTable,
    choice: Option<planner::PlanChoice>,
    survivors: Vec<u64>,
    access: Vec<String>,
}

/// The one way into the matcher: validate, take the positive part,
/// order it, compile the steps, enumerate from `start`, canonicalize,
/// filter crossed parts — with `explain`, also describing each step.
fn search(pattern: &Pattern, view: View<'_>, start: Start<'_>, explain: bool) -> Result<Found> {
    check_matchable(pattern, view.instance)?;

    let mut find_span = good_trace::span("match", "match/find");
    // Timed whenever live metrics are on, recorder or not.
    let started = good_trace::live_metrics_enabled().then(std::time::Instant::now);

    let positive = pattern.positive_part();
    let mut table = MatchTable::new(positive.graph().node_ids().collect());
    let (mut choice, mut survivors, mut access) = (None, Vec::new(), Vec::new());
    match start {
        Start::Delta(delta) => enumerate_seeded(&positive, view, delta, &mut table),
        Start::Shape(shape) => {
            // Cost-based planning is pure arithmetic over per-edge
            // scalars — cheap enough for point queries.
            let planned = (shape != PlanShape::IdOrder).then(|| planner::plan(&positive, view));
            let (order, prune) = match &planned {
                Some(plan) if shape == PlanShape::Planned => {
                    plan.strategy.counter().incr();
                    (&plan.order[..], plan.strategy == JoinStrategy::GenericJoin)
                }
                Some(plan) => (&plan.order[..], true),
                None => (table.domain(), false),
            };
            let compiled = Search::compile(&positive, view, &[], order, prune);
            survivors = compiled.enumerate(&mut table);
            if explain {
                access = compiled.steps.iter().map(Step::describe).collect();
            }
            choice = planned;
        }
    }
    table.canonicalize();
    let positive_results = table.len();
    drop_extendable(pattern, view, &mut table);
    if find_span.is_live() {
        find_span.arg("pattern_nodes", table.domain.len());
        find_span.arg("matchings", table.len());
        find_span.arg("negation", pattern.has_negation());
        if let Some(choice) = &choice {
            find_span.arg("strategy", choice.strategy.name());
            find_span.arg("est_rows", choice.est_rows);
        }
        if let Start::Delta(delta) = start {
            find_span.arg(
                "delta_edges",
                delta.iter().map(|(_, pairs)| pairs.len()).sum::<usize>(),
            );
        }
    }
    if let Some(t0) = started {
        LIVE_FIND_NS.observe(t0.elapsed().as_nanos() as u64);
    }
    LIVE_CALLS.incr();
    LIVE_NEGATION_FILTERED.add((positive_results - table.len()) as u64);
    Ok(Found {
        table,
        choice,
        survivors,
        access,
    })
}

// ---- EXPLAIN -------------------------------------------------------------

/// One step of an EXPLAIN plan: which pattern node the search binds
/// next, and through which access path.
#[derive(Debug, Clone)]
pub struct PlanStep {
    /// The pattern node bound at this step.
    pub node: NodeId,
    /// Its class label.
    pub label: String,
    /// Human description of the access path (printable probe, index
    /// probe, support intersection, or label extent scan).
    pub access: String,
    /// Estimated candidates scanned per partial row at this step (the
    /// cost model's scan width, rounded).
    pub estimate: usize,
    /// Estimated partial matchings alive after this step, from the
    /// cost-based planner's cardinality propagation.
    pub est_rows: f64,
    /// Actual partial matchings that survived this step — filled by
    /// [`explain_plan_profiled`], `None` on unprofiled plans.
    pub actual_rows: Option<u64>,
}

/// A description of the plan [`find_matchings`] would run for a
/// pattern against an instance, produced by [`explain_plan_profiled`]
/// with per-step actual row counts.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Binding steps in the cost-based planner's order — the order both
    /// strategies execute.
    pub steps: Vec<PlanStep>,
    /// Candidate count for the root node: the first step's actual rows
    /// (0 for the empty pattern).
    pub root_candidates: usize,
    /// Whether matchings are post-filtered by the negation extension
    /// check.
    pub negation: bool,
    /// The planner's evaluation strategy decision.
    pub strategy: JoinStrategy,
    /// Whether the positive pattern contains a (non-self-loop) cycle.
    pub cyclic: bool,
    /// Estimated final matching count.
    pub est_rows: f64,
    /// Estimated total cost (Σ rows-before × scan width).
    pub est_cost: f64,
    /// Final matching count measured by [`explain_plan_profiled`]
    /// (after the negation post-filter), `None` on unprofiled plans.
    pub actual_matchings: Option<usize>,
}

impl Plan {
    /// Render with pattern nodes shown as `n<index>`.
    pub fn render(&self) -> String {
        self.render_with(|_| None)
    }

    /// Render as an indented text report, resolving pattern-node
    /// display names through `name` (fall back: `n<index>`).
    pub fn render_with(&self, name: impl Fn(NodeId) -> Option<String>) -> String {
        let mut out = String::new();
        let negation = if self.negation {
            "negation post-filter"
        } else {
            "no negation"
        };
        out.push_str(&format!(
            "match plan ({} step{}, {negation}):\n",
            self.steps.len(),
            if self.steps.len() == 1 { "" } else { "s" }
        ));
        for (index, step) in self.steps.iter().enumerate() {
            let display = name(step.node).unwrap_or_else(|| format!("n{}", step.node.index()));
            let actual = match step.actual_rows {
                Some(rows) => format!(", actual {rows} rows"),
                None => String::new(),
            };
            out.push_str(&format!(
                "  {}. bind {display} [{}] via {}  (est. {}, ~{:.0} rows{actual})\n",
                index + 1,
                step.label,
                step.access,
                step.estimate,
                step.est_rows,
            ));
        }
        let cyclic = if self.cyclic { "cyclic" } else { "acyclic" };
        out.push_str(&format!(
            "strategy: {} ({cyclic}, est. cost {:.0}, est. {:.0} matchings{})\n",
            self.strategy.name(),
            self.est_cost,
            self.est_rows,
            match self.actual_matchings {
                Some(count) => format!(", actual {count}"),
                None => String::new(),
            },
        ));
        out.push_str(&format!("root candidates: {}\n", self.root_candidates));
        out
    }

    /// Render as a JSON object for the server's slow-query log and
    /// stats wire frame: strategy, cost model totals, and per-step
    /// estimated-vs-actual rows. `actual_rows`/`actual_matchings` are
    /// `null` on unprofiled plans.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"strategy\":\"{}\",\"cyclic\":{},\"negation\":{},\"root_candidates\":{},\"est_cost\":{:.1},\"est_rows\":{:.1},\"actual_matchings\":{},\"steps\":[",
            good_trace::escape_json_str(self.strategy.name()),
            self.cyclic,
            self.negation,
            self.root_candidates,
            self.est_cost,
            self.est_rows,
            match self.actual_matchings {
                Some(count) => count.to_string(),
                None => "null".to_string(),
            },
        );
        for (index, step) in self.steps.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"node\":{},\"label\":\"{}\",\"access\":\"{}\",\"estimate\":{},\"est_rows\":{:.1},\"actual_rows\":{}}}",
                step.node.index(),
                good_trace::escape_json_str(&step.label),
                good_trace::escape_json_str(&step.access),
                step.estimate,
                step.est_rows,
                match step.actual_rows {
                    Some(rows) => rows.to_string(),
                    None => "null".to_string(),
                },
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Describe the plan [`find_matchings`] would choose for `pattern`
/// against `instance` — the cost-based binding order with per-step
/// access paths and cardinality estimates and the expand-vs-generic-join
/// strategy decision — and run the planned order once, with pruning on
/// whatever the strategy (so a step's actual is what survives every
/// constraint decidable at it). Each step's `actual_rows` is the number
/// of partial matchings that survived it (the first step's is the root
/// candidate count) and the plan's `actual_matchings` the final
/// (negation-filtered) count, so per-step estimate error is visible.
/// Observes the estimate error into the `match.plan.est_error_pct`
/// histogram.
pub fn explain_plan_profiled<'a>(pattern: &Pattern, view: impl Into<View<'a>>) -> Result<Plan> {
    let shape = Start::Shape(PlanShape::GenericJoin);
    let found = search(pattern, view.into(), shape, true)?;
    let choice = found.choice.expect("a planned shape");
    let root_candidates = found.survivors.first().map_or(0, |&rows| rows as usize);
    let mut steps = Vec::new();
    for ((step, actual), access) in choice.steps.iter().zip(found.survivors).zip(found.access) {
        let estimated = step.est_rows.max(0.0);
        // Against the estimate itself when nothing survived.
        let error = (estimated - actual as f64).abs() / (actual as f64).max(1.0);
        LIVE_EST_ERROR_PCT.observe((error * 100.0) as u64);
        let label = pattern.node_label(step.node).expect("class node");
        steps.push(PlanStep {
            node: step.node,
            label: label.to_string(),
            access,
            estimate: step.est_scanned.round() as usize,
            est_rows: step.est_rows,
            actual_rows: Some(actual),
        });
    }
    Ok(Plan {
        steps,
        root_candidates,
        negation: pattern.has_negation(),
        strategy: choice.strategy,
        cyclic: choice.cyclic,
        est_rows: choice.est_rows,
        est_cost: choice.est_cost,
        actual_matchings: Some(found.table.len()),
    })
}

/// Naive enumeration: per-node candidate lists, full cross product,
/// post-hoc edge check. Ground truth for differential tests and the
/// baseline of benchmark E1. Negation is evaluated the same way as the
/// planned engine.
pub fn find_matchings_naive(pattern: &Pattern, instance: &Instance) -> Result<Vec<Matching>> {
    check_matchable(pattern, instance)?;
    let positive = pattern.positive_part();
    let mut table = MatchTable::new(positive.graph().node_ids().collect());
    let nodes = table.domain.clone();

    let candidate_lists: Vec<Vec<NodeId>> = nodes
        .iter()
        .map(|&node| {
            let data = positive.graph().node(node).expect("live");
            let label = positive
                .node_label(node)
                .expect("method heads are rejected");
            instance
                .nodes_with_label(label)
                .filter(|c| node_compatible(instance, data, *c))
                .collect()
        })
        .collect();

    let column = |node: NodeId| nodes.binary_search(&node).expect("pattern node");
    let mut assignment: Vec<usize> = vec![0; nodes.len()];
    // An empty candidate list empties the product; the empty pattern has
    // the one empty row.
    'outer: while candidate_lists.iter().all(|c| !c.is_empty()) {
        let row: Vec<NodeId> = (0..nodes.len())
            .map(|k| candidate_lists[k][assignment[k]])
            .collect();
        let ok = positive.graph().edges().all(|edge| {
            let (src, dst) = (row[column(edge.src)], row[column(edge.dst)]);
            instance.has_edge(src, &edge.payload.label, dst)
        });
        if ok {
            table.push_row(row);
        }
        // Advance the odometer.
        let mut k = nodes.len();
        loop {
            if k == 0 {
                break 'outer;
            }
            k -= 1;
            assignment[k] += 1;
            if assignment[k] < candidate_lists[k].len() {
                break;
            }
            assignment[k] = 0;
        }
    }
    Ok(finish(pattern, instance.into(), table).into_matchings())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::ValuePredicate;
    use crate::value::Value;

    use crate::gen::bench_scheme as scheme;

    fn shaped(pattern: &Pattern, db: &Instance, shape: PlanShape) -> Vec<Matching> {
        let table = find_match_table(pattern, db, shape).unwrap();
        table.into_matchings()
    }

    /// A small slice of the paper's instance: Rock links to The Doors
    /// and Pinkfloyd; Jazz links to nothing.
    fn small_instance() -> (Instance, [NodeId; 4]) {
        let mut db = Instance::new(scheme());
        let rock = db.add_object("Info").unwrap();
        let doors = db.add_object("Info").unwrap();
        let floyd = db.add_object("Info").unwrap();
        let jazz = db.add_object("Info").unwrap();
        let names = [
            ("Rock", rock),
            ("The Doors", doors),
            ("Pinkfloyd", floyd),
            ("Jazz", jazz),
        ];
        for (name, node) in names {
            let s = db.add_printable("String", name).unwrap();
            db.add_edge(node, "name", s).unwrap();
        }
        let d14 = db.add_printable("Date", Value::date(1990, 1, 14)).unwrap();
        let d12 = db.add_printable("Date", Value::date(1990, 1, 12)).unwrap();
        db.add_edge(rock, "created", d14).unwrap();
        db.add_edge(doors, "created", d12).unwrap();
        db.add_edge(floyd, "created", d14).unwrap();
        db.add_edge(jazz, "created", d12).unwrap();
        db.add_edge(rock, "links-to", doors).unwrap();
        db.add_edge(rock, "links-to", floyd).unwrap();
        (db, [rock, doors, floyd, jazz])
    }

    /// The paper's Figure 4 pattern: Info named Rock created Jan 14 1990
    /// linking to another Info.
    fn figure4() -> (Pattern, NodeId, NodeId) {
        let mut p = Pattern::new();
        let info = p.node("Info");
        let date = p.printable("Date", Value::date(1990, 1, 14));
        let name = p.printable("String", "Rock");
        let other = p.node("Info");
        p.edge(info, "created", date);
        p.edge(info, "name", name);
        p.edge(info, "links-to", other);
        (p, info, other)
    }

    #[test]
    fn figure4_has_exactly_two_matchings() {
        let (db, [rock, doors, floyd, _]) = small_instance();
        let (pattern, info, other) = figure4();
        let matchings = find_matchings(&pattern, &db).unwrap();
        assert_eq!(matchings.len(), 2);
        for m in &matchings {
            assert_eq!(m.image(info), rock);
        }
        let others: Vec<NodeId> = matchings.iter().map(|m| m.image(other)).collect();
        assert!(others.contains(&doors) && others.contains(&floyd));
    }

    #[test]
    fn planned_equals_naive_equals_static() {
        let (db, _) = small_instance();
        let (pattern, _, _) = figure4();
        let a = find_matchings(&pattern, &db).unwrap();
        let b = find_matchings_naive(&pattern, &db).unwrap();
        let c = shaped(&pattern, &db, PlanShape::IdOrder);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn static_order_handles_negation() {
        let (db, [rock, ..]) = small_instance();
        let mut p = Pattern::new();
        let info = p.node("Info");
        let other = p.negated_node("Info");
        p.edge(info, "links-to", other);
        let planned = find_matchings(&p, &db).unwrap();
        let fixed = shaped(&p, &db, PlanShape::IdOrder);
        assert_eq!(planned, fixed);
        assert!(fixed.iter().all(|m| m.image(info) != rock));
    }

    #[test]
    fn empty_pattern_has_one_empty_matching() {
        let (db, _) = small_instance();
        let matchings = find_matchings(&Pattern::new(), &db).unwrap();
        assert_eq!(matchings.len(), 1);
        assert!(matchings[0].is_empty());
        let naive = find_matchings_naive(&Pattern::new(), &db).unwrap();
        assert_eq!(naive, matchings);
    }

    #[test]
    fn matchings_are_homomorphisms_not_injections() {
        // Pattern: Info -links-to-> Info, both unconstrained. A self-link
        // would match with both nodes equal. Build one.
        let mut db = Instance::new(scheme());
        let a = db.add_object("Info").unwrap();
        db.add_edge(a, "links-to", a).unwrap();
        let mut p = Pattern::new();
        let x = p.node("Info");
        let y = p.node("Info");
        p.edge(x, "links-to", y);
        let matchings = find_matchings(&p, &db).unwrap();
        assert_eq!(matchings.len(), 1);
        assert_eq!(matchings[0].image(x), matchings[0].image(y));
        assert_eq!(find_matchings_naive(&p, &db).unwrap(), matchings);
    }

    #[test]
    fn unmatched_pattern_yields_nothing() {
        let (db, _) = small_instance();
        let mut p = Pattern::new();
        let info = p.node("Info");
        let name = p.printable("String", "Mozart");
        p.edge(info, "name", name);
        assert!(find_matchings(&p, &db).unwrap().is_empty());
    }

    #[test]
    fn disconnected_pattern_takes_cross_product() {
        let (db, _) = small_instance();
        let mut p = Pattern::new();
        p.node("Info");
        p.node("Info");
        let matchings = find_matchings(&p, &db).unwrap();
        assert_eq!(matchings.len(), 16); // 4 × 4
        assert_eq!(find_matchings_naive(&p, &db).unwrap(), matchings);
    }

    #[test]
    fn negated_edge_filters_matchings() {
        // Figure 26 in miniature: infos whose created date has no
        // modified edge from the same info.
        let (mut db, [rock, ..]) = small_instance();
        let d14 = db
            .find_printable(&"Date".into(), &Value::date(1990, 1, 14))
            .unwrap();
        db.add_edge(rock, "modified", d14).unwrap();

        let mut p = Pattern::new();
        let info = p.node("Info");
        let date = p.node("Date");
        p.edge(info, "created", date);
        p.negated_edge(info, "modified", date);

        let matchings = find_matchings(&p, &db).unwrap();
        // rock's created==modified date, so rock is excluded; doors,
        // floyd, jazz survive.
        assert_eq!(matchings.len(), 3);
        assert!(matchings.iter().all(|m| m.image(info) != rock));
        assert_eq!(find_matchings_naive(&p, &db).unwrap(), matchings);
    }

    #[test]
    fn negated_node_filters_matchings() {
        // Infos that do not link to anything.
        let (db, [rock, doors, floyd, jazz]) = small_instance();
        let mut p = Pattern::new();
        let info = p.node("Info");
        let other = p.negated_node("Info");
        p.edge(info, "links-to", other);
        let matchings = find_matchings(&p, &db).unwrap();
        let images: Vec<NodeId> = matchings.iter().map(|m| m.image(info)).collect();
        assert!(!images.contains(&rock));
        assert!(images.contains(&doors) && images.contains(&floyd) && images.contains(&jazz));
        assert_eq!(find_matchings_naive(&p, &db).unwrap(), matchings);
    }

    #[test]
    fn predicate_ranges() {
        let (db, [rock, doors, floyd, jazz]) = small_instance();
        // Infos created in the window Jan 13–31, 1990.
        let mut p = Pattern::new();
        let info = p.node("Info");
        let date = p.predicate_node(
            "Date",
            ValuePredicate::Between(Value::date(1990, 1, 13), Value::date(1990, 1, 31)),
        );
        p.edge(info, "created", date);
        let matchings = find_matchings(&p, &db).unwrap();
        let images: Vec<NodeId> = matchings.iter().map(|m| m.image(info)).collect();
        assert_eq!(images.len(), 2);
        assert!(images.contains(&rock) && images.contains(&floyd));
        assert!(!images.contains(&doors) && !images.contains(&jazz));
        assert_eq!(find_matchings_naive(&p, &db).unwrap(), matchings);
    }

    #[test]
    fn matchings_are_deterministic_and_sorted() {
        let (db, _) = small_instance();
        let mut p = Pattern::new();
        p.node("Info");
        let a = find_matchings(&p, &db).unwrap();
        let b = find_matchings(&p, &db).unwrap();
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(a, sorted);
    }

    #[test]
    fn method_head_patterns_rejected() {
        let (db, _) = small_instance();
        let mut p = Pattern::new();
        p.method_head("M");
        assert!(matches!(
            find_matchings(&p, &db),
            Err(GoodError::InvalidPattern(_))
        ));
    }

    #[test]
    fn invalid_pattern_is_an_error() {
        let (db, _) = small_instance();
        let mut p = Pattern::new();
        p.node("Nope");
        assert!(find_matchings(&p, &db).is_err());
    }

    proptest::proptest! {
        /// Canonical tables stand for canonical matching lists: sorting
        /// and deduplicating rows is sorting and deduplicating the
        /// `BTreeMap`s they would have been.
        #[test]
        fn table_roundtrip_equals_map_construction(
            width in 0usize..=3,
            rows in proptest::collection::vec(proptest::collection::vec(0usize..6, 3), 0..12),
        ) {
            use proptest::prelude::*;
            let mut db = Instance::new(scheme());
            let pool: Vec<NodeId> = (0..6).map(|_| db.add_object("Info").unwrap()).collect();
            // Columns in descending id order on purpose: `new` sorts.
            let mut table = MatchTable::new(pool[..width].iter().rev().copied().collect());
            let mut maps = Vec::new();
            for row in &rows {
                let images = || row[..width].iter().map(|&at| pool[at]);
                table.push_row(images());
                maps.push(Matching::from_pairs(table.domain().iter().copied().zip(images())));
            }
            maps.sort();
            maps.dedup();
            table.canonicalize();
            prop_assert_eq!(table.len(), maps.len());
            for (row, map) in table.rows().zip(&maps) {
                for (column, node) in table.domain().iter().enumerate() {
                    prop_assert_eq!(table.column(*node), Some(column));
                    prop_assert_eq!(row[column], map.image(*node));
                }
            }
            prop_assert_eq!(table.into_matchings(), maps);
        }
    }

    /// A pre-bound frame is completed to the same rows whichever order
    /// its remaining nodes are compiled in.
    #[test]
    fn prebound_frames_agree_across_compiled_orders() {
        let db = crate::gen::random_instance(&crate::gen::GenConfig {
            infos: 24,
            avg_links: 2.0,
            distinct_dates: 3,
            seed: 7,
        });
        let links = Label::new("links-to");

        // A seeded edge: x -links-to-> y pre-bound to every links-to edge
        // in turn, z and d still to bind. Every matching maps the seeded
        // pattern edge somewhere, so the union is `find_matchings`.
        let mut p = Pattern::new();
        let (x, y, z) = (p.node("Info"), p.node("Info"), p.node("Info"));
        let d = p.node("Date");
        p.edge(x, "links-to", y);
        p.edge(y, "links-to", z);
        p.edge(x, "created", d);
        let mut seeded = Vec::new();
        for order in [[z, d], [d, z]] {
            let search = Search::compile(&p, (&db).into(), &[x, y], &order, false);
            let mut cursor = search.cursor();
            let mut table = MatchTable::new(vec![x, y, z, d]);
            for src in db.nodes_with_label(&Label::new("Info")) {
                for dst in db.targets(src, &links) {
                    cursor.frame[x.index()] = Some(src);
                    cursor.frame[y.index()] = Some(dst);
                    assert!(search.bound_edges_hold(&cursor.frame));
                    search.solve(0, &mut cursor, &mut |complete| {
                        table.push_frame(complete);
                        true
                    });
                }
            }
            table.canonicalize();
            seeded.push(table.into_matchings());
        }
        assert_eq!(seeded[0], seeded[1]);
        assert_eq!(seeded[0], find_matchings(&p, &db).unwrap());
        assert!(!seeded[0].is_empty());

        // A negation extension: a pre-bound, the crossed chain b, c to
        // find. `[c, b]` starts at a node with no bound neighbour.
        let mut q = Pattern::new();
        let a = q.node("Info");
        let (b, c) = (q.negated_node("Info"), q.negated_node("Info"));
        q.edge(a, "links-to", b);
        q.edge(b, "links-to", c);
        let full = q.unnegated();
        let survivors: Vec<NodeId> = (find_matchings(&q, &db).unwrap().iter())
            .map(|m| m.image(a))
            .collect();
        for order in [[b, c], [c, b]] {
            let search = Search::compile(&full, (&db).into(), &[a], &order, false);
            let mut cursor = search.cursor();
            for image in db.nodes_with_label(&Label::new("Info")) {
                cursor.frame[a.index()] = Some(image);
                assert_eq!(search.extends(&mut cursor), !survivors.contains(&image));
            }
        }
        assert!(!survivors.is_empty() && survivors.len() < 24);
    }

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
        let wcoj = shaped(pattern, db, PlanShape::GenericJoin);
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

    /// EXPLAIN prints the base the compiled step reads: a self-loop is a
    /// filter on the label extent, not a support set.
    #[test]
    fn explain_renders_a_self_loop_as_an_extent_scan_it_filters() {
        let db = cyclic_instance();
        let mut p = Pattern::new();
        let x = p.node("Info");
        p.edge(x, "links-to", x);
        let plan = explain_plan_profiled(&p, &db).unwrap();
        assert_eq!(plan.steps.len(), 1);
        assert_eq!(
            plan.steps[0].access,
            "label extent scan of Info + self-loop filter"
        );
        // Eight Infos scanned, one kept: the self-linked one.
        assert_eq!(plan.steps[0].actual_rows, Some(1));
        assert_eq!(plan.actual_matchings, Some(1));
    }

    /// A node with a self-loop and one edge to a node bound after it
    /// intersects one support set: the loop is no support.
    #[test]
    fn explain_counts_one_support_set_beside_a_self_loop() {
        let db = cyclic_instance();
        let mut p = Pattern::new();
        let x = p.node("Info");
        let name = p.node("String");
        p.edge(x, "links-to", x);
        p.edge(x, "name", name);
        let plan = explain_plan_profiled(&p, &db).unwrap();
        let first = &plan.steps[0];
        assert_eq!(first.node, x, "{}", plan.render());
        assert_eq!(
            first.access,
            "support intersection over 1 incident edge label(s) on Info + self-loop filter"
        );
        assert_eq!(plan.actual_matchings, Some(0));
    }
}
