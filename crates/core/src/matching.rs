//! Pattern matching — the engine every GOOD operation is driven by.
//!
//! Section 3 of the paper: "a matching of J in I is a total mapping
//! `i : M → N` satisfying (1) labels are preserved, (2) print labels are
//! preserved, (3) edges are preserved." Matchings are graph
//! homomorphisms — *not* required to be injective.
//!
//! Two engines are provided:
//!
//! * [`find_matchings`] — the production engine: one backtracking loop
//!   over *steps compiled once per call* from the cost-based planner's
//!   binding order. Each step knows its class label, its print value or
//!   predicate, the one pattern edge it expands along (the neighbours
//!   of an already bound image, read off the adjacency index's
//!   `(class, λ)` postings) and the remaining edges to probe; unanchored
//!   steps intersect support sets instead of scanning a label. Every
//!   complete frame is one row of a flat [`MatchTable`]; large searches
//!   split the first step's candidates into *morsels* solved on
//!   multiple threads (see [`MatchConfig`]), and the table's canonical
//!   sort makes the result bit-for-bit identical at any thread count.
//!   Crossed (negated) parts use the paper's extension semantics;
//!   printable predicates are supported.
//! * [`find_matchings_naive`] — candidate cross-product enumeration with
//!   a post-hoc edge filter. Exponential; kept as differential-testing
//!   ground truth and as the baseline of benchmark E1.
//!
//! Both return matchings in a canonical deterministic order so that the
//! set-oriented operations of Section 3 are reproducible run to run.

use crate::error::{GoodError, Result};
use crate::instance::{Instance, Postings};
use crate::label::Label;
use crate::pattern::{Pattern, PatternNode, PatternNodeKind};
use crate::persist::PSet;
use crate::planner::{self, JoinStrategy};
use good_graph::NodeId;
use good_trace::{LiveCounter, LiveHistogram};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE_CALLS: LiveCounter = LiveCounter::new("match.calls");
/// Positive matchings dropped because a crossed part extended them.
static LIVE_NEGATION_FILTERED: LiveCounter = LiveCounter::new("match.negation_filtered");
static LIVE_FIND_NS: LiveHistogram = LiveHistogram::new("match.find_ns");
/// Per plan step, |estimated − actual| rows as a percentage of actual
/// (recorded by profiled EXPLAIN).
static LIVE_EST_ERROR_PCT: LiveHistogram = LiveHistogram::new("match.plan.est_error_pct");

/// An instance edge `(src, λ, dst)` by value — what an edge addition
/// adds and the fixpoint evaluator's delta log holds.
pub(crate) type EdgeTriple = (NodeId, Label, NodeId);

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

// ---- threading configuration -------------------------------------------

/// Process-wide default for [`MatchConfig::threads`]; 0 means "ask the
/// OS" via `available_parallelism`.
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Set the process-wide default worker count used when
/// [`MatchConfig::threads`] is 0. Passing 0 restores auto-detection.
pub fn set_default_threads(threads: usize) {
    DEFAULT_THREADS.store(threads, Ordering::Relaxed);
}

/// The resolved process-wide default worker count.
pub fn default_threads() -> usize {
    match DEFAULT_THREADS.load(Ordering::Relaxed) {
        0 => machine_parallelism(),
        n => n,
    }
}

/// `available_parallelism`, probed once. The std call re-reads cgroup
/// quota files on Linux (~10 µs), which would dwarf an anchored point
/// query if paid per `find_matchings` call.
fn machine_parallelism() -> usize {
    static CACHED: AtomicUsize = AtomicUsize::new(0);
    match CACHED.load(Ordering::Relaxed) {
        0 => {
            let probed = std::thread::available_parallelism().map_or(1, |n| n.get());
            CACHED.store(probed, Ordering::Relaxed);
            probed
        }
        n => n,
    }
}

/// Tuning knobs for [`find_matchings_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchConfig {
    /// Worker thread count. 0 resolves to [`default_threads`] (which in
    /// turn defaults to the machine's available parallelism).
    pub threads: usize,
    /// Minimum number of root candidates before the search goes
    /// parallel; below it the morsel machinery is not worth its setup
    /// cost and the sequential path runs instead.
    pub parallel_threshold: usize,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            threads: 0,
            parallel_threshold: 128,
        }
    }
}

impl MatchConfig {
    /// A sequential configuration (one worker, any input size).
    pub fn sequential() -> Self {
        MatchConfig {
            threads: 1,
            parallel_threshold: usize::MAX,
        }
    }

    /// Override the worker count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            default_threads().max(1)
        } else {
            self.threads
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
    /// `(class, λ)` postings that map its image to that image's
    /// neighbours of this class (the label hashes are paid here, once).
    /// The candidates are read off the smallest of the neighbour sets
    /// and probed against the others — the expansion edge is never
    /// re-checked, and with two or more links this is the generic
    /// join's intersection.
    links: Vec<(NodeId, &'a Postings)>,
    /// Labels of the node's self-loops, checked per candidate.
    loops: Vec<&'a Label>,
    /// Support sets of the edges to nodes not bound yet, every
    /// candidate must be in — resolved only where they are wanted: for
    /// a step with no link and no print value, whose candidate base is
    /// their intersection (complete but over-approximate, made exact by
    /// the later steps' links), and for every step when pruning.
    supports: Vec<&'a PSet<NodeId>>,
}

/// The backtracking search, compiled: a binding order as [`Step`]s over
/// an instance. Built once per `find_matchings*` call (or once per
/// pre-bound frame shape) and shared immutably across worker threads.
struct Search<'a> {
    instance: &'a Instance,
    steps: Vec<Step<'a>>,
    /// Positive edges among the pre-bound nodes, probed once per frame.
    bound_edges: Vec<(NodeId, &'a Label, NodeId)>,
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
    sets: Vec<&'a PSet<NodeId>>,
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
        instance: &'a Instance,
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
        let bound_edges = graph
            .edges()
            .filter(|e| bound[e.src.index()] && bound[e.dst.index()])
            .map(|e| (e.src, &e.payload.label, e.dst))
            .collect();
        let mut dead = false;
        let mut steps = Vec::with_capacity(order.len());
        for &node in order {
            let data = graph.node(node).expect("live pattern node");
            let PatternNodeKind::Class(class) = &data.kind else {
                unreachable!("method heads are rejected before compiling");
            };
            let (mut links, mut loops, mut open) = (Vec::new(), Vec::new(), Vec::new());
            for edge in graph.out_edges(node) {
                let label = &edge.payload.label;
                if edge.dst == node {
                    loops.push(label);
                } else if bound[edge.dst.index()] {
                    let postings = instance.source_postings(class, label);
                    links.extend(postings.map(|postings| (edge.dst, postings)));
                    dead |= postings.is_none();
                } else {
                    open.push((label, true));
                }
            }
            // Self-loops were taken by the outgoing pass.
            for edge in graph.in_edges(node).filter(|e| e.src != node) {
                let label = &edge.payload.label;
                if bound[edge.src.index()] {
                    let postings = instance.target_postings(class, label);
                    links.extend(postings.map(|postings| (edge.src, postings)));
                    dead |= postings.is_none();
                } else {
                    open.push((label, false));
                }
            }
            // Support sets are looked up only where `fill` reads them.
            let mut supports = Vec::new();
            if prune || (links.is_empty() && data.print.is_none()) {
                for (label, outgoing) in open {
                    let support = match outgoing {
                        true => instance.out_support(class, label),
                        false => instance.in_support(class, label),
                    };
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
            });
            bound[node.index()] = true;
        }
        Search {
            instance,
            steps,
            bound_edges,
            dead,
            capacity,
        }
    }

    /// The search [`planner::plan`] chose for the positive pattern.
    fn planned(pattern: &'a Pattern, instance: &'a Instance, choice: &planner::PlanChoice) -> Self {
        let prune = choice.strategy == JoinStrategy::GenericJoin;
        Search::compile(pattern, instance, &[], &choice.order, prune)
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
    /// cursor's frame, in ascending order: the base set — print-value
    /// probe, else the smallest neighbour set among the links, else
    /// support intersection, else the label extent — filtered by the
    /// node's predicate, its self-loops, every other link and the
    /// step's support sets.
    fn fill(&self, depth: usize, cursor: &mut Cursor<'a>, out: &mut Vec<NodeId>) {
        if self.dead {
            return;
        }
        let (instance, step) = (self.instance, &self.steps[depth]);
        let sets = &mut cursor.sets;
        sets.clear();
        for (other, postings) in &step.links {
            let image = cursor.frame[other.index()].expect("bound earlier in the order");
            match postings.get(&image) {
                Some(set) => sets.push(set),
                None => return,
            }
        }
        // The neighbour set to iterate; its members need no probe
        // against it. An exact print value is its own base.
        let base = (0..sets.len())
            .filter(|_| step.data.print.is_none())
            .min_by_key(|&at| sets[at].len());
        let admit = |candidate: &NodeId| {
            (step.data.predicate.is_none() || node_compatible(instance, step.data, *candidate))
                && (step.loops.iter()).all(|label| instance.has_edge(*candidate, label, *candidate))
                && (0..sets.len()).all(|at| Some(at) == base || sets[at].contains(candidate))
                && step.supports.iter().all(|set| set.contains(candidate))
        };
        if let Some(value) = &step.data.print {
            out.extend(instance.find_printable(step.class, value).filter(admit));
        } else if let Some(at) = base {
            out.extend(sets[at].iter().copied().filter(admit));
        } else if let Some(smallest) = step.supports.iter().min_by_key(|set| set.len()) {
            out.extend(smallest.iter().copied().filter(admit));
        } else {
            out.extend(instance.nodes_with_label(step.class).filter(admit));
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
    /// among themselves?
    fn bound_edges_hold(&self, frame: &[Option<NodeId>]) -> bool {
        let image = |node: NodeId| frame[node.index()].expect("pre-bound");
        self.bound_edges
            .iter()
            .all(|&(src, label, dst)| self.instance.has_edge(image(src), label, image(dst)))
    }

    /// Can the pre-bound frame in `cursor` be completed at all? Stops
    /// at the first witness.
    fn extends(&self, cursor: &mut Cursor<'a>) -> bool {
        self.bound_edges_hold(&cursor.frame) && !self.solve(0, cursor, &mut |_| false)
    }

    /// Enumerate every matching into `table`, unsorted. The first
    /// step's candidates seed the search; when there are enough of them
    /// they are split into morsels claimed by worker threads via an
    /// atomic cursor. The caller's canonical sort makes the merged
    /// result independent of scheduling.
    fn enumerate(&self, config: MatchConfig, table: &mut MatchTable) {
        let threads = config.resolved_threads();
        let mut cursor = self.cursor();
        let Some(root) = self.steps.first() else {
            // The empty pattern has exactly one (empty) matching.
            table.push_frame(&cursor.frame);
            return;
        };
        let mut roots = Vec::new();
        {
            let mut plan_span = good_trace::span("match", "match/plan");
            self.fill(0, &mut cursor, &mut roots);
            plan_span.arg("root_candidates", roots.len());
        }
        let slot = root.node.index();
        // Solve the subtrees under `roots[range]` into `table`.
        let solve_roots =
            |range: std::ops::Range<usize>, cursor: &mut Cursor<'a>, table: &mut MatchTable| {
                let visited = |cursor: &Cursor<'_>| cursor.visited.iter().sum::<u64>();
                let (before, steps) = (table.len(), visited(cursor));
                for &candidate in &roots[range] {
                    cursor.frame[slot] = Some(candidate);
                    self.solve(1, cursor, &mut |complete| {
                        table.push_frame(complete);
                        true
                    });
                }
                (table.len() - before, visited(cursor) - steps)
            };
        if threads <= 1 || roots.len() < config.parallel_threshold {
            let mut roots_span = good_trace::span("match", "match/roots");
            let (matchings, steps) = solve_roots(0..roots.len(), &mut cursor, table);
            roots_span.arg("roots", roots.len());
            roots_span.arg("matchings", matchings);
            roots_span.arg("steps", steps);
            return;
        }
        // Morsel-driven: workers claim contiguous chunks of the root
        // candidate list with a fetch_add cursor, so fast morsels steal
        // the slack left by slow ones.
        let morsel = (roots.len() / (threads * 8)).clamp(1, 1024);
        let next = AtomicUsize::new(0);
        let domain = &table.domain.clone();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = MatchTable::new(domain.clone());
                        let mut cursor = self.cursor();
                        loop {
                            let start = next.fetch_add(morsel, Ordering::Relaxed);
                            if start >= roots.len() {
                                break;
                            }
                            let end = (start + morsel).min(roots.len());
                            // Morsel spans are worker-thread roots. Their
                            // args (chunk bounds, matchings, steps) are
                            // deterministic even though worker assignment
                            // is not; `SpanTree::canonicalize` erases the
                            // scheduling order.
                            let mut morsel_span = good_trace::span("match", "match/morsel");
                            let (matchings, steps) =
                                solve_roots(start..end, &mut cursor, &mut local);
                            morsel_span.arg("start", start);
                            morsel_span.arg("len", end - start);
                            morsel_span.arg("matchings", matchings);
                            morsel_span.arg("steps", steps);
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                let local = handle.join().expect("matching worker panicked");
                table.images.extend_from_slice(&local.images);
                table.rows += local.rows;
            }
        });
    }
}

/// Enumerate into `table`, unsorted and possibly with repeats, every
/// matching of the positive pattern `pattern` that maps at least one
/// pattern edge onto an edge of `delta`: each occurrence of a delta
/// edge's label in the pattern is seeded in turn by pre-binding that
/// pattern edge's endpoints to the delta edge's, and the search compiled
/// for that pre-bound pair extends the frame. A self-loop pattern edge
/// binds one node and so only takes delta edges whose endpoints
/// coincide.
fn enumerate_seeded(
    pattern: &Pattern,
    instance: &Instance,
    delta: &[EdgeTriple],
    table: &mut MatchTable,
) {
    let graph = pattern.graph();
    for edge in graph.edges() {
        if !delta
            .iter()
            .any(|(_, label, _)| *label == edge.payload.label)
        {
            continue;
        }
        let src_data = graph.node(edge.src).expect("live pattern node");
        let dst_data = graph.node(edge.dst).expect("live pattern node");
        let mut prebound = vec![edge.src, edge.dst];
        prebound.dedup();
        let order = planner::order_from(pattern, instance, &prebound);
        let search = Search::compile(pattern, instance, &prebound, &order, false);
        let mut cursor = search.cursor();
        for (src, label, dst) in delta {
            if *label != edge.payload.label
                || (edge.src == edge.dst && src != dst)
                || !node_compatible(instance, src_data, *src)
                || !node_compatible(instance, dst_data, *dst)
            {
                continue;
            }
            cursor.frame[edge.src.index()] = Some(*src);
            cursor.frame[edge.dst.index()] = Some(*dst);
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
/// parts filtered.
pub(crate) fn finish(pattern: &Pattern, instance: &Instance, mut table: MatchTable) -> MatchTable {
    table.canonicalize();
    drop_extendable(pattern, instance, &mut table);
    table
}

/// The crossed-part filter: a matching of the positive part survives iff
/// it *cannot* be enlarged to the complete (unnegated) pattern. The
/// extension search is compiled once, for frames with the table's domain
/// pre-bound (`positive_part`/`unnegated` preserve the node arena
/// layout, so a row's columns index the full pattern's frame).
fn drop_extendable(pattern: &Pattern, instance: &Instance, table: &mut MatchTable) {
    if !pattern.has_negation() {
        return;
    }
    let full = pattern.unnegated();
    let domain = table.domain.clone();
    let order = planner::order_from(&full, instance, &domain);
    let search = Search::compile(&full, instance, &domain, &order, false);
    let mut cursor = search.cursor();
    table.retain(|row| {
        for (node, image) in domain.iter().zip(row) {
            cursor.frame[node.index()] = Some(*image);
        }
        !search.extends(&mut cursor)
    });
}

/// Find all matchings of `pattern` in `instance`, in canonical order,
/// using the process-default [`MatchConfig`].
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
    find_matchings_with(pattern, instance, MatchConfig::default())
}

/// [`find_matchings`] with explicit threading configuration.
///
/// The result is bit-for-bit identical for every `config`: both the
/// sequential and the morsel-parallel path enumerate the complete
/// solution set, and the canonical sort erases scheduling order.
pub fn find_matchings_with(
    pattern: &Pattern,
    instance: &Instance,
    config: MatchConfig,
) -> Result<Vec<Matching>> {
    find_match_table(pattern, instance, config).map(MatchTable::into_matchings)
}

/// [`find_matchings_with`] as the flat [`MatchTable`] the engine builds
/// — for callers that read columns and never need a map per matching.
pub fn find_match_table(
    pattern: &Pattern,
    instance: &Instance,
    config: MatchConfig,
) -> Result<MatchTable> {
    table_of(pattern, instance, config, None)
}

/// The matchings of `pattern` that map at least one positive pattern
/// edge onto an edge of `delta` — the later rounds of the fixpoint
/// evaluator (`fixpoint.rs`). Validation, canonical order and the
/// crossed-part filter are [`find_matchings_with`]'s; only the
/// enumeration differs (seeded from the delta's endpoints instead of
/// planned from a root). When no delta label occurs on an uncrossed
/// pattern edge there is nothing to seed and the pattern is not matched
/// at all.
pub(crate) fn matchings_using(
    pattern: &Pattern,
    instance: &Instance,
    delta: &[EdgeTriple],
) -> Result<Vec<Matching>> {
    let occurs = |label: &Label| {
        let mut edges = pattern.graph().edges();
        edges.any(|e| !e.payload.negated && e.payload.label == *label)
    };
    if !delta.iter().any(|(_, label, _)| occurs(label)) {
        return Ok(Vec::new());
    }
    table_of(pattern, instance, MatchConfig::sequential(), Some(delta))
        .map(MatchTable::into_matchings)
}

/// Shared body of [`find_match_table`] (`delta` absent: plan and
/// enumerate everything) and [`matchings_using`] (`delta` present).
fn table_of(
    pattern: &Pattern,
    instance: &Instance,
    config: MatchConfig,
    delta: Option<&[EdgeTriple]>,
) -> Result<MatchTable> {
    check_matchable(pattern, instance)?;

    let mut find_span = good_trace::span("match", "match/find");
    let started = find_span.is_live().then(std::time::Instant::now);

    let positive = pattern.positive_part();
    let mut table = MatchTable::new(positive.graph().node_ids().collect());
    let mut planned = None;
    match delta {
        Some(delta) => enumerate_seeded(&positive, instance, delta, &mut table),
        None => {
            // Cost-based planning: rank binding orders on the
            // incrementally maintained statistics and pick the evaluation
            // strategy. Pure arithmetic over per-edge scalars — cheap
            // enough for point queries.
            let choice = planner::plan(&positive, instance);
            planned = Some((choice.strategy.name(), choice.est_rows));
            choice.strategy.counter().incr();
            Search::planned(&positive, instance, &choice).enumerate(config, &mut table);
        }
    }
    table.canonicalize();
    let positive_results = table.len();
    drop_extendable(pattern, instance, &mut table);
    if find_span.is_live() {
        find_span.arg("pattern_nodes", table.domain.len());
        find_span.arg("matchings", table.len());
        find_span.arg("negation", pattern.has_negation());
        if let Some((strategy, est_rows)) = planned {
            find_span.arg("strategy", strategy);
            find_span.arg("est_rows", est_rows);
        }
        if let Some(delta) = delta {
            find_span.arg("delta_edges", delta.len());
        }
        // Timed on the span's clock, so only while a recorder is
        // installed; the counters below are always on.
        if let Some(t0) = started {
            LIVE_FIND_NS.observe(t0.elapsed().as_nanos() as u64);
        }
    }
    LIVE_CALLS.incr();
    LIVE_NEGATION_FILTERED.add((positive_results - table.len()) as u64);
    Ok(table)
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

/// A description of the plan [`find_matchings_with`] would run for a
/// pattern against an instance, produced by [`explain_plan_profiled`]
/// with per-step actual row counts.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Binding steps in the cost-based planner's order — the exact
    /// order the generic-join path executes, and the root (plus cold
    /// ranking) of the expand path.
    pub steps: Vec<PlanStep>,
    /// Exact candidate count for the root node.
    pub root_candidates: usize,
    /// Resolved worker thread count.
    pub threads: usize,
    /// Root-candidate count below which the search stays sequential.
    pub parallel_threshold: usize,
    /// Whether the morsel-parallel path would run.
    pub parallel: bool,
    /// Morsel size (0 when sequential).
    pub morsel: usize,
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
        if self.parallel {
            out.push_str(&format!(
                "root candidates: {} -> morsel-parallel ({} threads, morsel {}, threshold {})\n",
                self.root_candidates, self.threads, self.morsel, self.parallel_threshold
            ));
        } else {
            out.push_str(&format!(
                "root candidates: {} -> sequential ({} threads available, threshold {})\n",
                self.root_candidates, self.threads, self.parallel_threshold
            ));
        }
        out
    }

    /// Render as a JSON object for the server's slow-query log and
    /// stats wire frame: strategy, cost model totals, and per-step
    /// estimated-vs-actual rows. `actual_rows`/`actual_matchings` are
    /// `null` on unprofiled plans.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"strategy\":\"{}\",\"cyclic\":{},\"parallel\":{},\"negation\":{},\"root_candidates\":{},\"est_cost\":{:.1},\"est_rows\":{:.1},\"actual_matchings\":{},\"steps\":[",
            good_trace::escape_json_str(self.strategy.name()),
            self.cyclic,
            self.parallel,
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

/// Describe the plan [`find_matchings_with`] would choose for `pattern`
/// against `instance` under `config` — the cost-based binding order
/// with per-step access paths and cardinality estimates, the
/// expand-vs-generic-join strategy decision, the exact root candidate
/// count, and the sequential-vs-morsel decision — and run the planned
/// order once, filling each step's `actual_rows` with the number of
/// partial matchings that survived it and the plan's
/// `actual_matchings` with the final (negation-filtered) count, so
/// per-step estimate error is visible. Observes the estimate error
/// into the `match.plan.est_error_pct` histogram.
pub fn explain_plan_profiled(
    pattern: &Pattern,
    instance: &Instance,
    config: MatchConfig,
) -> Result<Plan> {
    check_matchable(pattern, instance)?;
    let positive = pattern.positive_part();
    let threads = config.resolved_threads();
    let choice = planner::plan(&positive, instance);

    // Profile: walk the planned order once, sequentially and pruning
    // (whatever the strategy, so a step's actual is what survives every
    // constraint decidable at it): the frames the loop visits at each
    // depth are the partial matchings that survived the step before.
    let (actuals, actual_matchings) = {
        let mut span = good_trace::span("match", "match/explain");
        let search = Search::compile(&positive, instance, &[], &choice.order, true);
        let mut cursor = search.cursor();
        let mut table = MatchTable::new(choice.order.clone());
        search.solve(0, &mut cursor, &mut |complete| {
            table.push_frame(complete);
            true
        });
        let matchings = finish(pattern, instance, table).len();
        span.arg("matchings", matchings);
        span.arg("strategy", choice.strategy.name());
        (cursor.visited.split_off(1), matchings)
    };

    let search = Search::planned(&positive, instance, &choice);
    let mut roots = Vec::new();
    if !search.steps.is_empty() {
        search.fill(0, &mut search.cursor(), &mut roots);
    }
    let root_candidates = roots.len();
    let mut planned: BTreeSet<NodeId> = BTreeSet::new();
    let mut steps = Vec::new();
    for (index, step) in choice.steps.iter().enumerate() {
        let node = step.node;
        let label = match &positive.graph().node(node).expect("live pattern node").kind {
            PatternNodeKind::Class(label) => label.to_string(),
            _ => "?".into(),
        };
        let access = describe_access(&positive, node, &planned);
        let actual = actuals[index];
        let estimated = step.est_rows.max(0.0);
        let error_pct = if actual == 0 {
            (estimated * 100.0) as u64
        } else {
            ((estimated - actual as f64).abs() / actual as f64 * 100.0) as u64
        };
        LIVE_EST_ERROR_PCT.observe(error_pct);
        steps.push(PlanStep {
            node,
            label,
            access,
            estimate: step.est_scanned.round() as usize,
            est_rows: step.est_rows,
            actual_rows: Some(actual),
        });
        planned.insert(node);
    }
    let parallel =
        !choice.order.is_empty() && threads > 1 && root_candidates >= config.parallel_threshold;
    let morsel = if parallel {
        (root_candidates / (threads * 8)).clamp(1, 1024)
    } else {
        0
    };
    Ok(Plan {
        steps,
        root_candidates,
        threads,
        parallel_threshold: config.parallel_threshold,
        parallel,
        morsel,
        negation: pattern.has_negation(),
        strategy: choice.strategy,
        cyclic: choice.cyclic,
        est_rows: choice.est_rows,
        est_cost: choice.est_cost,
        actual_matchings: Some(actual_matchings),
    })
}

/// Human description of the access path a step takes for `pnode` once
/// every node in `planned` is bound. Used by [`explain_plan_profiled`];
/// mirrors the candidate-derivation priority of the compiled steps.
fn describe_access(pattern: &Pattern, pnode: NodeId, planned: &BTreeSet<NodeId>) -> String {
    let data = pattern.graph().node(pnode).expect("live pattern node");
    let PatternNodeKind::Class(label) = &data.kind else {
        return "method head (not matchable)".into();
    };
    let predicate_note = if data.predicate.is_some() {
        " + predicate filter"
    } else {
        ""
    };
    if let Some(value) = &data.print {
        return format!("printable probe ({label} = {value})");
    }
    let mut anchors: Vec<String> = Vec::new();
    let mut unanchored = 0usize;
    for edge in pattern.graph().out_edges(pnode) {
        if edge.payload.negated {
            continue;
        }
        if planned.contains(&edge.dst) {
            anchors.push(format!("-[{}]->", edge.payload.label));
        } else {
            unanchored += 1;
        }
    }
    for edge in pattern.graph().in_edges(pnode) {
        if edge.payload.negated || edge.src == pnode {
            continue;
        }
        if planned.contains(&edge.src) {
            anchors.push(format!("<-[{}]-", edge.payload.label));
        } else {
            unanchored += 1;
        }
    }
    if !anchors.is_empty() {
        format!(
            "index probe: ({label}, edge) postings of a bound neighbour via {}{predicate_note}",
            anchors.join(" / ")
        )
    } else if unanchored > 0 {
        format!(
            "support intersection over {unanchored} incident edge label(s) \
             on {label}{predicate_note}"
        )
    } else {
        format!("label extent scan of {label}{predicate_note}")
    }
}

/// Ablation variant of [`find_matchings`]: the same compiled-step loop
/// given pattern-node id order instead of the planner's costed order,
/// sequentially. Exists to quantify, in benchmark E1, what the planned
/// order buys.
pub fn find_matchings_static_order(
    pattern: &Pattern,
    instance: &Instance,
) -> Result<Vec<Matching>> {
    matchings_in_order(pattern, instance, false, |positive| {
        let mut order: Vec<NodeId> = positive.graph().node_ids().collect();
        order.sort_unstable();
        order
    })
}

/// The one loop over a caller-chosen shape — binding order and pruning —
/// run sequentially: the body of [`find_matchings_static_order`] and of
/// `wcoj::find_matchings_wcoj`.
pub(crate) fn matchings_in_order(
    pattern: &Pattern,
    instance: &Instance,
    prune: bool,
    order: impl FnOnce(&Pattern) -> Vec<NodeId>,
) -> Result<Vec<Matching>> {
    check_matchable(pattern, instance)?;
    let positive = pattern.positive_part();
    let order = order(&positive);
    let mut table = MatchTable::new(order.clone());
    Search::compile(&positive, instance, &[], &order, prune)
        .enumerate(MatchConfig::sequential(), &mut table);
    Ok(finish(pattern, instance, table).into_matchings())
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
    Ok(finish(pattern, instance, table).into_matchings())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::ValuePredicate;
    use crate::scheme::{Scheme, SchemeBuilder};
    use crate::value::{Value, ValueType};

    fn scheme() -> Scheme {
        SchemeBuilder::new()
            .object("Info")
            .printable("String", ValueType::Str)
            .printable("Date", ValueType::Date)
            .functional("Info", "name", "String")
            .functional("Info", "created", "Date")
            .functional("Info", "modified", "Date")
            .multivalued("Info", "links-to", "Info")
            .build()
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
        let c = find_matchings_static_order(&pattern, &db).unwrap();
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
        let fixed = find_matchings_static_order(&p, &db).unwrap();
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
    fn parallel_engine_is_deterministic() {
        // Force the morsel path (threshold 0) at several worker counts
        // and demand bit-for-bit equality with the sequential engine,
        // on a pattern with multiple matchings per root candidate.
        let (db, _) = small_instance();
        let mut p = Pattern::new();
        let x = p.node("Info");
        let y = p.node("Info");
        p.edge(x, "links-to", y);
        let sequential = find_matchings_with(&p, &db, MatchConfig::sequential()).unwrap();
        for threads in [2, 4, 8] {
            let parallel = find_matchings_with(
                &p,
                &db,
                MatchConfig {
                    threads,
                    parallel_threshold: 0,
                },
            )
            .unwrap();
            assert_eq!(sequential, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_engine_handles_negation_and_empty_pattern() {
        let (db, _) = small_instance();
        let config = MatchConfig {
            threads: 4,
            parallel_threshold: 0,
        };
        let empty = find_matchings_with(&Pattern::new(), &db, config).unwrap();
        assert_eq!(empty.len(), 1);
        let mut p = Pattern::new();
        let info = p.node("Info");
        let other = p.negated_node("Info");
        p.edge(info, "links-to", other);
        let sequential = find_matchings_with(&p, &db, MatchConfig::sequential()).unwrap();
        let parallel = find_matchings_with(&p, &db, config).unwrap();
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn default_thread_override_roundtrips() {
        set_default_threads(3);
        assert_eq!(default_threads(), 3);
        set_default_threads(0);
        assert!(default_threads() >= 1);
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
            let search = Search::compile(&p, &db, &[x, y], &order, false);
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
            let search = Search::compile(&full, &db, &[a], &order, false);
            let mut cursor = search.cursor();
            for image in db.nodes_with_label(&Label::new("Info")) {
                cursor.frame[a.index()] = Some(image);
                assert_eq!(search.extends(&mut cursor), !survivors.contains(&image));
            }
        }
        assert!(!survivors.is_empty() && survivors.len() < 24);
    }
}
