//! Pattern matching — the engine every GOOD operation is driven by.
//!
//! Section 3 of the paper: "a matching of J in I is a total mapping
//! `i : M → N` satisfying (1) labels are preserved, (2) print labels are
//! preserved, (3) edges are preserved." Matchings are graph
//! homomorphisms — *not* required to be injective.
//!
//! Two engines are provided:
//!
//! * [`find_matchings`] — the production engine: backtracking search
//!   over a dense [`Frame`] with dynamic most-constrained-node
//!   selection. Candidate sets come from the instance's adjacency
//!   index — `(node label, edge label)` postings for bound neighbours,
//!   support-set intersections for unanchored nodes — instead of
//!   whole-label scans. Large searches are split into *morsels* of
//!   root-node candidates and solved on multiple threads (see
//!   [`MatchConfig`]); the canonical sort makes the result bit-for-bit
//!   identical at any thread count. Crossed (negated) parts use the
//!   paper's extension semantics; printable predicates are supported.
//! * [`find_matchings_naive`] — candidate cross-product enumeration with
//!   a post-hoc edge filter. Exponential; kept as differential-testing
//!   ground truth and as the baseline of benchmark E1.
//!
//! Both return matchings in a canonical deterministic order so that the
//! set-oriented operations of Section 3 are reproducible run to run.

use crate::error::{GoodError, Result};
use crate::instance::Instance;
use crate::label::Label;
use crate::pattern::{Pattern, PatternNode, PatternNodeKind};
use crate::persist::PSet;
use crate::planner::{self, JoinStrategy};
use crate::wcoj;
use good_graph::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bound-neighbour images with at most this many incident edges are
/// scanned directly during candidate derivation instead of probed
/// through the adjacency index (mirrors `Instance::has_edge`).
const SCAN_LIMIT: usize = 8;

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

// ---- binding frame ------------------------------------------------------

/// A dense partial binding: pattern-node arena index → instance node.
///
/// Replaces the `BTreeMap<NodeId, NodeId>` of the original engine; bind,
/// unbind, and lookup are all a single vector access. Sized by the
/// pattern graph's `node_index_bound`, which `positive_part`/`unnegated`
/// preserve, so one frame layout serves both the positive search and the
/// negation-extension search.
#[derive(Debug, Clone)]
struct Frame {
    slots: Vec<Option<NodeId>>,
    bound: usize,
}

impl Frame {
    fn new(capacity: usize) -> Self {
        Frame {
            slots: vec![None; capacity],
            bound: 0,
        }
    }

    #[inline]
    fn get(&self, node: NodeId) -> Option<NodeId> {
        self.slots[node.index()]
    }

    #[inline]
    fn bind(&mut self, node: NodeId, image: NodeId) {
        debug_assert!(self.slots[node.index()].is_none());
        self.slots[node.index()] = Some(image);
        self.bound += 1;
    }

    #[inline]
    fn unbind(&mut self, node: NodeId) {
        debug_assert!(self.slots[node.index()].is_some());
        self.slots[node.index()] = None;
        self.bound -= 1;
    }
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

/// The backtracking core: extend a [`Frame`] to cover all of `nodes`,
/// invoking `on_match` for each complete assignment. Shared immutably
/// across worker threads by the parallel driver.
struct Search<'a> {
    pattern: &'a Pattern,
    instance: &'a Instance,
    nodes: Vec<NodeId>,
}

impl<'a> Search<'a> {
    /// One frame sized for this search's pattern.
    fn frame(&self) -> Frame {
        Frame::new(self.pattern.graph().node_index_bound())
    }

    /// Materialize a complete frame as a [`Matching`].
    fn to_matching(&self, frame: &Frame) -> Matching {
        Matching(
            self.nodes
                .iter()
                .map(|&n| (n, frame.get(n).expect("complete frame")))
                .collect(),
        )
    }

    /// Candidate instance nodes for `pnode` given the current partial
    /// `frame`, derived from the adjacency index.
    ///
    /// (`SCAN_LIMIT` mirrors `Instance::has_edge`: below it a direct
    /// edge-list scan beats the two label hashes an index probe costs.)
    ///
    /// Priority: exact printable value (one probe) → smallest postings
    /// set of an edge to a bound neighbour (exact) → intersection of the
    /// support sets of all incident edge labels (complete
    /// over-approximation; exactness is restored by `edges_consistent`
    /// as neighbours get bound) → whole label extent (isolated nodes).
    fn candidates(&self, pnode: NodeId, frame: &Frame) -> Vec<NodeId> {
        let data = self.pattern.graph().node(pnode).expect("live pattern node");
        let PatternNodeKind::Class(label) = &data.kind else {
            return Vec::new();
        };
        // Exact printable value: at most one candidate via the index.
        if let Some(value) = &data.print {
            return match self.instance.find_printable(label, value) {
                Some(node) => vec![node],
                None => Vec::new(),
            };
        }
        // Bound neighbour: candidates are the neighbours of its image
        // along the connecting edge. A low-degree image is scanned
        // directly (cheaper than hashing two labels for an index probe);
        // a high-degree one uses the postings under (λ(pnode), edge
        // label), which are exact and degree-independent. A probed
        // anchor with no postings means no candidate at all.
        enum Anchor<'i> {
            Postings(&'i PSet<NodeId>),
            ScanSources(NodeId),
            ScanTargets(NodeId),
        }
        let mut best: Option<(usize, Anchor<'_>, &Label)> = None;
        let mut anchored = false;
        for edge in self.pattern.graph().out_edges(pnode) {
            if edge.payload.negated {
                continue;
            }
            if let Some(bound) = frame.get(edge.dst) {
                anchored = true;
                let elabel = &edge.payload.label;
                let degree = self.instance.in_degree(bound);
                if degree <= SCAN_LIMIT {
                    if best.as_ref().is_none_or(|(len, _, _)| degree < *len) {
                        best = Some((degree, Anchor::ScanSources(bound), elabel));
                    }
                } else {
                    match self.instance.indexed_sources(label, elabel, bound) {
                        Some(set) => {
                            if best.as_ref().is_none_or(|(len, _, _)| set.len() < *len) {
                                best = Some((set.len(), Anchor::Postings(set), elabel));
                            }
                        }
                        None => return Vec::new(),
                    }
                }
            }
        }
        for edge in self.pattern.graph().in_edges(pnode) {
            if edge.payload.negated {
                continue;
            }
            if let Some(bound) = frame.get(edge.src) {
                anchored = true;
                let elabel = &edge.payload.label;
                let degree = self.instance.out_degree(bound);
                if degree <= SCAN_LIMIT {
                    if best.as_ref().is_none_or(|(len, _, _)| degree < *len) {
                        best = Some((degree, Anchor::ScanTargets(bound), elabel));
                    }
                } else {
                    match self.instance.indexed_targets(label, elabel, bound) {
                        Some(set) => {
                            if best.as_ref().is_none_or(|(len, _, _)| set.len() < *len) {
                                best = Some((set.len(), Anchor::Postings(set), elabel));
                            }
                        }
                        None => return Vec::new(),
                    }
                }
            }
        }
        if anchored {
            let (_, anchor, elabel) = best.expect("anchored search has an anchor");
            return match anchor {
                Anchor::Postings(set) => set
                    .iter()
                    .copied()
                    .filter(|c| node_compatible(self.instance, data, *c))
                    .collect(),
                Anchor::ScanSources(bound) => {
                    let mut cands: Vec<NodeId> = self
                        .instance
                        .sources(bound, elabel)
                        .filter(|c| node_compatible(self.instance, data, *c))
                        .collect();
                    cands.sort_unstable();
                    cands.dedup();
                    cands
                }
                Anchor::ScanTargets(bound) => {
                    let mut cands: Vec<NodeId> = self
                        .instance
                        .targets(bound, elabel)
                        .filter(|c| node_compatible(self.instance, data, *c))
                        .collect();
                    cands.sort_unstable();
                    cands.dedup();
                    cands
                }
            };
        }
        // No bound neighbour: intersect the support sets of every
        // incident edge label, smallest first.
        let mut supports: Vec<&PSet<NodeId>> = Vec::new();
        for edge in self.pattern.graph().out_edges(pnode) {
            if edge.payload.negated {
                continue;
            }
            match self.instance.out_support(label, &edge.payload.label) {
                Some(set) => supports.push(set),
                None => return Vec::new(),
            }
        }
        for edge in self.pattern.graph().in_edges(pnode) {
            if edge.payload.negated {
                continue;
            }
            match self.instance.in_support(label, &edge.payload.label) {
                Some(set) => supports.push(set),
                None => return Vec::new(),
            }
        }
        if !supports.is_empty() {
            supports.sort_by_key(|set| set.len());
            let (first, rest) = supports.split_first().expect("non-empty");
            return first
                .iter()
                .copied()
                .filter(|c| rest.iter().all(|set| set.contains(c)))
                .filter(|c| node_compatible(self.instance, data, *c))
                .collect();
        }
        // Isolated pattern node: fall back to the label extent.
        self.instance
            .nodes_with_label(label)
            .filter(|c| node_compatible(self.instance, data, *c))
            .collect()
    }

    /// All (non-negated) pattern edges between bound nodes must exist in
    /// the instance once both endpoints are bound. We check edges
    /// incident to the node just bound.
    fn edges_consistent(&self, pnode: NodeId, frame: &Frame) -> bool {
        let image = frame.get(pnode).expect("pnode just bound");
        for edge in self.pattern.graph().out_edges(pnode) {
            if edge.payload.negated {
                continue;
            }
            if let Some(dst) = frame.get(edge.dst) {
                if !self.instance.has_edge(image, &edge.payload.label, dst) {
                    return false;
                }
            }
        }
        for edge in self.pattern.graph().in_edges(pnode) {
            if edge.payload.negated {
                continue;
            }
            // Self-loops were handled by the out_edges pass.
            if edge.src == pnode {
                continue;
            }
            if let Some(src) = frame.get(edge.src) {
                if !self.instance.has_edge(src, &edge.payload.label, image) {
                    return false;
                }
            }
        }
        true
    }

    /// A cheap upper-bound estimate of `pnode`'s candidate count under
    /// the current frame, without materializing the list. Used for
    /// most-constrained-node selection: full lists are built only for
    /// the node actually chosen. All numbers are O(1) — index set sizes
    /// or neighbour degrees, never an edge-list traversal.
    fn candidate_estimate(&self, pnode: NodeId, frame: &Frame) -> usize {
        let data = self.pattern.graph().node(pnode).expect("live pattern node");
        let PatternNodeKind::Class(label) = &data.kind else {
            return 0;
        };
        if data.print.is_some() {
            return 1;
        }
        let mut best = self.instance.label_count(label);
        for edge in self.pattern.graph().out_edges(pnode) {
            if edge.payload.negated {
                continue;
            }
            let size = match frame.get(edge.dst) {
                Some(bound) => {
                    let degree = self.instance.in_degree(bound);
                    if degree <= SCAN_LIMIT {
                        degree
                    } else {
                        self.instance
                            .indexed_sources(label, &edge.payload.label, bound)
                            .map_or(0, PSet::len)
                    }
                }
                None => self
                    .instance
                    .out_support(label, &edge.payload.label)
                    .map_or(0, PSet::len),
            };
            best = best.min(size);
        }
        for edge in self.pattern.graph().in_edges(pnode) {
            if edge.payload.negated {
                continue;
            }
            let size = match frame.get(edge.src) {
                Some(bound) => {
                    let degree = self.instance.out_degree(bound);
                    if degree <= SCAN_LIMIT {
                        degree
                    } else {
                        self.instance
                            .indexed_targets(label, &edge.payload.label, bound)
                            .map_or(0, PSet::len)
                    }
                }
                None => self
                    .instance
                    .in_support(label, &edge.payload.label)
                    .map_or(0, PSet::len),
            };
            best = best.min(size);
        }
        best
    }

    /// Human description of the access path [`Search::candidates`] would
    /// take for `pnode` once every node in `planned` is bound. Used by
    /// [`explain_plan`]; mirrors the candidate-derivation priority.
    fn describe_access(&self, pnode: NodeId, planned: &BTreeSet<NodeId>) -> String {
        let data = self.pattern.graph().node(pnode).expect("live pattern node");
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
        for edge in self.pattern.graph().out_edges(pnode) {
            if edge.payload.negated {
                continue;
            }
            if planned.contains(&edge.dst) {
                anchors.push(format!("-[{}]->", edge.payload.label));
            } else {
                unanchored += 1;
            }
        }
        for edge in self.pattern.graph().in_edges(pnode) {
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
                "index probe: smallest ({label}, edge) postings of a bound neighbour \
                 via {}{predicate_note} (anchors with degree <= {SCAN_LIMIT} scan edge lists)",
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

    /// The most constrained unbound node, by candidate estimate.
    fn most_constrained(&self, frame: &Frame) -> Option<NodeId> {
        self.nodes
            .iter()
            .filter(|n| frame.get(**n).is_none())
            .map(|&n| (self.candidate_estimate(n, frame), n))
            .min()
            .map(|(_, n)| n)
    }

    fn solve(
        &self,
        frame: &mut Frame,
        steps: &mut u64,
        on_match: &mut impl FnMut(&Frame) -> bool,
    ) -> bool {
        *steps += 1;
        if frame.bound == self.nodes.len() {
            return on_match(frame);
        }
        // Most-constrained-node selection on cheap estimates; only the
        // winner's candidate list is materialized.
        let next = self
            .most_constrained(frame)
            .expect("at least one unbound node");
        let candidates = self.candidates(next, frame);
        for candidate in candidates {
            frame.bind(next, candidate);
            if self.edges_consistent(next, frame) && !self.solve(frame, steps, on_match) {
                return false;
            }
            frame.unbind(next);
        }
        true
    }

    /// Enumerate, unsorted and possibly with repeats, every matching of
    /// this search's (positive) pattern that maps at least one pattern
    /// edge onto an edge of `delta`: each occurrence of a delta edge's
    /// label in the pattern is seeded in turn by pre-binding that
    /// pattern edge's endpoints to the delta edge's, and [`Search::solve`]
    /// extends the frame. A self-loop pattern edge binds one node and so
    /// only takes delta edges whose endpoints coincide.
    fn enumerate_seeded(&self, delta: &[EdgeTriple]) -> Vec<Matching> {
        let graph = self.pattern.graph();
        let mut results = Vec::new();
        let mut frame = self.frame();
        let mut steps = 0u64;
        for edge in graph.edges() {
            let src_data = graph.node(edge.src).expect("live pattern node");
            let dst_data = graph.node(edge.dst).expect("live pattern node");
            for (src, label, dst) in delta {
                if *label != edge.payload.label
                    || (edge.src == edge.dst && src != dst)
                    || !node_compatible(self.instance, src_data, *src)
                    || !node_compatible(self.instance, dst_data, *dst)
                {
                    continue;
                }
                frame.bind(edge.src, *src);
                if edge.dst != edge.src {
                    frame.bind(edge.dst, *dst);
                }
                if self.edges_consistent(edge.src, &frame)
                    && self.edges_consistent(edge.dst, &frame)
                {
                    self.solve(&mut frame, &mut steps, &mut |complete| {
                        results.push(self.to_matching(complete));
                        true
                    });
                }
                if edge.dst != edge.src {
                    frame.unbind(edge.dst);
                }
                frame.unbind(edge.src);
            }
        }
        results
    }

    /// Enumerate every matching of this search's (positive) pattern,
    /// unsorted. The root node — the cost-based planner's choice when
    /// `root_override` is given, the most-constrained node otherwise —
    /// seeds the search; splits its candidate list into morsels claimed
    /// by worker threads via an atomic cursor when the list is large
    /// enough; the caller's canonical sort makes the merged result
    /// independent of scheduling.
    fn enumerate(&self, config: MatchConfig, root_override: Option<NodeId>) -> Vec<Matching> {
        let threads = config.resolved_threads();
        if self.nodes.is_empty() {
            // The empty pattern has exactly one (empty) matching.
            return vec![self.to_matching(&self.frame())];
        }
        let empty = self.frame();
        let (root, root_candidates) = {
            let mut plan_span = good_trace::span("match", "match/plan");
            let root = root_override
                .filter(|n| self.nodes.contains(n))
                .unwrap_or_else(|| self.most_constrained(&empty).expect("non-empty pattern"));
            let root_candidates = self.candidates(root, &empty);
            plan_span.arg("root_candidates", root_candidates.len());
            (root, root_candidates)
        };
        if threads <= 1 || root_candidates.len() < config.parallel_threshold {
            let mut roots_span = good_trace::span("match", "match/roots");
            let mut steps = 0u64;
            let mut results = Vec::new();
            let mut frame = self.frame();
            for &candidate in &root_candidates {
                frame.bind(root, candidate);
                if self.edges_consistent(root, &frame) {
                    self.solve(&mut frame, &mut steps, &mut |complete| {
                        results.push(self.to_matching(complete));
                        true
                    });
                }
                frame.unbind(root);
            }
            roots_span.arg("roots", root_candidates.len());
            roots_span.arg("matchings", results.len());
            roots_span.arg("steps", steps);
            return results;
        }
        // Morsel-driven: workers claim contiguous chunks of the root
        // candidate list with a fetch_add cursor, so fast morsels steal
        // the slack left by slow ones.
        let morsel = (root_candidates.len() / (threads * 8)).clamp(1, 1024);
        let cursor = AtomicUsize::new(0);
        let mut merged: Vec<Matching> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let cursor = &cursor;
                    let root_candidates = &root_candidates;
                    scope.spawn(move || {
                        let mut local = Vec::new();
                        let mut frame = self.frame();
                        loop {
                            let start = cursor.fetch_add(morsel, Ordering::Relaxed);
                            if start >= root_candidates.len() {
                                break;
                            }
                            let end = (start + morsel).min(root_candidates.len());
                            // Morsel spans are worker-thread roots. Their
                            // args (chunk bounds, matchings, steps) are
                            // deterministic even though worker assignment
                            // is not; `SpanTree::canonicalize` erases the
                            // scheduling order.
                            let mut morsel_span = good_trace::span("match", "match/morsel");
                            let mut steps = 0u64;
                            let before = local.len();
                            for &candidate in &root_candidates[start..end] {
                                frame.bind(root, candidate);
                                if self.edges_consistent(root, &frame) {
                                    self.solve(&mut frame, &mut steps, &mut |complete| {
                                        local.push(self.to_matching(complete));
                                        true
                                    });
                                }
                                frame.unbind(root);
                            }
                            morsel_span.arg("start", start);
                            morsel_span.arg("len", end - start);
                            morsel_span.arg("matchings", local.len() - before);
                            morsel_span.arg("steps", steps);
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                merged.extend(handle.join().expect("matching worker panicked"));
            }
        });
        merged
    }
}

/// Can `matching` (over the positive part) be extended to a matching of
/// the complete (unnegated) pattern?
pub(crate) fn extends_to_full(pattern: &Pattern, instance: &Instance, matching: &Matching) -> bool {
    let full = pattern.unnegated();
    let nodes: Vec<NodeId> = full.graph().node_ids().collect();
    let search = Search {
        pattern: &full,
        instance,
        nodes,
    };
    // `positive_part`/`unnegated` preserve the node arena layout, so the
    // matching's pattern-node ids index the full pattern's frame.
    let mut frame = search.frame();
    for (pnode, image) in matching.iter() {
        frame.bind(pnode, image);
    }
    // Pre-bound part must already satisfy the full pattern's edges among
    // bound nodes (crossed edges between positive nodes).
    for (pnode, _) in matching.iter() {
        if !search.edges_consistent(pnode, &frame) {
            return false;
        }
    }
    let mut found = false;
    let mut steps = 0u64;
    search.solve(&mut frame, &mut steps, &mut |_| {
        found = true;
        false // stop at first witness
    });
    found
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
    matchings_of(pattern, instance, config, None)
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
    matchings_of(pattern, instance, MatchConfig::sequential(), Some(delta))
}

/// Shared body of [`find_matchings_with`] (`delta` absent: plan and
/// enumerate everything) and [`matchings_using`] (`delta` present).
fn matchings_of(
    pattern: &Pattern,
    instance: &Instance,
    config: MatchConfig,
    delta: Option<&[EdgeTriple]>,
) -> Result<Vec<Matching>> {
    if pattern.has_method_head() {
        return Err(GoodError::InvalidPattern(
            "patterns with method-head nodes must be rewritten by a method call before matching"
                .into(),
        ));
    }
    pattern.validate(instance.scheme())?;

    let mut find_span = good_trace::span("match", "match/find");
    let started = find_span.is_live().then(std::time::Instant::now);

    let positive = pattern.positive_part();
    let nodes: Vec<NodeId> = positive.graph().node_ids().collect();
    let pattern_nodes = nodes.len();
    let mut planned = None;
    let mut results = match delta {
        Some(delta) => {
            let search = Search {
                pattern: &positive,
                instance,
                nodes,
            };
            search.enumerate_seeded(delta)
        }
        None => {
            // Cost-based planning: rank binding orders on the
            // incrementally maintained statistics and pick the evaluation
            // strategy. Pure arithmetic over per-edge scalars — cheap
            // enough for point queries.
            let choice = planner::plan(&positive, instance);
            planned = Some((choice.strategy.name(), choice.est_rows));
            match choice.strategy {
                JoinStrategy::GenericJoin => {
                    good_trace::counter_add("planner.wcoj", 1);
                    wcoj::enumerate_generic(&positive, instance, &choice.order, None)
                }
                JoinStrategy::Expand => {
                    good_trace::counter_add("planner.expand", 1);
                    let search = Search {
                        pattern: &positive,
                        instance,
                        nodes,
                    };
                    search.enumerate(config, choice.order.first().copied())
                }
            }
        }
    };
    results.sort();
    results.dedup();

    let positive_results = results.len();
    if pattern.has_negation() {
        results.retain(|m| !extends_to_full(pattern, instance, m));
    }
    if find_span.is_live() {
        find_span.arg("pattern_nodes", pattern_nodes);
        find_span.arg("matchings", results.len());
        find_span.arg("negation", pattern.has_negation());
        if let Some((strategy, est_rows)) = planned {
            find_span.arg("strategy", strategy);
            find_span.arg("est_rows", est_rows);
        }
        if let Some(delta) = delta {
            find_span.arg("delta_edges", delta.len());
        }
        good_trace::counter_add("match.calls", 1);
        good_trace::counter_add(
            "match.negation_filtered",
            (positive_results - results.len()) as u64,
        );
        if let Some(t0) = started {
            good_trace::observe_ns("match.find_ns", t0.elapsed().as_nanos() as u64);
        }
    }
    Ok(results)
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

/// A static description of the plan [`find_matchings_with`] would run
/// for a pattern against an instance — produced by [`explain_plan`]
/// without executing the search, or by [`explain_plan_profiled`] with
/// per-step actual row counts.
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

/// Describe, without running it, the plan [`find_matchings_with`] would
/// choose for `pattern` against `instance` under `config`: the
/// cost-based binding order with per-step access paths and cardinality
/// estimates, the expand-vs-generic-join strategy decision, the exact
/// root candidate count, and the sequential-vs-morsel decision.
pub fn explain_plan(pattern: &Pattern, instance: &Instance, config: MatchConfig) -> Result<Plan> {
    explain(pattern, instance, config, false)
}

/// [`explain_plan`] plus execution: runs the planned order once,
/// filling each step's `actual_rows` with the number of partial
/// matchings that survived it and the plan's `actual_matchings` with
/// the final (negation-filtered) count, so per-step estimate error is
/// visible. Observes the estimate error into the
/// `match.plan.est_error_pct` trace histogram when tracing is live.
pub fn explain_plan_profiled(
    pattern: &Pattern,
    instance: &Instance,
    config: MatchConfig,
) -> Result<Plan> {
    explain(pattern, instance, config, true)
}

fn explain(
    pattern: &Pattern,
    instance: &Instance,
    config: MatchConfig,
    profile: bool,
) -> Result<Plan> {
    if pattern.has_method_head() {
        return Err(GoodError::InvalidPattern(
            "patterns with method-head nodes must be rewritten by a method call before matching"
                .into(),
        ));
    }
    pattern.validate(instance.scheme())?;
    let positive = pattern.positive_part();
    let nodes: Vec<NodeId> = positive.graph().node_ids().collect();
    let search = Search {
        pattern: &positive,
        instance,
        nodes,
    };
    let empty = search.frame();
    let threads = config.resolved_threads();
    let choice = planner::plan(&positive, instance);

    // Profile: execute the planned order once, counting the partial
    // matchings that survive each depth. The generic enumerator walks
    // exactly the planned static order, so its per-depth counts are the
    // per-step actuals for both strategies.
    let (actuals, actual_matchings) = if profile {
        let mut span = good_trace::span("match", "match/explain");
        let mut counts = vec![0u64; choice.order.len()];
        let mut results =
            wcoj::enumerate_generic(&positive, instance, &choice.order, Some(&mut counts));
        results.sort();
        results.dedup();
        if pattern.has_negation() {
            results.retain(|m| !extends_to_full(pattern, instance, m));
        }
        span.arg("matchings", results.len());
        span.arg("strategy", choice.strategy.name());
        (Some(counts), Some(results.len()))
    } else {
        (None, None)
    };

    let mut planned: BTreeSet<NodeId> = BTreeSet::new();
    let mut steps = Vec::new();
    let mut root_candidates = 0usize;
    for (index, step) in choice.steps.iter().enumerate() {
        let node = step.node;
        if planned.is_empty() {
            root_candidates = search.candidates(node, &empty).len();
        }
        let label = match &positive.graph().node(node).expect("live pattern node").kind {
            PatternNodeKind::Class(label) => label.to_string(),
            _ => "?".into(),
        };
        let access = search.describe_access(node, &planned);
        let actual_rows = actuals.as_ref().map(|counts| counts[index]);
        if let Some(actual) = actual_rows {
            let estimated = step.est_rows.max(0.0);
            let error_pct = if actual == 0 {
                (estimated * 100.0) as u64
            } else {
                ((estimated - actual as f64).abs() / actual as f64 * 100.0) as u64
            };
            good_trace::observe("match.plan.est_error_pct", error_pct);
        }
        steps.push(PlanStep {
            node,
            label,
            access,
            estimate: step.est_scanned.round() as usize,
            est_rows: step.est_rows,
            actual_rows,
        });
        planned.insert(node);
    }
    let parallel = choice.strategy == JoinStrategy::Expand
        && !choice.order.is_empty()
        && threads > 1
        && root_candidates >= config.parallel_threshold;
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
        actual_matchings,
    })
}

/// True if the pattern matches at least once (early-exit variant).
pub fn matches_once(pattern: &Pattern, instance: &Instance) -> Result<bool> {
    // Negation requires full enumeration of the positive part anyway
    // only per-matching; reuse find_matchings for simplicity there.
    if pattern.has_negation() {
        return Ok(!find_matchings(pattern, instance)?.is_empty());
    }
    if pattern.has_method_head() {
        return Err(GoodError::InvalidPattern(
            "patterns with method-head nodes must be rewritten before matching".into(),
        ));
    }
    pattern.validate(instance.scheme())?;
    let nodes: Vec<NodeId> = pattern.graph().node_ids().collect();
    let search = Search {
        pattern,
        instance,
        nodes,
    };
    let mut found = false;
    let mut frame = search.frame();
    let mut steps = 0u64;
    search.solve(&mut frame, &mut steps, &mut |_| {
        found = true;
        false
    });
    Ok(found)
}

/// Ablation variant of [`find_matchings`]: backtracking with the same
/// candidate derivation but a *static* node order (pattern-node id
/// order) instead of dynamic most-constrained-node selection. Exists to
/// quantify, in benchmark E1, how much the selection heuristic buys.
pub fn find_matchings_static_order(
    pattern: &Pattern,
    instance: &Instance,
) -> Result<Vec<Matching>> {
    if pattern.has_method_head() {
        return Err(GoodError::InvalidPattern(
            "patterns with method-head nodes must be rewritten before matching".into(),
        ));
    }
    pattern.validate(instance.scheme())?;
    let positive = pattern.positive_part();
    let mut order: Vec<NodeId> = positive.graph().node_ids().collect();
    order.sort();
    let search = Search {
        pattern: &positive,
        instance,
        nodes: order.clone(),
    };

    fn solve_static(
        search: &Search<'_>,
        order: &[NodeId],
        depth: usize,
        frame: &mut Frame,
        results: &mut Vec<Matching>,
    ) {
        if depth == order.len() {
            results.push(search.to_matching(frame));
            return;
        }
        let next = order[depth];
        for candidate in search.candidates(next, frame) {
            frame.bind(next, candidate);
            if search.edges_consistent(next, frame) {
                solve_static(search, order, depth + 1, frame, results);
            }
            frame.unbind(next);
        }
    }

    let mut results = Vec::new();
    solve_static(&search, &order, 0, &mut search.frame(), &mut results);
    results.sort();
    results.dedup();
    if pattern.has_negation() {
        results.retain(|m| !extends_to_full(pattern, instance, m));
    }
    Ok(results)
}

/// Naive enumeration: per-node candidate lists, full cross product,
/// post-hoc edge check. Ground truth for differential tests and the
/// baseline of benchmark E1. Negation is evaluated the same way as the
/// planned engine.
pub fn find_matchings_naive(pattern: &Pattern, instance: &Instance) -> Result<Vec<Matching>> {
    if pattern.has_method_head() {
        return Err(GoodError::InvalidPattern(
            "patterns with method-head nodes must be rewritten before matching".into(),
        ));
    }
    pattern.validate(instance.scheme())?;
    let positive = pattern.positive_part();
    let nodes: Vec<NodeId> = positive.graph().node_ids().collect();

    let mut candidate_lists: Vec<Vec<NodeId>> = Vec::with_capacity(nodes.len());
    for &node in &nodes {
        let data = positive.graph().node(node).expect("live");
        let PatternNodeKind::Class(label) = &data.kind else {
            return Err(GoodError::InvalidPattern(
                "method head in positive part".into(),
            ));
        };
        let cands: Vec<NodeId> = instance
            .nodes_with_label(label)
            .filter(|c| node_compatible(instance, data, *c))
            .collect();
        candidate_lists.push(cands);
    }

    let mut results = Vec::new();
    let mut assignment: Vec<usize> = vec![0; nodes.len()];
    'outer: loop {
        // Build the binding for the current assignment.
        if candidate_lists.iter().all(|c| !c.is_empty()) || nodes.is_empty() {
            let binding: BTreeMap<NodeId, NodeId> = nodes
                .iter()
                .enumerate()
                .map(|(k, &n)| (n, candidate_lists[k][assignment[k]]))
                .collect();
            let ok = positive.graph().edges().all(|edge| {
                edge.payload.negated
                    || instance.has_edge(
                        binding[&edge.src],
                        &edge.payload.label,
                        binding[&edge.dst],
                    )
            });
            if ok {
                results.push(Matching(binding));
            }
        } else {
            break;
        }
        // Advance the odometer.
        if nodes.is_empty() {
            break;
        }
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
    results.sort();
    results.dedup();
    if pattern.has_negation() {
        results.retain(|m| !extends_to_full(pattern, instance, m));
    }
    Ok(results)
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
        assert!(!matches_once(&p, &db).unwrap());
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

    #[test]
    fn matches_once_early_exit() {
        let (db, _) = small_instance();
        let mut p = Pattern::new();
        p.node("Info");
        assert!(matches_once(&p, &db).unwrap());
    }
}
