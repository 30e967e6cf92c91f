//! Cost-based pattern planning over incremental cardinality statistics.
//!
//! The matcher used to pick its binding order with fixed heuristics
//! (exact anchor → smallest postings → scan fallback). This module
//! replaces that with a costed search: per-triple statistics from
//! [`crate::stats::InstanceStats`] — edge counts, distinct endpoint
//! counts, degree histograms, all maintained incrementally so planning
//! never scans the graph — are folded into per-pattern-edge scalars
//! (expected fan in both directions, pair selectivity), and a greedy
//! planner grows a binding order from *every* possible root,
//! propagating a cardinality estimate through the pattern and keeping
//! the cheapest-total-cost order.
//!
//! The planner also decides the *evaluation strategy*. Binary
//! (edge-at-a-time) expansion is optimal for trees and chains, but
//! "Complexity of Evaluating GQL Queries" maps the cyclic pattern
//! classes where any binary join order materializes asymptotically more
//! intermediate rows than the final result contains. When the pattern
//! is cyclic *and* the propagated estimate predicts such a blow-up
//! (peak intermediate rows > [`WCOJ_BLOWUP_FACTOR`] × final rows), the
//! plan selects the generic-join path ([`crate::wcoj`]), which binds
//! one variable at a time against the sorted intersection of *all* its
//! bound-neighbour candidate sets — the worst-case-optimal discipline.
//!
//! Everything here is pure arithmetic over a handful of f64s per
//! pattern edge: a 3-node anchored point query plans in well under a
//! microsecond, protecting the matcher's hot path.

use crate::error::Result;
use crate::instance::Instance;
use crate::matching::{check_matchable, finish, node_compatible, MatchTable, Matching};
use crate::pattern::{Pattern, PatternNodeKind};
use good_graph::NodeId;
use good_trace::LiveCounter;
use std::collections::BTreeMap;

/// Peak-to-final estimate ratio beyond which a cyclic pattern is routed
/// to the generic-join path.
pub const WCOJ_BLOWUP_FACTOR: f64 = 8.0;

/// Assumed selectivity of a value predicate (`<`, range, prefix, …) on
/// a printable node — the classic "magic third" in absence of value
/// histograms.
const PREDICATE_SELECTIVITY: f64 = 1.0 / 3.0;

/// How the chosen order is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Edge-at-a-time expansion (backtracking search); optimal for
    /// acyclic patterns.
    Expand,
    /// Generic join: per-variable sorted intersection over all
    /// bound-neighbour candidate sets; worst-case optimal for cyclic
    /// patterns whose binary plans blow up.
    GenericJoin,
}

impl JoinStrategy {
    /// The counter that tallies plans of this strategy.
    pub(crate) fn counter(&self) -> &'static LiveCounter {
        static LIVE_EXPAND: LiveCounter = LiveCounter::new("planner.expand");
        static LIVE_WCOJ: LiveCounter = LiveCounter::new("planner.wcoj");
        match self {
            JoinStrategy::Expand => &LIVE_EXPAND,
            JoinStrategy::GenericJoin => &LIVE_WCOJ,
        }
    }

    /// Short lowercase name for rendering and span args.
    pub fn name(&self) -> &'static str {
        match self {
            JoinStrategy::Expand => "expand",
            JoinStrategy::GenericJoin => "generic-join",
        }
    }
}

/// Per-step estimates of the chosen order.
#[derive(Debug, Clone)]
pub struct StepEstimate {
    /// The pattern node bound at this step.
    pub node: NodeId,
    /// Estimated candidates enumerated per partial row at this step
    /// (the scan width the cost model charges).
    pub est_scanned: f64,
    /// Estimated partial matchings alive *after* this step.
    pub est_rows: f64,
}

/// The planner's output: a costed binding order plus the strategy
/// decision, consumed by `find_matchings_with` and `explain_plan_profiled`.
#[derive(Debug, Clone)]
pub struct PlanChoice {
    /// Binding order (all positive pattern nodes).
    pub order: Vec<NodeId>,
    /// Per-step cardinality estimates, parallel to `order`.
    pub steps: Vec<StepEstimate>,
    /// Estimated final matching count.
    pub est_rows: f64,
    /// Largest estimated intermediate row count along the order.
    pub est_peak: f64,
    /// Total estimated cost: Σ rows-before × scan width per step.
    pub est_cost: f64,
    /// Whether the positive pattern contains a (non-self-loop) cycle.
    pub cyclic: bool,
    /// The selected evaluation strategy.
    pub strategy: JoinStrategy,
}

/// Precomputed scalars for one positive pattern edge, derived from the
/// instance statistics once per `plan` call so the greedy search is
/// pure arithmetic.
struct EdgeScalars {
    src: NodeId,
    dst: NodeId,
    /// Expected `λ`-successors of an *arbitrary* source-labeled node
    /// (edges / |source extent|) — the fan charged when expanding
    /// source → target.
    fan_out: f64,
    /// The symmetric fan for target → source expansion.
    fan_in: f64,
    /// Probability a random (source, target) pair carries the edge
    /// (edges / (|source extent| × |target extent|), capped at 1) —
    /// the filter applied by a cycle-closing edge.
    sel: f64,
}

/// Greedy growth state for one candidate root.
struct GreedyRun {
    order: Vec<NodeId>,
    steps: Vec<StepEstimate>,
    est_rows: f64,
    est_peak: f64,
    est_cost: f64,
}

/// The planning context: node-local estimates and edge scalars indexed
/// by pattern-node arena slot.
struct Planner<'a> {
    pattern: &'a Pattern,
    nodes: Vec<NodeId>,
    /// Cold candidate estimate per node slot (label extent bounded by
    /// edge-endpoint distinct counts, times local selectivity).
    root_est: Vec<f64>,
    edges: Vec<EdgeScalars>,
    /// Edge indexes incident to each node slot (self-loops excluded —
    /// they are runtime filters the estimates ignore).
    incident: Vec<Vec<usize>>,
}

impl<'a> Planner<'a> {
    fn new(pattern: &'a Pattern, instance: &Instance) -> Self {
        let graph = pattern.graph();
        let bound = graph.node_index_bound();
        let nodes: Vec<NodeId> = graph.node_ids().collect();
        let stats = instance.stats();

        let mut edges = Vec::new();
        let mut incident: Vec<Vec<usize>> = vec![Vec::new(); bound];
        for edge in graph.edges() {
            if edge.payload.negated {
                continue;
            }
            let src_label = match &graph.node(edge.src).expect("live").kind {
                PatternNodeKind::Class(label) => label,
                PatternNodeKind::MethodHead(_) => continue,
            };
            let dst_label = match &graph.node(edge.dst).expect("live").kind {
                PatternNodeKind::Class(label) => label,
                PatternNodeKind::MethodHead(_) => continue,
            };
            let src_extent = instance.label_count(src_label) as f64;
            let dst_extent = instance.label_count(dst_label) as f64;
            let (fan_out, fan_in, sel) =
                match stats.triple(src_label, &edge.payload.label, dst_label) {
                    Some(triple) if src_extent > 0.0 && dst_extent > 0.0 => {
                        let edge_count = triple.edges as f64;
                        (
                            edge_count / src_extent,
                            edge_count / dst_extent,
                            (edge_count / (src_extent * dst_extent)).min(1.0),
                        )
                    }
                    // No such edge in the instance: the pattern cannot
                    // match through it.
                    _ => (0.0, 0.0, 0.0),
                };
            let index = edges.len();
            edges.push(EdgeScalars {
                src: edge.src,
                dst: edge.dst,
                fan_out,
                fan_in,
                sel,
            });
            if edge.src != edge.dst {
                incident[edge.src.index()].push(index);
                incident[edge.dst.index()].push(index);
            }
        }

        let mut root_est = vec![0.0f64; bound];
        for &node in &nodes {
            let data = graph.node(node).expect("live");
            let PatternNodeKind::Class(label) = &data.kind else {
                continue;
            };
            if data.print.is_some() {
                // Exact printable value: one index probe.
                root_est[node.index()] = 1.0;
                continue;
            }
            // Label extent, tightened by the distinct endpoint counts of
            // every incident edge (a node with an outgoing λ must be one
            // of the triple's distinct sources), times predicate
            // selectivity.
            let mut est = instance.label_count(label) as f64;
            for edge in graph.out_edges(node) {
                if edge.payload.negated {
                    continue;
                }
                if let PatternNodeKind::Class(dst_label) = &graph.node(edge.dst).expect("live").kind
                {
                    let distinct = stats
                        .triple(label, &edge.payload.label, dst_label)
                        .map_or(0.0, |t| t.distinct_sources() as f64);
                    est = est.min(distinct);
                }
            }
            for edge in graph.in_edges(node) {
                if edge.payload.negated || edge.src == node {
                    continue;
                }
                if let PatternNodeKind::Class(src_label) = &graph.node(edge.src).expect("live").kind
                {
                    let distinct = stats
                        .triple(src_label, &edge.payload.label, label)
                        .map_or(0.0, |t| t.distinct_targets() as f64);
                    est = est.min(distinct);
                }
            }
            if data.predicate.is_some() {
                est *= PREDICATE_SELECTIVITY;
            }
            root_est[node.index()] = est;
        }

        Planner {
            pattern,
            nodes,
            root_est,
            edges,
            incident,
        }
    }

    /// Estimated (scan width, row multiplier) of binding `node` when
    /// every node in `bound` is already bound.
    fn step_estimate(&self, node: NodeId, bound: &[bool]) -> (f64, f64) {
        let data = self.pattern.graph().node(node).expect("live");
        let connecting: Vec<&EdgeScalars> = self.incident[node.index()]
            .iter()
            .map(|&index| &self.edges[index])
            .filter(|edge| {
                let other = if edge.src == node { edge.dst } else { edge.src };
                bound[other.index()]
            })
            .collect();
        if connecting.is_empty() {
            // Start node (root, or a disconnected component): a fresh
            // enumeration crossed with the rows so far.
            let width = self.root_est[node.index()];
            return (width, width);
        }
        if data.print.is_some() {
            // One probe, then every connecting edge filters the row.
            let factor: f64 = connecting.iter().map(|edge| edge.sel).product();
            return (1.0, factor);
        }
        // Enumerate along the lowest-fan connecting edge; every other
        // connecting edge closes onto an already-bound node and filters
        // with its pair selectivity.
        let fan = |edge: &EdgeScalars| {
            if edge.dst == node {
                edge.fan_out
            } else {
                edge.fan_in
            }
        };
        let (anchor_index, _) = connecting
            .iter()
            .enumerate()
            .map(|(index, edge)| (index, fan(edge)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty connecting set");
        let width = fan(connecting[anchor_index]);
        let mut factor = width;
        for (index, edge) in connecting.iter().enumerate() {
            if index != anchor_index {
                factor *= edge.sel;
            }
        }
        if data.predicate.is_some() {
            factor *= PREDICATE_SELECTIVITY;
        }
        (width, factor)
    }

    /// Grow a binding order over the nodes outside `prebound` greedily,
    /// starting at `root` (or, without one, at the cheapest node given
    /// the pre-bound set), propagating the cardinality estimate: at
    /// every step the unbound node with the smallest estimated row count
    /// after binding wins (connected nodes before disconnected ones,
    /// pattern-node id breaking ties).
    fn greedy(&self, prebound: &[NodeId], root: Option<NodeId>) -> GreedyRun {
        let capacity = self.pattern.graph().node_index_bound();
        let mut bound = vec![false; capacity];
        for node in prebound {
            bound[node.index()] = true;
        }
        let mut run = GreedyRun {
            order: Vec::with_capacity(self.nodes.len()),
            steps: Vec::with_capacity(self.nodes.len()),
            est_rows: 1.0,
            est_peak: 0.0,
            est_cost: 0.0,
        };
        let mut next = root.or_else(|| self.cheapest_unbound(&bound, run.est_rows));
        while let Some(node) = next {
            let (width, factor) = self.step_estimate(node, &bound);
            run.est_cost += run.est_rows * width;
            run.est_rows *= factor;
            run.est_peak = run.est_peak.max(run.est_rows);
            run.order.push(node);
            run.steps.push(StepEstimate {
                node,
                est_scanned: width,
                est_rows: run.est_rows,
            });
            bound[node.index()] = true;
            next = self.cheapest_unbound(&bound, run.est_rows);
        }
        run
    }

    /// The cheapest node to bind next: any connected candidate beats any
    /// disconnected one (a cross product multiplies rows by a whole
    /// extent).
    fn cheapest_unbound(&self, bound: &[bool], rows: f64) -> Option<NodeId> {
        self.nodes
            .iter()
            .filter(|n| !bound[n.index()])
            .map(|&n| {
                let connected = self.incident[n.index()].iter().any(|&index| {
                    let edge = &self.edges[index];
                    let other = if edge.src == n { edge.dst } else { edge.src };
                    bound[other.index()]
                });
                let (_, factor) = self.step_estimate(n, bound);
                (!connected, rows * factor, n)
            })
            .min_by(|a, b| {
                // Lexicographic: connectedness first, then estimated
                // rows, then node id for determinism.
                a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2))
            })
            .map(|(_, _, n)| n)
    }

    /// Is any connected component of the positive pattern cyclic
    /// (edges ≥ nodes, self-loops excluded)? Union-find over the node
    /// arena.
    fn cyclic(&self) -> bool {
        let capacity = self.pattern.graph().node_index_bound();
        let mut parent: Vec<usize> = (0..capacity).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for edge in &self.edges {
            if edge.src == edge.dst {
                continue;
            }
            let a = find(&mut parent, edge.src.index());
            let b = find(&mut parent, edge.dst.index());
            parent[a] = b;
        }
        let mut node_counts: BTreeMap<usize, usize> = BTreeMap::new();
        for node in &self.nodes {
            let root = find(&mut parent, node.index());
            *node_counts.entry(root).or_insert(0) += 1;
        }
        let mut edge_counts: BTreeMap<usize, usize> = BTreeMap::new();
        for edge in &self.edges {
            if edge.src == edge.dst {
                continue;
            }
            let root = find(&mut parent, edge.src.index());
            *edge_counts.entry(root).or_insert(0) += 1;
        }
        edge_counts
            .iter()
            .any(|(root, edges)| *edges >= node_counts.get(root).copied().unwrap_or(usize::MAX))
    }
}

/// Cost-rank every candidate binding order of `pattern`'s positive part
/// against `instance` and return the cheapest, together with the
/// expand-vs-generic-join strategy decision.
///
/// Negated nodes and edges are ignored (they are a post-filter, not a
/// join); callers usually pass `pattern.positive_part()` but the full
/// pattern is accepted. All estimates come from the incrementally
/// maintained [`crate::stats::InstanceStats`] — no graph scan.
pub fn plan(pattern: &Pattern, instance: &Instance) -> PlanChoice {
    let planner = Planner::new(pattern, instance);
    if planner.nodes.is_empty() {
        return PlanChoice {
            order: Vec::new(),
            steps: Vec::new(),
            est_rows: 1.0,
            est_peak: 1.0,
            est_cost: 0.0,
            cyclic: false,
            strategy: JoinStrategy::Expand,
        };
    }
    let best = planner
        .nodes
        .iter()
        .map(|&root| planner.greedy(&[], Some(root)))
        .min_by(|a, b| a.est_cost.total_cmp(&b.est_cost))
        .expect("non-empty pattern");
    let cyclic = planner.cyclic();
    let strategy = if cyclic
        && best.order.len() >= 3
        && best.est_peak > WCOJ_BLOWUP_FACTOR * best.est_rows.max(1.0)
    {
        JoinStrategy::GenericJoin
    } else {
        JoinStrategy::Expand
    };
    PlanChoice {
        order: best.order,
        steps: best.steps,
        est_rows: best.est_rows,
        est_peak: best.est_peak,
        est_cost: best.est_cost,
        cyclic,
        strategy,
    }
}

/// The binding order for the nodes of `pattern` outside `prebound`, by
/// the same greedy routine [`plan`] runs from every root, started from
/// the bound set instead — the order a pre-bound frame (a delta-seeded
/// edge, a matching being extended over crossed parts) is completed in.
pub(crate) fn order_from(
    pattern: &Pattern,
    instance: &Instance,
    prebound: &[NodeId],
) -> Vec<NodeId> {
    Planner::new(pattern, instance).greedy(prebound, None).order
}

// ---- binary (edge-at-a-time) join baseline --------------------------------

/// Find all matchings by *materializing* edge-at-a-time binary joins:
/// pattern edges are folded left to right into a flat row table, each
/// join either expanding rows along an edge's postings or filtering
/// rows when both endpoints are already bound.
///
/// This is the evaluation discipline the planner's generic-join path
/// exists to beat: on cyclic patterns the intermediate row table holds
/// every open wedge before the closing edge filters it — Θ(Σ degree²)
/// rows for a triangle — where the worst-case-optimal path stays near
/// the final output size. Kept as a public engine for differential
/// tests and benchmark E18; results are canonical (sorted, deduped,
/// negation post-filtered) and bit-identical to every other engine.
pub fn find_matchings_binary(pattern: &Pattern, instance: &Instance) -> Result<Vec<Matching>> {
    check_matchable(pattern, instance)?;
    let positive = pattern.positive_part();
    let graph = positive.graph();
    let capacity = graph.node_index_bound();

    // Column layout: pattern-node arena slot → row column, assigned as
    // nodes first appear in the join sequence.
    let mut column: Vec<Option<usize>> = vec![None; capacity];
    let mut columns = 0usize;
    // Flattened row storage: `columns` node ids per row.
    let mut rows: Vec<NodeId> = Vec::new();
    let mut started = false;

    let compatible = |node: NodeId, candidate: NodeId| -> bool {
        node_compatible(instance, graph.node(node).expect("live"), candidate)
    };
    let candidates_of = |node: NodeId| -> Vec<NodeId> {
        let data = graph.node(node).expect("live");
        let PatternNodeKind::Class(label) = &data.kind else {
            return Vec::new();
        };
        if let Some(value) = &data.print {
            return match instance.find_printable(label, value) {
                Some(found) => vec![found],
                None => Vec::new(),
            };
        }
        instance
            .nodes_with_label(label)
            .filter(|c| compatible(node, *c))
            .collect()
    };

    for edge in graph.edges() {
        if edge.payload.negated {
            continue;
        }
        let label = &edge.payload.label;
        let src_col = column[edge.src.index()];
        let dst_col = column[edge.dst.index()];
        if !started {
            started = true;
            if edge.src == edge.dst {
                column[edge.src.index()] = Some(0);
                columns = 1;
                rows = candidates_of(edge.src)
                    .into_iter()
                    .filter(|&c| instance.has_edge(c, label, c))
                    .collect();
            } else {
                column[edge.src.index()] = Some(0);
                column[edge.dst.index()] = Some(1);
                columns = 2;
                for src in candidates_of(edge.src) {
                    for dst in instance.targets(src, label) {
                        if compatible(edge.dst, dst) {
                            rows.push(src);
                            rows.push(dst);
                        }
                    }
                }
            }
            continue;
        }
        match (src_col, dst_col) {
            (Some(s), Some(d)) => {
                // Both endpoints bound: pure filter.
                let mut filtered: Vec<NodeId> = Vec::new();
                for row in rows.chunks(columns) {
                    if instance.has_edge(row[s], label, row[d]) {
                        filtered.extend_from_slice(row);
                    }
                }
                rows = filtered;
            }
            (Some(s), None) => {
                // Expand src → dst: every row spawns one row per
                // successor. This is where cyclic patterns blow up.
                let mut expanded: Vec<NodeId> = Vec::new();
                for row in rows.chunks(columns) {
                    for dst in instance.targets(row[s], label) {
                        if compatible(edge.dst, dst) {
                            expanded.extend_from_slice(row);
                            expanded.push(dst);
                        }
                    }
                }
                column[edge.dst.index()] = Some(columns);
                columns += 1;
                rows = expanded;
            }
            (None, Some(d)) => {
                let mut expanded: Vec<NodeId> = Vec::new();
                for row in rows.chunks(columns) {
                    for src in instance.sources(row[d], label) {
                        if compatible(edge.src, src) {
                            expanded.extend_from_slice(row);
                            expanded.push(src);
                        }
                    }
                }
                column[edge.src.index()] = Some(columns);
                columns += 1;
                rows = expanded;
            }
            (None, None) => {
                // Disconnected edge: cross product with its full pair
                // set (and self-loop filter when the endpoints
                // coincide).
                let pairs: Vec<(NodeId, NodeId)> = if edge.src == edge.dst {
                    candidates_of(edge.src)
                        .into_iter()
                        .filter(|&c| instance.has_edge(c, label, c))
                        .map(|c| (c, c))
                        .collect()
                } else {
                    let mut pairs = Vec::new();
                    for src in candidates_of(edge.src) {
                        for dst in instance.targets(src, label) {
                            if compatible(edge.dst, dst) {
                                pairs.push((src, dst));
                            }
                        }
                    }
                    pairs
                };
                let mut expanded: Vec<NodeId> = Vec::new();
                for row in rows.chunks(columns) {
                    for (src, dst) in &pairs {
                        expanded.extend_from_slice(row);
                        expanded.push(*src);
                        if edge.src != edge.dst {
                            expanded.push(*dst);
                        }
                    }
                }
                column[edge.src.index()] = Some(columns);
                columns += 1;
                if edge.src != edge.dst {
                    column[edge.dst.index()] = Some(columns);
                    columns += 1;
                }
                rows = expanded;
            }
        }
        if rows.is_empty() {
            break;
        }
    }

    // Isolated positive nodes (no non-negated incident edge): cross
    // product with their candidate lists.
    let all_nodes: Vec<NodeId> = graph.node_ids().collect();
    for &node in &all_nodes {
        if column[node.index()].is_some() {
            continue;
        }
        let cands = candidates_of(node);
        if !started {
            started = true;
            column[node.index()] = Some(0);
            columns = 1;
            rows = cands;
            continue;
        }
        let mut expanded: Vec<NodeId> = Vec::new();
        for row in rows.chunks(columns) {
            for &cand in &cands {
                expanded.extend_from_slice(row);
                expanded.push(cand);
            }
        }
        column[node.index()] = Some(columns);
        columns += 1;
        rows = expanded;
    }

    let mut table = MatchTable::new(all_nodes);
    if !started {
        // The empty pattern has exactly one (empty) matching.
        table.push_row([]);
    } else {
        let columns_of: Vec<usize> = (table.domain().iter())
            .map(|node| column[node.index()].expect("every positive node joined"))
            .collect();
        for row in rows.chunks(columns) {
            table.push_row(columns_of.iter().map(|&at| row[at]));
        }
    }
    Ok(finish(pattern, instance, table).into_matchings())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::find_matchings;
    use crate::scheme::{Scheme, SchemeBuilder};
    use crate::value::ValueType;

    fn scheme() -> Scheme {
        SchemeBuilder::new()
            .object("Info")
            .printable("String", ValueType::Str)
            .functional("Info", "name", "String")
            .multivalued("Info", "links-to", "Info")
            .build()
    }

    fn triangle_instance() -> Instance {
        let mut db = Instance::new(scheme());
        let nodes: Vec<_> = (0..6).map(|_| db.add_object("Info").unwrap()).collect();
        // Two triangles plus some tree edges.
        for tri in [[0, 1, 2], [3, 4, 5]] {
            for k in 0..3 {
                db.add_edge(nodes[tri[k]], "links-to", nodes[tri[(k + 1) % 3]])
                    .unwrap();
            }
        }
        db.add_edge(nodes[0], "links-to", nodes[3]).unwrap();
        db
    }

    fn triangle_pattern() -> Pattern {
        let mut p = Pattern::new();
        let a = p.node("Info");
        let b = p.node("Info");
        let c = p.node("Info");
        p.edge(a, "links-to", b);
        p.edge(b, "links-to", c);
        p.edge(c, "links-to", a);
        p
    }

    #[test]
    fn chain_pattern_is_acyclic_and_expands() {
        let db = triangle_instance();
        let mut p = Pattern::new();
        let a = p.node("Info");
        let b = p.node("Info");
        p.edge(a, "links-to", b);
        let choice = plan(&p, &db);
        assert!(!choice.cyclic);
        assert_eq!(choice.strategy, JoinStrategy::Expand);
        assert_eq!(choice.order.len(), 2);
        assert!(choice.est_rows > 0.0);
    }

    #[test]
    fn triangle_pattern_is_cyclic() {
        let db = triangle_instance();
        let choice = plan(&triangle_pattern(), &db);
        assert!(choice.cyclic);
        assert_eq!(choice.order.len(), 3);
        // On this tiny instance the blow-up trigger may or may not
        // fire, but the cycle must be detected either way.
    }

    #[test]
    fn printable_anchor_wins_the_root() {
        let mut db = Instance::new(scheme());
        for index in 0..50 {
            let info = db.add_object("Info").unwrap();
            let name = db.add_printable("String", format!("n{index}")).unwrap();
            db.add_edge(info, "name", name).unwrap();
        }
        let mut p = Pattern::new();
        let info = p.node("Info");
        let name = p.printable("String", "n7");
        p.edge(info, "name", name);
        let choice = plan(&p, &db);
        // The exact-value probe is the cheapest anchor: est 1 row.
        assert_eq!(choice.order[0], name);
        assert!(choice.est_rows <= 1.5, "est_rows = {}", choice.est_rows);
    }

    #[test]
    fn empty_pattern_plans_trivially() {
        let db = triangle_instance();
        let choice = plan(&Pattern::new(), &db);
        assert!(choice.order.is_empty());
        assert_eq!(choice.strategy, JoinStrategy::Expand);
    }

    #[test]
    fn binary_engine_agrees_on_triangles() {
        let db = triangle_instance();
        let p = triangle_pattern();
        let planned = find_matchings(&p, &db).unwrap();
        let binary = find_matchings_binary(&p, &db).unwrap();
        assert_eq!(planned, binary);
        // Two triangles × 3 rotations each.
        assert_eq!(planned.len(), 6);
    }

    #[test]
    fn binary_engine_handles_edge_shapes() {
        let (db, _) = {
            let mut db = Instance::new(scheme());
            let a = db.add_object("Info").unwrap();
            let b = db.add_object("Info").unwrap();
            db.add_edge(a, "links-to", a).unwrap();
            db.add_edge(a, "links-to", b).unwrap();
            (db, (a, b))
        };
        // Self-loop pattern.
        let mut p = Pattern::new();
        let x = p.node("Info");
        p.edge(x, "links-to", x);
        assert_eq!(
            find_matchings_binary(&p, &db).unwrap(),
            find_matchings(&p, &db).unwrap()
        );
        // Disconnected pattern (isolated node cross product).
        let mut p2 = Pattern::new();
        p2.node("Info");
        p2.node("Info");
        assert_eq!(
            find_matchings_binary(&p2, &db).unwrap(),
            find_matchings(&p2, &db).unwrap()
        );
        // Negation.
        let mut p3 = Pattern::new();
        let u = p3.node("Info");
        let v = p3.negated_node("Info");
        p3.edge(u, "links-to", v);
        assert_eq!(
            find_matchings_binary(&p3, &db).unwrap(),
            find_matchings(&p3, &db).unwrap()
        );
        // Empty pattern.
        assert_eq!(
            find_matchings_binary(&Pattern::new(), &db).unwrap(),
            find_matchings(&Pattern::new(), &db).unwrap()
        );
    }
}
