//! Incremental cardinality statistics for the cost-based planner.
//!
//! The matcher's join-order choices (see [`crate::planner`]) need three
//! figures per scheme triple `(source label, edge label, target label)`:
//! how many edges carry that shape, how many distinct sources emit one,
//! and how many distinct targets receive one — plus power-of-two
//! *degree histograms* in both directions so skew (a few hub nodes
//! hiding behind a benign average) stays visible.
//!
//! [`InstanceStats`] is owned by [`crate::instance::Instance`] and
//! maintained *incrementally* by the same mutation paths that keep the
//! adjacency index fresh: edge insertion and removal adjust the touched
//! triple in O(1), batched deletions that rebuild the adjacency index
//! wholesale rebuild the stats in the same pass, and deserialization
//! rebuilds them from the loaded graph. No read path ever scans the
//! graph to answer a statistics probe.
//!
//! Storage mirrors the adjacency index's nesting discipline: three
//! [`SharedMap`] levels keyed `source label → edge label → target
//! label`, so planner probes borrow three `&Label`s (no tuple-key
//! clones) and cloning the whole structure is an `Arc` bump — the
//! O(delta) snapshot-publish property of the instance is preserved.
//! The key space is bounded by the scheme's triple set `P`, never by
//! instance size.
//!
//! Like the adjacency index, the incrementally maintained figures must
//! be *exactly* what a fresh [`InstanceStats::build`] over the graph
//! produces (empty entries are pruned on removal precisely so the
//! comparison is equality); `Instance::validate_indexes` audits this,
//! and a differential proptest drives it through random workloads.

use crate::instance::{EdgeData, NodeData};
use crate::label::Label;
use crate::persist::SharedMap;
use good_graph::{Graph, NodeId};
use std::collections::HashMap;

/// Number of power-of-two buckets in a [`DegreeHistogram`] — bucket 31
/// absorbs every degree of 2³¹ and beyond.
pub const DEGREE_BUCKETS: usize = 32;

/// A power-of-two histogram of per-node degrees: bucket `k` counts the
/// anchors whose degree `d` satisfies `2^k <= d < 2^(k+1)` (degree-0
/// anchors are not represented — they have no edge of this shape).
///
/// Maintained by *transitions*: when an edge insertion moves a source
/// from degree `d` to `d + 1`, the old bucket is decremented and the
/// new one incremented, so the histogram always equals the one a full
/// degree scan would produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegreeHistogram {
    buckets: [u64; DEGREE_BUCKETS],
}

impl Default for DegreeHistogram {
    fn default() -> Self {
        DegreeHistogram {
            buckets: [0; DEGREE_BUCKETS],
        }
    }
}

impl DegreeHistogram {
    #[inline]
    fn bucket(degree: u64) -> usize {
        debug_assert!(degree >= 1);
        (63 - degree.leading_zeros() as usize).min(DEGREE_BUCKETS - 1)
    }

    /// Record one anchor moving from degree `old` to degree `new`
    /// (either may be 0, meaning the anchor leaves or enters the
    /// population).
    pub fn record_transition(&mut self, old: u64, new: u64) {
        if old > 0 {
            let bucket = &mut self.buckets[Self::bucket(old)];
            debug_assert!(*bucket > 0, "histogram underflow");
            *bucket = bucket.saturating_sub(1);
        }
        if new > 0 {
            self.buckets[Self::bucket(new)] += 1;
        }
    }

    /// Number of anchors with at least one edge (the *distinct
    /// source/target* count the planner divides by).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// True if no anchor carries an edge.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|b| *b == 0)
    }

    /// An upper bound on the largest degree present: `2^(k+1) - 1` of
    /// the highest non-empty bucket (0 when empty). The planner uses
    /// it to spot hub skew an average would hide.
    pub fn max_degree_bound(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|b| *b > 0)
            .map_or(0, |k| (2u64 << k) - 1)
    }

    /// The raw buckets, `buckets()[k]` counting degrees in
    /// `[2^k, 2^(k+1))`.
    pub fn buckets(&self) -> &[u64; DEGREE_BUCKETS] {
        &self.buckets
    }
}

/// Statistics for one scheme triple `(source label, λ, target label)`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TripleStats {
    /// Number of instance edges with this shape.
    pub edges: u64,
    /// Per-source degree histogram (how many `target label` nodes each
    /// source reaches via `λ`).
    pub out_degrees: DegreeHistogram,
    /// Per-target degree histogram (how many `source label` nodes
    /// reach each target via `λ`).
    pub in_degrees: DegreeHistogram,
}

impl TripleStats {
    /// Distinct sources with at least one edge of this shape.
    pub fn distinct_sources(&self) -> u64 {
        self.out_degrees.count()
    }

    /// Distinct targets with at least one edge of this shape.
    pub fn distinct_targets(&self) -> u64 {
        self.in_degrees.count()
    }

    /// Average out-degree over sources that have the edge at all (the
    /// planner's per-row fan-out when expanding source → target).
    pub fn avg_out(&self) -> f64 {
        let sources = self.distinct_sources();
        if sources == 0 {
            0.0
        } else {
            self.edges as f64 / sources as f64
        }
    }

    /// Average in-degree over targets that have the edge at all (the
    /// per-row fan-in when expanding target → source).
    pub fn avg_in(&self) -> f64 {
        let targets = self.distinct_targets();
        if targets == 0 {
            0.0
        } else {
            self.edges as f64 / targets as f64
        }
    }
}

/// The nested per-triple map: `source label → edge label → target
/// label → stats`.
type TripleMap = SharedMap<Label, SharedMap<Label, SharedMap<Label, TripleStats>>>;

/// Per-instance cardinality statistics, incrementally maintained (see
/// the module docs). Node counts per label and distinct printable
/// values per label are *not* duplicated here: the instance's label and
/// printable indexes already hold them as O(1) set sizes
/// ([`crate::instance::Instance::label_count`] /
/// [`crate::instance::Instance::printable_value_count`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InstanceStats {
    triples: TripleMap,
}

impl InstanceStats {
    /// The statistics of one scheme triple, probed with three borrowed
    /// labels (no allocation). `None` means no such edge exists.
    pub fn triple(
        &self,
        src_label: &Label,
        edge: &Label,
        dst_label: &Label,
    ) -> Option<&TripleStats> {
        self.triples.get(src_label)?.get(edge)?.get(dst_label)
    }

    /// Number of distinct triples with at least one edge.
    pub fn triple_count(&self) -> usize {
        self.triples
            .values()
            .map(|by_edge| by_edge.values().map(SharedMap::len).sum::<usize>())
            .sum()
    }

    /// Every `(source label, edge label, target label, stats)` entry in
    /// deterministic (sorted) order. The underlying maps iterate in
    /// hash order; anything user-facing (CLI `stats`, tests) must go
    /// through here.
    pub fn triples_sorted(&self) -> Vec<(&Label, &Label, &Label, &TripleStats)> {
        let mut entries: Vec<(&Label, &Label, &Label, &TripleStats)> = self
            .triples
            .iter()
            .flat_map(|(src, by_edge)| {
                by_edge.iter().flat_map(move |(edge, by_dst)| {
                    by_dst
                        .iter()
                        .map(move |(dst, stats)| (src, edge, dst, stats))
                })
            })
            .collect();
        entries.sort_by_key(|(src, edge, dst, _)| (*src, *edge, *dst));
        entries
    }

    /// Record an edge insertion of shape `(src_label, edge, dst_label)`
    /// whose source now has out-degree `new_out` and whose target now
    /// has in-degree `new_in` (both restricted to this triple's shape;
    /// the caller reads them off the adjacency index in O(1)).
    pub(crate) fn record_added(
        &mut self,
        src_label: &Label,
        edge: &Label,
        dst_label: &Label,
        new_out: u64,
        new_in: u64,
    ) {
        let stats = self
            .triples
            .get_or_insert_with(src_label, SharedMap::new)
            .get_or_insert_with(edge, SharedMap::new)
            .get_or_insert_with(dst_label, TripleStats::default);
        stats.edges += 1;
        stats.out_degrees.record_transition(new_out - 1, new_out);
        stats.in_degrees.record_transition(new_in - 1, new_in);
    }

    /// Record an edge removal (degrees are the *post-removal* values,
    /// read off the already-updated adjacency index). Triples that
    /// empty are pruned so the structure stays equal to a fresh
    /// rebuild.
    pub(crate) fn record_removed(
        &mut self,
        src_label: &Label,
        edge: &Label,
        dst_label: &Label,
        new_out: u64,
        new_in: u64,
    ) {
        let Some(by_edge) = self.triples.get_mut(src_label) else {
            return;
        };
        if let Some(by_dst) = by_edge.get_mut(edge) {
            if let Some(stats) = by_dst.get_mut(dst_label) {
                stats.edges = stats.edges.saturating_sub(1);
                stats.out_degrees.record_transition(new_out + 1, new_out);
                stats.in_degrees.record_transition(new_in + 1, new_in);
                if stats.edges == 0 {
                    by_dst.remove(dst_label);
                }
            }
            if by_dst.is_empty() {
                by_edge.remove(edge);
            }
        }
        if by_edge.is_empty() {
            self.triples.remove(src_label);
        }
    }

    /// Build the statistics of `graph` from scratch — the bulk-rebuild
    /// and deserialization path, and the oracle the incremental figures
    /// are differentially tested against.
    pub fn build(graph: &Graph<NodeData, EdgeData>) -> Self {
        // Aggregate per-triple degree maps with borrowed keys; labels
        // are cloned once per distinct triple at fold time, not once
        // per edge.
        type Agg<'g> = HashMap<(&'g Label, &'g Label, &'g Label), TripleAgg>;
        #[derive(Default)]
        struct TripleAgg {
            edges: u64,
            out_degrees: HashMap<NodeId, u64>,
            in_degrees: HashMap<NodeId, u64>,
        }
        let mut agg: Agg<'_> = HashMap::new();
        for edge in graph.edges() {
            let src_label = &graph.node(edge.src).expect("live").label;
            let dst_label = &graph.node(edge.dst).expect("live").label;
            let entry = agg
                .entry((src_label, &edge.payload.label, dst_label))
                .or_default();
            entry.edges += 1;
            *entry.out_degrees.entry(edge.src).or_insert(0) += 1;
            *entry.in_degrees.entry(edge.dst).or_insert(0) += 1;
        }
        let mut stats = InstanceStats::default();
        for ((src_label, edge, dst_label), triple_agg) in agg {
            let mut out_degrees = DegreeHistogram::default();
            for degree in triple_agg.out_degrees.values() {
                out_degrees.record_transition(0, *degree);
            }
            let mut in_degrees = DegreeHistogram::default();
            for degree in triple_agg.in_degrees.values() {
                in_degrees.record_transition(0, *degree);
            }
            stats
                .triples
                .get_or_insert_with(src_label, SharedMap::new)
                .get_or_insert_with(edge, SharedMap::new)
                .get_or_insert_with(dst_label, || TripleStats {
                    edges: triple_agg.edges,
                    out_degrees,
                    in_degrees,
                });
        }
        stats
    }

    /// Rough heap footprint in bytes across all three nesting levels.
    pub fn approx_bytes(&self) -> usize {
        self.triples.approx_bytes()
            + self
                .triples
                .values()
                .map(|by_edge| {
                    by_edge.approx_bytes()
                        + by_edge.values().map(SharedMap::approx_bytes).sum::<usize>()
                })
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_power_of_two() {
        let mut h = DegreeHistogram::default();
        for degree in [1u64, 2, 3, 4, 7, 8, 1024] {
            h.record_transition(0, degree);
        }
        // 1 → bucket 0; 2, 3 → bucket 1; 4, 7 → bucket 2; 8 → bucket 3;
        // 1024 → bucket 10.
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 2);
        assert_eq!(h.buckets()[2], 2);
        assert_eq!(h.buckets()[3], 1);
        assert_eq!(h.buckets()[10], 1);
        assert_eq!(h.count(), 7);
        assert_eq!(h.max_degree_bound(), 2047);
    }

    #[test]
    fn histogram_transitions_round_trip() {
        let mut h = DegreeHistogram::default();
        h.record_transition(0, 1);
        h.record_transition(1, 2);
        h.record_transition(2, 3);
        assert_eq!(h.count(), 1);
        assert_eq!(h.buckets()[1], 1);
        h.record_transition(3, 2);
        h.record_transition(2, 1);
        h.record_transition(1, 0);
        assert!(h.is_empty());
        assert_eq!(h.max_degree_bound(), 0);
    }

    #[test]
    fn huge_degrees_saturate_the_last_bucket() {
        let mut h = DegreeHistogram::default();
        h.record_transition(0, u64::MAX);
        assert_eq!(h.buckets()[DEGREE_BUCKETS - 1], 1);
        h.record_transition(u64::MAX, u64::MAX - 1);
        assert_eq!(h.buckets()[DEGREE_BUCKETS - 1], 1);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn triple_stats_averages() {
        let mut stats = TripleStats::default();
        assert_eq!(stats.avg_out(), 0.0);
        stats.edges = 6;
        stats.out_degrees.record_transition(0, 3);
        stats.out_degrees.record_transition(0, 3);
        stats.in_degrees.record_transition(0, 1);
        assert_eq!(stats.distinct_sources(), 2);
        assert_eq!(stats.avg_out(), 3.0);
        assert_eq!(stats.avg_in(), 6.0);
    }
}
