//! Seeded inputs: the populated instance, the query and commit
//! sequences, and the correctness oracle.
//!
//! The oracle never calls the query stack: expected rows come from the
//! adjacency lists the generator itself drew (`Seeded::out`), walked
//! with plain loops and a BFS.
//!
//! Shapes are chosen so that the *cost* of a workload does not depend
//! on the seed (the acceptance check compares runs of different seeds):
//! every `Info` has exactly `OUT_DEGREE` links, dates are dealt round
//! robin, and the closure instance is a fixed number of equal rings.
//! The seed decides which objects link to which, who sits in which
//! ring, and the order of every request.

use good_core::gen::bench_scheme;
use good_core::instance::Instance;
use good_core::ops::{EdgeAddition, EdgeDeletion};
use good_core::pattern::Pattern;
use good_core::program::{Operation, Program};
use good_core::value::Value;
use good_graph::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Distinct `created` dates, 1990-01-01 onwards, dealt round robin.
pub const DATES: usize = 16;
/// `links-to` edges leaving every `Info` of the large instance.
pub const OUT_DEGREE: usize = 2;
/// Ring length of the closure instance.
pub const RING: usize = 20;

/// Which instance a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `infos` objects, each with `OUT_DEGREE` random distinct links.
    Random {
        /// Number of `Info` objects.
        infos: usize,
    },
    /// `infos / RING` disjoint directed rings of `RING` objects each.
    Rings {
        /// Number of `Info` objects (a multiple of `RING`).
        infos: usize,
    },
}

impl Shape {
    /// Number of `Info` objects.
    pub fn infos(self) -> usize {
        match self {
            Shape::Random { infos } | Shape::Rings { infos } => infos,
        }
    }
}

/// A generated instance plus the generator's own record of it.
pub struct Seeded {
    /// The populated instance over `bench_scheme()`.
    pub instance: Instance,
    /// `Info` node of logical index K (named `info-K`).
    pub infos: Vec<NodeId>,
    /// `links-to` adjacency by logical index, in insertion order.
    pub out: Vec<Vec<usize>>,
}

fn shuffle(items: &mut [usize], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Build the instance for `shape` from `seed`.
pub fn build_instance(shape: Shape, seed: u64) -> Seeded {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = shape.infos();
    let mut db = Instance::new(bench_scheme());
    let mut infos = Vec::with_capacity(n);
    for k in 0..n {
        let info = db.add_object("Info").expect("Info in scheme");
        let name = db
            .add_printable("String", format!("info-{k}"))
            .expect("String in scheme");
        db.add_edge(info, "name", name).expect("name edge");
        let date = db
            .add_printable("Date", Value::date(1990, 1, (k % DATES) as u8 + 1))
            .expect("Date in scheme");
        db.add_edge(info, "created", date).expect("created edge");
        infos.push(info);
    }
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
    match shape {
        Shape::Random { .. } => {
            for (k, targets) in out.iter_mut().enumerate() {
                while targets.len() < OUT_DEGREE {
                    let j = rng.gen_range(0..n);
                    if j != k && !targets.contains(&j) {
                        targets.push(j);
                    }
                }
            }
        }
        Shape::Rings { .. } => {
            assert!(
                n.is_multiple_of(RING),
                "ring instance size must be a multiple of {RING}"
            );
            let mut seats: Vec<usize> = (0..n).collect();
            shuffle(&mut seats, &mut rng);
            for ring in seats.chunks(RING) {
                for (pos, &k) in ring.iter().enumerate() {
                    out[k].push(ring[(pos + 1) % RING]);
                }
            }
        }
    }
    for (k, targets) in out.iter().enumerate() {
        for &j in targets {
            db.add_edge(infos[k], "links-to", infos[j])
                .expect("links-to edge");
        }
    }
    Seeded {
        instance: db,
        infos,
        out,
    }
}

// ---- queries ----------------------------------------------------------------

/// The three query shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Name-anchored lookup of one object's links.
    Point,
    /// Date-filtered two-hop join.
    Join,
    /// Unbounded `links-to*` closure.
    Closure,
}

/// GOODQL text of the point query on `info-K`.
pub fn point_query(k: usize) -> String {
    format!(
        "MATCH (a:Info)-[:name]->(n:String = \"info-{k}\"), (a)-[:links-to]->(b:Info) RETURN a, b"
    )
}

/// GOODQL text of the join query on date index `d` (0-based).
pub fn join_query(d: usize) -> String {
    format!(
        "MATCH (a:Info)-[:created]->(d:Date), (a)-[:links-to]->(b:Info), \
         (b)-[:links-to]->(c:Info) WHERE d = date(1990-01-{:02}) RETURN a, c",
        d + 1
    )
}

/// GOODQL text of the closure query.
pub const CLOSURE_QUERY: &str = "MATCH (a:Info)-[:links-to*]->(b:Info) RETURN DISTINCT a, b";

/// One query request: its text and the key the oracle needs.
#[derive(Debug, Clone)]
pub struct QueryOp {
    /// Logical `Info` index (point), date index (join), 0 (closure).
    pub key: usize,
    /// The GOODQL text sent over the wire.
    pub text: String,
}

/// `count` seeded queries of `kind`: point keys are uniform, join dates
/// cycle from a seeded offset, the closure query has no parameter.
pub fn query_ops(kind: QueryKind, infos: usize, count: usize, rng: &mut StdRng) -> Vec<QueryOp> {
    let offset = rng.gen_range(0..DATES);
    (0..count)
        .map(|i| match kind {
            QueryKind::Point => {
                let key = rng.gen_range(0..infos);
                QueryOp {
                    key,
                    text: point_query(key),
                }
            }
            QueryKind::Join => {
                let key = (offset + i) % DATES;
                QueryOp {
                    key,
                    text: join_query(key),
                }
            }
            QueryKind::Closure => QueryOp {
                key: 0,
                text: CLOSURE_QUERY.to_string(),
            },
        })
        .collect()
}

// ---- commits ----------------------------------------------------------------

/// Add `info-k`, anchored by its name, to `pattern`.
pub fn named_info(pattern: &mut Pattern, k: usize) -> NodeId {
    let info = pattern.node("Info");
    let name = pattern.printable("String", format!("info-{k}"));
    pattern.edge(info, "name", name);
    info
}

/// `link`: add `info-i -links-to-> info-j`, both anchored by name.
pub fn link(i: usize, j: usize) -> Program {
    let mut pattern = Pattern::new();
    let a = named_info(&mut pattern, i);
    let b = named_info(&mut pattern, j);
    Program::from_ops([Operation::EdgeAdd(EdgeAddition::multivalued(
        pattern, a, "links-to", b,
    ))])
}

/// `unlink`: delete the edge `link(i, j)` added.
pub fn unlink(i: usize, j: usize) -> Program {
    let mut pattern = Pattern::new();
    let a = named_info(&mut pattern, i);
    let b = named_info(&mut pattern, j);
    pattern.edge(a, "links-to", b);
    Program::from_ops([Operation::EdgeDel(EdgeDeletion::single(
        pattern, a, "links-to", b,
    ))])
}

/// The report string the server acks a committed `link` with.
pub const LINK_REPORT: &str = "1 matching(s), +0 nodes, +1 edges, -0 nodes, -0 edges";
/// The report string the server acks a committed `unlink` with.
pub const UNLINK_REPORT: &str = "1 matching(s), +0 nodes, +0 edges, -0 nodes, -1 edges";

/// `count` seeded `(i, j)` pairs such that `info-i` does not yet link
/// to `info-j`: the `link` adds exactly one edge and its `unlink`
/// restores the instance, so the commit mix is stationary.
pub fn link_pairs(seeded: &Seeded, count: usize, rng: &mut StdRng) -> Vec<(usize, usize)> {
    let n = seeded.infos.len();
    let mut pairs = Vec::with_capacity(count);
    while pairs.len() < count {
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        if i != j && !seeded.out[i].contains(&j) {
            pairs.push((i, j));
        }
    }
    pairs
}

// ---- oracle -----------------------------------------------------------------

fn cell(node: NodeId) -> String {
    format!("Info#{}", node.index())
}

fn sorted_rows(mut rows: Vec<Vec<String>>) -> Vec<Vec<String>> {
    rows.sort();
    rows
}

impl Seeded {
    /// Expected rows of the point query on `info-k`, with `extra` an
    /// additional link target (the read-your-write check).
    pub fn point_rows(&self, k: usize, extra: Option<usize>) -> Vec<Vec<String>> {
        sorted_rows(
            self.out[k]
                .iter()
                .chain(extra.iter())
                .map(|&j| vec![cell(self.infos[k]), cell(self.infos[j])])
                .collect(),
        )
    }

    /// Expected rows of the join query on date index `d`: a nested
    /// loop over the objects created that day.
    pub fn join_rows(&self, d: usize) -> Vec<Vec<String>> {
        let mut rows = Vec::new();
        for a in (d..self.infos.len()).step_by(DATES) {
            for &b in &self.out[a] {
                for &c in &self.out[b] {
                    rows.push(vec![cell(self.infos[a]), cell(self.infos[c])]);
                }
            }
        }
        sorted_rows(rows)
    }

    /// Expected rows of the closure query: a BFS from every object
    /// (paths of length ≥ 1, so an object on a cycle reaches itself).
    pub fn closure_rows(&self) -> Vec<Vec<String>> {
        let n = self.infos.len();
        let mut rows = Vec::new();
        for start in 0..n {
            let mut seen = vec![false; n];
            let mut queue: Vec<usize> = self.out[start].clone();
            while let Some(k) = queue.pop() {
                if !seen[k] {
                    seen[k] = true;
                    rows.push(vec![cell(self.infos[start]), cell(self.infos[k])]);
                    queue.extend(&self.out[k]);
                }
            }
        }
        sorted_rows(rows)
    }
}

/// The expected replies of one workload's plain queries, computed once
/// during set-up and indexed by `QueryOp::key`.
pub struct Oracle {
    by_key: Vec<Vec<Vec<String>>>,
}

impl Oracle {
    /// Walk `seeded` for every key `kind` can ask about.
    pub fn new(kind: QueryKind, seeded: &Seeded) -> Oracle {
        let by_key = match kind {
            QueryKind::Point => (0..seeded.infos.len())
                .map(|k| seeded.point_rows(k, None))
                .collect(),
            QueryKind::Join => (0..DATES).map(|d| seeded.join_rows(d)).collect(),
            QueryKind::Closure => vec![seeded.closure_rows()],
        };
        Oracle { by_key }
    }

    /// Expected rows for `op`.
    pub fn rows(&self, op: &QueryOp) -> &[Vec<String>] {
        &self.by_key[op.key]
    }
}

/// FNV-1a over a request sequence: equal seeds must give equal hashes.
#[derive(Debug, Clone, Copy)]
pub struct SequenceHash(pub u64);

impl Default for SequenceHash {
    fn default() -> Self {
        SequenceHash(0xcbf2_9ce4_8422_2325)
    }
}

impl SequenceHash {
    /// Fold `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_shape_has_exact_out_degree_and_constant_join_size() {
        for seed in [1, 2] {
            let seeded = build_instance(Shape::Random { infos: 320 }, seed);
            assert!(seeded.out.iter().all(|t| t.len() == OUT_DEGREE));
            seeded.instance.validate().expect("valid instance");
            for d in 0..DATES {
                assert_eq!(
                    seeded.join_rows(d).len(),
                    320 / DATES * OUT_DEGREE * OUT_DEGREE
                );
            }
        }
    }

    #[test]
    fn ring_closure_is_every_pair_within_a_ring() {
        let seeded = build_instance(Shape::Rings { infos: 60 }, 9);
        assert_eq!(seeded.closure_rows().len(), 60 * RING);
    }

    #[test]
    fn oracle_agrees_with_the_query_stack() {
        let seeded = build_instance(Shape::Random { infos: 64 }, 3);
        let run = |text: &str| {
            good_query::run(&seeded.instance, text, good_query::Backend::Core)
                .expect("query runs")
                .rows
        };
        assert_eq!(run(&point_query(5)), seeded.point_rows(5, None));
        assert_eq!(run(&join_query(3)), seeded.join_rows(3));
        let rings = build_instance(Shape::Rings { infos: 40 }, 3);
        let closure = good_query::run(&rings.instance, CLOSURE_QUERY, good_query::Backend::Core)
            .expect("closure runs");
        assert_eq!(closure.rows, rings.closure_rows());
    }

    #[test]
    fn link_then_unlink_restores_the_instance() {
        let seeded = build_instance(Shape::Random { infos: 64 }, 4);
        let mut rng = StdRng::seed_from_u64(4);
        let (i, j) = link_pairs(&seeded, 1, &mut rng)[0];
        let mut db = seeded.instance.clone();
        let mut env = good_core::program::Env::new();
        let added = link(i, j).apply(&mut db, &mut env).expect("link applies");
        assert_eq!((added.matchings, added.edges_added), (1, 1));
        assert_eq!(db.edge_count(), seeded.instance.edge_count() + 1);
        let removed = unlink(i, j)
            .apply(&mut db, &mut env)
            .expect("unlink applies");
        assert_eq!((removed.matchings, removed.edges_deleted), (1, 1));
        assert_eq!(db.edge_count(), seeded.instance.edge_count());
    }

    #[test]
    fn same_seed_same_sequence() {
        let hash = |seed: u64| {
            let seeded = build_instance(Shape::Random { infos: 128 }, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut hash = SequenceHash::default();
            for op in query_ops(QueryKind::Point, 128, 50, &mut rng) {
                hash.update(op.text.as_bytes());
            }
            for (i, j) in link_pairs(&seeded, 50, &mut rng) {
                hash.update(&(i as u64).to_le_bytes());
                hash.update(&(j as u64).to_le_bytes());
            }
            hash.0
        };
        assert_eq!(hash(11), hash(11));
        assert_ne!(hash(11), hash(12));
    }
}
