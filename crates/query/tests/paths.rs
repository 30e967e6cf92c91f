//! Property-path reference test: the compiled `*m..M` repetition —
//! through all three execution lanes — is checked against a naive
//! boolean matrix-power oracle (Floyd–Warshall-style closure plus
//! exact-length walk sets) on small random graphs, including
//! cycle-heavy ones and the `*0..` edge cases.
//!
//! Walk semantics: `(a, b)` matches `-[:e*m..M]->` iff some walk from
//! `a` to `b` along `e`-edges has length in `[m, M]`. The oracle
//! computes exact-length reachability matrices `R_l` by repeated
//! boolean matrix multiplication; for unbounded specs it is enough to
//! examine lengths up to `m + n` (if a walk of length ≥ m exists, a
//! minimal one among those of length ≥ m has length < m + n, since a
//! longer one contains a removable cycle while staying ≥ m).
//!
//! The core lane evaluates the path-derivation program into derived
//! relations beside the instance; a second check pins those relations
//! to the paper's reading, the same program applied as operations to a
//! scratch instance.

use good_core::gen::bench_scheme;
use good_core::instance::Instance;
use good_core::label::Label;
use good_core::program::Env;
use good_core::value::Value;
use good_graph::NodeId;
use good_query::compile::Step;
use good_query::exec::{derive, execute, Backend};
use good_query::{compile, parse_query, run_differential};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// A random `Info` digraph (possibly cyclic, self-loops included) with
/// named nodes so rows identify objects stably.
fn random_graph(seed: u64, nodes: usize, edge_prob: f64) -> (Instance, Vec<NodeId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Instance::new(bench_scheme());
    let infos: Vec<NodeId> = (0..nodes)
        .map(|index| {
            let info = db.add_object("Info").expect("node");
            let name = db
                .add_printable("String", Value::str(format!("node-{index}")))
                .expect("name");
            db.add_edge(info, "name", name).expect("edge");
            info
        })
        .collect();
    for &src in &infos {
        for &dst in &infos {
            if rng.gen_bool(edge_prob) {
                db.add_edge(src, "links-to", dst).expect("edge");
            }
        }
    }
    (db, infos)
}

/// Exact-length boolean reachability: `matrices[l][i][j]` ⇔ some walk
/// of length exactly `l` goes `i → j`. Computed by naive O(n³) boolean
/// matrix multiplication — deliberately the dumbest correct thing.
fn walk_matrices(adjacency: &[Vec<bool>], max_len: usize) -> Vec<Vec<Vec<bool>>> {
    let n = adjacency.len();
    let identity: Vec<Vec<bool>> = (0..n).map(|i| (0..n).map(|j| i == j).collect()).collect();
    let mut matrices = vec![identity];
    for _ in 1..=max_len {
        let prev = matrices.last().expect("nonempty");
        let mut next = vec![vec![false; n]; n];
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            for k in 0..n {
                if prev[i][k] {
                    for j in 0..n {
                        if adjacency[k][j] {
                            next[i][j] = true;
                        }
                    }
                }
            }
        }
        matrices.push(next);
    }
    matrices
}

/// The oracle's answer to `-[:links-to*min..max]->`: all `(i, j)` with
/// a walk length in range.
fn oracle_pairs(adjacency: &[Vec<bool>], min: u32, max: Option<u32>) -> BTreeSet<(usize, usize)> {
    let n = adjacency.len();
    // Unbounded specs saturate by length min + n (see module docs).
    let horizon = max.map_or(min as usize + n, |m| m as usize);
    let matrices = walk_matrices(adjacency, horizon);
    let mut pairs = BTreeSet::new();
    for matrix in &matrices[min as usize..] {
        for (i, row) in matrix.iter().enumerate() {
            for (j, reachable) in row.iter().enumerate() {
                if *reachable {
                    pairs.insert((i, j));
                }
            }
        }
    }
    pairs
}

/// Ask one backend for the pairs of `-[:links-to*spec]->`.
fn engine_pairs(
    db: &Instance,
    infos: &[NodeId],
    spec: &str,
    backend: Backend,
) -> BTreeSet<(usize, usize)> {
    let text = format!("MATCH (a:Info)-[:links-to{spec}]->(b:Info) RETURN a, b");
    let query = parse_query(&text).expect("parse");
    let compiled = compile(&query, db.scheme()).expect("compile");
    let output = execute(db, &compiled, backend).expect("execute");
    let index_of = |cell: &str| -> usize {
        let raw = cell.strip_prefix("Info#").expect("object cell");
        let node_index: usize = raw.parse().expect("node index");
        infos
            .iter()
            .position(|node| node.index() == node_index)
            .expect("known node")
    };
    output
        .rows
        .iter()
        .map(|row| (index_of(&row[0]), index_of(&row[1])))
        .collect()
}

#[test]
fn path_answers_match_the_matrix_oracle() {
    // Densities chosen to cover sparse DAG-ish graphs, cycle-heavy
    // graphs, and near-complete ones.
    let specs: &[(u32, Option<u32>)] = &[
        (1, None),    // *
        (0, None),    // *0..
        (2, None),    // *2..
        (3, None),    // *3..
        (0, Some(0)), // *0
        (1, Some(1)), // *1
        (2, Some(2)), // *2
        (0, Some(3)), // *0..3
        (1, Some(4)), // *1..4
        (2, Some(5)), // *2..5
    ];
    for seed in 0..12u64 {
        let nodes = 3 + (seed as usize % 5);
        let edge_prob = [0.15, 0.3, 0.6][seed as usize % 3];
        let (db, infos) = random_graph(seed, nodes, edge_prob);
        let links = good_core::label::Label::new("links-to");
        let adjacency: Vec<Vec<bool>> = infos
            .iter()
            .map(|&src| {
                let targets: BTreeSet<NodeId> = db.targets(src, &links).collect();
                infos.iter().map(|dst| targets.contains(dst)).collect()
            })
            .collect();
        for &(min, max) in specs {
            let spec = match (min, max) {
                (1, None) => "*".to_string(),
                (m, None) => format!("*{m}.."),
                (m, Some(x)) if m == x => format!("*{m}"),
                (m, Some(x)) => format!("*{m}..{x}"),
            };
            let expected = oracle_pairs(&adjacency, min, max);
            for backend in Backend::ALL {
                let got = engine_pairs(&db, &infos, &spec, backend);
                assert_eq!(
                    got,
                    expected,
                    "seed {seed}, spec {spec}, backend {}: engine disagrees with the \
                     matrix oracle",
                    backend.name()
                );
            }
        }
    }
}

#[test]
fn self_loop_walks_every_length() {
    // One node with a self-loop: every spec with max ≥ 1 matches (n, n),
    // and *0 matches it too (identity).
    let mut db = Instance::new(bench_scheme());
    let node = db.add_object("Info").expect("node");
    db.add_edge(node, "links-to", node).expect("loop");
    for spec in ["*", "*0..", "*5..", "*3", "*0", "*2..7"] {
        let text = format!("MATCH (a:Info)-[:links-to{spec}]->(b:Info) RETURN a, b");
        let query = parse_query(&text).expect("parse");
        let compiled = compile(&query, db.scheme()).expect("compile");
        for backend in Backend::ALL {
            let output = execute(&db, &compiled, backend).expect("execute");
            assert_eq!(
                output.rows.len(),
                1,
                "spec {spec}, backend {}",
                backend.name()
            );
        }
    }
}

#[test]
fn two_cycle_parity_is_respected() {
    // a ⇄ b: walks from a back to a have even length, walks a → b odd
    // length. `*2` must exclude (a, b); `*3` must exclude (a, a).
    let mut db = Instance::new(bench_scheme());
    let a = db.add_object("Info").expect("node");
    let b = db.add_object("Info").expect("node");
    db.add_edge(a, "links-to", b).expect("edge");
    db.add_edge(b, "links-to", a).expect("edge");
    let pairs_for = |spec: &str| {
        let text = format!("MATCH (x:Info)-[:links-to{spec}]->(y:Info) RETURN x, y");
        let compiled = compile(&parse_query(&text).expect("parse"), db.scheme()).expect("compile");
        let core = execute(&db, &compiled, Backend::Core).expect("core");
        for backend in [Backend::Relational, Backend::Tarski] {
            assert_eq!(
                execute(&db, &compiled, backend).expect("run").rows,
                core.rows,
                "spec {spec}"
            );
        }
        core.rows
    };
    let even = pairs_for("*2");
    assert_eq!(even.len(), 2); // (a,a) and (b,b)
    assert!(even.iter().all(|row| row[0] == row[1]));
    let odd = pairs_for("*3");
    assert_eq!(odd.len(), 2); // (a,b) and (b,a)
    assert!(odd.iter().all(|row| row[0] != row[1]));
}

#[test]
fn served_derivation_equals_the_paper_program() {
    // Every lowering shape, plus an empty seed (`rec-links-to` has no
    // edge here).
    let specs = [
        "links-to*",
        "links-to*0..",
        "links-to*2..",
        "links-to*3..",
        "links-to*1..4",
        "links-to*2..5",
        "links-to*0..3",
        "links-to*0",
        "links-to*2",
        "rec-links-to*",
        "rec-links-to*2..",
    ];
    for seed in 0..8u64 {
        let (db, _) = random_graph(
            seed,
            3 + seed as usize % 5,
            [0.15, 0.3, 0.6][seed as usize % 3],
        );
        for spec in specs {
            let text = format!("MATCH (a:Info)-[:{spec}]->(b:Info) RETURN a, b");
            let compiled =
                compile(&parse_query(&text).expect("parse"), db.scheme()).expect("compile");
            let (scratch, derived, served) = derive(&db, &compiled).expect("derive");
            assert_eq!(
                scratch.edge_count(),
                db.edge_count(),
                "{spec}: nothing is stored"
            );

            // The paper's reading: the steps as operations on a scratch
            // instance, the edges they add read back per label.
            let mut paper = db.clone();
            let triples = compiled.derived_triples();
            for (class, label) in &triples {
                paper
                    .extend_multivalued(class.clone(), label.clone(), class.clone())
                    .expect("register");
            }
            let mut env = Env::new();
            let applied: Vec<_> = (compiled.core_steps().iter())
                .map(|step| match step {
                    Step::Op(op) => op.apply(&mut paper, &mut env),
                    Step::Star(star) => star.apply(&mut paper, &mut env),
                })
                .collect::<Result<_, _>>()
                .expect("apply");
            let edges_added = |reports: &[good_core::ops::OpReport]| {
                reports.iter().map(|r| r.edges_added).collect::<Vec<_>>()
            };
            assert_eq!(
                edges_added(&served),
                edges_added(&applied),
                "seed {seed}, {spec}"
            );
            for (_, label) in &triples {
                let stored: BTreeSet<(NodeId, NodeId)> = (paper.edges())
                    .filter(|(_, edge, _)| *edge == label)
                    .map(|(src, _, dst)| (src, dst))
                    .collect();
                let held: BTreeSet<(NodeId, NodeId)> = derived.pairs(label).collect();
                assert_eq!(held, stored, "seed {seed}, {spec}, label {label}");
            }
        }
    }
}

#[test]
fn intermediate_path_labels_are_fresh() {
    // The scheme (and instance) already use the name the lowering would
    // give its accumulator or a composed prefix. The lowering must mint
    // another, or the program mixes the user's edges into the derivation.
    for (suffix, spec, chain, expected) in [
        ("walk", "*2..", 3, [0, 2]),
        ("base", "*2..3", 3, [0, 2]),
        ("ge2", "*3..", 4, [0, 3]),
    ] {
        let taken = Label::new(format!("qpath0-links-to-{suffix}"));
        let mut scheme = bench_scheme();
        scheme
            .add_multivalued("Info", taken.clone(), "Info")
            .expect("new label");
        let mut db = Instance::new(scheme);
        let infos: Vec<NodeId> = (0..=chain)
            .map(|_| db.add_object("Info").expect("node"))
            .collect();
        for pair in infos[..chain].windows(2) {
            db.add_edge(pair[0], "links-to", pair[1]).expect("edge");
        }
        db.add_edge(infos[chain - 1], taken, infos[chain])
            .expect("edge");
        let text = format!("MATCH (a:Info)-[:links-to{spec}]->(b:Info) RETURN a, b");
        let compiled = compile(&parse_query(&text).expect("parse"), db.scheme()).expect("compile");
        for (_, label) in compiled.derived_triples() {
            assert!(
                !db.scheme().is_edge_label(&label),
                "{suffix}: {label} is taken"
            );
        }
        let rows = run_differential(&db, &text).expect("lanes agree").rows;
        assert_eq!(
            rows,
            vec![expected.map(|at| format!("Info#{at}"))],
            "{suffix}"
        );
    }
}
