//! Store model test: random instance operations checked, step by step,
//! against §2's definition — a map of labelled nodes and a set of
//! `(src, λ, dst)` triples. After every step each read the matcher,
//! operations and figures rely on must agree with the model, each
//! refusal must carry the predicted variant, and the audit must pass.
//! Batches reach both deletion paths; a serde round trip stands in for recovery.

use good_core::error::GoodError;
use good_core::instance::{Instance, NodeData};
use good_core::label::{EdgeKind, Label, NodeKind};
use good_core::scheme::{Scheme, SchemeBuilder};
use good_core::value::{Value, ValueType};
use good_graph::NodeId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Two object and two printable classes; functional `f` with two target
/// classes, multivalued `m` with two target and two source classes, and
/// `b` for `B` alone. `restricted` drops `B` and `(A, f, N)`.
fn scheme(restricted: bool) -> Scheme {
    let builder = SchemeBuilder::new()
        .object("A")
        .printable("S", ValueType::Str)
        .printable("N", ValueType::Int)
        .functional("A", "f", "S")
        .multivalued("A", "m", "A");
    match restricted {
        true => builder.build(),
        false => (builder.object("B").functional("A", "f", "N"))
            .multivalued("A", "m", "B")
            .multivalued("B", "m", "A")
            .multivalued("B", "b", "S")
            .build(),
    }
}

const CLASSES: [&str; 5] = ["A", "B", "S", "N", "Z"];
const EDGES: [&str; 4] = ["f", "m", "b", "z"];

type Triple = (NodeId, Label, NodeId);

#[derive(Default)]
struct Model {
    nodes: BTreeMap<NodeId, NodeData>,
    edges: BTreeSet<Triple>,
}

impl Model {
    fn label(&self, node: NodeId) -> Option<&Label> {
        self.nodes.get(&node).map(|data| &data.label)
    }

    /// The error `Instance::add_edge` must refuse with, or `None` if
    /// the edge is (or already was) there afterwards.
    fn refusal(&self, scheme: &Scheme, (src, label, dst): &Triple) -> Option<&'static str> {
        let (Some(src_label), Some(dst_label)) = (self.label(*src), self.label(*dst)) else {
            return Some("DanglingNode");
        };
        let kind = scheme.edge_kind(label);
        let existing = (self.edges.iter()).find(|(s, l, _)| s == src && l == label);
        match existing {
            _ if kind.is_none() => Some("UnknownEdgeLabel"),
            _ if !scheme.allows(src_label, label, dst_label) => Some("EdgeNotInScheme"),
            _ if self.edges.contains(&(*src, label.clone(), *dst)) => None,
            Some(_) if kind == Some(EdgeKind::Functional) => Some("FunctionalConflict"),
            Some(other) if self.label(other.2) != Some(dst_label) => Some("TargetLabelConflict"),
            _ => None,
        }
    }

    fn delete_node(&mut self, node: NodeId) -> bool {
        (self.edges).retain(|(src, _, dst)| *src != node && *dst != node);
        self.nodes.remove(&node).is_some()
    }
}

/// The refusal's variant name, or `None` for success.
fn refused<T>(outcome: &Result<T, GoodError>) -> Option<String> {
    let name = outcome.as_ref().err().map(|err| format!("{err:?}"))?;
    name.split(['(', ' ']).next().map(String::from)
}

fn pick(rng: &mut StdRng, nodes: &[NodeId]) -> NodeId {
    nodes[rng.gen_range(0..nodes.len())]
}

/// A triple between two of `nodes`, labelled `label` or a random label.
fn triple(rng: &mut StdRng, nodes: &[NodeId], label: Option<&str>) -> Triple {
    let src = pick(rng, nodes);
    let label = label.unwrap_or_else(|| EDGES[rng.gen_range(0..EDGES.len())]);
    (src, Label::new(label), pick(rng, nodes))
}

/// The refusal a node insert must carry, or `None`.
fn node_refusal(scheme: &Scheme, label: &Label, value: Option<&Value>) -> Option<&'static str> {
    let kind = scheme.node_kind(label);
    match value {
        _ if kind.is_none() => Some("UnknownNodeLabel"),
        _ if value.is_some() != (kind == Some(NodeKind::Printable)) => Some("PrintMismatch"),
        Some(v) if scheme.printable_type(label) != Some(v.value_type()) => {
            Some("ValueTypeMismatch")
        }
        _ => None,
    }
}

fn check(db: &Instance, model: &Model, known: &[NodeId], step: usize) {
    let counts = (model.nodes.len(), model.edges.len());
    assert_eq!((db.node_count(), db.edge_count()), counts, "step {step}");
    for class in CLASSES.map(Label::new) {
        let extent = (model.nodes.iter()).filter(|(_, data)| data.label == class);
        let same = db.nodes_with_label(&class).eq(extent.map(|(id, _)| *id));
        assert!(same, "step {step}: extent of {class}");
    }
    for (id, NodeData { label, print }) in &model.nodes {
        let found = print.as_ref().map(|value| db.find_printable(label, value));
        assert!(found.is_none_or(|found| found == Some(*id)), "step {step}");
    }
    let absent = db.find_printable(&Label::new("S"), &Value::str("absent"));
    assert!(absent.is_none(), "step {step}");
    let labels = EDGES.map(Label::new);
    // (outgoing?, node, λ) → the other endpoints.
    let mut sides: BTreeMap<(bool, NodeId, &Label), BTreeSet<NodeId>> = BTreeMap::new();
    for (src, label, dst) in &model.edges {
        sides.entry((true, *src, label)).or_default().insert(*dst);
        sides.entry((false, *dst, label)).or_default().insert(*src);
    }
    let side = |out, node, label| sides.get(&(out, node, label)).cloned().unwrap_or_default();
    // Non-edges are probed against a sample of the known ids.
    let probes: Vec<NodeId> = known.iter().step_by(known.len() / 8 + 1).copied().collect();
    for &node in known {
        let degree = |out| labels.iter().fold(0, |n, l| n + side(out, node, l).len());
        let live = model.nodes.contains_key(&node);
        assert_eq!(db.contains_node(node), live, "step {step}: {node:?}");
        let degrees = [db.out_degree(node), db.in_degree(node)];
        assert_eq!(degrees, [degree(true), degree(false)], "step {step}");
        for label in &labels {
            let (targets, sources) = (side(true, node, label), side(false, node, label));
            let functional = db.scheme().edge_kind(label) == Some(EdgeKind::Functional);
            let facts = (
                db.targets(node, label).collect::<BTreeSet<_>>(),
                db.sources(node, label).collect::<BTreeSet<_>>(),
                functional.then(|| db.functional_target(node, label)),
            );
            let single = functional.then(|| targets.iter().next().copied());
            assert_eq!(facts, (targets.clone(), sources, single), "step {step}");
            for other in probes.iter().chain(&targets) {
                let present = targets.contains(other);
                assert_eq!(db.has_edge(node, label, *other), present, "step {step}");
            }
        }
    }
    (db.validate()).unwrap_or_else(|err| panic!("step {step}: audit: {err}"));
}

/// Run `steps` random operations; returns how many node and edge
/// deletion batches were large enough for the bulk-rebuild path.
fn run_case(seed: u64, steps: usize) -> (usize, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut db, mut model) = (Instance::new(scheme(false)), Model::default());
    let (mut known, mut bulk): (Vec<NodeId>, _) = (Vec::new(), (0, 0));
    for step in 0..steps {
        let roll = rng.gen_range(0..100);
        match roll {
            _ if known.len() < 2 || roll < 40 => {
                let class = CLASSES[rng.gen_range(0..CLASSES.len())];
                // Mostly well-typed; one in five is a shot at a refusal.
                let shape = (["", "S", "N"].get(rng.gen_range(0..15usize))).unwrap_or(&class);
                let value = match *shape {
                    "S" => Some(Value::str(format!("v{}", rng.gen_range(0..8)))),
                    "N" => Some(Value::int(rng.gen_range(0..6))),
                    _ => None,
                };
                let label = Label::new(class);
                let refusal = node_refusal(db.scheme(), &label, value.as_ref());
                let outcome = match &value {
                    None => db.add_object(label.clone()),
                    Some(value) => db.add_printable(label.clone(), value.clone()),
                };
                assert_eq!(refused(&outcome).as_deref(), refusal, "step {step}");
                if let Ok(id) = outcome {
                    let print = value;
                    let same = |data: &NodeData| data.label == label && data.print == print;
                    let existing = (model.nodes.iter()).find(|(_, d)| print.is_some() && same(d));
                    assert!(existing.map_or(!model.nodes.contains_key(&id), |(old, _)| *old == id));
                    model.nodes.insert(id, NodeData { label, print });
                    known.push(id);
                }
            }
            _ if roll < 70 => {
                // A burst adds `m` edges between live objects, so edge
                // batches can grow large enough for the bulk path.
                let burst = roll >= 60;
                let objects: Vec<NodeId> = (model.nodes.iter())
                    .filter(|(_, data)| data.print.is_none())
                    .map(|(id, _)| *id)
                    .collect();
                let tries = [1, 64 * usize::from(!objects.is_empty())][usize::from(burst)];
                for _ in 0..tries {
                    let nodes = if burst { &objects } else { &known };
                    let triple = triple(&mut rng, nodes, burst.then_some("m"));
                    let refusal = model.refusal(db.scheme(), &triple);
                    let outcome = db.add_edge(triple.0, triple.1.clone(), triple.2);
                    assert_eq!(refused(&outcome).as_deref(), refusal, "step {step}");
                    if refusal.is_none() {
                        model.edges.insert(triple);
                    }
                }
            }
            _ if roll < 73 => {
                let node = pick(&mut rng, &known);
                assert_eq!(db.delete_node(node), model.delete_node(node), "step {step}");
            }
            _ if roll < 74 => {
                // Up to 100 ids, so batches of 64 and more take the bulk path.
                let batch: Vec<NodeId> = (0..rng.gen_range(1..100))
                    .map(|_| pick(&mut rng, &known))
                    .collect();
                let mut live: BTreeSet<NodeId> = batch.iter().copied().collect();
                live.retain(|node| model.nodes.contains_key(node));
                bulk.0 += usize::from(batch.len() >= 64 && batch.len() * 8 >= model.nodes.len());
                assert_eq!(db.delete_nodes(batch), live.len(), "step {step}");
                for node in live {
                    model.delete_node(node);
                }
            }
            _ if roll < 78 => {
                let keep = rng.gen_range(0..4);
                let mut batch: Vec<Triple> = (model.edges.iter())
                    .filter(|_| rng.gen_range(0..4) >= keep)
                    .cloned()
                    .collect();
                for _ in 0..rng.gen_range(0..8) {
                    batch.push(triple(&mut rng, &known, None));
                }
                let mut doomed: BTreeSet<Triple> = batch.iter().cloned().collect();
                doomed.retain(|triple| model.edges.contains(triple));
                bulk.1 += usize::from(doomed.len() >= 64 && doomed.len() * 2 >= model.edges.len());
                assert_eq!(db.delete_edges_between(batch), doomed.len(), "step {step}");
                model.edges.retain(|triple| !doomed.contains(triple));
            }
            _ if roll < 88 => {
                let triple = triple(&mut rng, &known, None);
                let deleted = db.delete_edge_between(triple.0, &triple.1, triple.2);
                assert_eq!(deleted, model.edges.remove(&triple), "step {step}");
            }
            // Restricting is for good, so it waits for the second half.
            _ if roll < 90 && step * 2 >= steps => {
                let sub = scheme(true);
                db.restrict_to_scheme(&sub);
                model.nodes.retain(|_, data| sub.is_node_label(&data.label));
                let Model { nodes, edges } = &mut model;
                edges.retain(|(src, label, dst)| match (nodes.get(src), nodes.get(dst)) {
                    (Some(s), Some(d)) => sub.allows(&s.label, label, &d.label),
                    _ => false,
                });
            }
            _ => {
                let json = serde_json::to_string(&db).expect("serialise");
                db = serde_json::from_str(&json).expect("recover");
            }
        }
        check(&db, &model, &known, step);
    }
    bulk
}

#[test]
fn smoke_model_run_takes_both_deletion_paths() {
    let runs = (0..4).map(|seed| run_case(seed, 300));
    let (nodes, edges) = runs.fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    assert!(nodes > 0 && edges > 0, "bulk batches: {nodes}, {edges}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn instance_agrees_with_the_model(seed in any::<u64>(), steps in 40usize..240) {
        run_case(seed, steps);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]
    #[test]
    #[ignore = "nightly: 10k-case store model sweep"]
    fn nightly_instance_agrees_with_the_model(seed in any::<u64>(), steps in 40usize..240) {
        run_case(seed, steps);
    }
}
