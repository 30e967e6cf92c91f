//! `good-bench` — the bench harness ([`harness`]), the workload builders
//! its nineteen targets share (EXPERIMENTS.md E1–E20, E12 retired) and
//! the `repro` figure-regeneration binary.
//!
//! The paper has no quantitative evaluation, so these workloads
//! characterize the implementation on synthetic hyper-media-shaped
//! instances (see DESIGN.md §1 for the rationale and EXPERIMENTS.md for
//! recorded results).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

use good_core::gen::{random_instance, GenConfig};
use good_core::instance::Instance;
use good_core::label::Label;
use good_core::ops::NodeAddition;
use good_core::pattern::Pattern;
use good_core::program::{Operation, Program};
use good_graph::NodeId;
use good_server::client::Client;
use good_server::net::{NetConfig, NetServer};
use good_server::{Server, ServerConfig};
use good_store::vfs::{FaultPlan, FaultVfs, Vfs};
use good_store::Store;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;

/// The instance sizes the sweeps run over (number of Info objects).
pub const SIZES: [usize; 3] = [100, 400, 1600];

/// A deterministic random instance of `infos` Info objects with ~2
/// outgoing links each.
pub fn instance_of(infos: usize) -> Instance {
    random_instance(&GenConfig {
        infos,
        avg_links: 2.0,
        distinct_dates: 8,
        seed: 42,
    })
}

/// The 10 000-object stress instance of the nightly `--ignored` stress
/// test: ~2 outgoing links per info, 16 distinct dates, fixed seed.
pub fn stress_instance() -> Instance {
    random_instance(&GenConfig {
        infos: 10_000,
        avg_links: 2.0,
        distinct_dates: 16,
        seed: 42,
    })
}

/// A chain-shaped pattern of `length` Info nodes connected by
/// `links-to` edges; returns `(pattern, nodes)`.
pub fn chain_pattern(length: usize) -> (Pattern, Vec<NodeId>) {
    let mut pattern = Pattern::new();
    let nodes: Vec<NodeId> = (0..length).map(|_| pattern.node("Info")).collect();
    for window in nodes.windows(2) {
        pattern.edge(window[0], "links-to", window[1]);
    }
    (pattern, nodes)
}

/// A triangle pattern: three Info nodes in a directed 3-cycle of
/// `links-to` edges; returns `(pattern, nodes)`.
pub fn triangle_pattern() -> (Pattern, [NodeId; 3]) {
    let mut pattern = Pattern::new();
    let a = pattern.node("Info");
    let b = pattern.node("Info");
    let c = pattern.node("Info");
    pattern.edge(a, "links-to", b);
    pattern.edge(b, "links-to", c);
    pattern.edge(c, "links-to", a);
    (pattern, [a, b, c])
}

/// A hub-and-spoke instance shaped to punish materializing binary
/// joins on cyclic patterns (the E18 planner benchmark): `spokes` Info
/// objects each link to two of `hubs` hub Infos and are linked back by
/// two others, and the hubs form directed 3-cycles among themselves.
/// A triangle query's middle join therefore materializes roughly
/// `spokes * 2 * (2 * spokes / hubs)` open wedge rows before the
/// closing edge filters nearly all of them out, while a worst-case-
/// optimal join only touches rows that can still close.
pub fn hub_instance(spokes: usize, hubs: usize) -> Instance {
    assert!(
        hubs >= 3 && hubs.is_multiple_of(3),
        "hubs must be a positive multiple of 3"
    );
    let mut db = Instance::new(good_core::gen::bench_scheme());
    let hub_ids: Vec<NodeId> = (0..hubs)
        .map(|_| db.add_object("Info").expect("Info"))
        .collect();
    for triple in hub_ids.chunks(3) {
        db.add_edge(triple[0], "links-to", triple[1]).expect("edge");
        db.add_edge(triple[1], "links-to", triple[2]).expect("edge");
        db.add_edge(triple[2], "links-to", triple[0]).expect("edge");
    }
    for spoke_index in 0..spokes {
        let spoke = db.add_object("Info").expect("Info");
        db.add_edge(spoke, "links-to", hub_ids[spoke_index % hubs])
            .expect("edge");
        db.add_edge(spoke, "links-to", hub_ids[(spoke_index + 5) % hubs])
            .expect("edge");
        db.add_edge(hub_ids[(spoke_index + 3) % hubs], "links-to", spoke)
            .expect("edge");
        db.add_edge(hub_ids[(spoke_index + 7) % hubs], "links-to", spoke)
            .expect("edge");
    }
    db
}

/// The Figure 4-shaped pattern: a named Info linking to another.
pub fn anchored_pattern(name: &str) -> (Pattern, NodeId, NodeId) {
    let mut pattern = Pattern::new();
    let info = pattern.node("Info");
    let name_node = pattern.printable("String", name);
    let other = pattern.node("Info");
    pattern.edge(info, "name", name_node);
    pattern.edge(info, "links-to", other);
    (pattern, info, other)
}

/// A tag node addition over a chain pattern of the given length.
pub fn tag_addition(length: usize) -> NodeAddition {
    let (pattern, nodes) = chain_pattern(length);
    NodeAddition::new(pattern, "BenchTag", [(Label::new("of"), nodes[0])])
}

/// An instance shaped for abstraction benchmarks: `groups` distinct
/// link sets, each shared by `members` Info objects.
pub fn grouped_instance(groups: usize, members: usize) -> Instance {
    let mut db = Instance::new(good_core::gen::bench_scheme());
    let targets: Vec<NodeId> = (0..groups + 2)
        .map(|_| db.add_object("Info").expect("Info"))
        .collect();
    for group in 0..groups {
        for _ in 0..members {
            let info = db.add_object("Info").expect("Info");
            // Each group's signature set: {targets[group], targets[group+1]}.
            db.add_edge(info, "links-to", targets[group]).expect("edge");
            db.add_edge(info, "links-to", targets[group + 1])
                .expect("edge");
        }
    }
    db
}

/// A chain instance of `length` Info objects for transitive-closure
/// benchmarks.
pub fn chain_instance(length: usize) -> Instance {
    let mut db = Instance::new(good_core::gen::bench_scheme());
    let nodes: Vec<NodeId> = (0..length)
        .map(|_| db.add_object("Info").expect("Info"))
        .collect();
    for window in nodes.windows(2) {
        db.add_edge(window[0], "links-to", window[1]).expect("edge");
    }
    db
}

/// A one-operation program adding an isolated node labelled `label`.
/// Node additions are set-semantic (re-adding an identical node is a
/// no-op), so callers pass distinct labels to make every journaled or
/// replayed record do real work.
pub fn labeled_program(label: &str) -> Program {
    Program::from_ops([Operation::NodeAdd(NodeAddition::new(
        Pattern::new(),
        label,
        [],
    ))])
}

/// A journal path in the temp directory, unique to this process and
/// `name`, with any previous file removed.
pub fn temp_journal(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("good-bench-{name}-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// The pipelined-submission workload E15, E17 and E19 share, so their
/// throughput numbers compare like with like.
pub const PIPELINED_PROGRAMS: usize = 384;
/// The writer batch ceiling E17 and E19 run it at: E15's largest.
pub const PIPELINED_MAX_BATCH: usize = 64;

/// [`PIPELINED_PROGRAMS`] distinct programs.
pub fn pipelined_programs() -> Vec<Program> {
    (0..PIPELINED_PROGRAMS)
        .map(|i| labeled_program(&format!("P{i}")))
        .collect()
}

/// A session server over an empty bench-scheme store on the in-memory
/// fault-free VFS (no disk in the measurement).
pub fn memory_server(queue_capacity: usize, max_batch: usize) -> Server {
    let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::new(FaultPlan::reliable(42)));
    let store = Store::create_with_vfs(vfs, "/bench/db.journal", good_core::gen::bench_scheme())
        .expect("create store");
    Server::start(
        store,
        ServerConfig {
            queue_capacity,
            max_batch,
            ..ServerConfig::default()
        },
    )
}

/// Pipelined submission through the in-process session API: enqueue
/// everything, then drain the acks. The queue stays full, so the
/// writer forms groups up to its batch ceiling.
pub fn submit_all_in_process(server: Server, programs: Vec<Program>) -> Server {
    let session = server.open_session();
    let tickets: Vec<_> = programs
        .into_iter()
        .map(|program| server.submit(session, program).expect("submit"))
        .collect();
    for ticket in tickets {
        ticket.wait().expect("ack");
    }
    server
}

/// `server` behind the TCP front end on an ephemeral loopback port.
pub fn loopback(server: Server, max_connections: usize, session_inflight: usize) -> NetServer {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let config = NetConfig {
        max_connections,
        session_inflight,
        ..NetConfig::default()
    };
    NetServer::start(server, listener, config).expect("start net server")
}

/// A loopback server sized for the pipelined workload, one connected
/// client and the programs it will send. Dropping it says goodbye and
/// joins the server, so back-to-back samples never overlap.
pub struct PipelinedWire {
    net: Option<NetServer>,
    client: Option<Client>,
    programs: Vec<Program>,
}

impl PipelinedWire {
    /// Start the server and connect.
    pub fn start() -> PipelinedWire {
        let server = memory_server(PIPELINED_PROGRAMS + 1, PIPELINED_MAX_BATCH);
        let net = loopback(
            server,
            NetConfig::default().max_connections,
            PIPELINED_PROGRAMS + 1,
        );
        let client = Client::connect(net.local_addr()).expect("connect");
        PipelinedWire {
            net: Some(net),
            client: Some(client),
            programs: pipelined_programs(),
        }
    }

    /// The connected client.
    pub fn client(&mut self) -> &mut Client {
        self.client.as_mut().expect("live until drop")
    }

    /// Fire every submit before reading the first ack — the wire
    /// analogue of E15's pipelined throughput measurement.
    pub fn submit_all(mut self) -> PipelinedWire {
        let client = self.client.as_mut().expect("live until drop");
        let requests: Vec<u64> = self
            .programs
            .iter()
            .map(|program| client.submit(program).expect("submit"))
            .collect();
        for request in requests {
            client.wait_ack(request).expect("ack");
        }
        self
    }
}

impl Drop for PipelinedWire {
    fn drop(&mut self) {
        if let Some(client) = self.client.take() {
            client.goodbye().expect("goodbye");
        }
        if let Some(net) = self.net.take() {
            net.shutdown().expect("shutdown");
        }
    }
}

/// Every DOT rendering the `repro` binary emits for the paper's
/// figures, as `(file name, contents)` pairs — the single source of
/// truth shared by `repro` (which writes them to its out-dir) and the
/// figure golden tests (which diff them against
/// `crates/bench/tests/goldens/`).
pub fn figure_dots() -> Vec<(&'static str, String)> {
    use good_hypermedia::{build_instance, build_scheme, build_versions_instance, figures};

    let mut dots = Vec::new();
    let scheme = build_scheme();
    dots.push((
        "fig1-scheme.dot",
        scheme.to_dot("Figure 1: hyper-media scheme"),
    ));

    let (db0, _) = build_instance();
    dots.push(("fig2-instance.dot", db0.to_dot("Figures 2-3: instance")));

    let (pattern, _) = figures::fig4_pattern();
    dots.push((
        "fig4-pattern.dot",
        pattern.to_dot("Figure 4: pattern", db0.scheme()),
    ));

    let mut db = db0.clone();
    figures::fig6_node_addition().apply(&mut db).expect("fig6");
    dots.push((
        "fig7-result.dot",
        db.to_dot("Figure 7: after node addition"),
    ));

    let mut db = db0.clone();
    figures::fig10_edge_addition()
        .apply(&mut db)
        .expect("fig10");
    dots.push((
        "fig11-result.dot",
        db.to_dot("Figure 11: after edge addition"),
    ));

    let mut db = db0.clone();
    figures::fig14_node_deletion()
        .apply(&mut db)
        .expect("fig14");
    dots.push((
        "fig15-result.dot",
        db.to_dot("Figure 15: after node deletion"),
    ));

    let (mut vdb, _) = build_versions_instance();
    dots.push(("fig17-versions.dot", vdb.to_dot("Figure 17: version chain")));
    for ab in figures::fig18_abstractions() {
        ab.apply(&mut vdb).expect("fig18");
    }
    dots.push((
        "fig19-result.dot",
        vdb.to_dot("Figure 19: after abstraction"),
    ));

    let (pattern26, _, _) = figures::fig26_pattern();
    dots.push((
        "fig26-pattern.dot",
        pattern26.to_dot("Figure 26: crossed pattern", db0.scheme()),
    ));

    dots.push((
        "fig31-rewritten.dot",
        figures::fig31_pattern(db0.scheme()).to_dot("Figure 31: rewritten query", db0.scheme()),
    ));
    dots
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_validate() {
        instance_of(100).validate().unwrap();
        grouped_instance(5, 4).validate().unwrap();
        chain_instance(20).validate().unwrap();
        hub_instance(60, 12).validate().unwrap();
    }

    #[test]
    fn hub_instance_has_triangles_and_all_engines_agree() {
        use good_core::prelude::*;
        let db = hub_instance(60, 12);
        let (pattern, _) = triangle_pattern();
        let planned = find_matchings(&pattern, &db).unwrap();
        let wcoj = find_match_table(&pattern, &db, PlanShape::GenericJoin).unwrap();
        let wcoj = wcoj.into_matchings();
        let binary = find_matchings_binary(&pattern, &db).unwrap();
        assert!(!planned.is_empty(), "hub instance must contain triangles");
        assert_eq!(planned, wcoj);
        assert_eq!(planned, binary);
    }

    #[test]
    fn grouped_instance_shape() {
        let db = grouped_instance(3, 4);
        assert_eq!(db.label_count(&Label::new("Info")), 3 * 4 + 5);
    }

    #[test]
    fn chain_pattern_shape() {
        let (pattern, nodes) = chain_pattern(4);
        assert_eq!(pattern.node_count(), 4);
        assert_eq!(pattern.graph().edge_count(), 3);
        assert_eq!(nodes.len(), 4);
    }
}
