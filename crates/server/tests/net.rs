//! Loopback integration tests for the TCP front end: handshake,
//! pipelining, typed load shedding, disconnect torture at every
//! protocol state, graceful drain with a journal-recovery oracle, and
//! an in-process vs TCP differential.

use good_core::gen::{bench_scheme, random_workload};
use good_core::instance::Instance;
use good_core::ops::NodeAddition;
use good_core::pattern::Pattern;
use good_core::program::{Env, Operation, Program, DEFAULT_FUEL};
use good_server::client::{Client, ClientError};
use good_server::net::{NetConfig, NetServer};
use good_server::proto::{read_frame, write_frame, ErrCode, Frame, MAGIC, VERSION};
use good_server::{Server, ServerConfig};
use good_store::vfs::{FaultPlan, FaultVfs, Vfs};
use good_store::Store;
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const JOURNAL: &str = "/net/db.journal";

fn start_net(server_config: ServerConfig, net_config: NetConfig) -> (NetServer, Arc<FaultVfs>) {
    let vfs = Arc::new(FaultVfs::new(FaultPlan::reliable(17)));
    let store = Store::create_with_vfs(Arc::clone(&vfs) as Arc<dyn Vfs>, JOURNAL, bench_scheme())
        .expect("create store");
    let server = Server::start(store, server_config);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let net = NetServer::start(server, listener, net_config).expect("start net server");
    (net, vfs)
}

fn labeled_program(label: &str) -> Program {
    Program::from_ops([Operation::NodeAdd(NodeAddition::new(
        Pattern::new(),
        label,
        [],
    ))])
}

/// Poll until `cond` holds; panics after thirty seconds. Teardown is
/// asynchronous (handler threads observe EOF on their own schedule)
/// and the whole suite runs in parallel in one process, so state
/// assertions converge rather than fire instantly.
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A raw protocol speaker for tests that must violate the protocol in
/// ways [`Client`] refuses to.
struct Raw {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Raw {
    fn connect(addr: std::net::SocketAddr) -> Raw {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let writer = stream.try_clone().expect("clone");
        Raw {
            reader: BufReader::new(stream),
            writer,
        }
    }

    fn send(&mut self, frame: &Frame) {
        write_frame(&mut self.writer, frame).expect("write frame");
    }

    fn recv(&mut self) -> Option<Frame> {
        read_frame(&mut self.reader).expect("read frame")
    }

    /// The next frame must be `Err{BadRequest}` mentioning `needle`.
    fn expect_bad_request(&mut self, needle: &str) {
        let Some(Frame::Err { code, detail, .. }) = self.recv() else {
            panic!("expected an Err frame");
        };
        assert_eq!(code, ErrCode::BadRequest, "detail: {detail}");
        assert!(detail.contains(needle), "detail: {detail}");
    }

    fn handshake(&mut self) -> u64 {
        self.send(&Frame::Hello { session: 0 });
        match self.recv() {
            Some(Frame::Hello { session }) => session,
            other => panic!("expected Hello, got {other:?}"),
        }
    }
}

// ------------------------------------------------------------- happy path

#[test]
fn handshake_submit_query_snapshot_goodbye() {
    let (net, _vfs) = start_net(ServerConfig::default(), NetConfig::default());
    let mut client = Client::connect(net.local_addr()).expect("connect");
    assert!(client.session() > 0);

    let ack = client
        .submit_wait(&labeled_program("Obj1"))
        .expect("submit");
    assert_eq!(ack.commit_seq, Some(1));
    let report = ack.outcome.expect("committed");
    assert!(report.contains("+1 nodes"), "report: {report}");

    let (epoch, columns, rows) = client.query("{ o: Obj1; }", None).expect("query");
    assert_eq!(epoch, ack.epoch);
    assert_eq!(columns, vec!["o".to_string()]);
    assert_eq!(rows.len(), 1);
    assert!(rows[0][0].starts_with("Obj1("), "cell: {}", rows[0][0]);

    let info = client.snapshot(None, true).expect("snapshot");
    assert_eq!(info.epoch, ack.epoch);
    assert_eq!(info.nodes, 1);
    let dot = info.dot.expect("asked for dot");
    assert!(dot.starts_with("digraph"), "dot: {dot:.40}");
    // Without want_dot the reply carries no render.
    assert!(client
        .snapshot(None, false)
        .expect("snapshot")
        .dot
        .is_none());

    client.goodbye().expect("goodbye");
    wait_until("connection reclaimed", || {
        net.active_connections() == 0 && net.server().session_count() == 0
    });
    let store = net.shutdown().expect("shutdown");
    assert_eq!(store.instance().node_count(), 1);
}

#[test]
fn goodql_queries_ride_the_query_frame() {
    let (net, _vfs) = start_net(ServerConfig::default(), NetConfig::default());
    let mut client = Client::connect(net.local_addr()).expect("connect");
    // A bare Info (node addition is idempotent, so one is all an empty
    // pattern yields) plus a random workload for edge variety.
    client
        .submit_wait(&labeled_program("Info"))
        .expect("commit");
    for program in random_workload(7, 3) {
        client.submit_wait(&program).expect("commit workload");
    }

    // A Query frame whose text leads with MATCH is compiled as GOODQL
    // instead of pattern syntax; columns come back in RETURN order.
    let (_, columns, rows) = client
        .query("MATCH (a:Info) RETURN a", None)
        .expect("goodql query");
    assert_eq!(columns, vec!["a".to_string()]);
    assert!(!rows.is_empty(), "rows: {rows:?}");
    assert!(
        rows.iter().all(|row| row[0].starts_with("Info#")),
        "rows: {rows:?}"
    );
    // Property paths compile and run server-side; lowercase `match`
    // still routes to GOODQL.
    client
        .query(
            "MATCH (a:Info)-[:links-to*]->(b:Info) RETURN DISTINCT a, b",
            None,
        )
        .expect("path query");
    client
        .query("match (a:Info) RETURN a LIMIT 1", None)
        .expect("lowercase goodql");

    // A GOODQL parse error is a typed BadRequest carrying the caret
    // render, not a disconnect.
    match client.query("MATCH (a:Info RETURN a", None) {
        Err(ClientError::Rejected {
            code: ErrCode::BadRequest,
            detail,
            ..
        }) => {
            assert!(detail.contains("query:"), "detail: {detail}");
            assert!(detail.contains('^'), "detail: {detail}");
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }
    // The connection survives the refusal.
    client.query("{ o: Info; }", None).expect("pattern query");
    client.goodbye().expect("goodbye");
    net.shutdown().expect("shutdown");
}

/// A reply past the frame cap is a typed refusal sized before any row
/// string exists — not a dropped connection — and the session goes on.
#[test]
fn oversized_goodql_reply_is_a_typed_error_and_the_session_survives() {
    let (net, _vfs) = start_net(ServerConfig::default(), NetConfig::default());
    let mut client = Client::connect(net.local_addr()).expect("connect");
    // Ten Infos: each round gives the newest, still childless Info a
    // child.
    client
        .submit_wait(&labeled_program("Info"))
        .expect("commit");
    let mut pattern = Pattern::new();
    let parent = pattern.node("Info");
    let grow = Program::from_ops([Operation::NodeAdd(NodeAddition::new(
        pattern,
        "Info",
        [("parent".into(), parent)],
    ))]);
    for _ in 0..9 {
        client.submit_wait(&grow).expect("commit");
    }
    let (_, _, rows) = client.query("MATCH (a:Info) RETURN a", None).expect("ten");
    assert_eq!(rows.len(), 10);

    // 10^5 rows of five cells: 5.4 MB of payload against a 4 MiB cap.
    let cross = "MATCH (a:Info), (b:Info), (c:Info), (d:Info), (e:Info) RETURN a, b, c, d, e";
    match client.query(cross, None) {
        Err(ClientError::Rejected {
            code: ErrCode::BadRequest,
            detail,
            ..
        }) => {
            assert!(detail.contains("exceeds the 4 MiB frame cap"), "{detail}");
            assert!(detail.contains("add LIMIT"), "{detail}");
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    // Same connection, same query under the cap, then a textual pattern
    // whose reply is refused at the write instead.
    let (_, _, rows) = client
        .query(&format!("{cross} LIMIT 7"), None)
        .expect("limited");
    assert_eq!(rows.len(), 7);
    let textual = "{ a: Info; b: Info; c: Info; d: Info; e: Info; }";
    assert!(matches!(
        client.query(textual, None),
        Err(ClientError::Rejected {
            code: ErrCode::BadRequest,
            ..
        })
    ));
    client.query("{ o: Info; }", None).expect("still served");
    client.goodbye().expect("goodbye");
    net.shutdown().expect("shutdown");
}

#[test]
fn pipelined_submits_ack_in_submission_order() {
    let (net, _vfs) = start_net(
        ServerConfig {
            queue_capacity: 64,
            max_batch: 8,
            ..ServerConfig::default()
        },
        NetConfig::default(),
    );
    let mut client = Client::connect(net.local_addr()).expect("connect");
    net.server().pause_writer();
    let requests: Vec<u64> = (0..10)
        .map(|i| client.submit(&labeled_program(&format!("P{i}"))).unwrap())
        .collect();
    net.server().resume_writer();
    let mut last_seq = 0;
    for request in requests {
        let ack = client.wait_ack(request).expect("ack");
        let seq = ack.commit_seq.expect("committed");
        assert!(seq > last_seq, "acks must arrive in submission order");
        last_seq = seq;
    }
    assert_eq!(last_seq, 10);
    client.goodbye().expect("goodbye");
    let store = net.shutdown().expect("shutdown");
    assert_eq!(store.instance().node_count(), 10);
}

#[test]
fn mvcc_reads_over_the_wire_see_retained_epochs() {
    let (net, _vfs) = start_net(
        ServerConfig {
            max_batch: 1,
            ..ServerConfig::default()
        },
        NetConfig::default(),
    );
    let mut client = Client::connect(net.local_addr()).expect("connect");
    let first = client.submit_wait(&labeled_program("A")).expect("submit");
    let second = client.submit_wait(&labeled_program("B")).expect("submit");
    assert!(second.epoch > first.epoch);
    // Time travel: the old epoch still shows one node.
    let old = client
        .snapshot(Some(first.epoch), false)
        .expect("old epoch");
    assert_eq!((old.epoch, old.nodes), (first.epoch, 1));
    let (epoch, _, rows) = client.query("{ a: A; }", Some(first.epoch)).expect("query");
    assert_eq!(epoch, first.epoch);
    assert_eq!(rows.len(), 1, "A exists at the old epoch");
    // B is not even part of the scheme at the old epoch: typed refusal.
    assert!(matches!(
        client.query("{ b: B; }", Some(first.epoch)),
        Err(ClientError::Rejected {
            code: ErrCode::BadRequest,
            ..
        })
    ));
    let (_, _, rows) = client.query("{ b: B; }", None).expect("current query");
    assert_eq!(rows.len(), 1, "B exists now");
    let now = client.snapshot(None, false).expect("current");
    assert_eq!((now.epoch, now.nodes), (second.epoch, 2));
    client.goodbye().expect("goodbye");
    net.shutdown().expect("shutdown");
}

// ------------------------------------------------- typed refusals and shedding

#[test]
fn session_inflight_quota_bounces_with_typed_retryable_error() {
    let (net, _vfs) = start_net(
        ServerConfig {
            queue_capacity: 64,
            ..ServerConfig::default()
        },
        NetConfig {
            session_inflight: 2,
            retry_after_ms: 7,
            ..NetConfig::default()
        },
    );
    let mut client = Client::connect(net.local_addr()).expect("connect");
    net.server().pause_writer();
    let first = client.submit(&labeled_program("Q1")).unwrap();
    let second = client.submit(&labeled_program("Q2")).unwrap();
    let third = client.submit(&labeled_program("Q3")).unwrap();
    match client.wait_ack(third) {
        Err(ClientError::Rejected {
            code: ErrCode::QuotaExceeded,
            retry_after_ms,
            ..
        }) => assert_eq!(retry_after_ms, 7),
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }
    net.server().resume_writer();
    assert_eq!(client.wait_ack(first).unwrap().commit_seq, Some(1));
    assert_eq!(client.wait_ack(second).unwrap().commit_seq, Some(2));
    // With acks drained the quota frees up and retrying succeeds.
    let retried = client
        .submit_wait_retrying(&labeled_program("Q4"), 10)
        .expect("retry after quota drain");
    assert_eq!(retried.commit_seq, Some(3));
    client.goodbye().expect("goodbye");
    net.shutdown().expect("shutdown");
}

#[test]
fn server_queue_backpressure_surfaces_as_typed_queue_full() {
    let (net, _vfs) = start_net(
        ServerConfig {
            queue_capacity: 1,
            ..ServerConfig::default()
        },
        NetConfig::default(),
    );
    let mut client = Client::connect(net.local_addr()).expect("connect");
    net.server().pause_writer();
    let queued = client.submit(&labeled_program("F1")).unwrap();
    client.flush().expect("flush");
    wait_until("first submit queued", || net.server().queue_depth() == 1);
    let bounced = client.submit(&labeled_program("F2")).unwrap();
    match client.wait_ack(bounced) {
        Err(ClientError::Rejected {
            code: ErrCode::QueueFull,
            retry_after_ms,
            ..
        }) => assert!(retry_after_ms > 0, "QueueFull must carry a backoff hint"),
        other => panic!("expected QueueFull, got {other:?}"),
    }
    // submit_wait_retrying rides the hint out: a second client retries
    // against the full queue until the writer resumes.
    let addr = net.local_addr();
    let retrier = std::thread::spawn(move || {
        let mut second = Client::connect(addr).expect("connect");
        let ack = second.submit_wait_retrying(&labeled_program("F3"), 200);
        second.goodbye().expect("goodbye");
        ack
    });
    std::thread::sleep(Duration::from_millis(60));
    net.server().resume_writer();
    let retried = retrier
        .join()
        .unwrap()
        .expect("retry until the queue drains");
    assert!(retried.commit_seq.is_some());
    assert_eq!(client.wait_ack(queued).unwrap().commit_seq, Some(1));
    client.goodbye().expect("goodbye");
    let store = net.shutdown().expect("shutdown");
    assert_eq!(store.instance().node_count(), 2); // F1 + F3
}

#[test]
fn connection_admission_sheds_past_the_ceiling() {
    let (net, _vfs) = start_net(
        ServerConfig::default(),
        NetConfig {
            max_connections: 2,
            retry_after_ms: 11,
            ..NetConfig::default()
        },
    );
    let held1 = Client::connect(net.local_addr()).expect("first");
    let held2 = Client::connect(net.local_addr()).expect("second");
    match Client::connect(net.local_addr()) {
        Err(ClientError::Rejected {
            code: ErrCode::Overloaded,
            retry_after_ms,
            detail,
        }) => {
            assert_eq!(retry_after_ms, 11);
            assert!(detail.contains("connection limit"), "detail: {detail}");
        }
        other => panic!("expected Overloaded shed, got {other:?}"),
    }
    // Freeing a slot readmits.
    held1.goodbye().expect("goodbye");
    wait_until("slot freed", || net.active_connections() < 2);
    let readmitted = Client::connect(net.local_addr()).expect("readmitted");
    readmitted.goodbye().expect("goodbye");
    held2.goodbye().expect("goodbye");
    net.shutdown().expect("shutdown");
}

#[test]
fn bad_requests_get_typed_errors_not_disconnects() {
    let (net, _vfs) = start_net(ServerConfig::default(), NetConfig::default());
    let mut client = Client::connect(net.local_addr()).expect("connect");
    // Unparseable pattern.
    match client.query("o: Obj1; o -broken", None) {
        Err(ClientError::Rejected {
            code: ErrCode::BadRequest,
            detail,
            ..
        }) => assert!(detail.contains("pattern"), "detail: {detail}"),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    // Unretained epoch.
    match client.snapshot(Some(9_999), false) {
        Err(ClientError::Rejected {
            code: ErrCode::BadRequest,
            detail,
            ..
        }) => assert!(detail.contains("not retained"), "detail: {detail}"),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    // The connection survives both refusals.
    let ack = client
        .submit_wait(&labeled_program("Still"))
        .expect("alive");
    assert_eq!(ack.commit_seq, Some(1));
    client.goodbye().expect("goodbye");
    net.shutdown().expect("shutdown");
}

#[test]
fn depth_bomb_submit_is_refused_and_the_connection_keeps_serving() {
    let (net, _vfs) = start_net(ServerConfig::default(), NetConfig::default());
    let mut raw = Raw::connect(net.local_addr());
    raw.handshake();
    // A Submit whose program text is 100 000 `[` used to overflow the
    // 256 KiB connection thread's stack: the whole process aborted.
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus/");
    let bomb = std::fs::read(format!("{corpus}err-submit-depth-bomb.bin")).expect("corpus");
    raw.writer.write_all(&bomb).expect("write");
    raw.expect_bad_request("program JSON");
    // Same connection, next request; and the server still answers.
    raw.send(&Frame::Snapshot {
        request: 2,
        at: None,
        want_dot: false,
        info: None,
    });
    assert!(matches!(
        raw.recv(),
        Some(Frame::Snapshot { request: 2, .. })
    ));
    assert!(net.stats_json().contains("\"net/bad_frame\""));
    net.shutdown().expect("shutdown");
}

#[test]
fn handshake_violations_are_refused() {
    let (net, _vfs) = start_net(ServerConfig::default(), NetConfig::default());

    // A first frame that is not Hello.
    let mut raw = Raw::connect(net.local_addr());
    raw.send(&Frame::Goodbye {
        reason: "lol".into(),
    });
    raw.expect_bad_request("expected Hello");
    assert!(matches!(raw.recv(), Some(Frame::Goodbye { .. })));

    // Garbage after a valid handshake: typed error, then the server
    // hangs up (framing is unrecoverable).
    let mut raw = Raw::connect(net.local_addr());
    raw.handshake();
    raw.writer.write_all(b"GOODBYE CRUEL WORLD").expect("write");
    raw.expect_bad_request("");
    assert!(matches!(raw.recv(), Some(Frame::Goodbye { .. })));

    // A frame that is valid wire format but senseless from a client
    // (Rows is server-to-client) is refused without disconnecting.
    let mut raw = Raw::connect(net.local_addr());
    raw.handshake();
    raw.send(&Frame::Rows {
        request: 1,
        epoch: 0,
        columns: vec![],
        rows: vec![],
    });
    raw.expect_bad_request("unexpected Rows");
    raw.send(&Frame::Goodbye {
        reason: "done".into(),
    });

    wait_until("all refused connections reclaimed", || {
        net.active_connections() == 0 && net.server().session_count() == 0
    });
    net.shutdown().expect("shutdown");
}

#[test]
fn timeouts_close_silent_connections() {
    let (net, _vfs) = start_net(
        ServerConfig::default(),
        NetConfig {
            hello_timeout: Duration::from_millis(100),
            idle_timeout: Duration::from_millis(150),
            ..NetConfig::default()
        },
    );
    // Never says Hello: refused after hello_timeout.
    let mut silent = Raw::connect(net.local_addr());
    silent.expect_bad_request("");
    assert!(matches!(silent.recv(), Some(Frame::Goodbye { .. })));

    // Handshakes then goes quiet: Goodbye after idle_timeout.
    let mut idle = Raw::connect(net.local_addr());
    idle.handshake();
    match idle.recv() {
        Some(Frame::Goodbye { reason }) => {
            assert!(reason.contains("idle"), "reason: {reason}")
        }
        other => panic!("expected idle Goodbye, got {other:?}"),
    }
    wait_until("timed-out connections reclaimed", || {
        net.active_connections() == 0 && net.server().session_count() == 0
    });
    net.shutdown().expect("shutdown");
}

// --------------------------------------------------------- disconnect torture

/// Abrupt disconnects at every protocol state. After each, the server
/// reclaims the session and thread, and an unrelated long-lived
/// session keeps committing with strictly increasing sequence numbers.
#[test]
fn disconnect_torture_at_every_protocol_state() {
    let (net, _vfs) = start_net(
        ServerConfig {
            queue_capacity: 64,
            ..ServerConfig::default()
        },
        NetConfig::default(),
    );
    let addr = net.local_addr();
    let mut control = Client::connect(addr).expect("control connect");
    let mut control_commits = 0u64;
    let commit = |client: &mut Client, label: &str| {
        let ack = client.submit_wait(&labeled_program(label)).expect("commit");
        ack.commit_seq.expect("committed")
    };
    let mut last = commit(&mut control, "C0");
    control_commits += 1;

    // State 1: connected, dropped before Hello.
    drop(TcpStream::connect(addr).expect("connect"));

    // State 2: dropped mid-frame — half a valid header, then gone.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut partial = Vec::new();
        partial.extend_from_slice(&MAGIC);
        partial.push(VERSION);
        stream.write_all(&partial).expect("write partial header");
        drop(stream);
    }

    // State 3: dropped right after a successful handshake.
    {
        let mut raw = Raw::connect(addr);
        raw.handshake();
        drop(raw);
    }

    // State 4: dropped after a submit is accepted but before its ack
    // exists — the writer is paused so the program is provably queued
    // when the client vanishes. The commit must still happen.
    {
        let mut doomed = Client::connect(addr).expect("connect");
        net.server().pause_writer();
        let baseline = net.server().queue_depth();
        doomed.submit(&labeled_program("Orphan")).expect("submit");
        doomed.flush().expect("flush");
        wait_until("orphan submit queued", || {
            net.server().queue_depth() > baseline
        });
        drop(doomed);
        net.server().resume_writer();
    }

    // State 5: dropped mid-pipeline — four submits provably accepted
    // (queued while the writer is paused), one ack read, then gone
    // with the rest of the acks unread. The abrupt close may RST the
    // socket; all four commits must survive regardless.
    {
        let mut doomed = Client::connect(addr).expect("connect");
        net.server().pause_writer();
        let requests: Vec<u64> = (0..4)
            .map(|i| doomed.submit(&labeled_program(&format!("Mid{i}"))).unwrap())
            .collect();
        doomed.flush().expect("flush");
        wait_until("pipeline queued", || net.server().queue_depth() >= 4);
        net.server().resume_writer();
        doomed.wait_ack(requests[0]).expect("first ack");
        drop(doomed);
    }

    // After every state: connections and sessions reclaimed (only the
    // control connection remains), and the control session still
    // commits in order.
    wait_until("torture connections reclaimed", || {
        net.active_connections() == 1 && net.server().session_count() == 1
    });
    let next = commit(&mut control, "C1");
    control_commits += 1;
    assert!(next > last, "control session's commit order broken");
    last = next;
    let next = commit(&mut control, "C2");
    control_commits += 1;
    assert!(next > last);

    control.goodbye().expect("goodbye");
    let store = net.shutdown().expect("shutdown");
    // Every accepted submit committed exactly once, ack delivered or
    // not: control's 3 + the queued orphan + the 4 mid-pipeline ones.
    assert_eq!(
        store.instance().node_count() as u64,
        control_commits + 1 + 4
    );
}

/// Disconnects while the server is draining must not wedge shutdown.
#[test]
fn disconnect_during_drain_does_not_wedge_shutdown() {
    let (net, _vfs) = start_net(ServerConfig::default(), NetConfig::default());
    let mut client = Client::connect(net.local_addr()).expect("connect");
    client.submit_wait(&labeled_program("D0")).expect("commit");
    let raw_idle = {
        let mut raw = Raw::connect(net.local_addr());
        raw.handshake();
        raw
    };
    net.begin_shutdown();
    // Both peers vanish instead of reading their Goodbye.
    drop(client);
    drop(raw_idle);
    let store = net.shutdown().expect("drain completes despite disconnects");
    assert_eq!(store.instance().node_count(), 1);
}

// ------------------------------------------------------------- graceful drain

#[test]
fn graceful_drain_commits_in_flight_and_recovers_to_acked_prefix() {
    let (net, vfs) = start_net(
        ServerConfig {
            queue_capacity: 64,
            max_batch: 4,
            ..ServerConfig::default()
        },
        NetConfig::default(),
    );
    let addr = net.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    let programs: Vec<Program> = (0..6).map(|i| labeled_program(&format!("G{i}"))).collect();

    // Hold six submits in flight, then start draining.
    net.server().pause_writer();
    let requests: Vec<u64> = programs.iter().map(|p| client.submit(p).unwrap()).collect();
    client.flush().expect("flush");
    wait_until("submits queued", || net.server().queue_depth() == 6);
    net.begin_shutdown();

    // New submits on the existing connection: typed shutdown refusal.
    let late = client
        .submit(&labeled_program("Late"))
        .expect("write side open");
    match client.wait_ack(late) {
        Err(ClientError::Rejected {
            code: ErrCode::Shutdown,
            ..
        }) => {}
        other => panic!("expected Shutdown, got {other:?}"),
    }
    // New connections: refused (typed shed if the accept loop is still
    // parked, connection error once the listener is gone; a plain
    // connect failure means the listener already closed).
    if let Ok(stream) = TcpStream::connect(addr) {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        match Client::from_stream(stream) {
            Err(ClientError::Rejected {
                code: ErrCode::Shutdown,
                ..
            })
            | Err(ClientError::Io(_))
            | Err(ClientError::Disconnected) => {}
            other => panic!("draining server admitted a connection: {other:?}"),
        }
    }

    // Everything in flight still commits and acks.
    net.server().resume_writer();
    let mut acked = Vec::new();
    for (request, program) in requests.iter().zip(&programs) {
        let ack = client.wait_ack(*request).expect("in-flight ack");
        acked.push((ack.commit_seq.expect("committed"), program.clone()));
    }
    let store = net.shutdown().expect("drain");

    // Recovery oracle: reboot the virtual disk and reopen the journal —
    // it must hold exactly the acked prefix.
    let reopened = Store::open_with_vfs(Arc::new(vfs.reboot()) as Arc<dyn Vfs>, JOURNAL)
        .expect("reopen journal");
    let mut serial = Instance::new(bench_scheme());
    let mut env = Env::with_fuel(DEFAULT_FUEL);
    acked.sort_by_key(|(seq, _)| *seq);
    for (_, program) in &acked {
        env.refuel();
        program.apply(&mut serial, &mut env).expect("serial replay");
    }
    assert_eq!(
        reopened.instance().to_dot("drain"),
        serial.to_dot("drain"),
        "journal after drain must recover to exactly the acked prefix"
    );
    assert_eq!(
        store.instance().to_dot("drain"),
        serial.to_dot("drain"),
        "returned store must equal the acked prefix"
    );
}

// -------------------------------------------------------------- differential

/// The wire adds nothing and loses nothing: the same seeded workload
/// submitted in lockstep in-process and over loopback TCP produces the
/// same commit/reject decisions, the same commit sequence, and a
/// byte-identical final DOT render.
#[test]
fn differential_in_process_vs_tcp_is_byte_identical() {
    let seed = 909;
    let programs = random_workload(seed, 40);

    // In-process reference.
    let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::new(FaultPlan::reliable(seed)));
    let store = Store::create_with_vfs(vfs, JOURNAL, bench_scheme()).expect("create");
    let server = Server::start(store, ServerConfig::default());
    let session = server.open_session();
    let reference_seqs: Vec<Option<u64>> = programs
        .iter()
        .map(|p| server.submit_wait(session, p.clone()).unwrap().commit_seq)
        .collect();
    let reference_store = server.shutdown().expect("shutdown");
    let reference_dot = reference_store.instance().to_dot("snapshot");

    // Loopback TCP, four clients round-robin, lockstep (one program in
    // flight globally) so the commit order is forced.
    let (net, _vfs) = start_net(ServerConfig::default(), NetConfig::default());
    let mut clients: Vec<Client> = (0..4)
        .map(|_| Client::connect(net.local_addr()).expect("connect"))
        .collect();
    let wire_seqs: Vec<Option<u64>> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            clients[i % 4]
                .submit_wait(p)
                .expect("lockstep submit")
                .commit_seq
        })
        .collect();
    let wire_dot = clients[0]
        .snapshot(None, true)
        .expect("final snapshot")
        .dot
        .expect("asked for dot");
    for client in clients {
        client.goodbye().expect("goodbye");
    }
    let wire_store = net.shutdown().expect("shutdown");

    assert_eq!(
        reference_seqs, wire_seqs,
        "transport changed commit/reject decisions (seed {seed})"
    );
    assert_eq!(
        reference_dot, wire_dot,
        "final DOT over the wire differs from in-process (seed {seed})"
    );
    assert_eq!(reference_dot, wire_store.instance().to_dot("snapshot"));
}

// ------------------------------------------------------------------ churn

/// Sequential connect/work/disconnect churn: sessions, connections,
/// and the registry all return to baseline, and the store ends exactly
/// as the commit count demands.
#[test]
fn connection_churn_leaks_nothing() {
    let (net, _vfs) = start_net(ServerConfig::default(), NetConfig::default());
    let cycles = 30;
    for i in 0..cycles {
        let mut client = Client::connect(net.local_addr()).expect("connect");
        let ack = client
            .submit_wait(&labeled_program(&format!("Churn{i}")))
            .expect("commit");
        assert_eq!(ack.commit_seq, Some(i as u64 + 1));
        if i % 3 == 0 {
            client.goodbye().expect("goodbye"); // polite close
        } else {
            drop(client); // abrupt close
        }
    }
    wait_until("churn reclaimed", || {
        net.active_connections() == 0 && net.server().session_count() == 0
    });
    assert_eq!(net.total_accepted(), cycles as u64);
    let store = net.shutdown().expect("shutdown");
    assert_eq!(store.instance().node_count(), cycles);
}
