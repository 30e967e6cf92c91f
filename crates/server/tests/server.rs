//! Behavioural tests for the concurrency layer: commit ordering,
//! batching, error paths, and store-failure poisoning.

use good_core::gen::bench_scheme;
use good_core::label::Label;
use good_core::ops::NodeAddition;
use good_core::pattern::Pattern;
use good_core::program::{Operation, Program};
use good_server::{Server, ServerConfig, ServerError};
use good_store::vfs::{FaultPlan, FaultVfs};
use good_store::Store;
use std::sync::Arc;

const JOURNAL: &str = "/server/db.journal";

fn start_server(config: ServerConfig) -> (Server, Arc<FaultVfs>) {
    let vfs = Arc::new(FaultVfs::new(FaultPlan::reliable(11)));
    let store = Store::create_with_vfs(
        Arc::clone(&vfs) as Arc<dyn good_store::vfs::Vfs>,
        JOURNAL,
        bench_scheme(),
    )
    .expect("create store");
    (Server::start(store, config), vfs)
}

/// A program creating one unconditional Info node. GOOD node addition
/// is idempotent, so repeated applications still yield one Info.
fn seed_program() -> Program {
    Program::from_ops([Operation::NodeAdd(NodeAddition::new(
        Pattern::new(),
        "Info",
        [],
    ))])
}

/// A program creating one node under a caller-chosen label — distinct
/// labels accumulate distinct nodes despite node-addition dedup.
fn labeled_program(label: &str) -> Program {
    Program::from_ops([Operation::NodeAdd(NodeAddition::new(
        Pattern::new(),
        label,
        [],
    ))])
}

/// A program tagging every Info node.
fn tag_program(tag: &str) -> Program {
    let mut pattern = Pattern::new();
    let info = pattern.node("Info");
    Program::from_ops([Operation::NodeAdd(NodeAddition::new(
        pattern,
        tag,
        [(Label::new("of"), info)],
    ))])
}

#[test]
fn commits_carry_a_dense_commit_sequence() {
    let (server, _vfs) = start_server(ServerConfig::default());
    let session = server.open_session();
    for expected in 1..=3u64 {
        let ack = server
            .submit_wait(session, labeled_program(&format!("Obj{expected}")))
            .unwrap();
        assert_eq!(ack.commit_seq, Some(expected));
        assert_eq!(ack.session, session);
        assert!(ack.outcome.is_ok());
    }
    let snapshot = server.snapshot();
    assert_eq!(snapshot.instance().node_count(), 3);
    let store = server.shutdown().unwrap();
    assert_eq!(store.instance().node_count(), 3);
}

#[test]
fn paused_writer_forms_one_batch_and_one_epoch() {
    let (server, _vfs) = start_server(ServerConfig {
        queue_capacity: 16,
        max_batch: 16,
        ..ServerConfig::default()
    });
    let session = server.open_session();
    server.pause_writer();
    let tickets: Vec<_> = (0..5)
        .map(|_| server.submit(session, seed_program()).unwrap())
        .collect();
    assert_eq!(server.epoch(), 0, "nothing commits while paused");
    server.resume_writer();
    let acks: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
    // All five were drained as one group: same published epoch,
    // consecutive commit sequence numbers.
    assert!(acks.iter().all(|ack| ack.epoch == acks[0].epoch));
    let seqs: Vec<u64> = acks.iter().map(|ack| ack.commit_seq.unwrap()).collect();
    assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
    assert_eq!(server.epoch(), 1);
    // One batch → one journal group: snapshot + 5 BatchApply + commit.
    let store = server.shutdown().unwrap();
    assert_eq!(store.record_count(), 7);
}

#[test]
fn model_failures_are_acked_without_breaking_the_batch() {
    let (server, _vfs) = start_server(ServerConfig::default());
    let session = server.open_session();
    server.submit_wait(session, seed_program()).unwrap();
    // A pattern over an unknown object label fails validation.
    let bad = {
        let mut pattern = Pattern::new();
        let a = pattern.node("Nope");
        let b = pattern.node("Info");
        Program::from_ops([Operation::EdgeAdd(
            good_core::ops::EdgeAddition::multivalued(pattern, a, "links-to", b),
        )])
    };
    server.pause_writer();
    let t1 = server.submit(session, tag_program("Tag0")).unwrap();
    let t2 = server.submit(session, bad).unwrap();
    let t3 = server.submit(session, tag_program("Tag1")).unwrap();
    server.resume_writer();
    let a1 = t1.wait().unwrap();
    let a2 = t2.wait().unwrap();
    let a3 = t3.wait().unwrap();
    assert!(a1.outcome.is_ok());
    assert!(a2.outcome.is_err());
    assert!(a3.outcome.is_ok());
    // The rejected program takes no commit slot.
    assert_eq!(a1.commit_seq, Some(2));
    assert_eq!(a2.commit_seq, None);
    assert_eq!(a3.commit_seq, Some(3));
    let snapshot = server.snapshot();
    assert_eq!(snapshot.instance().label_count(&"Tag0".into()), 1);
    assert_eq!(snapshot.instance().label_count(&"Tag1".into()), 1);
    server.shutdown().unwrap();
}

#[test]
fn unknown_and_closed_sessions_are_rejected() {
    let (server, _vfs) = start_server(ServerConfig::default());
    assert_eq!(
        server.submit(42, seed_program()),
        Err(ServerError::UnknownSession(42))
    );
    let session = server.open_session();
    server.close_session(session).unwrap();
    assert_eq!(
        server.submit(session, seed_program()),
        Err(ServerError::UnknownSession(session))
    );
    assert_eq!(
        server.close_session(session),
        Err(ServerError::UnknownSession(session))
    );
    server.shutdown().unwrap();
}

#[test]
fn submissions_after_begin_shutdown_are_rejected_but_queued_work_drains() {
    let (server, _vfs) = start_server(ServerConfig::default());
    let session = server.open_session();
    server.pause_writer();
    let ticket = server.submit(session, seed_program()).unwrap();
    server.begin_shutdown();
    assert_eq!(
        server.submit(session, seed_program()),
        Err(ServerError::Shutdown)
    );
    // The queued program still commits: shutdown drains, never drops.
    let ack = ticket.wait().unwrap();
    assert_eq!(ack.commit_seq, Some(1));
    let store = server.shutdown().unwrap();
    assert_eq!(store.instance().node_count(), 1);
}

#[test]
fn queue_full_backpressure_clears_once_the_writer_drains() {
    let (server, _vfs) = start_server(ServerConfig {
        queue_capacity: 2,
        max_batch: 8,
        ..ServerConfig::default()
    });
    let session = server.open_session();
    server.pause_writer();
    let t1 = server.submit(session, seed_program()).unwrap();
    let t2 = server.submit(session, seed_program()).unwrap();
    assert_eq!(
        server.submit(session, seed_program()),
        Err(ServerError::QueueFull { capacity: 2 })
    );
    server.resume_writer();
    t1.wait().unwrap();
    t2.wait().unwrap();
    // Backpressure is transient: the drained queue accepts again.
    let ack = server.submit_wait(session, seed_program()).unwrap();
    assert_eq!(ack.commit_seq, Some(3));
    server.shutdown().unwrap();
}

#[test]
fn journal_failure_fails_the_batch_and_poisons_the_server() {
    let (server, vfs) = start_server(ServerConfig::default());
    let session = server.open_session();
    server.submit_wait(session, seed_program()).unwrap();
    let epoch_before = server.epoch();
    // Crash the VFS at the next I/O operation: the writer's append
    // fails, the store poisons, and the batch must not commit.
    vfs.set_crash_at(Some(vfs.op_count()));
    let err = server.submit_wait(session, seed_program()).unwrap_err();
    assert!(matches!(err, ServerError::Store(_)), "got {err:?}");
    // No snapshot was published for the failed batch, and further
    // submissions fail fast.
    assert_eq!(server.epoch(), epoch_before);
    assert!(matches!(
        server.submit(session, seed_program()),
        Err(ServerError::Store(_))
    ));
    // Committed state stays readable.
    assert_eq!(server.snapshot().instance().node_count(), 1);
    server.shutdown().unwrap();
}

#[test]
fn concurrent_sessions_preserve_per_session_submission_order() {
    let (server, _vfs) = start_server(ServerConfig {
        queue_capacity: 64,
        max_batch: 4,
        ..ServerConfig::default()
    });
    let per_session = 8usize;
    let orders: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|thread| {
                let server = &server;
                scope.spawn(move || {
                    let session = server.open_session();
                    (0..per_session)
                        .map(|step| {
                            server
                                .submit_wait(session, labeled_program(&format!("S{thread}x{step}")))
                                .unwrap()
                                .commit_seq
                                .unwrap()
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for order in &orders {
        assert!(
            order.windows(2).all(|w| w[0] < w[1]),
            "per-session commit order must follow submission order: {order:?}"
        );
    }
    let store = server.shutdown().unwrap();
    assert_eq!(store.instance().node_count(), 3 * per_session);
}
