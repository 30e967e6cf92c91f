//! Named recovery edge-case tests, driven through the fault-injecting
//! VFS so every scenario is deterministic and filesystem-independent.
//!
//! These pin the recovery contract case by case (DESIGN.md,
//! "Durability and crash consistency"); the torture harness then
//! checks the same contract under exhaustive crash schedules.

use good_core::gen::bench_scheme;
use good_core::instance::Instance;
use good_core::ops::NodeAddition;
use good_core::pattern::Pattern;
use good_core::program::{Operation, Program};
use good_store::vfs::{FaultPlan, FaultVfs, Vfs};
use good_store::{LogRecord, Store, StoreError};
use std::path::Path;
use std::sync::Arc;

const JOURNAL: &str = "/db/test.journal";

fn fault_vfs(seed: u64) -> (FaultVfs, Arc<dyn Vfs>) {
    let vfs = FaultVfs::new(FaultPlan::reliable(seed));
    let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
    (vfs, arc)
}

fn probe_program(label: &str) -> Program {
    Program::from_ops([Operation::NodeAdd(NodeAddition::new(
        Pattern::new(),
        label,
        [],
    ))])
}

fn record_line(record: &LogRecord) -> String {
    let mut line = serde_json::to_string(record).expect("serialize record");
    line.push('\n');
    line
}

fn snapshot_line() -> String {
    record_line(&LogRecord::Snapshot(Box::new(
        Instance::new(bench_scheme()),
    )))
}

fn apply_line() -> String {
    record_line(&LogRecord::Apply(probe_program("Info")))
}

/// Write raw journal bytes durably (content + name).
fn write_raw(vfs: &Arc<dyn Vfs>, bytes: &[u8]) {
    let mut file = vfs.create_truncate(Path::new(JOURNAL)).expect("create");
    file.append(bytes).expect("append");
    file.sync_data().expect("sync");
    vfs.sync_parent_dir(Path::new(JOURNAL)).expect("dir sync");
}

#[test]
fn empty_journal_reports_missing_snapshot() {
    let (_vfs, arc) = fault_vfs(1);
    write_raw(&arc, b"");
    match Store::open_with_vfs(arc, JOURNAL) {
        Err(StoreError::MissingSnapshot) => {}
        other => panic!("expected MissingSnapshot, got {other:?}"),
    }
    assert_eq!(
        StoreError::MissingSnapshot.to_string(),
        "journal does not begin with a snapshot record"
    );
}

#[test]
fn journal_without_leading_snapshot_reports_missing_snapshot() {
    let (_vfs, arc) = fault_vfs(2);
    // Two records so the Apply is not a (tolerated) torn tail.
    write_raw(&arc, format!("{}{}", apply_line(), apply_line()).as_bytes());
    match Store::open_with_vfs(arc, JOURNAL) {
        Err(StoreError::MissingSnapshot) => {}
        other => panic!("expected MissingSnapshot, got {other:?}"),
    }
}

#[test]
fn unexpected_second_snapshot_is_corruption() {
    let (_vfs, arc) = fault_vfs(3);
    let text = format!("{}{}{}", snapshot_line(), snapshot_line(), apply_line());
    write_raw(&arc, text.as_bytes());
    match Store::open_with_vfs(arc, JOURNAL) {
        Err(StoreError::Corrupt { line, message }) => {
            assert_eq!(line, 2);
            assert!(message.contains("unexpected second snapshot"), "{message}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn corrupt_non_final_record_is_an_error_not_a_truncation() {
    let (_vfs, arc) = fault_vfs(4);
    let text = format!("{}not json\n{}", snapshot_line(), apply_line());
    write_raw(&arc, text.as_bytes());
    match Store::open_with_vfs(arc, JOURNAL) {
        Err(StoreError::Corrupt { line, .. }) => assert_eq!(line, 2),
        other => panic!("expected Corrupt at line 2, got {other:?}"),
    }
}

#[test]
fn depth_bomb_lines_are_torn_or_corrupt_never_an_abort() {
    // 100 000 `[`, bare and under an unknown key, where the JSON reader
    // has to walk them. Last line: a torn tail. Earlier: corruption.
    let deep = "[".repeat(100_000);
    for bomb in [format!("{{\"Apply\":{{\"x\":{deep}"), deep.clone()] {
        let (_vfs, arc) = fault_vfs(14);
        write_raw(&arc, format!("{}{bomb}\n", snapshot_line()).as_bytes());
        let store = Store::open_with_vfs(Arc::clone(&arc), JOURNAL).expect("reopen");
        assert!(store.recovered_torn_tail() && store.record_count() == 1);
        let text = format!("{}{bomb}\n{}", snapshot_line(), apply_line());
        write_raw(&arc, text.as_bytes());
        let reopened = Store::open_with_vfs(arc, JOURNAL);
        assert!(matches!(reopened, Err(StoreError::Corrupt { line: 2, .. })));
    }
}

#[test]
fn torn_final_record_is_ignored_and_next_append_overwrites_cleanly() {
    let (vfs, arc) = fault_vfs(5);
    let committed = {
        let mut store =
            Store::create_with_vfs(Arc::clone(&arc), JOURNAL, bench_scheme()).expect("create");
        store.execute(&probe_program("Info")).expect("execute");
        store.instance().clone()
    };
    // Simulate a crash mid-append: a torn, unterminated record —
    // including the nasty case where the tear stops at a parseable
    // prefix (no trailing newline).
    let torn = apply_line();
    let mut file = arc.open_append(Path::new(JOURNAL)).expect("open");
    file.append(torn.trim_end().as_bytes()).expect("append");
    drop(file);
    let intact_len =
        vfs.live_contents(Path::new(JOURNAL)).unwrap().len() as u64 - torn.trim_end().len() as u64;

    let mut store = Store::open_with_vfs(Arc::clone(&arc), JOURNAL).expect("reopen");
    assert!(store.recovered_torn_tail());
    assert!(store.instance().isomorphic_to(&committed));
    // The torn bytes were truncated, so the next append starts on a
    // fresh line instead of concatenating onto the debris.
    assert_eq!(
        vfs.live_contents(Path::new(JOURNAL)).unwrap().len() as u64,
        intact_len
    );
    store
        .execute(&probe_program("Probe"))
        .expect("append after recovery");

    let reopened = Store::open_with_vfs(arc, JOURNAL).expect("reopen again");
    assert!(!reopened.recovered_torn_tail());
    assert_eq!(reopened.instance().label_count(&"Probe".into()), 1);
}

#[test]
fn fsync_failure_poisons_the_store_until_reopen() {
    let (vfs, arc) = fault_vfs(6);
    let mut store =
        Store::create_with_vfs(Arc::clone(&arc), JOURNAL, bench_scheme()).expect("create");
    store.execute(&probe_program("Info")).expect("execute");
    let committed = store.instance().clone();

    // Every subsequent fsync fails: the next append's durability is
    // unknowable.
    vfs.set_probabilities(0.0, 1.0, 0.0);
    match store.execute(&probe_program("Probe")) {
        Err(StoreError::Io(_)) => {}
        other => panic!("expected the append to fail, got {other:?}"),
    }
    // The in-memory state rolled back to the committed prefix…
    assert!(store.instance().isomorphic_to(&committed));
    // …and the store is poisoned: every further mutation is refused
    // with the documented error.
    assert!(store.poisoned().is_some());
    match store.execute(&probe_program("Probe")) {
        Err(err @ StoreError::Poisoned(_)) => {
            let message = err.to_string();
            assert!(message.contains("store is poisoned"), "{message}");
            assert!(
                message.contains("reopen the journal"),
                "the error must tell the user how to recover: {message}"
            );
        }
        other => panic!("expected Poisoned, got {other:?}"),
    }
    match store.checkpoint() {
        Err(StoreError::Poisoned(_)) => {}
        other => panic!("expected Poisoned checkpoint, got {other:?}"),
    }
    // Committed state stays readable while poisoned.
    assert_eq!(store.instance().label_count(&"Info".into()), 1);

    // Reopening resolves the ambiguity: the torn/unsynced record either
    // survived fully or is discarded — here it was written but never
    // synced, and the live file still holds it, so replay sees it.
    vfs.set_probabilities(0.0, 0.0, 0.0);
    drop(store);
    let recovered = Store::open_with_vfs(arc, JOURNAL).expect("reopen");
    assert!(recovered.poisoned().is_none());
    let plus_probe = {
        let mut db = committed.clone();
        let mut env = good_core::program::Env::with_fuel(good_core::program::DEFAULT_FUEL);
        probe_program("Probe").apply(&mut db, &mut env).unwrap();
        db
    };
    assert!(
        recovered.instance().isomorphic_to(&committed)
            || recovered.instance().isomorphic_to(&plus_probe),
        "recovery must land on the committed state or committed+ambiguous"
    );
}

#[test]
fn create_makes_the_journal_name_durable() {
    // Regression: without the parent-directory fsync in `create`, the
    // whole store vanishes on a crash right after creation.
    let (vfs, arc) = fault_vfs(7);
    Store::create_with_vfs(arc, JOURNAL, bench_scheme()).expect("create");
    let disk = vfs.reboot();
    let arc: Arc<dyn Vfs> = Arc::new(disk);
    let store = Store::open_with_vfs(arc, JOURNAL).expect("the journal must survive a reboot");
    assert_eq!(store.record_count(), 1);
}

#[test]
fn checkpoint_survives_a_reboot() {
    // Regression: without the parent-directory fsync after the rename,
    // a reboot resurrects the old journal and silently discards every
    // record appended after the checkpoint.
    let (vfs, arc) = fault_vfs(8);
    let mut store =
        Store::create_with_vfs(Arc::clone(&arc), JOURNAL, bench_scheme()).expect("create");
    for label in ["Info", "Probe", "Extra"] {
        store.execute(&probe_program(label)).expect("execute");
    }
    store.checkpoint().expect("checkpoint");
    store
        .execute(&probe_program("Late"))
        .expect("post-checkpoint append");
    let committed = store.instance().clone();
    drop(store);

    let disk = vfs.reboot();
    let arc: Arc<dyn Vfs> = Arc::new(disk);
    let recovered = Store::open_with_vfs(arc, JOURNAL).expect("reopen after reboot");
    assert!(recovered.instance().isomorphic_to(&committed));
    // Snapshot + the one post-checkpoint record.
    assert_eq!(recovered.record_count(), 2);
}

#[test]
fn checkpoint_rename_failure_leaves_the_store_usable() {
    let (vfs, arc) = fault_vfs(9);
    let mut store =
        Store::create_with_vfs(Arc::clone(&arc), JOURNAL, bench_scheme()).expect("create");
    store.execute(&probe_program("Info")).expect("execute");

    vfs.set_probabilities(0.0, 0.0, 1.0);
    match store.checkpoint() {
        Err(StoreError::Io(err)) => {
            assert!(err.to_string().contains("rename failure"), "{err}")
        }
        other => panic!("expected the rename to fail, got {other:?}"),
    }
    // Failure before the rename landed: the old journal is intact and
    // the store keeps working without a reopen.
    assert!(store.poisoned().is_none());
    vfs.set_probabilities(0.0, 0.0, 0.0);
    store
        .execute(&probe_program("Probe"))
        .expect("execute after failed checkpoint");

    drop(store);
    let reopened = Store::open_with_vfs(arc, JOURNAL).expect("reopen");
    assert_eq!(reopened.instance().label_count(&"Probe".into()), 1);
}

#[test]
fn dir_fsync_failure_after_checkpoint_rename_poisons() {
    // Find which operation index the checkpoint's dir-fsync lands on by
    // running the same deterministic sequence fault-free first.
    let run = |crash_at: Option<u64>| {
        let plan = match crash_at {
            Some(op) => FaultPlan::crash_at(10, op),
            None => FaultPlan::reliable(10),
        };
        let vfs = FaultVfs::new(plan);
        let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
        let mut store =
            Store::create_with_vfs(Arc::clone(&arc), JOURNAL, bench_scheme()).expect("create");
        store.execute(&probe_program("Info")).expect("execute");
        let result = store.checkpoint();
        (vfs, store, result)
    };
    let (vfs, _store, result) = run(None);
    result.expect("fault-free checkpoint");
    let rename_op: u64 = vfs
        .fault_log()
        .iter()
        .find_map(|line| {
            let (op, rest) = line.strip_prefix("op ")?.split_once(':')?;
            rest.contains(" rename ").then(|| op.parse().unwrap())
        })
        .expect("checkpoint renames");

    // Crash exactly on the directory fsync that follows the rename: the
    // new journal is in place but its name is not durable, so the store
    // must refuse to keep appending.
    let (_vfs, store, result) = run(Some(rename_op + 1));
    match result {
        Err(StoreError::Io(_)) => {}
        other => panic!("expected the dir fsync to fail, got {other:?}"),
    }
    let reason = store.poisoned().expect("store must be poisoned");
    assert!(reason.contains("checkpoint rename not durable"), "{reason}");
}
