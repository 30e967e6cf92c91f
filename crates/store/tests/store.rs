//! Durability tests: create/execute/reopen, crash recovery, atomicity,
//! checkpointing, and corruption detection.

use good_core::error::GoodError;
use good_core::gen::bench_scheme as scheme;
use good_core::label::Label;
use good_core::method::Method;
use good_core::ops::{EdgeAddition, EdgeDeletion, NodeAddition};
use good_core::pattern::Pattern;
use good_core::program::{Env, Operation, Program, DEFAULT_FUEL};
use good_store::torture::{mark_call_program, mark_method};
use good_store::{LogRecord, Store, StoreError};
use std::io::Write;
use std::path::PathBuf;

/// A unique journal path per test.
fn journal_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "good-store-test-{name}-{}.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// A program adding one Tag per Info.
fn tag_program(tag: &str) -> Program {
    let mut pattern = Pattern::new();
    let info = pattern.node("Info");
    Program::from_ops([Operation::NodeAdd(NodeAddition::new(
        pattern,
        tag,
        [(Label::new(format!("{tag}-of")), info)],
    ))])
}

/// A program creating one unconditional Info seed.
fn seed_program(class: &str) -> Program {
    Program::from_ops([Operation::NodeAdd(NodeAddition::new(
        Pattern::new(),
        class,
        [],
    ))])
}

#[test]
fn create_execute_reopen() {
    let path = journal_path("basic");
    {
        let mut store = Store::create(&path, scheme()).unwrap();
        store.execute(&seed_program("Info")).unwrap();
        store.execute(&tag_program("Tag")).unwrap();
        assert_eq!(store.instance().label_count(&"Tag".into()), 1);
    }
    let store = Store::open(&path).unwrap();
    assert!(!store.recovered_torn_tail());
    assert_eq!(store.instance().label_count(&"Info".into()), 1);
    assert_eq!(store.instance().label_count(&"Tag".into()), 1);
    store.instance().validate().unwrap();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn replay_is_bit_identical() {
    let path = journal_path("replay");
    let before = {
        let mut store = Store::create(&path, scheme()).unwrap();
        store.execute(&seed_program("Info")).unwrap();
        store.execute(&seed_program("Info2")).unwrap();
        store.execute(&tag_program("Tag")).unwrap();
        store.instance().clone()
    };
    let store = Store::open(&path).unwrap();
    // Replay reproduces exact node ids, not just isomorphism.
    for (node, _) in before.nodes() {
        assert_eq!(store.instance().node_label(node), before.node_label(node));
    }
    assert!(store.instance().isomorphic_to(&before));
    std::fs::remove_file(&path).unwrap();

    // A journal of serde goldens (Figures 2-3, 20, 6, 10, 14, 18, 21), its
    // patterns first as graph arenas, then as triples, recovers to what its
    // programs build in memory when every record is read as triples.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/serde");
    let golden = |name: &str| std::fs::read_to_string(format!("{dir}/{name}.json")).unwrap();
    let (mut journal, mut db, mut env) = (String::new(), None, Env::with_fuel(DEFAULT_FUEL));
    let records =
        "snapshot register-method apply-na apply-ea apply-nd apply-ed apply-ab apply-call";
    for (at, name) in records.split(' ').enumerate() {
        let triples = golden(&format!("{name}-triples"));
        match serde_json::from_str(&triples).unwrap() {
            LogRecord::Snapshot(instance) => db = Some(*instance),
            LogRecord::RegisterMethod(method) => env.register(*method),
            LogRecord::Apply(p) => drop(p.apply(db.as_mut().unwrap(), &mut env).unwrap()),
            other => panic!("{other:?}"),
        }
        journal += &(if at < 4 { golden(name) } else { triples } + "\n");
    }
    std::fs::write(&path, journal).unwrap();
    let (store, db) = (Store::open(&path).unwrap(), db.unwrap());
    let tags = db.label_count(&"Rock-Tag".into());
    assert_eq!((store.record_count(), tags), (8, 2));
    for (node, _) in db.nodes() {
        assert_eq!(store.instance().node_label(node), db.node_label(node));
    }
    assert!(store.instance().isomorphic_to(&db));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn failed_programs_change_nothing() {
    let path = journal_path("atomic");
    let mut store = Store::create(&path, scheme()).unwrap();
    store.execute(&seed_program("Info")).unwrap();
    store.execute(&seed_program("Partner")).unwrap();
    let records = store.record_count();
    let nodes = store.instance().node_count();

    // A program whose second op fails: EA with an unknown-node pattern
    // label (validation failure).
    let bad = {
        let mut pattern = Pattern::new();
        let a = pattern.node("Nope");
        let b = pattern.node("Info");
        Program::from_ops([
            Operation::NodeAdd(NodeAddition::new(Pattern::new(), "Junk", [])),
            Operation::EdgeAdd(EdgeAddition::multivalued(pattern, a, "links-to", b)),
        ])
    };
    assert!(store.execute(&bad).is_err());
    // Neither the instance nor the journal advanced — even though the
    // program's FIRST op had succeeded on the scratch copy.
    assert_eq!(store.record_count(), records);
    assert_eq!(store.instance().node_count(), nodes);
    assert_eq!(store.instance().label_count(&"Junk".into()), 0);

    // The journal on disk agrees.
    drop(store);
    let store = Store::open(&path).unwrap();
    assert_eq!(store.instance().label_count(&"Junk".into()), 0);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn torn_tail_is_recovered_and_truncated() {
    let path = journal_path("torn");
    {
        let mut store = Store::create(&path, scheme()).unwrap();
        store.execute(&seed_program("Info")).unwrap();
    }
    // Simulate a crash mid-append: half a JSON record, no newline.
    {
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        file.write_all(b"{\"Apply\":{\"ops\":[{\"NodeAdd\":{\"pat")
            .unwrap();
    }
    let mut store = Store::open(&path).unwrap();
    assert!(store.recovered_torn_tail());
    assert_eq!(store.instance().label_count(&"Info".into()), 1);
    // The tail was truncated: new appends produce a clean journal.
    store.execute(&seed_program("After")).unwrap();
    drop(store);
    let store = Store::open(&path).unwrap();
    assert!(!store.recovered_torn_tail());
    assert_eq!(store.instance().label_count(&"After".into()), 1);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn corruption_in_the_middle_is_an_error() {
    let path = journal_path("corrupt");
    {
        let mut store = Store::create(&path, scheme()).unwrap();
        store.execute(&seed_program("Info")).unwrap();
        store.execute(&seed_program("Info2")).unwrap();
    }
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    lines[1] = "{\"Apply\": GARBAGE}";
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();
    match Store::open(&path) {
        Err(StoreError::Corrupt { line, .. }) => assert_eq!(line, 2),
        other => panic!("expected corruption error, got {other:?}"),
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn checkpoint_compacts_and_preserves_state_and_methods() {
    let path = journal_path("checkpoint");
    let mut store = Store::create(&path, scheme()).unwrap();
    store.execute(&seed_program("Info")).unwrap();
    for index in 0..10 {
        store.execute(&tag_program(&format!("Tag{index}"))).unwrap();
    }
    // Register a method so we can check it survives.
    store.register_method(mark_method()).unwrap();

    let size_before = std::fs::metadata(&path).unwrap().len();
    let snapshot = store.instance().clone();
    store.checkpoint().unwrap();
    let size_after = std::fs::metadata(&path).unwrap().len();
    assert!(size_after < size_before, "{size_after} !< {size_before}");
    assert!(store.instance().isomorphic_to(&snapshot));

    // Reopen: state and the method both survive; calling it works.
    let mut store = Store::open(&path).unwrap();
    assert!(store.instance().isomorphic_to(&snapshot));
    store.execute(&mark_call_program()).unwrap();
    assert_eq!(store.instance().label_count(&"Mark".into()), 1);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn create_refuses_to_clobber() {
    let path = journal_path("clobber");
    let _store = Store::create(&path, scheme()).unwrap();
    assert!(matches!(
        Store::create(&path, scheme()),
        Err(StoreError::Io(_))
    ));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn query_through_the_store() {
    let path = journal_path("query");
    let mut store = Store::create(&path, scheme()).unwrap();
    store.execute(&seed_program("Info")).unwrap();
    let mut pattern = Pattern::new();
    pattern.node("Info");
    assert_eq!(store.query(&pattern).unwrap().len(), 1);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn opening_a_missing_file_is_an_io_error() {
    let path = journal_path("missing");
    assert!(matches!(Store::open(&path), Err(StoreError::Io(_))));
}

#[test]
fn second_snapshot_mid_journal_is_corruption() {
    let path = journal_path("double-snapshot");
    {
        let mut store = Store::create(&path, scheme()).unwrap();
        store.execute(&seed_program("Info")).unwrap();
    }
    // Append another full snapshot record by duplicating line 1.
    let text = std::fs::read_to_string(&path).unwrap();
    let first = text.lines().next().unwrap().to_string();
    let forged = format!("{text}{first}\n{first}\n");
    std::fs::write(&path, forged).unwrap();
    assert!(matches!(
        Store::open(&path),
        Err(StoreError::Corrupt { .. })
    ));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn execute_group_commits_all_and_survives_reopen() {
    let path = journal_path("group");
    {
        let mut store = Store::create(&path, scheme()).unwrap();
        store.execute(&seed_program("Info")).unwrap();
        let programs = vec![tag_program("A"), tag_program("B"), tag_program("C")];
        let outcomes = store.execute_group(&programs).unwrap();
        assert!(outcomes.iter().all(|outcome| outcome.is_ok()));
        // snapshot + apply + 3 batch records + 1 commit marker.
        assert_eq!(store.record_count(), 6);
    }
    let store = Store::open(&path).unwrap();
    assert!(!store.recovered_torn_tail());
    assert_eq!(store.record_count(), 6);
    for tag in ["A", "B", "C"] {
        assert_eq!(store.instance().label_count(&tag.into()), 1);
    }
    std::fs::remove_file(&path).unwrap();
}

/// `expand_negation` puts a pattern's positive part, which keeps the ids
/// of the crossed nodes it drops, into its NA: a pattern that starts with
/// crossed nodes journals with holes, in a group and alone, and reopens.
#[test]
fn a_negation_program_with_leading_holes_commits_and_reopens() {
    let path = journal_path("negation-holes");
    let mut pattern = Pattern::new();
    let crossed = [pattern.negated_node("Info"), pattern.negated_node("Info")];
    let info = pattern.node("Info");
    pattern.negated_edge(info, "links-to", crossed[0]);
    pattern.negated_edge(crossed[1], "links-to", info);
    let negation = good_core::macros::expand_negation(&pattern, "Lonely").unwrap();
    let before = {
        let mut store = Store::create(&path, scheme()).unwrap();
        store.execute(&seed_program("Info")).unwrap();
        let programs = [tag_program("A"), negation.program.clone()];
        let outcomes = store.execute_group(&programs).unwrap();
        assert!(
            outcomes.iter().all(|outcome| outcome.is_ok()),
            "{outcomes:?}"
        );
        store.execute(&negation.program).unwrap();
        store.instance().clone()
    };
    assert_eq!(before.label_count(&"Lonely".into()), 1);
    let store = Store::open(&path).unwrap();
    // snapshot + apply + 2 batch records + 1 commit marker + apply.
    assert_eq!(store.record_count(), 6);
    for (node, _) in before.nodes() {
        assert_eq!(store.instance().node_label(node), before.node_label(node));
    }
    assert!(store.instance().isomorphic_to(&before));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn execute_group_isolates_per_program_failures() {
    let path = journal_path("group-mixed");
    let mut store = Store::create(&path, scheme()).unwrap();
    store.execute(&seed_program("Info")).unwrap();
    let bad = {
        let mut pattern = Pattern::new();
        let a = pattern.node("Nope");
        let b = pattern.node("Info");
        Program::from_ops([Operation::EdgeAdd(EdgeAddition::multivalued(
            pattern, a, "links-to", b,
        ))])
    };
    let programs = vec![tag_program("Good1"), bad, tag_program("Good2")];
    let outcomes = store.execute_group(&programs).unwrap();
    assert!(outcomes[0].is_ok());
    assert!(outcomes[1].is_err());
    assert!(outcomes[2].is_ok());
    // The two survivors form the group: 2 batch records + commit.
    assert_eq!(store.record_count(), 5);
    drop(store);
    let store = Store::open(&path).unwrap();
    assert_eq!(store.instance().label_count(&"Good1".into()), 1);
    assert_eq!(store.instance().label_count(&"Good2".into()), 1);
    std::fs::remove_file(&path).unwrap();
}

/// Two `Info`s (the second `twin`-linked to the first), and `methods`.
fn two_infos(store: &mut Store, methods: &[Method]) {
    store.execute(&seed_program("Info")).unwrap();
    let mut pattern = Pattern::new();
    let first = pattern.node("Info");
    store
        .execute(&Program::from_ops([Operation::NodeAdd(NodeAddition::new(
            pattern,
            "Info",
            [(Label::new("twin"), first)],
        ))]))
        .unwrap();
    for method in methods {
        store.register_method(method.clone()).unwrap();
    }
}

/// Run the group `[Good1, bad, Good2]` — all three touching both
/// `Info`s — and check that `bad`, which fails with `failure` after
/// mutating, left no trace: live and reopened, the instance serialises
/// exactly as a twin's that `execute`d only the two successes, and the
/// journal holds the group as 2 `BatchApply` + 1 `BatchCommit`.
fn assert_failed_program_rolls_back(
    name: &str,
    methods: &[Method],
    bad: Program,
    failure: fn(&GoodError) -> bool,
) {
    let (path, twin_path) = (journal_path(name), journal_path(&format!("{name}-twin")));
    let mut store = Store::create(&path, scheme()).unwrap();
    let mut twin = Store::create(&twin_path, scheme()).unwrap();
    two_infos(&mut store, methods);
    two_infos(&mut twin, &[]);
    let (good1, good2) = (tag_program("Good1"), tag_program("Good2"));
    let outcomes = store
        .execute_group(&[good1.clone(), bad, good2.clone()])
        .unwrap();
    assert!(outcomes[0].is_ok() && outcomes[2].is_ok());
    let err = outcomes[1].as_ref().unwrap_err();
    assert!(failure(err), "unexpected failure {err}");
    twin.execute(&good1).unwrap();
    twin.execute(&good2).unwrap();
    let expected = serde_json::to_string(twin.instance()).unwrap();
    assert_eq!(serde_json::to_string(store.instance()).unwrap(), expected);

    drop(store);
    let store = Store::open(&path).unwrap();
    assert_eq!(serde_json::to_string(store.instance()).unwrap(), expected);
    let text = std::fs::read_to_string(&path).unwrap();
    let records: Vec<LogRecord> = text
        .lines()
        .map(|line| serde_json::from_str(line).unwrap())
        .collect();
    let batched = |record: &&LogRecord| matches!(record, LogRecord::BatchApply(_));
    assert_eq!(records.iter().filter(batched).count(), 2);
    assert!(matches!(
        records.last(),
        Some(LogRecord::BatchCommit { count: 2 })
    ));
    std::fs::remove_file(&path).unwrap();
    std::fs::remove_file(&twin_path).unwrap();
}

#[test]
fn execute_group_rolls_back_a_program_that_mutated_before_failing() {
    // Adds a `Mid` node per `Info`, then a functional `pick` from each
    // `Info` to *both* `Good1` nodes: a functional conflict, raised after
    // the first op changed the graph and the second the scheme.
    let mut mid = Pattern::new();
    let info = mid.node("Info");
    let mut pick = Pattern::new();
    let (src, dst) = (pick.node("Info"), pick.node("Good1"));
    let bad = Program::from_ops([
        Operation::NodeAdd(NodeAddition::new(
            mid,
            "Mid",
            [(Label::new("mid-of"), info)],
        )),
        Operation::EdgeAdd(EdgeAddition::functional(pick, src, "pick", dst)),
    ]);
    assert_failed_program_rolls_back("group-rollback", &[], bad, |err| {
        matches!(err, GoodError::FunctionalConflict { .. })
    });
}

#[test]
fn execute_group_rolls_back_a_method_call_that_ran_out_of_fuel() {
    // `Mark` puts a `Mark` node on its receiver, then idles. The program
    // spends all but 10 units of the store's fuel on empty edge
    // deletions before calling it, so the call runs dry in the body,
    // with its frames and `Mark` nodes in the working instance.
    let idle = || Operation::EdgeDel(EdgeDeletion::new(Pattern::new(), []));
    let mut method = mark_method();
    method.body.extend(std::iter::repeat_with(idle).take(16));
    let ops = std::iter::repeat_with(idle).take(DEFAULT_FUEL as usize - 10);
    let bad = Program::from_ops(ops.chain(mark_call_program().ops().iter().cloned()));
    assert_failed_program_rolls_back(
        "group-fuel",
        &[method],
        bad,
        |err| matches!(err, GoodError::OutOfFuel { context, .. } if context.contains("method Mark")),
    );
}

/// `execute` is `execute_group` on a group of one: over a seeded
/// workload with a refused program in it, twin stores driven one way
/// and the other report the same outcomes and write the same journal
/// bytes.
#[test]
fn execute_is_a_group_of_one() {
    use good_store::vfs::{FaultPlan, FaultVfs, Vfs};
    use std::sync::Arc;
    let mut workload = good_core::gen::random_workload(11, 12);
    let mut refused = Pattern::new();
    let (a, b) = (refused.node("Nope"), refused.node("Info"));
    let refused = EdgeAddition::multivalued(refused, a, "links-to", b);
    workload.insert(5, Program::from_ops([Operation::EdgeAdd(refused)]));
    let twin = || {
        let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::new(FaultPlan::reliable(11)));
        let store = Store::create_with_vfs(Arc::clone(&vfs), "/twin.journal", scheme()).unwrap();
        (vfs, store)
    };
    let ((single_vfs, mut single), (group_vfs, mut group)) = (twin(), twin());
    let mut refusals = 0;
    for program in &workload {
        let outcomes = group.execute_group(std::slice::from_ref(program)).unwrap();
        match (single.execute(program), &outcomes[..]) {
            (Ok(report), [Ok(grouped)]) => assert_eq!(&report, grouped),
            (Err(StoreError::Model(err)), [Err(grouped)]) => {
                assert_eq!(&err, grouped);
                refusals += 1;
            }
            (single, grouped) => panic!("execute gave {single:?}, a group of one {grouped:?}"),
        }
    }
    assert_eq!(refusals, 1);
    let journal = |vfs: &Arc<dyn Vfs>| vfs.read(std::path::Path::new("/twin.journal")).unwrap();
    assert_eq!(journal(&single_vfs), journal(&group_vfs));
}

#[test]
fn empty_group_performs_no_journal_io() {
    let path = journal_path("group-empty");
    let mut store = Store::create(&path, scheme()).unwrap();
    store.execute(&seed_program("Info")).unwrap();
    let size_before = std::fs::metadata(&path).unwrap().len();
    let outcomes = store.execute_group(&[]).unwrap();
    assert!(outcomes.is_empty());
    assert_eq!(store.record_count(), 2);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), size_before);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn single_program_group_journals_as_plain_apply() {
    let path = journal_path("group-single");
    let mut store = Store::create(&path, scheme()).unwrap();
    store.execute(&seed_program("Info")).unwrap();
    store.execute_group(&[tag_program("Solo")]).unwrap();
    // Plain Apply, no batch framing: record count advances by one.
    assert_eq!(store.record_count(), 3);
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(!text.contains("BatchCommit"));
    drop(store);
    let store = Store::open(&path).unwrap();
    assert_eq!(store.instance().label_count(&"Solo".into()), 1);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn crash_between_batch_records_recovers_to_batch_boundary() {
    let path = journal_path("group-torn");
    {
        let mut store = Store::create(&path, scheme()).unwrap();
        store.execute(&seed_program("Info")).unwrap();
    }
    // Simulate a crash after the batch records landed but before the
    // commit marker: every line is intact and newline-terminated, yet
    // the group never committed.
    {
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        for tag in ["LostA", "LostB"] {
            let line = serde_json::to_string(&good_store::LogRecord::BatchApply(tag_program(tag)))
                .unwrap();
            writeln!(file, "{line}").unwrap();
        }
    }
    let mut store = Store::open(&path).unwrap();
    assert!(store.recovered_torn_tail());
    assert_eq!(store.instance().label_count(&"LostA".into()), 0);
    assert_eq!(store.instance().label_count(&"LostB".into()), 0);
    // The truncated journal accepts clean appends again.
    store.execute(&seed_program("After")).unwrap();
    drop(store);
    let store = Store::open(&path).unwrap();
    assert!(!store.recovered_torn_tail());
    assert_eq!(store.instance().label_count(&"After".into()), 1);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn empty_journal_is_missing_snapshot() {
    let path = journal_path("empty");
    std::fs::write(&path, "").unwrap();
    assert!(matches!(
        Store::open(&path),
        Err(StoreError::MissingSnapshot)
    ));
    std::fs::remove_file(&path).unwrap();
}
