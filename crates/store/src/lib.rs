//! `good-store` — journaled durable storage for GOOD object bases.
//!
//! The paper's prototype persisted GOOD databases through a host
//! relational system (Section 5); a standalone library needs its own
//! durability story. This crate provides the standard one:
//!
//! * a **journal** file of JSON-line records — a leading
//!   [`LogRecord::Snapshot`] followed by [`LogRecord::Apply`] /
//!   [`LogRecord::RegisterMethod`] entries and group-commit batches
//!   ([`LogRecord::BatchApply`]* closed by one
//!   [`LogRecord::BatchCommit`], fsynced once per group);
//! * **atomic execution**: a program is applied to a clone first; only
//!   on success is the record appended (and fsynced) and the clone
//!   committed — a failing program can neither corrupt the in-memory
//!   instance nor the journal;
//! * **crash recovery**: a torn final record (the classic
//!   crash-during-append) is detected, ignored, and truncated on open;
//!   corruption anywhere earlier is an error, not a silent truncation;
//! * **checkpointing**: collapse the journal into a fresh snapshot,
//!   written to a temporary file, atomically renamed into place, and
//!   made durable with a parent-directory fsync;
//! * **poisoning**: if an append cannot be made durably (the write or
//!   its fsync fails), the record's durability is unknowable, so the
//!   store rejects all further mutations until reopened — committed
//!   state stays readable, and recovery on reopen decides whether the
//!   ambiguous record survived.
//!
//! All journal I/O goes through the [`vfs::Vfs`] trait, so the whole
//! contract is exercised under simulated power loss by the
//! deterministic [`torture`] harness (see DESIGN.md, "Durability and
//! crash consistency").
//!
//! Determinism makes log replay sound: GOOD operations are
//! deterministic up to new-object identity, and since the journal
//! replays from the snapshot's concrete arena state, replay is in fact
//! bit-identical (node ids included).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;
pub mod torture;
pub mod vfs;

pub use journal::LogRecord;

use good_core::error::GoodError;
use good_core::instance::Instance;
use good_core::matching::{find_matchings, Matching};
use good_core::method::Method;
use good_core::ops::OpReport;
use good_core::pattern::Pattern;
use good_core::program::{Env, Program, DEFAULT_FUEL};
use good_core::scheme::Scheme;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vfs::{StdVfs, Vfs, VfsFile};

/// Store errors: I/O, serialization, or model-level failures.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A journal record failed to parse (other than a torn tail).
    Corrupt {
        /// 1-based line number of the bad record.
        line: usize,
        /// Parser message.
        message: String,
    },
    /// The journal is empty or does not start with a snapshot.
    MissingSnapshot,
    /// A model-level error while replaying or executing.
    Model(GoodError),
    /// A previous append failed mid-durability; mutations are refused
    /// until the store is reopened (committed state stays readable).
    Poisoned(
        /// The failure that poisoned the store.
        String,
    ),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(err) => write!(f, "journal I/O error: {err}"),
            StoreError::Corrupt { line, message } => {
                write!(f, "corrupt journal record at line {line}: {message}")
            }
            StoreError::MissingSnapshot => {
                write!(f, "journal does not begin with a snapshot record")
            }
            StoreError::Model(err) => write!(f, "model error: {err}"),
            StoreError::Poisoned(reason) => write!(
                f,
                "store is poisoned ({reason}); the last record's durability is \
                 unknown — reopen the journal to recover a consistent state"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(err: std::io::Error) -> Self {
        StoreError::Io(err)
    }
}

impl From<GoodError> for StoreError {
    fn from(err: GoodError) -> Self {
        StoreError::Model(err)
    }
}

/// Result alias for store operations.
pub type Result<T> = std::result::Result<T, StoreError>;

/// A durable GOOD object base.
pub struct Store {
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
    file: Box<dyn VfsFile>,
    db: Arc<Instance>,
    env: Env,
    /// Registered methods, kept for checkpointing (the Env does not
    /// expose iteration).
    methods: Vec<Method>,
    records: usize,
    /// True when `open` discarded a torn trailing record.
    recovered_torn_tail: bool,
    /// Set when an append failed after possibly reaching the disk.
    poisoned: Option<String>,
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("path", &self.path)
            .field("records", &self.records)
            .field("nodes", &self.db.node_count())
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

impl Store {
    /// Create a fresh store at `path` over `scheme` on the real
    /// filesystem. Fails if the file exists.
    pub fn create(path: impl AsRef<Path>, scheme: Scheme) -> Result<Store> {
        Store::create_with_vfs(Arc::new(StdVfs), path, scheme)
    }

    /// [`Store::create`] over an explicit [`Vfs`].
    pub fn create_with_vfs(
        vfs: Arc<dyn Vfs>,
        path: impl AsRef<Path>,
        scheme: Scheme,
    ) -> Result<Store> {
        let path = path.as_ref().to_path_buf();
        let mut file = vfs.create_new(&path)?;
        let db = Instance::new(scheme);
        let record = LogRecord::Snapshot(Box::new(db.clone()));
        journal::append_record(file.as_mut(), &record)?;
        // The file content is durable; make its *name* durable too, or
        // a crash could silently discard the whole store.
        vfs.sync_parent_dir(&path)?;
        Ok(Store {
            vfs,
            path,
            file,
            db: Arc::new(db),
            env: Env::with_fuel(DEFAULT_FUEL),
            methods: Vec::new(),
            records: 1,
            recovered_torn_tail: false,
            poisoned: None,
        })
    }

    /// Open an existing store on the real filesystem, replaying its
    /// journal.
    pub fn open(path: impl AsRef<Path>) -> Result<Store> {
        Store::open_with_vfs(Arc::new(StdVfs), path)
    }

    /// [`Store::open`] over an explicit [`Vfs`].
    pub fn open_with_vfs(vfs: Arc<dyn Vfs>, path: impl AsRef<Path>) -> Result<Store> {
        let path = path.as_ref().to_path_buf();
        let mut recovery_span = good_trace::span("store", "store/recovery");
        let bytes = vfs.read(&path)?;
        let started = Instant::now();

        let mut db: Option<Instance> = None;
        let mut env = Env::with_fuel(DEFAULT_FUEL);
        let mut methods: Vec<Method> = Vec::new();
        let mut applied = false;
        let mut replay_time = Duration::ZERO;
        let scan = journal::scan(&bytes, 0usize, |records, line, record| {
            let replay_started = Instant::now();
            match record {
                LogRecord::Snapshot(instance) => {
                    if db.is_some() {
                        return Err(StoreError::Corrupt {
                            line,
                            message: "unexpected second snapshot".into(),
                        });
                    }
                    db = Some(*instance);
                }
                LogRecord::RegisterMethod(method) => {
                    if db.is_none() {
                        return Err(StoreError::MissingSnapshot);
                    }
                    env.register((*method).clone());
                    methods.push(*method);
                }
                LogRecord::Apply(program) | LogRecord::BatchApply(program) => {
                    // The scanner only hands over BatchApply records of
                    // *committed* groups, so replay treats them exactly
                    // like self-committing applies.
                    let Some(db) = db.as_mut() else {
                        return Err(StoreError::MissingSnapshot);
                    };
                    env.refuel();
                    program.apply(db, &mut env)?;
                    applied = true;
                }
                LogRecord::BatchCommit { .. } => {
                    if db.is_none() {
                        return Err(StoreError::MissingSnapshot);
                    }
                }
            }
            *records += 1;
            replay_time += replay_started.elapsed();
            Ok(())
        })?;
        let scan_time = started.elapsed();
        let db = db.ok_or(StoreError::MissingSnapshot)?;
        // The snapshot was audited as it was read (`Instance` reads
        // through `from_parts`), so the semantic invariants are
        // re-checked only if replay changed it. The full index audit is
        // O(nodes + edges) of redundant work in release (replay keeps
        // the indexes through the code paths it checks): debug only.
        if applied {
            db.validate_semantics()?;
        }
        #[cfg(debug_assertions)]
        db.validate_indexes()?;
        // Where the time went: text to records, replay, audit.
        let ns = |time: Duration| time.as_nanos() as u64;
        recovery_span.arg("bytes", bytes.len());
        recovery_span.arg("parse_ns", ns(scan_time - replay_time));
        recovery_span.arg("replay_ns", ns(replay_time));
        recovery_span.arg("validate_ns", ns(started.elapsed() - scan_time));
        recovery_span.arg("records", scan.records);
        recovery_span.arg("torn_tail", scan.torn_tail);
        drop(recovery_span);

        let mut file;
        if scan.torn_tail {
            // Truncate the torn tail so future appends start clean,
            // and sync so the truncation itself survives a crash.
            vfs.truncate(&path, scan.intact_len)?;
            file = vfs.open_append(&path)?;
            file.sync_data()?;
        } else {
            file = vfs.open_append(&path)?;
        }
        Ok(Store {
            vfs,
            path,
            file,
            db: Arc::new(db),
            env,
            methods,
            records: scan.records,
            recovered_torn_tail: scan.torn_tail,
            poisoned: None,
        })
    }

    /// The current instance.
    pub fn instance(&self) -> &Instance {
        &self.db
    }

    /// The current instance as a shared handle. The store's own copy
    /// stays live, so publishing this handle (e.g. into a
    /// `SnapshotCell`) costs one `Arc` bump, zero graph copies.
    pub fn instance_arc(&self) -> Arc<Instance> {
        Arc::clone(&self.db)
    }

    /// Number of journal records replayed/written in this generation.
    pub fn record_count(&self) -> usize {
        self.records
    }

    /// True if `open` had to discard a torn trailing record.
    pub fn recovered_torn_tail(&self) -> bool {
        self.recovered_torn_tail
    }

    /// The poisoning reason, if a failed append has locked the store
    /// against further mutation.
    pub fn poisoned(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    fn check_poisoned(&self) -> Result<()> {
        match &self.poisoned {
            Some(reason) => Err(StoreError::Poisoned(reason.clone())),
            None => Ok(()),
        }
    }

    /// Append a record, poisoning the store on I/O failure: once bytes
    /// may have reached the file without a confirmed fsync, the
    /// record's durability (and the journal tail's integrity) is
    /// unknown, so no further mutation may append after it. Recovery on
    /// reopen resolves the ambiguity either way.
    fn append_durably(&mut self, record: &LogRecord) -> Result<()> {
        match journal::append_record(self.file.as_mut(), record) {
            Ok(()) => Ok(()),
            Err(err) => {
                if let StoreError::Io(io_err) = &err {
                    self.poisoned = Some(format!("append failed: {io_err}"));
                }
                Err(err)
            }
        }
    }

    /// Register a method, durably.
    pub fn register_method(&mut self, method: Method) -> Result<()> {
        self.check_poisoned()?;
        self.append_durably(&LogRecord::RegisterMethod(Box::new(method.clone())))?;
        self.env.register(method.clone());
        self.methods.push(method);
        self.records += 1;
        Ok(())
    }

    /// Execute a program atomically: state and journal change only if
    /// the whole program succeeds *and* its record is durably logged.
    /// On an I/O failure the in-memory instance is left at the last
    /// committed state and the store is poisoned (see
    /// [`StoreError::Poisoned`]).
    pub fn execute(&mut self, program: &Program) -> Result<OpReport> {
        self.check_poisoned()?;
        let mut execute_span = good_trace::span("store", "store/execute");
        execute_span.arg("ops", program.len());
        // Cheap: `Instance` is persistent, so this is a handful of
        // `Arc` bumps, and the mutation below copies only the O(delta
        // log n) trie nodes it actually touches.
        let mut next = (*self.db).clone();
        self.env.refuel();
        let report = program.apply(&mut next, &mut self.env)?;
        self.append_durably(&LogRecord::Apply(program.clone()))?;
        self.db = Arc::new(next);
        self.records += 1;
        execute_span.arg("matchings", report.matchings);
        Ok(report)
    }

    /// Execute a batch of programs as **one group commit**: every
    /// successful program's record is appended, a commit marker closes
    /// the group, and a single fsync makes the whole batch durable at
    /// once — the journaling cost of one `execute` amortized over the
    /// batch.
    ///
    /// Per-program failures are isolated, not batch-aborting: a failing
    /// program contributes an `Err` outcome, writes nothing to the
    /// journal, and leaves the effects of its successful neighbours
    /// intact (each program applies to a scratch clone that is merged
    /// only on success). Durability is all-or-nothing per batch: a
    /// crash before the commit marker is durable recovers to the state
    /// *before* the batch, never in the middle of it.
    ///
    /// A batch with zero successful programs performs no I/O; a batch
    /// with exactly one is journaled as a plain self-committing
    /// [`LogRecord::Apply`] (same durability, smaller journal).
    pub fn execute_group(
        &mut self,
        programs: &[Program],
    ) -> Result<Vec<std::result::Result<OpReport, GoodError>>> {
        self.check_poisoned()?;
        let mut group_span = good_trace::span("store", "store/execute_group");
        group_span.arg("programs", programs.len());
        let mut working = (*self.db).clone();
        let mut outcomes = Vec::with_capacity(programs.len());
        let mut committed: Vec<&Program> = Vec::new();
        for program in programs {
            self.env.refuel();
            let mut scratch = working.clone();
            match program.apply(&mut scratch, &mut self.env) {
                Ok(report) => {
                    working = scratch;
                    committed.push(program);
                    outcomes.push(Ok(report));
                }
                Err(err) => outcomes.push(Err(err)),
            }
        }
        group_span.arg("committed", committed.len());
        match committed.len() {
            0 => return Ok(outcomes),
            1 => {
                self.append_durably(&LogRecord::Apply(committed[0].clone()))?;
                self.records += 1;
            }
            n => {
                let result = Self::write_group(self.file.as_mut(), &committed);
                if let Err(err) = result {
                    if let StoreError::Io(io_err) = &err {
                        self.poisoned = Some(format!("group append failed: {io_err}"));
                    }
                    return Err(err);
                }
                self.records += n + 1;
            }
        }
        self.db = Arc::new(working);
        Ok(outcomes)
    }

    /// Append a committed group: `BatchApply`* + `BatchCommit`, then
    /// one fsync for the lot.
    fn write_group(file: &mut dyn VfsFile, programs: &[&Program]) -> Result<()> {
        for program in programs {
            journal::write_record(file, &LogRecord::BatchApply((*program).clone()))?;
        }
        journal::write_record(
            file,
            &LogRecord::BatchCommit {
                count: programs.len(),
            },
        )?;
        journal::sync_file(file)
    }

    /// Run a read-only pattern query.
    pub fn query(&self, pattern: &Pattern) -> Result<Vec<Matching>> {
        Ok(find_matchings(pattern, &self.db)?)
    }

    /// Collapse the journal into a single fresh snapshot: temp file,
    /// fsync, atomic rename, parent-directory fsync. Failures before
    /// the rename leave the old journal fully intact; failures after it
    /// poison the store (the new journal is in place but its durability
    /// or the append handle is uncertain).
    pub fn checkpoint(&mut self) -> Result<()> {
        self.check_poisoned()?;
        let mut checkpoint_span = good_trace::span("store", "store/checkpoint");
        checkpoint_span.arg("records_before", self.records);
        let tmp_path = self.path.with_extension("journal.tmp");
        {
            let mut tmp = self.vfs.create_truncate(&tmp_path)?;
            journal::append_record(
                tmp.as_mut(),
                &LogRecord::Snapshot(Box::new((*self.db).clone())),
            )?;
            // Methods survive checkpoints: re-log every registration.
            for method in self.methods.iter() {
                journal::append_record(
                    tmp.as_mut(),
                    &LogRecord::RegisterMethod(Box::new(method.clone())),
                )?;
            }
            tmp.sync_all()?;
        }
        self.vfs.rename(&tmp_path, &self.path)?;
        // The rename must itself be made durable: without the directory
        // fsync a crash can resurrect the old journal, silently
        // discarding every record appended to the new one.
        if let Err(err) = self.vfs.sync_parent_dir(&self.path) {
            self.poisoned = Some(format!("checkpoint rename not durable: {err}"));
            return Err(err.into());
        }
        match self.vfs.open_append(&self.path) {
            Ok(file) => self.file = file,
            Err(err) => {
                // The old handle points at the unlinked pre-checkpoint
                // inode; appending there would lose records.
                self.poisoned = Some(format!("cannot reopen checkpointed journal: {err}"));
                return Err(err.into());
            }
        }
        self.records = 1 + self.methods.len();
        Ok(())
    }
}
