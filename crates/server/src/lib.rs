//! `good-server` — a multi-session concurrency layer over the GOOD
//! engine: snapshot-isolated reads, single-writer group-commit writes.
//!
//! GOOD's operational semantics make concurrency unusually tractable:
//! every program is a deterministic graph transformation of a fixed
//! instance (PAPER.md §3), and pattern matching is a pure read-only
//! function of that instance. The server exploits both facts:
//!
//! * **Reads are snapshot-isolated and lock-free.** The committed
//!   instance is published through a [`SnapshotCell`]
//!   (`good_core::snapshot`): acquiring a [`Snapshot`] costs one short
//!   mutex lock plus one `Arc::clone`, and from then on matching,
//!   `explain`, DOT rendering, and browsing run against a frozen
//!   immutable graph that no writer can perturb. Because `Instance`
//!   is persistent (structurally shared), the cell retains a bounded
//!   MVCC ring of recent versions: [`Server::snapshot_at`] serves
//!   time-travel reads against any retained epoch for the cost of a
//!   few `Arc` bumps.
//! * **Writes are serialized through one writer thread with
//!   group-commit.** Sessions enqueue programs onto a bounded queue;
//!   the writer drains up to a batch at a time, applies the batch
//!   through [`Store::execute_group`] (one journal record group, one
//!   fsync for the whole batch), publishes the next snapshot, and acks
//!   every session in the batch with its global **commit sequence
//!   number**. The resulting history is trivially serializable — it
//!   *is* the serial order reported in the acks.
//!
//! Failure semantics mirror the store's: a program that fails
//! model-level validation is acked with its error and journals
//! nothing (its batch neighbours commit normally), while a journal
//! I/O failure poisons the store, fails the whole batch and every
//! queued request, and leaves the server refusing further writes —
//! committed snapshots stay readable throughout.
//!
//! Observability (DESIGN.md "Observability"): `server/enqueue`,
//! `server/batch`, per-request `server/commit`, and `server/publish`
//! spans go to the installed `good-trace` recorder, if any; a set of
//! **always-on live metrics** (queue depth and session gauges,
//! enqueue/commit counters, queue-wait / execute / publish / commit
//! latency histograms) records whether or not a recorder is installed.
//! Requests carry an optional wire-propagated trace id end to end.
//! GOODQL queries slower than [`ServerConfig::slow_query_ns`] (with
//! their profiled plan) and commits slower than
//! [`ServerConfig::slow_commit_ns`] land in a bounded [`SlowLog`] ring
//! served to remote clients by the `Stats` frame.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod net;
pub mod proto;

use good_core::error::GoodError;
use good_core::ops::OpReport;
use good_core::program::Program;
use good_core::snapshot::{RetentionPolicy, Snapshot, SnapshotCell};
use good_store::Store;
use good_trace::{LiveCounter, LiveGauge, LiveHistogram};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

// Always-on pipeline metrics: cheap atomics, recorded with or without
// a tracing recorder (see `good_trace` "always-on live metrics").
static LIVE_ENQUEUED: LiveCounter = LiveCounter::new("server/enqueued");
static LIVE_COMMITTED: LiveCounter = LiveCounter::new("server/committed");
static LIVE_REJECTED: LiveCounter = LiveCounter::new("server/rejected");
static LIVE_QUEUE_FULL: LiveCounter = LiveCounter::new("server/queue_full");
static LIVE_QUEUE_DEPTH: LiveGauge = LiveGauge::new("server/queue_depth");
static LIVE_SESSIONS: LiveGauge = LiveGauge::new("server/sessions");
static LIVE_SESSIONS_OPENED: LiveCounter = LiveCounter::new("server/sessions_opened");
static LIVE_BATCH_SIZE: LiveHistogram = LiveHistogram::new("server/batch_size");
static LIVE_QUEUE_WAIT_NS: LiveHistogram = LiveHistogram::new("server/queue_wait_ns");
static LIVE_EXEC_NS: LiveHistogram = LiveHistogram::new("server/exec_ns");
static LIVE_PUBLISH_NS: LiveHistogram = LiveHistogram::new("server/publish_ns");
static LIVE_COMMIT_NS: LiveHistogram = LiveHistogram::new("server/commit_ns");

/// Version of the stats document ([`Server::stats_json`], the `Stats`
/// wire reply): its first key, `"schema"`. Bump it when a section, a
/// metric name or a histogram field is renamed or removed; the golden
/// in `tests/introspection.rs` pins what version 1 contains.
pub const STATS_SCHEMA: u32 = 1;

/// Identifies one open session.
pub type SessionId = u64;

/// Identifies one submitted program; redeemed exactly once via
/// [`Server::wait`].
pub type Ticket = u64;

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum number of queued (unprocessed) programs before
    /// [`ServerError::QueueFull`] backpressure kicks in.
    pub queue_capacity: usize,
    /// Maximum number of programs the writer commits as one group.
    pub max_batch: usize,
    /// How many historical snapshot versions the server's MVCC ring
    /// retains for [`Server::snapshot_at`] time-travel reads (the
    /// current version is always kept). 0 disables time travel.
    pub retain_versions: usize,
    /// Commits slower than this (enqueue → ack posted, nanoseconds)
    /// are captured into the [`SlowLog`]. `u64::MAX` disables capture.
    pub slow_commit_ns: u64,
    /// Queries slower than this (nanoseconds) are captured into the
    /// [`SlowLog`] with their profiled plan (est vs actual rows per
    /// step). `u64::MAX` disables capture.
    pub slow_query_ns: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 256,
            max_batch: 32,
            retain_versions: 64,
            slow_commit_ns: 50_000_000, // 50ms
            slow_query_ns: 20_000_000,  // 20ms
        }
    }
}

/// Submission-level failures. Per-program *model* failures are not
/// errors at this level: they ride inside [`Ack::outcome`] so that one
/// bad program cannot break its batch neighbours.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerError {
    /// The session id was never opened, or has been closed.
    UnknownSession(
        /// The offending id.
        SessionId,
    ),
    /// The server is shutting down (or has shut down); no new programs
    /// are accepted.
    Shutdown,
    /// The submission queue is at capacity — backpressure; retry after
    /// the writer drains.
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// The underlying store failed (journal I/O / poisoning); the
    /// server refuses further writes until restarted.
    Store(
        /// The store's failure message.
        String,
    ),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::UnknownSession(id) => write!(f, "unknown session id {id}"),
            ServerError::Shutdown => write!(f, "server is shut down"),
            ServerError::QueueFull { capacity } => {
                write!(f, "submission queue full (capacity {capacity})")
            }
            ServerError::Store(reason) => write!(f, "store failure: {reason}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// The writer's acknowledgement for one submitted program.
#[derive(Debug, Clone)]
pub struct Ack {
    /// The submitting session.
    pub session: SessionId,
    /// Global commit sequence number — the program's position in the
    /// server's serial history. `Some` iff the program committed;
    /// model-rejected programs get `None` (they are not part of the
    /// history).
    pub commit_seq: Option<u64>,
    /// The snapshot epoch published by the batch that processed this
    /// program.
    pub epoch: u64,
    /// What the program did, or why the model rejected it.
    pub outcome: Result<OpReport, GoodError>,
}

/// What kind of work a [`SlowEntry`] captured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlowKind {
    /// A read-only GOODQL query (captured by the net front end).
    Query,
    /// A committed (or rejected) program submission.
    Commit,
}

impl SlowKind {
    /// Stable lowercase name, used in the stats JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            SlowKind::Query => "query",
            SlowKind::Commit => "commit",
        }
    }
}

/// One captured slow query or slow commit.
#[derive(Debug, Clone)]
pub struct SlowEntry {
    /// Monotone capture sequence (process-wide per server).
    pub seq: u64,
    /// Query or commit.
    pub kind: SlowKind,
    /// The wire-propagated trace id, when the client assigned one.
    pub trace: Option<u64>,
    /// The owning session.
    pub session: SessionId,
    /// End-to-end latency in nanoseconds.
    pub total_ns: u64,
    /// The snapshot epoch the work ran at (queries) or published
    /// (commits).
    pub epoch: u64,
    /// Human-readable description: the GOODQL text for queries, an
    /// op-count summary for commits.
    pub detail: String,
    /// The profiled plan as a JSON object (strategy, per-step
    /// estimated vs actual rows) — queries only.
    pub plan_json: Option<String>,
    /// Named stage timings in nanoseconds (queue-wait, execute,
    /// publish for commits; parse/compile/execute plus the `rows`
    /// count for queries).
    pub stages: Vec<(&'static str, u64)>,
}

impl SlowEntry {
    fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"seq\":{},\"kind\":\"{}\",",
            self.seq,
            self.kind.as_str()
        ));
        match self.trace {
            Some(id) => out.push_str(&format!("\"trace\":{id},")),
            None => out.push_str("\"trace\":null,"),
        }
        out.push_str(&format!(
            "\"session\":{},\"total_ns\":{},\"epoch\":{},\"detail\":\"{}\",",
            self.session,
            self.total_ns,
            self.epoch,
            good_trace::escape_json_str(&self.detail)
        ));
        out.push_str("\"stages\":{");
        for (index, (name, ns)) in self.stages.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{ns}"));
        }
        out.push_str("},\"plan\":");
        match &self.plan_json {
            Some(plan) => out.push_str(plan),
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }
}

/// A bounded ring of the slowest recent work: queries and commits that
/// crossed their configured thresholds, with stage timings and (for
/// queries) the profiled plan. Capped at [`SlowLog::CAPACITY`];
/// eviction counts as `dropped`. Pushes take one short mutex — they
/// only happen on already-slow work, never on the hot path.
pub struct SlowLog {
    inner: Mutex<SlowLogInner>,
}

struct SlowLogInner {
    ring: VecDeque<SlowEntry>,
    next_seq: u64,
    dropped: u64,
}

impl SlowLog {
    /// Entries the ring holds before it evicts the oldest.
    pub const CAPACITY: usize = 64;

    fn new() -> SlowLog {
        SlowLog {
            inner: Mutex::new(SlowLogInner {
                ring: VecDeque::new(),
                next_seq: 1,
                dropped: 0,
            }),
        }
    }

    /// Append an entry (its `seq` field is assigned here), evicting
    /// the oldest when full.
    pub fn push(&self, mut entry: SlowEntry) {
        let mut inner = self.inner.lock().expect("slow log poisoned");
        entry.seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.ring.len() == SlowLog::CAPACITY {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(entry);
    }

    /// Copy the ring, oldest first.
    pub fn entries(&self) -> Vec<SlowEntry> {
        let inner = self.inner.lock().expect("slow log poisoned");
        inner.ring.iter().cloned().collect()
    }

    /// How many entries eviction has discarded so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("slow log poisoned").dropped
    }

    /// Render as a JSON object: `{"dropped":N,"entries":[...]}`.
    pub fn to_json(&self) -> String {
        let inner = self.inner.lock().expect("slow log poisoned");
        let mut out = format!("{{\"dropped\":{},\"entries\":[", inner.dropped);
        for (index, entry) in inner.ring.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str(&entry.to_json());
        }
        out.push_str("]}");
        out
    }
}

struct Request {
    ticket: Ticket,
    session: SessionId,
    program: Program,
    /// Wire-propagated trace id (None for untraced submissions).
    trace: Option<u64>,
    /// When the request entered the queue — the anchor for queue-wait
    /// and end-to-end commit latency.
    enqueued: Instant,
}

struct State {
    queue: VecDeque<Request>,
    sessions: HashSet<SessionId>,
    next_session: SessionId,
    next_ticket: Ticket,
    completions: HashMap<Ticket, Result<Ack, String>>,
    shutdown: bool,
    paused: bool,
    failed: Option<String>,
}

struct Shared {
    state: Mutex<State>,
    /// Wakes the writer: work arrived, pause lifted, or shutdown.
    work: Condvar,
    /// Wakes waiters: completions were posted.
    done: Condvar,
    cell: SnapshotCell,
    config: ServerConfig,
    slow: SlowLog,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("server state poisoned")
    }

    fn submit(
        &self,
        session: SessionId,
        program: Program,
        trace: Option<u64>,
    ) -> Result<Ticket, ServerError> {
        let mut span = good_trace::span("server", "server/enqueue");
        let mut state = self.lock();
        if let Some(reason) = &state.failed {
            return Err(ServerError::Store(reason.clone()));
        }
        if state.shutdown {
            return Err(ServerError::Shutdown);
        }
        if !state.sessions.contains(&session) {
            return Err(ServerError::UnknownSession(session));
        }
        if state.queue.len() >= self.config.queue_capacity {
            LIVE_QUEUE_FULL.incr();
            return Err(ServerError::QueueFull {
                capacity: self.config.queue_capacity,
            });
        }
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.queue.push_back(Request {
            ticket,
            session,
            program,
            trace,
            enqueued: Instant::now(),
        });
        let depth = state.queue.len();
        LIVE_ENQUEUED.incr();
        LIVE_QUEUE_DEPTH.set(depth as i64);
        span.arg("session", session);
        span.arg("depth", depth);
        if let Some(id) = trace {
            span.arg("trace", id);
        }
        drop(state);
        self.work.notify_one();
        Ok(ticket)
    }

    fn wait(&self, ticket: Ticket) -> Result<Ack, ServerError> {
        let mut state = self.lock();
        assert!(
            ticket < state.next_ticket,
            "ticket {ticket} was never issued"
        );
        loop {
            if let Some(result) = state.completions.remove(&ticket) {
                return result.map_err(ServerError::Store);
            }
            state = self.done.wait(state).expect("server state poisoned");
        }
    }
}

/// The concurrency layer: one writer thread, any number of sessions
/// and snapshot readers.
///
/// ```
/// use good_core::program::Program;
/// use good_core::scheme::SchemeBuilder;
/// use good_server::{Server, ServerConfig};
/// use good_store::Store;
/// use good_store::vfs::{FaultPlan, FaultVfs};
/// use std::sync::Arc;
///
/// let vfs = Arc::new(FaultVfs::new(FaultPlan::reliable(1)));
/// let scheme = SchemeBuilder::new().object("Info").build();
/// let store = Store::create_with_vfs(vfs, "/db.journal", scheme).unwrap();
/// let server = Server::start(store, ServerConfig::default());
/// let session = server.open_session();
/// let snapshot = server.snapshot();
/// let ack = server
///     .submit_wait(session, Program::from_ops(Vec::new()))
///     .unwrap();
/// assert_eq!(ack.commit_seq, Some(1));
/// // The pre-submit snapshot still reads epoch 0.
/// assert_eq!(snapshot.epoch, 0);
/// server.shutdown().unwrap();
/// ```
pub struct Server {
    shared: Arc<Shared>,
    writer: Mutex<Option<JoinHandle<Store>>>,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.shared.lock();
        f.debug_struct("Server")
            .field("sessions", &state.sessions.len())
            .field("queued", &state.queue.len())
            .field("shutdown", &state.shutdown)
            .field("failed", &state.failed)
            .finish()
    }
}

impl Server {
    /// Start the server over `store`: spawns the writer thread and
    /// publishes the store's committed instance as snapshot epoch 0.
    pub fn start(store: Store, config: ServerConfig) -> Server {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                sessions: HashSet::new(),
                next_session: 1,
                next_ticket: 1,
                completions: HashMap::new(),
                shutdown: false,
                paused: false,
                failed: None,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            // Shares the store's own handle: startup publishes epoch 0
            // with one `Arc` bump, not a graph copy.
            cell: SnapshotCell::new_shared(
                store.instance_arc(),
                RetentionPolicy::versions(config.retain_versions),
            ),
            slow: SlowLog::new(),
            config,
        });
        let writer_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("good-server-writer".into())
            .spawn(move || writer_loop(writer_shared, store))
            .expect("spawn writer thread");
        Server {
            shared,
            writer: Mutex::new(Some(handle)),
        }
    }

    /// Open a new session and return its id.
    pub fn open_session(&self) -> SessionId {
        let mut state = self.shared.lock();
        let id = state.next_session;
        state.next_session += 1;
        state.sessions.insert(id);
        LIVE_SESSIONS_OPENED.incr();
        LIVE_SESSIONS.set(state.sessions.len() as i64);
        id
    }

    /// Close a session; later submissions under its id are rejected
    /// with [`ServerError::UnknownSession`]. In-flight programs it
    /// already enqueued still commit.
    pub fn close_session(&self, session: SessionId) -> Result<(), ServerError> {
        let mut state = self.shared.lock();
        if state.sessions.remove(&session) {
            LIVE_SESSIONS.set(state.sessions.len() as i64);
            Ok(())
        } else {
            Err(ServerError::UnknownSession(session))
        }
    }

    /// Number of currently open sessions — the network front end's
    /// leak detector: every disconnect must drive this back down.
    pub fn session_count(&self) -> usize {
        self.shared.lock().sessions.len()
    }

    /// Programs currently queued for the writer (admission-control
    /// signal; the published `server/queue_depth` gauge's source).
    pub fn queue_depth(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Acquire the current committed snapshot (lock-free reads from
    /// then on; see [`SnapshotCell`]).
    pub fn snapshot(&self) -> Snapshot {
        self.shared.cell.load()
    }

    /// The current snapshot epoch — one publish per committed batch.
    /// A single atomic load; never contends with the writer.
    pub fn epoch(&self) -> u64 {
        self.shared.cell.epoch()
    }

    /// Time-travel read: the snapshot published at exactly `epoch`, if
    /// the MVCC ring still retains it (see
    /// [`ServerConfig::retain_versions`]). `None` once the retention
    /// policy has trimmed that version — though snapshots already
    /// loaded stay valid forever regardless.
    pub fn snapshot_at(&self, epoch: u64) -> Option<Snapshot> {
        self.shared.cell.load_at(epoch)
    }

    /// The epochs currently retained by the MVCC ring, oldest first.
    pub fn retained_epochs(&self) -> Vec<u64> {
        self.shared.cell.retained_epochs()
    }

    /// Enqueue `program` for `session`. Returns a ticket redeemable
    /// exactly once via [`Server::wait`].
    pub fn submit(&self, session: SessionId, program: Program) -> Result<Ticket, ServerError> {
        self.shared.submit(session, program, None)
    }

    /// [`Server::submit`] with a client-assigned trace id that rides
    /// the request through the pipeline: the `server/enqueue` and
    /// per-request `server/commit` spans carry it as an arg, so a
    /// request's commit timeline (queue-wait → batch → fsync →
    /// publish → ack) can be reconstructed from a span capture.
    pub fn submit_traced(
        &self,
        session: SessionId,
        program: Program,
        trace: Option<u64>,
    ) -> Result<Ticket, ServerError> {
        self.shared.submit(session, program, trace)
    }

    /// The slow-query/slow-commit ring. The net front end pushes slow
    /// queries here; the writer pushes slow commits.
    pub fn slow_log(&self) -> &SlowLog {
        &self.shared.slow
    }

    /// The slow-capture thresholds `(slow_query_ns, slow_commit_ns)`
    /// this server was configured with.
    pub fn slow_thresholds(&self) -> (u64, u64) {
        (
            self.shared.config.slow_query_ns,
            self.shared.config.slow_commit_ns,
        )
    }

    /// The introspection snapshot's server-side sections, as JSON
    /// object *members* (no surrounding braces): `"server":{…},
    /// "mvcc":{…},"metrics":{…},"slow":{…}`. The net front end
    /// prepends its own `"net"` section and wraps the whole thing;
    /// [`Server::stats_json`] wraps it directly for in-process use.
    /// Reads only atomics, the state mutex (briefly), and the slow
    /// ring — never the commit path.
    pub fn stats_sections(&self) -> String {
        let (queue_depth, sessions, draining, failed) = {
            let state = self.shared.lock();
            (
                state.queue.len(),
                state.sessions.len(),
                state.shutdown,
                state.failed.clone(),
            )
        };
        let mut out = format!(
            "\"server\":{{\"epoch\":{},\"queue_depth\":{queue_depth},\"queue_capacity\":{},\"max_batch\":{},\"sessions\":{sessions},\"draining\":{draining},\"failed\":{}}}",
            self.epoch(),
            self.shared.config.queue_capacity,
            self.shared.config.max_batch,
            match &failed {
                Some(reason) => format!("\"{}\"", good_trace::escape_json_str(reason)),
                None => "null".to_string(),
            },
        );
        let retained = self.retained_epochs();
        out.push_str(&format!(
            ",\"mvcc\":{{\"epoch\":{},\"retain_versions\":{},\"retained\":[",
            self.epoch(),
            self.shared.config.retain_versions
        ));
        for (index, epoch) in retained.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str(&epoch.to_string());
        }
        out.push_str("]}");
        out.push_str(",\"metrics\":");
        out.push_str(&good_trace::metrics_snapshot().to_json());
        out.push_str(",\"slow\":");
        out.push_str(&self.shared.slow.to_json());
        out
    }

    /// The full in-process introspection snapshot as one JSON object.
    pub fn stats_json(&self) -> String {
        format!("{{\"schema\":{STATS_SCHEMA},{}}}", self.stats_sections())
    }

    /// Block until the writer acks `ticket`. Each ticket may be waited
    /// on exactly once.
    pub fn wait(&self, ticket: Ticket) -> Result<Ack, ServerError> {
        self.shared.wait(ticket)
    }

    /// [`Server::submit`] + [`Server::wait`] in one call.
    pub fn submit_wait(&self, session: SessionId, program: Program) -> Result<Ack, ServerError> {
        let ticket = self.submit(session, program)?;
        self.wait(ticket)
    }

    /// Test support: hold the writer idle so submissions accumulate in
    /// the queue (deterministic batch formation and queue-full tests).
    pub fn pause_writer(&self) {
        self.shared.lock().paused = true;
    }

    /// Lift a [`Server::pause_writer`] hold.
    pub fn resume_writer(&self) {
        self.shared.lock().paused = false;
        self.shared.work.notify_all();
    }

    /// Stop accepting new programs without waiting for the writer:
    /// later submissions fail with [`ServerError::Shutdown`], while
    /// everything already queued still drains and acks. Call
    /// [`Server::shutdown`] afterwards to join the writer.
    pub fn begin_shutdown(&self) {
        self.shared.lock().shutdown = true;
        self.shared.work.notify_all();
    }

    /// Shut down: stop accepting new programs, let the writer drain
    /// everything already queued, join it, and hand back the store.
    pub fn shutdown(self) -> Result<Store, ServerError> {
        self.shutdown_impl()
    }

    /// [`Server::shutdown`] through a shared reference, for owners
    /// that hold the server behind an `Arc` (the network front end):
    /// drains the queue, joins the writer, returns the store. Every
    /// accepted ticket has its completion posted before this returns,
    /// so pending [`Server::wait`] calls cannot block forever. A
    /// second call returns [`ServerError::Shutdown`].
    pub fn drain_shutdown(&self) -> Result<Store, ServerError> {
        self.shutdown_impl()
    }

    fn shutdown_impl(&self) -> Result<Store, ServerError> {
        {
            let mut state = self.shared.lock();
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        let handle = self
            .writer
            .lock()
            .expect("writer handle poisoned")
            .take()
            .ok_or(ServerError::Shutdown)?;
        handle
            .join()
            .map_err(|_| ServerError::Store("writer thread panicked".into()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.shutdown_impl();
    }
}

fn writer_loop(shared: Arc<Shared>, mut store: Store) -> Store {
    let mut commit_seq: u64 = 0;
    loop {
        let batch: Vec<Request> = {
            let mut state = shared.lock();
            loop {
                // Shutdown overrides pause: queued work always drains
                // before the writer exits.
                let runnable = !state.queue.is_empty() && (!state.paused || state.shutdown);
                if runnable && state.failed.is_none() {
                    break;
                }
                if state.shutdown {
                    return store;
                }
                state = shared.work.wait(state).expect("server state poisoned");
            }
            let take = state.queue.len().min(shared.config.max_batch);
            let batch: Vec<Request> = state.queue.drain(..take).collect();
            LIVE_QUEUE_DEPTH.set(state.queue.len() as i64);
            batch
        };
        // Queue-wait ends here for every request in the batch.
        let drained = Instant::now();
        let mut batch_span = good_trace::span("server", "server/batch");
        batch_span.arg("programs", batch.len());
        LIVE_BATCH_SIZE.observe(batch.len() as u64);
        for req in &batch {
            LIVE_QUEUE_WAIT_NS.observe(duration_ns(req.enqueued, drained));
        }
        let programs: Vec<Program> = batch.iter().map(|req| req.program.clone()).collect();
        let exec_result = store.execute_group(&programs);
        let executed = Instant::now();
        LIVE_EXEC_NS.observe(duration_ns(drained, executed));
        match exec_result {
            Ok(outcomes) => {
                let epoch = {
                    let _publish_span = good_trace::span("server", "server/publish");
                    // Zero-copy publish: the store's committed handle
                    // is shared into the ring as-is.
                    shared.cell.publish_arc(store.instance_arc())
                };
                let published = Instant::now();
                LIVE_PUBLISH_NS.observe(duration_ns(executed, published));
                batch_span.arg("epoch", epoch);
                let exec_ns = duration_ns(drained, executed);
                let publish_ns = duration_ns(executed, published);
                let mut state = shared.lock();
                for (req, outcome) in batch.into_iter().zip(outcomes) {
                    let seq = outcome.is_ok().then(|| {
                        commit_seq += 1;
                        commit_seq
                    });
                    if outcome.is_ok() {
                        LIVE_COMMITTED.incr();
                    } else {
                        LIVE_REJECTED.incr();
                    }
                    let queue_wait_ns = duration_ns(req.enqueued, drained);
                    let total_ns = req.enqueued.elapsed().as_nanos() as u64;
                    LIVE_COMMIT_NS.observe(total_ns);
                    // Per-request commit span: a child of the batch
                    // span on this thread, carrying the trace id and
                    // stage timings so a wire-traced request's
                    // timeline can be reconstructed from a capture.
                    {
                        let mut commit_span = good_trace::span("server", "server/commit");
                        if let Some(id) = req.trace {
                            commit_span.arg("trace", id);
                        }
                        commit_span.arg("queue_wait_ns", queue_wait_ns);
                        commit_span.arg("total_ns", total_ns);
                        commit_span.arg("epoch", epoch);
                        if let Some(seq) = seq {
                            commit_span.arg("commit_seq", seq);
                        }
                    }
                    if total_ns >= shared.config.slow_commit_ns {
                        shared.slow.push(SlowEntry {
                            seq: 0, // assigned by the log
                            kind: SlowKind::Commit,
                            trace: req.trace,
                            session: req.session,
                            total_ns,
                            epoch,
                            detail: format!("{} ops", req.program.len()),
                            plan_json: None,
                            stages: vec![
                                ("queue_wait_ns", queue_wait_ns),
                                ("execute_ns", exec_ns),
                                ("publish_ns", publish_ns),
                            ],
                        });
                    }
                    state.completions.insert(
                        req.ticket,
                        Ok(Ack {
                            session: req.session,
                            commit_seq: seq,
                            epoch,
                            outcome,
                        }),
                    );
                }
                drop(state);
                shared.done.notify_all();
            }
            Err(err) => {
                // Journal I/O failure: the store is poisoned, nothing
                // in this batch (or behind it) can commit. Fail them
                // all and refuse further writes; committed snapshots
                // stay readable.
                let reason = err.to_string();
                batch_span.arg("failed", reason.clone());
                let mut state = shared.lock();
                state.failed = Some(reason.clone());
                for req in batch {
                    state.completions.insert(req.ticket, Err(reason.clone()));
                }
                while let Some(req) = state.queue.pop_front() {
                    state.completions.insert(req.ticket, Err(reason.clone()));
                }
                LIVE_QUEUE_DEPTH.set(0);
                drop(state);
                shared.done.notify_all();
            }
        }
    }
}

/// Saturating nanoseconds between two instants (0 when out of order).
fn duration_ns(from: Instant, to: Instant) -> u64 {
    to.checked_duration_since(from)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}
