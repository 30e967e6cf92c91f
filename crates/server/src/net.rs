//! The TCP network front end: maps wire-protocol connections
//! ([`crate::proto`]) onto the in-process session/submit/ack model.
//!
//! # Architecture
//!
//! One std-only accept loop, thread-per-connection. Each connection
//! runs **two** threads so acks pipeline:
//!
//! * the **reader** decodes frames and serves everything that never
//!   touches the writer inline — `Query` and `Snapshot` run against
//!   lock-free [`Snapshot`](good_core::snapshot::Snapshot) handles —
//!   while `Submit` is enqueued on the server and its ticket handed
//!   to…
//! * …the **ack pump**, which redeems tickets in submission order and
//!   writes `Ack` frames back, so a client can keep tens of submits
//!   in flight without waiting for round trips.
//!
//! # Queries
//!
//! GOODQL is the one language on the wire. Every `Query` frame takes
//! the same path: `parse_query` → `compile` → `execute_rows` → a size
//! check against the frame cap → `Rows`. Text that is not GOODQL (the
//! CLI's textual pattern notation included) is refused with a typed
//! `Err{BadRequest}` carrying the parser's caret render, and the
//! session goes on.
//!
//! # Admission control and load shedding
//!
//! Production concerns are layered on the existing `QueueFull`
//! backpressure, every refusal typed and carrying a retry hint:
//!
//! * **connection admission**: past [`NetConfig::max_connections`]
//!   the accept loop writes `Err{Overloaded, retry_after_ms}` +
//!   `Goodbye` and closes — a cheap refusal that never spawns a
//!   thread;
//! * **per-session in-flight quota**: past
//!   [`NetConfig::session_inflight`] unacked submits, further submits
//!   bounce with `Err{QuotaExceeded}` until acks drain;
//! * **queue backpressure**: the server's own
//!   [`ServerError::QueueFull`] surfaces as `Err{QueueFull}`;
//! * **timeouts**: a connection that sends no `Hello` within
//!   [`NetConfig::hello_timeout`], or nothing at all for
//!   [`NetConfig::idle_timeout`], is told `Goodbye` and closed.
//!
//! # Graceful drain
//!
//! [`NetServer::begin_shutdown`] stops accepting, rejects new submits
//! with `Err{Shutdown}`, but lets everything already accepted commit
//! and ack. [`NetServer::shutdown`] additionally drains the writer,
//! unblocks connection readers, joins every thread, and hands back
//! the [`Store`] — the journal then contains exactly the acked
//! prefix.
//!
//! Observability (DESIGN.md "Observability"): `net/accept`,
//! `net/conn`, `net/frame`, and per-ack `net/ack` spans go to the
//! installed `good-trace` recorder, if any; always-on live metrics
//! (per-frame-type counters, a connections gauge, query/ack latency
//! histograms, shed/quota/bad-frame counters) record regardless. The
//! reader thread serves `Stats` frames with the full introspection
//! snapshot — metrics, MVCC ring, admission state, slow-query ring —
//! without touching the commit path, and `Submit`/`Query` frames may
//! carry a client-assigned trace id that rides the request through
//! every span.

use crate::proto::{
    encode, read_frame, rows_payload_len, write_frame, ErrCode, Frame, ProtoError, SnapshotInfo,
    MAX_PAYLOAD, VERSION,
};
use crate::{Server, ServerError, SlowEntry, SlowKind, Ticket};
use good_core::snapshot::Snapshot;
use good_store::Store;
use good_trace::{LiveCounter, LiveGauge, LiveHistogram};
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// Always-on front-end metrics (see `good_trace` live metrics): frame
// counts by type, admission events, connection gauge, read latencies.
static LIVE_CONNECTIONS: LiveGauge = LiveGauge::new("net/connections");
static LIVE_INFLIGHT: LiveGauge = LiveGauge::new("net/inflight");
static LIVE_ACCEPTED: LiveCounter = LiveCounter::new("net/accepted");
static LIVE_SHED: LiveCounter = LiveCounter::new("net/shed");
static LIVE_QUOTA_REJECT: LiveCounter = LiveCounter::new("net/quota_reject");
static LIVE_BAD_FRAME: LiveCounter = LiveCounter::new("net/bad_frame");
static LIVE_VERSION_REJECT: LiveCounter = LiveCounter::new("net/version_reject");
static LIVE_FRAMES_SUBMIT: LiveCounter = LiveCounter::new("net/frames/submit");
static LIVE_FRAMES_QUERY: LiveCounter = LiveCounter::new("net/frames/query");
static LIVE_FRAMES_SNAPSHOT: LiveCounter = LiveCounter::new("net/frames/snapshot");
static LIVE_FRAMES_STATS: LiveCounter = LiveCounter::new("net/frames/stats");
static LIVE_FRAMES_OTHER: LiveCounter = LiveCounter::new("net/frames/other");
static LIVE_ACKS: LiveCounter = LiveCounter::new("net/acks");
static LIVE_QUERY_NS: LiveHistogram = LiveHistogram::new("net/query_ns");
static LIVE_STATS_NS: LiveHistogram = LiveHistogram::new("net/stats_ns");

/// Tuning knobs for the network front end.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Admission ceiling: connections past this are shed with
    /// `Err{Overloaded}` before a handler thread is spawned.
    pub max_connections: usize,
    /// Per-session in-flight quota: unacked submits past this bounce
    /// with `Err{QuotaExceeded}` until acks drain.
    pub session_inflight: usize,
    /// How long a fresh connection may take to send `Hello`.
    pub hello_timeout: Duration,
    /// Read/write timeout once a session is established; an idle
    /// connection is closed with `Goodbye` when it expires.
    pub idle_timeout: Duration,
    /// The backoff hint carried by retryable refusals
    /// (`Overloaded`/`QuotaExceeded`/`QueueFull`).
    pub retry_after_ms: u32,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_connections: 1024,
            session_inflight: 64,
            hello_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(30),
            retry_after_ms: 25,
        }
    }
}

struct ConnRegistry {
    /// Streams of live connections, for unblocking readers at drain.
    streams: HashMap<u64, TcpStream>,
    /// Join handles of live handler threads.
    active: HashMap<u64, JoinHandle<()>>,
    /// Handles whose threads have finished (cheap to join).
    finished: Vec<JoinHandle<()>>,
}

struct NetShared {
    server: Server,
    config: NetConfig,
    addr: SocketAddr,
    draining: std::sync::atomic::AtomicBool,
    next_conn: AtomicU64,
    total_accepted: AtomicU64,
    registry: Mutex<ConnRegistry>,
}

impl NetShared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn active_connections(&self) -> usize {
        self.registry.lock().expect("registry").streams.len()
    }

    /// Move a finished connection out of the live registry. The
    /// handler calls this as its last action; its own JoinHandle goes
    /// to the `finished` list (joining an exited thread is cheap),
    /// and dropping the registered stream clone closes the last fd.
    fn finish_conn(&self, id: u64) {
        let mut registry = self.registry.lock().expect("registry");
        registry.streams.remove(&id);
        if let Some(handle) = registry.active.remove(&id) {
            registry.finished.push(handle);
        }
        LIVE_CONNECTIONS.set(registry.streams.len() as i64);
    }

    /// The full introspection snapshot served to `Stats` frames: the
    /// net front end's admission state wrapped around the server's
    /// sections (metrics, MVCC ring, slow log).
    fn stats_json(&self) -> String {
        let net = format!(
            "\"net\":{{\"connections\":{},\"max_connections\":{},\"total_accepted\":{},\"session_inflight\":{},\"draining\":{}}}",
            self.active_connections(),
            self.config.max_connections,
            self.total_accepted.load(Ordering::Relaxed),
            self.config.session_inflight,
            self.draining(),
        );
        format!(
            "{{\"schema\":{},{net},{}}}",
            crate::STATS_SCHEMA,
            self.server.stats_sections()
        )
    }
}

/// The TCP front end: owns the [`Server`] it fronts plus the accept
/// loop and per-connection threads.
pub struct NetServer {
    shared: Arc<NetShared>,
    accept: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Serve `server` on `listener`. The accept loop starts
    /// immediately; the bound address is [`NetServer::local_addr`]
    /// (bind to port 0 to let the OS pick).
    pub fn start(
        server: Server,
        listener: TcpListener,
        config: NetConfig,
    ) -> std::io::Result<NetServer> {
        let addr = listener.local_addr()?;
        let shared = Arc::new(NetShared {
            server,
            config,
            addr,
            draining: std::sync::atomic::AtomicBool::new(false),
            next_conn: AtomicU64::new(1),
            total_accepted: AtomicU64::new(0),
            registry: Mutex::new(ConnRegistry {
                streams: HashMap::new(),
                active: HashMap::new(),
                finished: Vec::new(),
            }),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("good-net-accept".into())
            .spawn(move || accept_loop(accept_shared, listener))?;
        Ok(NetServer {
            shared,
            accept: Some(accept),
        })
    }

    /// The address the listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The fronted [`Server`] (for in-process reads, test hooks like
    /// `pause_writer`, and mixed in-process/network workloads).
    pub fn server(&self) -> &Server {
        &self.shared.server
    }

    /// Live connection count (accepted, not yet torn down).
    pub fn active_connections(&self) -> usize {
        self.shared.active_connections()
    }

    /// Total connections ever admitted (shed connections excluded).
    pub fn total_accepted(&self) -> u64 {
        self.shared.total_accepted.load(Ordering::Relaxed)
    }

    /// The introspection snapshot `Stats` frames serve — net admission
    /// state plus the server's metrics/MVCC/slow-log sections — for
    /// in-process consumers (the CLI's drain summary, tests).
    pub fn stats_json(&self) -> String {
        self.shared.stats_json()
    }

    /// Begin graceful drain: stop accepting connections and refuse
    /// new submits with the typed shutdown error, while everything
    /// already accepted still commits and acks. Idempotent; call
    /// [`NetServer::shutdown`] to finish.
    pub fn begin_shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.server.begin_shutdown();
        // Wake the accept loop so it observes the flag; it drops the
        // wake connection on sight.
        let _ = TcpStream::connect_timeout(&self.shared.addr, Duration::from_secs(1));
    }

    /// Graceful shutdown: stop accepting, commit and ack every
    /// accepted submit, flush acks to their connections, close them,
    /// join every thread, and hand back the store — whose journal now
    /// holds exactly the acked prefix.
    pub fn shutdown(mut self) -> Result<Store, ServerError> {
        self.begin_shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Drain the writer: every accepted ticket gets its completion
        // posted before this returns, so ack pumps can flush.
        let store = self.shared.server.drain_shutdown()?;
        // Unblock connection readers parked in `read_frame`: a read
        // shutdown surfaces as EOF, the clean-close path. Ack pumps
        // flush their remaining (already-completed) tickets first —
        // the reader only drops the pump's channel after it returns.
        {
            let registry = self.shared.registry.lock().expect("registry");
            for stream in registry.streams.values() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        loop {
            let handle = {
                let mut registry = self.shared.registry.lock().expect("registry");
                if let Some(handle) = registry.finished.pop() {
                    Some(handle)
                } else if let Some(&id) = registry.active.keys().next() {
                    registry.active.remove(&id)
                } else {
                    None
                }
            };
            match handle {
                Some(handle) => {
                    let _ = handle.join();
                }
                None => break,
            }
        }
        Ok(store)
    }
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.shared.addr)
            .field("active", &self.active_connections())
            .field("draining", &self.shared.draining())
            .finish()
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.shared.draining.store(true, Ordering::SeqCst);
            self.shared.server.begin_shutdown();
            let _ = TcpStream::connect_timeout(&self.shared.addr, Duration::from_secs(1));
            if let Some(accept) = self.accept.take() {
                let _ = accept.join();
            }
            let registry = self.shared.registry.lock().expect("registry");
            for stream in registry.streams.values() {
                let _ = stream.shutdown(Shutdown::Both);
            }
            // Handler threads observe EOF and exit; the Server's own
            // Drop drains the writer. Handles are detached — their
            // threads hold only the shared Arc.
        }
    }
}

fn accept_loop(shared: Arc<NetShared>, listener: TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) if shared.draining() => return,
            Err(_) => continue,
        };
        let mut span = good_trace::span("net", "net/accept");
        if shared.draining() {
            // Either the begin_shutdown wake-up connection or a real
            // client racing the drain; both are turned away.
            let _ = shed(
                &stream,
                &shared.config,
                ErrCode::Shutdown,
                "server draining",
            );
            return;
        }
        let active = shared.active_connections();
        span.arg("active", active);
        if active >= shared.config.max_connections {
            LIVE_SHED.incr();
            span.arg("shed", true);
            let _ = shed(
                &stream,
                &shared.config,
                ErrCode::Overloaded,
                &format!("connection limit {} reached", shared.config.max_connections),
            );
            continue;
        }
        let id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        let Ok(registered) = stream.try_clone() else {
            continue;
        };
        let conn_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name(format!("good-net-conn-{id}"))
            // Handlers are shallow; small stacks keep 500+ concurrent
            // connections cheap on the soak test.
            .stack_size(256 * 1024)
            .spawn(move || handle_conn(conn_shared, id, stream));
        match handle {
            Ok(handle) => {
                let mut registry = shared.registry.lock().expect("registry");
                registry.streams.insert(id, registered);
                registry.active.insert(id, handle);
                shared.total_accepted.fetch_add(1, Ordering::Relaxed);
                LIVE_CONNECTIONS.set(registry.streams.len() as i64);
                LIVE_ACCEPTED.incr();
            }
            Err(_) => {
                // Spawn failure is load: shed like a full house (the
                // registered clone still points at the same socket).
                LIVE_SHED.incr();
                let _ = shed(
                    &registered,
                    &shared.config,
                    ErrCode::Overloaded,
                    "cannot spawn connection handler",
                );
            }
        }
    }
}

/// Refuse a connection before it gets a session: one typed `Err`, a
/// `Goodbye`, and the stream drops.
fn shed(
    stream: &TcpStream,
    config: &NetConfig,
    code: ErrCode,
    detail: &str,
) -> Result<(), ProtoError> {
    let mut writer = stream
        .try_clone()
        .map_err(|e| ProtoError::Io(e.to_string()))?;
    let _ = writer.set_write_timeout(Some(config.hello_timeout));
    write_frame(
        &mut writer,
        &Frame::Err {
            request: 0,
            code,
            retry_after_ms: if code.retryable() {
                config.retry_after_ms
            } else {
                0
            },
            detail: detail.into(),
        },
    )?;
    write_frame(
        &mut writer,
        &Frame::Goodbye {
            reason: "refused".into(),
        },
    )
}

/// A shared, timeout-guarded writer half. Two threads write frames
/// (reader replies and ack-pump acks); the mutex keeps frames whole.
#[derive(Clone)]
struct ConnWriter(Arc<Mutex<TcpStream>>);

impl ConnWriter {
    fn send(&self, frame: &Frame) -> Result<(), ProtoError> {
        let mut stream = self.0.lock().expect("conn writer");
        write_frame(&mut *stream, frame)
    }

    /// Write several pre-encoded frames in one syscall (the ack pump's
    /// micro-batching path).
    fn send_bytes(&self, bytes: &[u8]) -> Result<(), ProtoError> {
        let mut stream = self.0.lock().expect("conn writer");
        stream
            .write_all(bytes)
            .map_err(|e| ProtoError::Io(e.to_string()))
    }
}

fn server_error_frame(request: u64, err: &ServerError, config: &NetConfig) -> Frame {
    let (code, retry) = match err {
        ServerError::UnknownSession(_) => (ErrCode::UnknownSession, 0),
        ServerError::Shutdown => (ErrCode::Shutdown, 0),
        ServerError::QueueFull { .. } => (ErrCode::QueueFull, config.retry_after_ms),
        ServerError::Store(_) => (ErrCode::Store, 0),
    };
    Frame::Err {
        request,
        code,
        retry_after_ms: retry,
        detail: err.to_string(),
    }
}

fn handle_conn(shared: Arc<NetShared>, id: u64, stream: TcpStream) {
    let mut conn_span = good_trace::span("net", "net/conn");
    conn_span.arg("conn", id);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.hello_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.idle_timeout));
    let writer = match stream.try_clone() {
        Ok(clone) => ConnWriter(Arc::new(Mutex::new(clone))),
        Err(_) => {
            shared.finish_conn(id);
            return;
        }
    };
    let mut reader = BufReader::new(stream.try_clone().unwrap_or(stream));

    // ---- handshake: exactly one Hello, answered with the session id.
    match read_frame(&mut reader) {
        Ok(Some(Frame::Hello { .. })) => {}
        Ok(Some(other)) => {
            let _ = writer.send(&bad_request(
                0,
                format!("expected Hello, got {}", other.type_name()),
            ));
            let _ = writer.send(&Frame::Goodbye {
                reason: "handshake failed".into(),
            });
            shared.finish_conn(id);
            return;
        }
        Ok(None) => {
            shared.finish_conn(id);
            return;
        }
        Err(ProtoError::Version { got, want }) => {
            // Forward compatibility: a peer speaking another protocol
            // revision (e.g. a newer client) gets a clean typed reply
            // naming the revision this build wants — not a silent
            // connection drop.
            LIVE_VERSION_REJECT.incr();
            let _ = writer.send(&Frame::Err {
                request: 0,
                code: ErrCode::UnsupportedVersion,
                retry_after_ms: 0,
                detail: format!("peer speaks protocol version {got}, this server wants {want}"),
            });
            let _ = writer.send(&Frame::Goodbye {
                reason: "protocol version mismatch".into(),
            });
            shared.finish_conn(id);
            return;
        }
        Err(err) => {
            LIVE_BAD_FRAME.incr();
            let _ = writer.send(&bad_request(0, err.to_string()));
            let _ = writer.send(&Frame::Goodbye {
                reason: "handshake failed".into(),
            });
            shared.finish_conn(id);
            return;
        }
    }
    let session = shared.server.open_session();
    conn_span.arg("session", session);
    if writer.send(&Frame::Hello { session }).is_err() {
        let _ = shared.server.close_session(session);
        shared.finish_conn(id);
        return;
    }
    let _ = reader
        .get_ref()
        .set_read_timeout(Some(shared.config.idle_timeout));

    // ---- ack pump: redeems tickets in submission order.
    let inflight = Arc::new(AtomicUsize::new(0));
    let (ticket_tx, ticket_rx) = mpsc::channel::<(u64, Option<u64>, Ticket)>();
    let pump = {
        let server_shared = Arc::clone(&shared);
        let pump_writer = writer.clone();
        let pump_inflight = Arc::clone(&inflight);
        std::thread::Builder::new()
            .name(format!("good-net-ack-{id}"))
            .stack_size(256 * 1024)
            .spawn(move || {
                // Micro-batching: after redeeming one ticket, greedily
                // drain whatever else is already queued — group commit
                // completes whole batches at once, so those waits
                // return immediately — and flush every ack in one
                // write. An interactive client (empty channel) still
                // gets its ack flushed at once.
                let mut buffer = Vec::new();
                while let Ok(first) = ticket_rx.recv() {
                    buffer.clear();
                    let mut pair = Some(first);
                    let mut batched = 0usize;
                    while let Some((request, trace, ticket)) = pair {
                        let result = server_shared.server.wait(ticket);
                        pump_inflight.fetch_sub(1, Ordering::SeqCst);
                        LIVE_ACKS.incr();
                        // Mark the ack instant in the span capture —
                        // the tail of a wire-traced request's
                        // timeline.
                        {
                            let mut ack_span = good_trace::span("net", "net/ack");
                            ack_span.arg("request", request);
                            if let Some(trace_id) = trace {
                                ack_span.arg("trace", trace_id);
                            }
                        }
                        let frame = match result {
                            Ok(ack) => Frame::Ack {
                                request,
                                epoch: ack.epoch,
                                commit_seq: ack.commit_seq,
                                outcome: match ack.outcome {
                                    Ok(report) => Ok(format!(
                                        "{} matching(s), +{} nodes, +{} edges, \
                                         -{} nodes, -{} edges",
                                        report.matchings,
                                        report.created_nodes.len(),
                                        report.edges_added,
                                        report.nodes_deleted,
                                        report.edges_deleted
                                    )),
                                    Err(err) => Err(err.to_string()),
                                },
                            },
                            Err(err) => server_error_frame(request, &err, &server_shared.config),
                        };
                        buffer.extend_from_slice(&encode(&frame));
                        batched += 1;
                        pair = if batched < 64 {
                            ticket_rx.try_recv().ok()
                        } else {
                            None
                        };
                    }
                    LIVE_INFLIGHT.set(pump_inflight.load(Ordering::SeqCst) as i64);
                    // The client may already be gone; tickets must be
                    // redeemed regardless so completions don't leak.
                    let _ = pump_writer.send_bytes(&buffer);
                }
            })
            .expect("spawn ack pump")
    };

    // ---- main loop.
    let mut goodbye_reason: Option<String> = None;
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => break, // client closed (or drain unblocked us)
            Err(ProtoError::Timeout) => {
                goodbye_reason = Some("idle timeout".into());
                break;
            }
            Err(err) => {
                LIVE_BAD_FRAME.incr();
                let _ = writer.send(&bad_request(0, err.to_string()));
                // A payload that does not decode was still read whole, so
                // the session goes on; anything else lost the framing.
                if matches!(err, ProtoError::Malformed { .. }) {
                    continue;
                }
                goodbye_reason = Some("protocol error".into());
                break;
            }
        };
        let mut frame_span = good_trace::span("net", "net/frame");
        frame_span.arg("type", frame.type_name());
        match frame {
            Frame::Submit {
                request,
                program,
                trace,
            } => {
                LIVE_FRAMES_SUBMIT.incr();
                if let Some(trace_id) = trace {
                    frame_span.arg("trace", trace_id);
                }
                if inflight.load(Ordering::SeqCst) >= shared.config.session_inflight {
                    LIVE_QUOTA_REJECT.incr();
                    let _ = writer.send(&Frame::Err {
                        request,
                        code: ErrCode::QuotaExceeded,
                        retry_after_ms: shared.config.retry_after_ms,
                        detail: format!(
                            "session {session} already has {} submits in flight",
                            shared.config.session_inflight
                        ),
                    });
                    continue;
                }
                match shared.server.submit_traced(session, program, trace) {
                    Ok(ticket) => {
                        inflight.fetch_add(1, Ordering::SeqCst);
                        if ticket_tx.send((request, trace, ticket)).is_err() {
                            break; // pump died; tear down
                        }
                    }
                    Err(err) => {
                        let _ = writer.send(&server_error_frame(request, &err, &shared.config));
                    }
                }
            }
            Frame::Query {
                request,
                at,
                pattern,
                trace,
            } => {
                LIVE_FRAMES_QUERY.incr();
                if let Some(trace_id) = trace {
                    frame_span.arg("trace", trace_id);
                }
                let reply = run_query(&shared, session, request, at, &pattern, trace);
                if writer.send(&reply).is_err() {
                    break;
                }
            }
            Frame::Snapshot {
                request,
                at,
                want_dot,
                info: None,
            } => {
                LIVE_FRAMES_SNAPSHOT.incr();
                let reply = run_snapshot(&shared, request, at, want_dot);
                if writer.send(&reply).is_err() {
                    break;
                }
            }
            Frame::Stats { request } => {
                LIVE_FRAMES_STATS.incr();
                let started = Instant::now();
                let json = shared.stats_json();
                LIVE_STATS_NS.observe(started.elapsed().as_nanos() as u64);
                if writer.send(&Frame::StatsReply { request, json }).is_err() {
                    break;
                }
            }
            Frame::Goodbye { .. } => {
                goodbye_reason = Some("client said goodbye".into());
                break;
            }
            other => {
                LIVE_FRAMES_OTHER.incr();
                let _ = writer.send(&bad_request(
                    0,
                    format!("unexpected {} frame", other.type_name()),
                ));
            }
        }
    }

    // ---- teardown: flush in-flight acks, then say goodbye.
    drop(ticket_tx);
    let _ = pump.join();
    let reason = goodbye_reason.unwrap_or_else(|| "closing".into());
    let _ = writer.send(&Frame::Goodbye { reason });
    let _ = shared.server.close_session(session);
    shared.finish_conn(id);
}

/// A typed `Err{BadRequest}` refusal of `request` (0 when no request
/// is in scope).
fn bad_request(request: u64, detail: String) -> Frame {
    Frame::Err {
        request,
        code: ErrCode::BadRequest,
        retry_after_ms: 0,
        detail,
    }
}

/// Load the snapshot a request names: current when `at` is `None`,
/// else the retained MVCC version at exactly that epoch.
fn snapshot_for(shared: &NetShared, request: u64, at: Option<u64>) -> Result<Snapshot, Frame> {
    match at {
        None => Ok(shared.server.snapshot()),
        Some(epoch) => shared.server.snapshot_at(epoch).ok_or_else(|| {
            bad_request(
                request,
                format!("epoch {epoch} is not retained by the MVCC ring"),
            )
        }),
    }
}

/// Serve one `Query` frame: parse → compile → execute → size → `Rows`.
/// Text that does not parse or compile as GOODQL is refused with
/// `Err{BadRequest}` carrying the parser's caret render, and the
/// session goes on. A query past `slow_query_ns` lands in the slow log
/// with its stage timings and its profiled plan.
fn run_query(
    shared: &NetShared,
    session: u64,
    request: u64,
    at: Option<u64>,
    text: &str,
    trace: Option<u64>,
) -> Frame {
    let started = Instant::now();
    let snapshot = match snapshot_for(shared, request, at) {
        Ok(snapshot) => snapshot,
        Err(refusal) => return refusal,
    };
    let refuse =
        |err: good_query::QueryError| bad_request(request, format!("query: {}", err.render(text)));
    let query = match good_query::parse_query(text) {
        Ok(query) => query,
        Err(err) => return refuse(err),
    };
    let parsed = Instant::now();
    let compiled = match good_query::compile(&query, snapshot.instance().scheme()) {
        Ok(compiled) => compiled,
        Err(err) => return refuse(err),
    };
    let compiled_at = Instant::now();
    let rows =
        match good_query::execute_rows(snapshot.instance(), &compiled, good_query::Backend::Core) {
            Ok(rows) => rows,
            Err(err) => return refuse(err),
        };
    let executed = Instant::now();
    let total_ns = executed.duration_since(started).as_nanos() as u64;
    LIVE_QUERY_NS.observe(total_ns);
    let (slow_query_ns, _) = shared.server.slow_thresholds();
    if total_ns >= slow_query_ns {
        let since =
            |later: Instant, earlier: Instant| later.duration_since(earlier).as_nanos() as u64;
        // Already slow: re-running the plan profiled to capture
        // per-step estimated-vs-actual rows costs one more execution
        // of something that by definition happens rarely.
        let plan_json = good_query::profile(snapshot.instance(), &compiled)
            .ok()
            .map(|plan| plan.to_json());
        shared.server.slow_log().push(SlowEntry {
            seq: 0, // assigned by the log
            kind: SlowKind::Query,
            trace,
            session,
            total_ns,
            epoch: snapshot.epoch,
            detail: text.to_string(),
            plan_json,
            stages: vec![
                ("parse_ns", since(parsed, started)),
                ("compile_ns", since(compiled_at, parsed)),
                ("execute_ns", since(executed, compiled_at)),
                ("rows", rows.len() as u64),
            ],
        });
    }
    // Size the reply before allocating its strings: a frame past the
    // cap would be refused by `write_frame` after the work was done.
    let width = rows.columns().len();
    let payload = rows_payload_len(rows.columns(), rows.len(), width, rows.cell_bytes());
    if payload > MAX_PAYLOAD {
        return bad_request(
            request,
            format!(
                "reply of {payload} bytes exceeds the {} MiB frame cap; add LIMIT",
                MAX_PAYLOAD >> 20
            ),
        );
    }
    let output = rows.into_output();
    Frame::Rows {
        request,
        epoch: snapshot.epoch,
        columns: output.columns,
        rows: output.rows,
    }
}

fn run_snapshot(shared: &NetShared, request: u64, at: Option<u64>, want_dot: bool) -> Frame {
    let snapshot = match snapshot_for(shared, request, at) {
        Ok(snapshot) => snapshot,
        Err(refusal) => return refusal,
    };
    let instance = snapshot.instance();
    Frame::Snapshot {
        request,
        at,
        want_dot,
        info: Some(SnapshotInfo {
            epoch: snapshot.epoch,
            nodes: instance.node_count() as u64,
            edges: instance.edge_count() as u64,
            dot: want_dot.then(|| instance.to_dot("snapshot")),
        }),
    }
}

/// The version byte the handshake accepts — re-exported so client and
/// server cannot drift.
pub const PROTOCOL_VERSION: u8 = VERSION;
