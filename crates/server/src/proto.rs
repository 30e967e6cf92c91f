//! The GOOD wire protocol: a small length-prefixed binary framing for
//! the TCP front end (`net` module).
//!
//! # Frame grammar
//!
//! Every frame is a fixed 10-byte header followed by a typed payload:
//!
//! ```text
//! frame   := magic version type len payload
//! magic   := "GOOD"              (4 bytes)
//! version := 0x01                (1 byte, protocol revision)
//! type    := 0x01..=0x0a         (1 byte, see Frame)
//! len     := u32 LE              (payload byte count, <= MAX_PAYLOAD)
//! payload := `len` bytes, encoding depending on `type`
//! ```
//!
//! Payload fields are little-endian integers, `bool`s are a single
//! `0`/`1` byte (any other value is a decode error), strings are
//! `u32 LE` length + UTF-8 bytes, and `Option<T>` is a presence byte
//! followed by `T` when present. The one structured payload —
//! [`Submit`](Frame::Submit)'s [`Program`] — rides as JSON text inside
//! its string field: programs are deep recursive trees and the
//! engine's serde derives already define a canonical encoding for
//! them (the same one `save`/`load` use).
//!
//! [`Submit`](Frame::Submit) and [`Query`](Frame::Query) end with an
//! **optional trailing trace id**: a frame may simply stop after its
//! last mandatory field (the pre-observability encoding, still
//! produced by old clients and still decoded), or append a `1`
//! presence byte + `u64 LE` client-assigned trace id. The id rides
//! the request through the commit pipeline (net reader → queue →
//! writer batch → fsync → publish → ack) so per-request timelines can
//! be reconstructed from spans — see DESIGN.md "Observability". A `0`
//! presence byte is rejected: every value has exactly one encoding,
//! which keeps the corpus round-trip byte-identical.
//!
//! # Robustness contract
//!
//! [`decode`] is total: for **any** byte slice it either yields a
//! frame or a typed [`ProtoError`] — never a panic, and never an
//! allocation proportional to an attacker-controlled length field
//! (counts are validated against the actually-received byte budget
//! before any `Vec` is sized). The codec torture suite
//! (`crates/server/tests/proto.rs`) round-trips every frame type and
//! feeds truncations at every byte boundary, single-bit flips, and
//! oversized length fields through it; the checked-in regression
//! corpus under `crates/server/tests/corpus/` pins known-tricky
//! inputs.

use good_core::program::Program;
use std::fmt;
use std::io::{Read, Write};

/// Every frame starts with these four bytes.
pub const MAGIC: [u8; 4] = *b"GOOD";

/// The protocol revision this build speaks. A server refuses frames
/// from any other revision with [`ProtoError::Version`], and answers a
/// newer-version `Hello` with a typed [`ErrCode::UnsupportedVersion`]
/// reply (carrying the version it wants) before closing — a newer
/// client learns what to downgrade to instead of seeing a bare drop.
pub const VERSION: u8 = 1;

/// Fixed header size: magic (4) + version (1) + type (1) + len (4).
pub const HEADER_LEN: usize = 10;

/// Hard ceiling on a frame's payload size. Larger length fields are
/// rejected before any buffer is allocated ([`ProtoError::Oversized`]),
/// which bounds the memory a hostile peer can pin per connection.
pub const MAX_PAYLOAD: usize = 4 << 20; // 4 MiB

/// Typed error codes carried by [`Frame::Err`]. The split matters to
/// clients: [`retryable`](ErrCode::retryable) codes are load-shedding
/// (back off `retry_after_ms` and resubmit), the rest are final.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// Malformed or unexpected frame, a query that does not parse or
    /// compile, or an epoch the MVCC ring no longer retains.
    BadRequest,
    /// The session id is not open on this server.
    UnknownSession,
    /// The server is draining or has shut down; no new work.
    Shutdown,
    /// The writer's submission queue is at capacity (backpressure).
    QueueFull,
    /// This session already has its quota of in-flight submissions.
    QuotaExceeded,
    /// Admission control refused the connection (too many clients).
    Overloaded,
    /// Journal I/O failed; the server refuses further writes.
    Store,
    /// The peer speaks a protocol revision this build does not. The
    /// detail string names the wanted revision; the peer should
    /// downgrade or give up, not retry.
    UnsupportedVersion,
}

impl ErrCode {
    /// Whether a client should back off and retry the same request.
    pub fn retryable(self) -> bool {
        matches!(
            self,
            ErrCode::QueueFull | ErrCode::QuotaExceeded | ErrCode::Overloaded
        )
    }

    fn to_byte(self) -> u8 {
        match self {
            ErrCode::BadRequest => 0,
            ErrCode::UnknownSession => 1,
            ErrCode::Shutdown => 2,
            ErrCode::QueueFull => 3,
            ErrCode::QuotaExceeded => 4,
            ErrCode::Overloaded => 5,
            ErrCode::Store => 6,
            ErrCode::UnsupportedVersion => 7,
        }
    }

    fn from_byte(byte: u8) -> Option<ErrCode> {
        Some(match byte {
            0 => ErrCode::BadRequest,
            1 => ErrCode::UnknownSession,
            2 => ErrCode::Shutdown,
            3 => ErrCode::QueueFull,
            4 => ErrCode::QuotaExceeded,
            5 => ErrCode::Overloaded,
            6 => ErrCode::Store,
            7 => ErrCode::UnsupportedVersion,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrCode::BadRequest => "bad-request",
            ErrCode::UnknownSession => "unknown-session",
            ErrCode::Shutdown => "shutdown",
            ErrCode::QueueFull => "queue-full",
            ErrCode::QuotaExceeded => "quota-exceeded",
            ErrCode::Overloaded => "overloaded",
            ErrCode::Store => "store",
            ErrCode::UnsupportedVersion => "unsupported-version",
        };
        f.write_str(name)
    }
}

/// The server's answer to a [`Frame::Snapshot`] request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// The epoch the description was taken at.
    pub epoch: u64,
    /// Node count of the instance at that epoch.
    pub nodes: u64,
    /// Edge count of the instance at that epoch.
    pub edges: u64,
    /// The full DOT render, when the request set `want_dot`.
    pub dot: Option<String>,
}

/// One protocol frame. The same type is used on both directions of
/// the stream; the state machine (DESIGN.md "Network front end")
/// defines which frames are legal when.
#[derive(Debug, Clone)]
pub enum Frame {
    /// Connection opener. The client sends `session = 0`; the server
    /// replies with the assigned session id.
    Hello {
        /// 0 from a client; the assigned session id from the server.
        session: u64,
    },
    /// Submit one program for commit. Acked (or refused) under the
    /// same client-chosen `request` id, which lets acks interleave
    /// with [`Frame::Rows`]/[`Frame::Snapshot`] replies on a
    /// pipelined connection.
    Submit {
        /// Client-chosen correlation id, echoed in the reply.
        request: u64,
        /// The program to commit.
        program: Program,
        /// Optional client-assigned trace id, propagated through the
        /// commit pipeline for per-request timeline reconstruction.
        /// Encoded as a trailing field; old frames without it decode
        /// as `None`.
        trace: Option<u64>,
    },
    /// The writer's acknowledgement of a [`Frame::Submit`].
    Ack {
        /// The correlation id of the submit being acked.
        request: u64,
        /// Snapshot epoch published by the batch that carried it.
        epoch: u64,
        /// Global commit sequence number; `None` when the model
        /// rejected the program (it is not part of the history).
        commit_seq: Option<u64>,
        /// `Ok`: a short report. `Err`: the model's rejection.
        outcome: Result<String, String>,
    },
    /// Request (client, `info == None`) or describe (server reply,
    /// `info == Some`) a committed snapshot.
    Snapshot {
        /// Client-chosen correlation id, echoed in the reply.
        request: u64,
        /// Time-travel epoch; `None` means the current snapshot.
        at: Option<u64>,
        /// Ask for the full DOT render (can be large).
        want_dot: bool,
        /// Empty in requests; the description in replies.
        info: Option<SnapshotInfo>,
    },
    /// Run a read-only GOODQL query against a committed snapshot.
    Query {
        /// Client-chosen correlation id, echoed in the reply.
        request: u64,
        /// Time-travel epoch; `None` means the current snapshot.
        at: Option<u64>,
        /// GOODQL text: `MATCH … RETURN …`. Anything else is refused
        /// with `Err{BadRequest}` carrying the parser's caret render.
        pattern: String,
        /// Optional client-assigned trace id (trailing field, like
        /// [`Frame::Submit`]'s).
        trace: Option<u64>,
    },
    /// The server's answer to a [`Frame::Query`].
    Rows {
        /// The correlation id of the query being answered.
        request: u64,
        /// The epoch the query ran at.
        epoch: u64,
        /// Column names: the query's RETURN variables, in RETURN order.
        columns: Vec<String>,
        /// The canonically sorted rows; cells align with `columns`.
        rows: Vec<Vec<String>>,
    },
    /// A typed refusal of one request (or of the connection when
    /// `request == 0` and no request is in scope, e.g. admission
    /// shedding and framing errors).
    Err {
        /// The correlation id of the refused request, or 0.
        request: u64,
        /// What went wrong, typed.
        code: ErrCode,
        /// For [`retryable`](ErrCode::retryable) codes: how long the
        /// client should back off before retrying, in milliseconds.
        retry_after_ms: u32,
        /// Human-readable detail.
        detail: String,
    },
    /// Graceful close, either direction. The side that receives it
    /// may flush replies and must then close the stream.
    Goodbye {
        /// Why the stream is closing.
        reason: String,
    },
    /// Ask the server for its live introspection snapshot: metrics,
    /// MVCC ring state, admission control, and the slow-query ring.
    /// Served by the connection's reader thread off the commit path.
    Stats {
        /// Client-chosen correlation id, echoed in the reply.
        request: u64,
    },
    /// The server's answer to a [`Frame::Stats`] request.
    StatsReply {
        /// The correlation id of the stats request being answered.
        request: u64,
        /// The introspection snapshot as a JSON object — see
        /// DESIGN.md "Observability" for the schema.
        json: String,
    },
}

impl Frame {
    /// The frame's type tag (the header byte).
    pub fn type_byte(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 1,
            Frame::Submit { .. } => 2,
            Frame::Ack { .. } => 3,
            Frame::Snapshot { .. } => 4,
            Frame::Query { .. } => 5,
            Frame::Rows { .. } => 6,
            Frame::Err { .. } => 7,
            Frame::Goodbye { .. } => 8,
            Frame::Stats { .. } => 9,
            Frame::StatsReply { .. } => 10,
        }
    }

    /// The frame type's name, for diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "Hello",
            Frame::Submit { .. } => "Submit",
            Frame::Ack { .. } => "Ack",
            Frame::Snapshot { .. } => "Snapshot",
            Frame::Query { .. } => "Query",
            Frame::Rows { .. } => "Rows",
            Frame::Err { .. } => "Err",
            Frame::Goodbye { .. } => "Goodbye",
            Frame::Stats { .. } => "Stats",
            Frame::StatsReply { .. } => "StatsReply",
        }
    }
}

/// Everything that can go wrong decoding (or stream-reading) frames.
/// The decoder's contract is that hostile bytes always land in one of
/// these variants — never a panic or unbounded allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The buffer ends before the frame does. `needed` is the total
    /// byte count the frame requires, `have` what was available.
    Truncated {
        /// Bytes the complete header + payload would occupy.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The first four bytes are not [`MAGIC`].
    BadMagic(
        /// The bytes found instead.
        [u8; 4],
    ),
    /// The version byte is not the revision this build speaks. Carries
    /// both sides of the mismatch so the refusal can tell the peer
    /// which revision to downgrade to (forward compatibility: a
    /// newer-version `Hello` gets a typed reply, not a silent drop).
    Version {
        /// The version the peer sent.
        got: u8,
        /// The version this build speaks ([`VERSION`]).
        want: u8,
    },
    /// The type byte names no known frame.
    UnknownFrame(
        /// The type byte found.
        u8,
    ),
    /// The length field exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The length the header claimed.
        len: u64,
        /// The ceiling it violated.
        max: u64,
    },
    /// The payload bytes do not decode as the claimed frame type
    /// (bad bool/code byte, invalid UTF-8, JSON parse failure,
    /// trailing bytes, counts exceeding the byte budget, …).
    Malformed {
        /// Which frame type was being decoded.
        frame: &'static str,
        /// What went wrong.
        detail: String,
    },
    /// A stream read timed out (connection-level idle/hello timeout).
    Timeout,
    /// A stream-level I/O failure.
    Io(
        /// The I/O error, rendered.
        String,
    ),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated { needed, have } => {
                write!(f, "truncated frame: need {needed} bytes, have {have}")
            }
            ProtoError::BadMagic(found) => write!(f, "bad magic {found:02x?}"),
            ProtoError::Version { got, want } => {
                write!(f, "unsupported protocol version {got} (want {want})")
            }
            ProtoError::UnknownFrame(found) => write!(f, "unknown frame type {found:#04x}"),
            ProtoError::Oversized { len, max } => {
                write!(f, "payload length {len} exceeds maximum {max}")
            }
            ProtoError::Malformed { frame, detail } => {
                write!(f, "malformed {frame} payload: {detail}")
            }
            ProtoError::Timeout => f.write_str("read timed out"),
            ProtoError::Io(detail) => write!(f, "i/o failure: {detail}"),
        }
    }
}

impl std::error::Error for ProtoError {}

// ---------------------------------------------------------------- encode

fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, value: bool) {
    out.push(value as u8);
}

fn put_str(out: &mut Vec<u8>, value: &str) {
    put_u32(out, value.len() as u32);
    out.extend_from_slice(value.as_bytes());
}

fn put_opt_u64(out: &mut Vec<u8>, value: Option<u64>) {
    match value {
        Some(v) => {
            out.push(1);
            put_u64(out, v);
        }
        None => out.push(0),
    }
}

/// Trailing optional trace id: `None` is encoded as *no bytes at all*
/// (the pre-observability frame layout), `Some` as a `1` byte + u64.
/// This keeps every old frame byte-identical under re-encode.
fn put_trace(out: &mut Vec<u8>, trace: Option<u64>) {
    if let Some(id) = trace {
        out.push(1);
        put_u64(out, id);
    }
}

fn encode_payload(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    match frame {
        Frame::Hello { session } => put_u64(&mut out, *session),
        Frame::Submit {
            request,
            program,
            trace,
        } => return submit_payload(*request, program, *trace),
        Frame::Ack {
            request,
            epoch,
            commit_seq,
            outcome,
        } => {
            put_u64(&mut out, *request);
            put_u64(&mut out, *epoch);
            put_opt_u64(&mut out, *commit_seq);
            match outcome {
                Ok(report) => {
                    out.push(1);
                    put_str(&mut out, report);
                }
                Err(reason) => {
                    out.push(0);
                    put_str(&mut out, reason);
                }
            }
        }
        Frame::Snapshot {
            request,
            at,
            want_dot,
            info,
        } => {
            put_u64(&mut out, *request);
            put_opt_u64(&mut out, *at);
            put_bool(&mut out, *want_dot);
            match info {
                None => out.push(0),
                Some(info) => {
                    out.push(1);
                    put_u64(&mut out, info.epoch);
                    put_u64(&mut out, info.nodes);
                    put_u64(&mut out, info.edges);
                    match &info.dot {
                        None => out.push(0),
                        Some(dot) => {
                            out.push(1);
                            put_str(&mut out, dot);
                        }
                    }
                }
            }
        }
        Frame::Query {
            request,
            at,
            pattern,
            trace,
        } => {
            put_u64(&mut out, *request);
            put_opt_u64(&mut out, *at);
            put_str(&mut out, pattern);
            put_trace(&mut out, *trace);
        }
        Frame::Rows {
            request,
            epoch,
            columns,
            rows,
        } => {
            put_u64(&mut out, *request);
            put_u64(&mut out, *epoch);
            put_u32(&mut out, columns.len() as u32);
            for column in columns {
                put_str(&mut out, column);
            }
            put_u32(&mut out, rows.len() as u32);
            for row in rows {
                put_u32(&mut out, row.len() as u32);
                for cell in row {
                    put_str(&mut out, cell);
                }
            }
        }
        Frame::Err {
            request,
            code,
            retry_after_ms,
            detail,
        } => {
            put_u64(&mut out, *request);
            out.push(code.to_byte());
            put_u32(&mut out, *retry_after_ms);
            put_str(&mut out, detail);
        }
        Frame::Goodbye { reason } => put_str(&mut out, reason),
        Frame::Stats { request } => put_u64(&mut out, *request),
        Frame::StatsReply { request, json } => {
            put_u64(&mut out, *request);
            put_str(&mut out, json);
        }
    }
    out
}

/// The payload length [`encode`] gives a [`Frame::Rows`] of `rows` rows
/// of `width` cells holding `cell_bytes` bytes of text in all — what a
/// server checks against [`MAX_PAYLOAD`] before building the rows.
pub fn rows_payload_len(columns: &[String], rows: usize, width: usize, cell_bytes: usize) -> usize {
    let names: usize = columns.iter().map(|column| 4 + column.len()).sum();
    8 + 8 + 4 + names + 4 + rows * (4 + 4 * width) + cell_bytes
}

/// Encode one frame: header + payload, ready for the wire.
pub fn encode(frame: &Frame) -> Vec<u8> {
    frame_bytes(frame.type_byte(), encode_payload(frame))
}

/// Encode a `Submit` from a borrowed [`Program`] — the pipelined
/// client's hot path, sparing the deep clone that building a
/// [`Frame::Submit`] would take.
pub fn encode_submit(request: u64, program: &Program, trace: Option<u64>) -> Vec<u8> {
    frame_bytes(2, submit_payload(request, program, trace))
}

fn submit_payload(request: u64, program: &Program, trace: Option<u64>) -> Vec<u8> {
    let json = serde_json::to_string(program)
        .expect("programs always serialize: their serde encoding is total");
    let mut payload = Vec::with_capacity(json.len() + 32);
    put_u64(&mut payload, request);
    put_str(&mut payload, &json);
    put_trace(&mut payload, trace);
    payload
}

fn frame_bytes(type_byte: u8, payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(type_byte);
    put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(&payload);
    out
}

// ---------------------------------------------------------------- decode

/// A bounds-checked reader over one payload slice. Every getter
/// returns [`ProtoError`] instead of panicking, and collection counts
/// are validated against the remaining byte budget before any `Vec`
/// is allocated.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    frame: &'static str,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8], frame: &'static str) -> Cursor<'a> {
        Cursor { buf, pos: 0, frame }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn fail(&self, detail: impl Into<String>) -> ProtoError {
        ProtoError::Malformed {
            frame: self.frame,
            detail: detail.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.remaining() < n {
            return Err(self.fail(format!(
                "payload ends early: need {n} more bytes, have {}",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    fn boolean(&mut self) -> Result<bool, ProtoError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(self.fail(format!("bad bool byte {other:#04x}"))),
        }
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, ProtoError> {
        if self.boolean()? {
            Ok(Some(self.u64()?))
        } else {
            Ok(None)
        }
    }

    /// The trailing optional trace id: payload exhausted means `None`
    /// (old-layout frame); otherwise a mandatory `1` presence byte +
    /// u64. A `0` presence byte is rejected so each value has exactly
    /// one encoding (see `put_trace`).
    fn trailing_trace(&mut self) -> Result<Option<u64>, ProtoError> {
        if self.remaining() == 0 {
            return Ok(None);
        }
        match self.u8()? {
            1 => Ok(Some(self.u64()?)),
            other => Err(self.fail(format!("bad trailing trace presence byte {other:#04x}"))),
        }
    }

    fn string(&mut self) -> Result<String, ProtoError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.fail("string is not valid UTF-8"))
    }

    /// A collection count, sanity-bounded: each element occupies at
    /// least `min_element_bytes` on the wire, so a count that cannot
    /// fit in the remaining payload is rejected before allocation.
    fn count(&mut self, what: &str, min_element_bytes: usize) -> Result<usize, ProtoError> {
        let count = self.u32()? as usize;
        let budget = self.remaining() / min_element_bytes.max(1);
        if count > budget {
            return Err(self.fail(format!(
                "{what} count {count} exceeds what {} remaining bytes can hold",
                self.remaining()
            )));
        }
        Ok(count)
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.remaining() != 0 {
            return Err(self.fail(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

fn decode_payload(type_byte: u8, payload: &[u8]) -> Result<Frame, ProtoError> {
    let frame_name = match type_byte {
        1 => "Hello",
        2 => "Submit",
        3 => "Ack",
        4 => "Snapshot",
        5 => "Query",
        6 => "Rows",
        7 => "Err",
        8 => "Goodbye",
        9 => "Stats",
        10 => "StatsReply",
        other => return Err(ProtoError::UnknownFrame(other)),
    };
    let mut cur = Cursor::new(payload, frame_name);
    let frame = match type_byte {
        1 => Frame::Hello {
            session: cur.u64()?,
        },
        2 => {
            let request = cur.u64()?;
            let json = cur.string()?;
            let program: Program = serde_json::from_str(&json)
                .map_err(|err| cur.fail(format!("program JSON: {err}")))?;
            let trace = cur.trailing_trace()?;
            Frame::Submit {
                request,
                program,
                trace,
            }
        }
        3 => {
            let request = cur.u64()?;
            let epoch = cur.u64()?;
            let commit_seq = cur.opt_u64()?;
            let ok = cur.boolean()?;
            let text = cur.string()?;
            Frame::Ack {
                request,
                epoch,
                commit_seq,
                outcome: if ok { Ok(text) } else { Err(text) },
            }
        }
        4 => {
            let request = cur.u64()?;
            let at = cur.opt_u64()?;
            let want_dot = cur.boolean()?;
            let info = if cur.boolean()? {
                let epoch = cur.u64()?;
                let nodes = cur.u64()?;
                let edges = cur.u64()?;
                let dot = if cur.boolean()? {
                    Some(cur.string()?)
                } else {
                    None
                };
                Some(SnapshotInfo {
                    epoch,
                    nodes,
                    edges,
                    dot,
                })
            } else {
                None
            };
            Frame::Snapshot {
                request,
                at,
                want_dot,
                info,
            }
        }
        5 => Frame::Query {
            request: cur.u64()?,
            at: cur.opt_u64()?,
            pattern: cur.string()?,
            trace: cur.trailing_trace()?,
        },
        6 => {
            let request = cur.u64()?;
            let epoch = cur.u64()?;
            let column_count = cur.count("column", 4)?;
            let mut columns = Vec::with_capacity(column_count);
            for _ in 0..column_count {
                columns.push(cur.string()?);
            }
            let row_count = cur.count("row", 4)?;
            let mut rows = Vec::with_capacity(row_count);
            for _ in 0..row_count {
                let cell_count = cur.count("cell", 4)?;
                let mut row = Vec::with_capacity(cell_count);
                for _ in 0..cell_count {
                    row.push(cur.string()?);
                }
                rows.push(row);
            }
            Frame::Rows {
                request,
                epoch,
                columns,
                rows,
            }
        }
        7 => {
            let request = cur.u64()?;
            let code_byte = cur.u8()?;
            let code = ErrCode::from_byte(code_byte)
                .ok_or_else(|| cur.fail(format!("bad error code {code_byte:#04x}")))?;
            Frame::Err {
                request,
                code,
                retry_after_ms: cur.u32()?,
                detail: cur.string()?,
            }
        }
        8 => Frame::Goodbye {
            reason: cur.string()?,
        },
        9 => Frame::Stats {
            request: cur.u64()?,
        },
        10 => Frame::StatsReply {
            request: cur.u64()?,
            json: cur.string()?,
        },
        _ => unreachable!("type byte validated above"),
    };
    cur.finish()?;
    Ok(frame)
}

/// Validate a header slice (`HEADER_LEN` bytes): returns
/// `(type_byte, payload_len)`.
fn decode_header(header: &[u8]) -> Result<(u8, usize), ProtoError> {
    let magic: [u8; 4] = header[0..4].try_into().expect("4 bytes");
    if magic != MAGIC {
        return Err(ProtoError::BadMagic(magic));
    }
    if header[4] != VERSION {
        return Err(ProtoError::Version {
            got: header[4],
            want: VERSION,
        });
    }
    let type_byte = header[5];
    if !(1..=10).contains(&type_byte) {
        return Err(ProtoError::UnknownFrame(type_byte));
    }
    let len = u32::from_le_bytes(header[6..10].try_into().expect("4 bytes")) as usize;
    if len > MAX_PAYLOAD {
        return Err(ProtoError::Oversized {
            len: len as u64,
            max: MAX_PAYLOAD as u64,
        });
    }
    Ok((type_byte, len))
}

/// Decode one frame from the front of `buf`. Returns the frame and
/// the number of bytes it occupied (callers with batched buffers can
/// continue from there). Total: any input yields a frame or a typed
/// error.
pub fn decode(buf: &[u8]) -> Result<(Frame, usize), ProtoError> {
    if buf.len() < HEADER_LEN {
        return Err(ProtoError::Truncated {
            needed: HEADER_LEN,
            have: buf.len(),
        });
    }
    let (type_byte, len) = decode_header(&buf[..HEADER_LEN])?;
    let total = HEADER_LEN + len;
    if buf.len() < total {
        return Err(ProtoError::Truncated {
            needed: total,
            have: buf.len(),
        });
    }
    let frame = decode_payload(type_byte, &buf[HEADER_LEN..total])?;
    Ok((frame, total))
}

fn map_io(err: std::io::Error) -> ProtoError {
    match err.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ProtoError::Timeout,
        _ => ProtoError::Io(err.to_string()),
    }
}

/// Write one frame to a stream. Refuses (rather than emits) frames
/// whose payload exceeds [`MAX_PAYLOAD`] — the peer would reject them
/// anyway, so the caller gets the error on its own side of the wire.
pub fn write_frame<W: Write>(writer: &mut W, frame: &Frame) -> Result<(), ProtoError> {
    let bytes = encode(frame);
    if bytes.len() - HEADER_LEN > MAX_PAYLOAD {
        return Err(ProtoError::Oversized {
            len: (bytes.len() - HEADER_LEN) as u64,
            max: MAX_PAYLOAD as u64,
        });
    }
    writer.write_all(&bytes).map_err(map_io)?;
    writer.flush().map_err(map_io)
}

/// Read one frame from a stream. `Ok(None)` is a clean close (EOF at
/// a frame boundary); EOF mid-frame is [`ProtoError::Truncated`], a
/// socket timeout is [`ProtoError::Timeout`].
pub fn read_frame<R: Read>(reader: &mut R) -> Result<Option<Frame>, ProtoError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < HEADER_LEN {
        match reader.read(&mut header[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(ProtoError::Truncated {
                    needed: HEADER_LEN,
                    have: filled,
                });
            }
            Ok(n) => filled += n,
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
            Err(err) => return Err(map_io(err)),
        }
    }
    let (type_byte, len) = decode_header(&header)?;
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match reader.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(ProtoError::Truncated {
                    needed: HEADER_LEN + len,
                    have: HEADER_LEN + filled,
                })
            }
            Ok(n) => filled += n,
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
            Err(err) => return Err(map_io(err)),
        }
    }
    decode_payload(type_byte, &payload).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_is_ten_bytes() {
        let bytes = encode(&Frame::Goodbye { reason: "x".into() });
        assert_eq!(&bytes[0..4], b"GOOD");
        assert_eq!(bytes[4], VERSION);
        assert_eq!(bytes[5], 8);
        assert_eq!(bytes.len(), HEADER_LEN + 4 + 1);
    }

    #[test]
    fn decode_reports_consumed_length_with_trailing_bytes() {
        let mut bytes = encode(&Frame::Hello { session: 7 });
        let len = bytes.len();
        bytes.extend_from_slice(b"junk");
        let (frame, consumed) = decode(&bytes).expect("leading frame decodes");
        assert_eq!(consumed, len);
        assert!(matches!(frame, Frame::Hello { session: 7 }));
    }

    #[test]
    fn rows_count_cannot_oversize_allocation() {
        // Claim u32::MAX rows with an empty remainder: must be a typed
        // Malformed error, not an allocation attempt.
        let mut payload = Vec::new();
        put_u64(&mut payload, 1); // request
        put_u64(&mut payload, 1); // epoch
        put_u32(&mut payload, 0); // no columns
        put_u32(&mut payload, u32::MAX); // absurd row count
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(6);
        put_u32(&mut bytes, payload.len() as u32);
        bytes.extend_from_slice(&payload);
        match decode(&bytes) {
            Err(ProtoError::Malformed { frame: "Rows", .. }) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
    }
}
