//! A small blocking client for the wire protocol: the scripted driver
//! behind `good-db client`, the protocol test suites, and the E17
//! loopback bench.
//!
//! The client is single-threaded but **pipelines**: [`Client::submit`]
//! fires without waiting, [`Client::wait_ack`] redeems replies by
//! request id, buffering any out-of-order frames in between. For the
//! common case, [`Client::submit_wait`] does both, and
//! [`Client::submit_wait_retrying`] additionally honours the server's
//! typed backoff hints (`QueueFull`/`QuotaExceeded`/`Overloaded`).

use crate::proto::{read_frame, write_frame, ErrCode, Frame, ProtoError, SnapshotInfo};
use good_core::program::Program;
use std::collections::VecDeque;
use std::fmt;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// Stream-level I/O failure (connect, read, write).
    Io(
        /// The error, rendered.
        String,
    ),
    /// The peer broke the protocol (bad frame, unexpected type).
    Proto(
        /// What was wrong.
        String,
    ),
    /// The server refused a request with a typed error frame.
    Rejected {
        /// The typed refusal.
        code: ErrCode,
        /// Backoff hint for retryable codes, milliseconds.
        retry_after_ms: u32,
        /// Human-readable detail.
        detail: String,
    },
    /// The server said [`Frame::Goodbye`] and the stream is closing.
    ServerClosed(
        /// The server's stated reason.
        String,
    ),
    /// The stream ended without a `Goodbye`.
    Disconnected,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(detail) => write!(f, "i/o failure: {detail}"),
            ClientError::Proto(detail) => write!(f, "protocol violation: {detail}"),
            ClientError::Rejected {
                code,
                retry_after_ms,
                detail,
            } => write!(
                f,
                "rejected ({code}, retry after {retry_after_ms}ms): {detail}"
            ),
            ClientError::ServerClosed(reason) => write!(f, "server closed: {reason}"),
            ClientError::Disconnected => f.write_str("server disconnected"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(err: ProtoError) -> ClientError {
        match err {
            ProtoError::Io(detail) => ClientError::Io(detail),
            ProtoError::Timeout => ClientError::Io("read timed out".into()),
            other => ClientError::Proto(other.to_string()),
        }
    }
}

/// A query result: the epoch answered at, the RETURN column names,
/// and the canonically sorted rows of rendered cells.
pub type QueryRows = (u64, Vec<String>, Vec<Vec<String>>);

/// A redeemed acknowledgement, the client-side view of [`Frame::Ack`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireAck {
    /// The request id this ack answers.
    pub request: u64,
    /// Snapshot epoch published by the committing batch.
    pub epoch: u64,
    /// Global commit sequence number; `None` = model-rejected.
    pub commit_seq: Option<u64>,
    /// The server's report or the model's rejection.
    pub outcome: Result<String, String>,
}

/// One protocol connection: `Hello` handshake on connect, pipelined
/// submits, snapshot/query reads, `Goodbye` on close.
pub struct Client {
    reader: BufReader<TcpStream>,
    /// Buffered so pipelined submits coalesce into few syscalls; every
    /// blocking read flushes first (see [`Client::recv`]).
    writer: BufWriter<TcpStream>,
    session: u64,
    next_request: u64,
    /// Replies read while waiting for a different request id.
    pending: VecDeque<Frame>,
}

impl Client {
    /// Connect and shake hands. The server assigns the session id.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr).map_err(|e| ClientError::Io(e.to_string()))?;
        Client::from_stream(stream)
    }

    /// Handshake over an already-open stream (tests use this to craft
    /// sockets with specific timeouts).
    pub fn from_stream(stream: TcpStream) -> Result<Client, ClientError> {
        let _ = stream.set_nodelay(true);
        let writer = stream
            .try_clone()
            .map_err(|e| ClientError::Io(e.to_string()))?;
        let mut client = Client {
            reader: BufReader::new(stream),
            writer: BufWriter::new(writer),
            session: 0,
            next_request: 1,
            pending: VecDeque::new(),
        };
        client.send(&Frame::Hello { session: 0 })?;
        match client.recv()? {
            Frame::Hello { session } => {
                client.session = session;
                Ok(client)
            }
            Frame::Err {
                code,
                detail,
                retry_after_ms,
                ..
            } => Err(ClientError::Rejected {
                code,
                retry_after_ms,
                detail,
            }),
            other => Err(ClientError::Proto(format!(
                "expected Hello, got {}",
                other.type_name()
            ))),
        }
    }

    /// The server-assigned session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Set the read timeout for subsequent replies.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.reader
            .get_ref()
            .set_read_timeout(timeout)
            .map_err(|e| ClientError::Io(e.to_string()))
    }

    fn send(&mut self, frame: &Frame) -> Result<(), ClientError> {
        write_frame(&mut self.writer, frame).map_err(ClientError::from)
    }

    fn recv(&mut self) -> Result<Frame, ClientError> {
        // Anything still buffered must reach the server before we park
        // on its reply.
        self.writer
            .flush()
            .map_err(|e| ClientError::Io(e.to_string()))?;
        match read_frame(&mut self.reader) {
            Ok(Some(frame)) => Ok(frame),
            Ok(None) => Err(ClientError::Disconnected),
            Err(err) => Err(err.into()),
        }
    }

    fn frame_request(frame: &Frame) -> Option<u64> {
        match frame {
            Frame::Ack { request, .. }
            | Frame::Rows { request, .. }
            | Frame::Snapshot { request, .. }
            | Frame::StatsReply { request, .. }
            | Frame::Err { request, .. } => Some(*request),
            _ => None,
        }
    }

    /// The next reply for `request`, buffering unrelated frames.
    /// `Err` frames for the request become [`ClientError::Rejected`];
    /// connection-scoped `Err` frames (request 0) reject too.
    fn recv_matching(&mut self, request: u64) -> Result<Frame, ClientError> {
        if let Some(position) = self
            .pending
            .iter()
            .position(|f| Self::frame_request(f) == Some(request))
        {
            let frame = self.pending_remove(position);
            return self.settle(frame, request);
        }
        loop {
            let frame = self.recv()?;
            match &frame {
                Frame::Goodbye { reason } => return Err(ClientError::ServerClosed(reason.clone())),
                _ => {
                    let id = Self::frame_request(&frame);
                    if id == Some(request) || id == Some(0) {
                        return self.settle(frame, request);
                    }
                    self.pending.push_back(frame);
                }
            }
        }
    }

    fn pending_remove(&mut self, position: usize) -> Frame {
        self.pending.remove(position).expect("position valid")
    }

    fn settle(&mut self, frame: Frame, _request: u64) -> Result<Frame, ClientError> {
        if let Frame::Err {
            code,
            retry_after_ms,
            detail,
            ..
        } = frame
        {
            return Err(ClientError::Rejected {
                code,
                retry_after_ms,
                detail,
            });
        }
        Ok(frame)
    }

    /// Flush buffered submits to the server. Every blocking read
    /// flushes implicitly; call this only when pipelined submits must
    /// reach the server before any reply is awaited.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        self.writer
            .flush()
            .map_err(|e| ClientError::Io(e.to_string()))
    }

    /// Fire one submit without waiting; returns its request id. The
    /// frame is buffered — it reaches the server at the next blocking
    /// read ([`Client::wait_ack`] etc.) or explicit [`Client::flush`].
    pub fn submit(&mut self, program: &Program) -> Result<u64, ClientError> {
        self.submit_traced(program, None)
    }

    /// [`Client::submit`] with a trace id carried on the wire: the
    /// server propagates it through its commit pipeline spans so this
    /// request's timeline (queue-wait → batch → fsync → publish →
    /// ack) can be reconstructed from a capture. Pass the request id
    /// itself (or any client-chosen correlation value).
    pub fn submit_traced(
        &mut self,
        program: &Program,
        trace: Option<u64>,
    ) -> Result<u64, ClientError> {
        let request = self.next_request;
        self.next_request += 1;
        let bytes = crate::proto::encode_submit(request, program, trace);
        self.writer
            .write_all(&bytes)
            .map_err(|e| ClientError::Io(e.to_string()))?;
        Ok(request)
    }

    /// Redeem the ack for a pipelined submit.
    pub fn wait_ack(&mut self, request: u64) -> Result<WireAck, ClientError> {
        match self.recv_matching(request)? {
            Frame::Ack {
                request,
                epoch,
                commit_seq,
                outcome,
            } => Ok(WireAck {
                request,
                epoch,
                commit_seq,
                outcome,
            }),
            other => Err(ClientError::Proto(format!(
                "expected Ack, got {}",
                other.type_name()
            ))),
        }
    }

    /// Submit one program and wait for its ack.
    pub fn submit_wait(&mut self, program: &Program) -> Result<WireAck, ClientError> {
        let request = self.submit(program)?;
        self.wait_ack(request)
    }

    /// [`Client::submit_wait`], honouring the server's typed backoff:
    /// retryable refusals sleep `retry_after_ms` and resubmit, up to
    /// `max_retries` times. Non-retryable refusals surface at once.
    pub fn submit_wait_retrying(
        &mut self,
        program: &Program,
        max_retries: usize,
    ) -> Result<WireAck, ClientError> {
        let mut attempts = 0;
        loop {
            match self.submit_wait(program) {
                Err(ClientError::Rejected {
                    code,
                    retry_after_ms,
                    ..
                }) if code.retryable() && attempts < max_retries => {
                    attempts += 1;
                    std::thread::sleep(Duration::from_millis(retry_after_ms.max(1) as u64));
                }
                other => return other,
            }
        }
    }

    /// Run a GOODQL query against the current snapshot (`at = None`)
    /// or a retained MVCC epoch. Returns `(epoch, columns, rows)`.
    pub fn query(&mut self, query: &str, at: Option<u64>) -> Result<QueryRows, ClientError> {
        self.query_traced(query, at, None)
    }

    /// [`Client::query`] with a wire-carried trace id (see
    /// [`Client::submit_traced`]).
    pub fn query_traced(
        &mut self,
        query: &str,
        at: Option<u64>,
        trace: Option<u64>,
    ) -> Result<QueryRows, ClientError> {
        let request = self.next_request;
        self.next_request += 1;
        self.send(&Frame::Query {
            request,
            at,
            pattern: query.into(),
            trace,
        })?;
        match self.recv_matching(request)? {
            Frame::Rows {
                epoch,
                columns,
                rows,
                ..
            } => Ok((epoch, columns, rows)),
            other => Err(ClientError::Proto(format!(
                "expected Rows, got {}",
                other.type_name()
            ))),
        }
    }

    /// Describe a committed snapshot; `want_dot` asks for the full
    /// DOT render.
    pub fn snapshot(
        &mut self,
        at: Option<u64>,
        want_dot: bool,
    ) -> Result<SnapshotInfo, ClientError> {
        let request = self.next_request;
        self.next_request += 1;
        self.send(&Frame::Snapshot {
            request,
            at,
            want_dot,
            info: None,
        })?;
        match self.recv_matching(request)? {
            Frame::Snapshot {
                info: Some(info), ..
            } => Ok(info),
            other => Err(ClientError::Proto(format!(
                "expected Snapshot reply, got {}",
                other.type_name()
            ))),
        }
    }

    /// Fetch the server's live introspection snapshot (metrics, MVCC
    /// ring, admission state, slow-query ring) as a JSON string —
    /// the `Stats` frame round trip.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        let request = self.next_request;
        self.next_request += 1;
        self.send(&Frame::Stats { request })?;
        match self.recv_matching(request)? {
            Frame::StatsReply { json, .. } => Ok(json),
            other => Err(ClientError::Proto(format!(
                "expected StatsReply, got {}",
                other.type_name()
            ))),
        }
    }

    /// Close gracefully: send `Goodbye`, read until the server's
    /// `Goodbye` (or EOF), drop the stream.
    pub fn goodbye(mut self) -> Result<(), ClientError> {
        self.send(&Frame::Goodbye {
            reason: "done".into(),
        })?;
        self.writer
            .flush()
            .map_err(|e| ClientError::Io(e.to_string()))?;
        loop {
            match read_frame(&mut self.reader) {
                Ok(Some(Frame::Goodbye { .. })) | Ok(None) => return Ok(()),
                Ok(Some(_)) => continue, // late acks flushing out
                Err(_) => return Ok(()), // peer raced the close
            }
        }
    }
}

impl fmt::Debug for Client {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Client")
            .field("session", &self.session)
            .field("next_request", &self.next_request)
            .field("pending", &self.pending.len())
            .finish()
    }
}
