//! Clients: in-process (for tests and embedding) and TCP.
//!
//! Both speak the same typed [`Request`]/[`Response`] protocol through the
//! [`Transport`] trait, which also provides the convenience methods
//! (`open` / `fetch` / `close` / `query` / `stats` / `catalog`). The
//! in-process client skips serialisation entirely; the TCP client speaks
//! either wire protocol over a [`TcpStream`] — JSON lines by default, or
//! the length-prefixed binary protocol (see [`crate::wire`]) when built
//! with [`TcpClient::connect_binary`] or [`TcpClient::connect_with`].

use crate::protocol::{Request, Response, StatsReport};
use crate::server::RankedQueryServer;
use crate::wire::{self, WireProtocol};
use re_storage::Tuple;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport I/O failed.
    Io(std::io::Error),
    /// The peer sent something the protocol cannot decode.
    Protocol(String),
    /// The server answered with an error response.
    Server {
        /// Human-readable reason.
        message: String,
        /// Machine-readable classification (`"overloaded"`,
        /// `"deadline_exceeded"`, `"cancelled"`, `"fault"`; empty when
        /// unclassified).
        code: String,
        /// Back-off hint for `"overloaded"` errors, in milliseconds.
        retry_after_millis: Option<u64>,
    },
}

impl ClientError {
    /// Whether the server shed this request under load — worth a backed-
    /// off retry, unlike a malformed statement.
    pub fn is_overloaded(&self) -> bool {
        matches!(self, ClientError::Server { code, .. } if code == "overloaded")
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server { message, code, .. } => {
                if code.is_empty() {
                    write!(f, "server error: {message}")
                } else {
                    write!(f, "server error ({code}): {message}")
                }
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// An opened session, as seen by a client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpenedSession {
    /// The session id for `fetch`/`close`.
    pub session: u64,
    /// Output column names.
    pub columns: Vec<String>,
    /// Label of the selected enumeration strategy.
    pub algorithm: String,
    /// Whether the plan came from the server's plan cache.
    pub plan_cached: bool,
}

/// One page of answers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Page {
    /// The rows, in rank order.
    pub rows: Vec<Tuple>,
    /// Whether the enumeration is complete.
    pub exhausted: bool,
}

/// A one-shot query result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryOutcome {
    /// Output column names.
    pub columns: Vec<String>,
    /// All rows, in rank order.
    pub rows: Vec<Tuple>,
    /// Label of the selected enumeration strategy.
    pub algorithm: String,
    /// Whether the plan came from the server's plan cache.
    pub plan_cached: bool,
}

/// Anything that can carry a request to a ranked-query server. The
/// provided methods give every transport the same typed API.
pub trait Transport {
    /// Send one request, receive its response.
    fn request(&mut self, request: Request) -> Result<Response, ClientError>;

    /// Open a resumable cursor; returns the session descriptor.
    fn open(&mut self, db: &str, sql: &str) -> Result<OpenedSession, ClientError> {
        self.open_with_deadline(db, sql, None)
    }

    /// [`open`](Self::open) with a per-request deadline in milliseconds:
    /// the open (preprocessing included) and every later fetch on the
    /// session abort with a typed `deadline_exceeded` error once it
    /// passes.
    fn open_with_deadline(
        &mut self,
        db: &str,
        sql: &str,
        deadline_millis: Option<u64>,
    ) -> Result<OpenedSession, ClientError> {
        match self.request(Request::Open {
            db: db.to_string(),
            sql: sql.to_string(),
            deadline_millis,
        })? {
            Response::Opened {
                session,
                columns,
                algorithm,
                plan_cached,
            } => Ok(OpenedSession {
                session,
                columns,
                algorithm,
                plan_cached,
            }),
            other => Err(unexpected("opened", other)),
        }
    }

    /// Fetch the next page of up to `k` answers.
    fn fetch(&mut self, session: u64, k: u64) -> Result<Page, ClientError> {
        match self.request(Request::Fetch { session, k })? {
            Response::Page { rows, exhausted } => Ok(Page { rows, exhausted }),
            other => Err(unexpected("page", other)),
        }
    }

    /// Close a session; returns whether it still existed.
    fn close(&mut self, session: u64) -> Result<bool, ClientError> {
        match self.request(Request::Close { session })? {
            Response::Closed { existed } => Ok(existed),
            other => Err(unexpected("closed", other)),
        }
    }

    /// Cancel a session cooperatively; returns whether it existed. A
    /// cursor mid-fetch unwinds at its next morsel boundary; later
    /// fetches on the id report a typed `cancelled` error.
    fn cancel(&mut self, session: u64) -> Result<bool, ClientError> {
        match self.request(Request::Cancel { session })? {
            Response::Cancelled { existed } => Ok(existed),
            other => Err(unexpected("cancelled", other)),
        }
    }

    /// One-shot query (open + drain + close server-side).
    fn query(&mut self, db: &str, sql: &str) -> Result<QueryOutcome, ClientError> {
        match self.request(Request::Query {
            db: db.to_string(),
            sql: sql.to_string(),
        })? {
            Response::Result {
                columns,
                rows,
                algorithm,
                plan_cached,
            } => Ok(QueryOutcome {
                columns,
                rows,
                algorithm,
                plan_cached,
            }),
            other => Err(unexpected("result", other)),
        }
    }

    /// Render the statement's plan as a stable text tree
    /// (`analyze: false`), or execute it server-side and annotate the
    /// plan with the actual per-operator counters (`analyze: true`).
    /// An `EXPLAIN` / `EXPLAIN ANALYZE` prefix written in the SQL takes
    /// precedence over the flag.
    fn explain(&mut self, db: &str, sql: &str, analyze: bool) -> Result<String, ClientError> {
        match self.request(Request::Explain {
            db: db.to_string(),
            sql: sql.to_string(),
            analyze,
        })? {
            Response::Explained { text } => Ok(text),
            other => Err(unexpected("explained", other)),
        }
    }

    /// Server-wide metrics.
    fn stats(&mut self) -> Result<StatsReport, ClientError> {
        match self.request(Request::Stats)? {
            Response::Stats(report) => Ok(*report),
            other => Err(unexpected("stats", other)),
        }
    }

    /// Prometheus text-format exposition (counters, spans, latency
    /// histograms) — the scrapeable sibling of [`stats`](Self::stats).
    fn metrics(&mut self) -> Result<String, ClientError> {
        match self.request(Request::Metrics)? {
            Response::Metrics { body } => Ok(body),
            other => Err(unexpected("metrics", other)),
        }
    }

    /// The catalog listing.
    fn catalog(&mut self) -> Result<Vec<String>, ClientError> {
        match self.request(Request::Catalog)? {
            Response::Catalog { databases } => Ok(databases),
            other => Err(unexpected("catalog", other)),
        }
    }

    /// Liveness check.
    fn ping(&mut self) -> Result<(), ClientError> {
        match self.request(Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("pong", other)),
        }
    }
}

fn unexpected(wanted: &str, got: Response) -> ClientError {
    match got {
        Response::Error {
            message,
            code,
            retry_after_millis,
        } => ClientError::Server {
            message,
            code,
            retry_after_millis,
        },
        other => ClientError::Protocol(format!("expected a `{wanted}` response, got {other:?}")),
    }
}

/// In-process client: calls the server's dispatch directly, no
/// serialisation. Cheap to clone; each clone is an independent client.
#[derive(Clone)]
pub struct LocalClient {
    server: Arc<RankedQueryServer>,
}

impl LocalClient {
    /// A client for an in-process server.
    pub fn new(server: Arc<RankedQueryServer>) -> Self {
        LocalClient { server }
    }
}

impl Transport for LocalClient {
    fn request(&mut self, request: Request) -> Result<Response, ClientError> {
        Ok(self.server.handle(request))
    }
}

/// Reconnect policy for [`TcpClient::connect_with_retry`]: capped
/// exponential backoff with deterministic, seeded jitter (so tests replay
/// the exact same schedule).
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Connection attempts before giving up (at least 1).
    pub attempts: u32,
    /// Backoff before the second attempt; doubles every retry.
    pub base_delay: Duration,
    /// Ceiling on the backoff, applied before jitter.
    pub max_delay: Duration,
    /// Seed for the jitter sequence; the same seed replays the same
    /// delays.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 6,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_millis(500),
            seed: 0x5eed_c0de,
        }
    }
}

impl RetryPolicy {
    /// The backoff before attempt `attempt` (0-based; attempt 0 has no
    /// backoff): `min(base << (attempt-1), max)` plus up to 25% seeded
    /// jitter, so colliding reconnectors spread out deterministically.
    fn delay_before(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let base = self.base_delay.as_millis() as u64;
        let capped = base
            .saturating_mul(1u64 << (attempt - 1).min(20))
            .min(self.max_delay.as_millis() as u64);
        // splitmix64 of (seed, attempt): cheap, deterministic jitter.
        let mut z = self
            .seed
            .wrapping_add(u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let jitter = if capped == 0 { 0 } else { z % (capped / 4 + 1) };
        Duration::from_millis(capped + jitter)
    }
}

/// TCP client speaking one of the two wire protocols over one
/// connection: JSON lines (the readable default) or the length-prefixed
/// binary protocol (u64-exact, cheaper to parse — see [`crate::wire`]).
///
/// Every request goes out as *one* `write` syscall, and the socket runs
/// with `TCP_NODELAY`, so a request is one segment on the wire instead
/// of body/newline/flush dribble. [`TcpClient::pipeline`] batches
/// several requests into one write and reads their in-order responses —
/// the client side of the server's FETCH pipelining.
pub struct TcpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    protocol: WireProtocol,
    /// Binary connections announce themselves with the `"REB1"` magic,
    /// prepended to the first request's write (one syscall, one segment).
    magic_sent: bool,
}

impl TcpClient {
    /// Connect to a serving address speaking JSON lines, the default
    /// protocol; [`TcpClient::connect_binary`] and
    /// [`TcpClient::connect_with`] choose the other.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Self::connect_with(addr, WireProtocol::Json)
    }

    /// Connect speaking JSON lines ([`TcpClient::connect`], by its name).
    pub fn connect_json(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Self::connect_with(addr, WireProtocol::Json)
    }

    /// Connect speaking the binary protocol.
    pub fn connect_binary(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Self::connect_with(addr, WireProtocol::Binary)
    }

    /// Connect speaking `protocol`.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        protocol: WireProtocol,
    ) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone()?);
        Ok(TcpClient {
            reader,
            writer: stream,
            protocol,
            magic_sent: false,
        })
    }

    /// The wire protocol this connection speaks.
    pub fn protocol(&self) -> WireProtocol {
        self.protocol
    }

    /// Connect with retries under `policy` — the reconnect path after a
    /// dropped connection (the server keeps serving; the session table is
    /// shared across connections, so a re-OPEN or a fetch on a still-live
    /// session id works from the new connection), speaking `protocol`.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs + Clone,
        protocol: WireProtocol,
        policy: &RetryPolicy,
    ) -> Result<Self, ClientError> {
        let last = policy.attempts.max(1) - 1;
        let mut attempt = 0;
        loop {
            std::thread::sleep(policy.delay_before(attempt));
            match Self::connect_with(addr.clone(), protocol) {
                Ok(client) => return Ok(client),
                Err(e) if attempt == last => return Err(e),
                Err(_) => attempt += 1,
            }
        }
    }

    /// Send `requests` back-to-back in **one** write, then read their
    /// responses, which the server answers in request order. This is the
    /// client side of FETCH pipelining: one round trip (and one syscall
    /// each way, fitting segments permitting) covers the whole batch.
    /// Batches longer than the server's `max_pipeline` get the excess
    /// answered with typed `overloaded` errors — still in order, still
    /// one response per request.
    pub fn pipeline(&mut self, requests: &[Request]) -> Result<Vec<Response>, ClientError> {
        let mut buf = Vec::new();
        self.start_message(&mut buf);
        for request in requests {
            self.append_request(request, &mut buf);
        }
        self.writer.write_all(&buf)?;
        requests.iter().map(|_| self.read_response()).collect()
    }

    /// Begin an outbound buffer: the first binary write leads with the
    /// protocol magic.
    fn start_message(&mut self, buf: &mut Vec<u8>) {
        if self.protocol == WireProtocol::Binary && !self.magic_sent {
            buf.extend_from_slice(&wire::BINARY_MAGIC);
            self.magic_sent = true;
        }
    }

    fn append_request(&self, request: &Request, buf: &mut Vec<u8>) {
        match self.protocol {
            WireProtocol::Json => {
                buf.extend_from_slice(request.encode().as_bytes());
                buf.push(b'\n');
            }
            WireProtocol::Binary => wire::append_frame(buf, &wire::encode_request(request)),
        }
    }

    fn read_response(&mut self) -> Result<Response, ClientError> {
        match self.protocol {
            WireProtocol::Json => {
                let mut response_line = String::new();
                let n = self.reader.read_line(&mut response_line)?;
                if n == 0 {
                    return Err(ClientError::Protocol(
                        "server closed the connection".to_string(),
                    ));
                }
                Response::decode(response_line.trim()).map_err(ClientError::Protocol)
            }
            WireProtocol::Binary => {
                let mut len_bytes = [0u8; 4];
                self.reader.read_exact(&mut len_bytes).map_err(|e| {
                    if e.kind() == std::io::ErrorKind::UnexpectedEof {
                        ClientError::Protocol("server closed the connection".to_string())
                    } else {
                        ClientError::Io(e)
                    }
                })?;
                let len = u32::from_le_bytes(len_bytes) as usize;
                if len > wire::MAX_FRAME_LEN {
                    return Err(ClientError::Protocol(format!(
                        "response frame length {len} exceeds the {}-byte cap",
                        wire::MAX_FRAME_LEN
                    )));
                }
                let mut payload = vec![0u8; len];
                self.reader.read_exact(&mut payload)?;
                wire::decode_response(&payload).map_err(ClientError::Protocol)
            }
        }
    }
}

impl Transport for TcpClient {
    fn request(&mut self, request: Request) -> Result<Response, ClientError> {
        let mut buf = Vec::new();
        self.start_message(&mut buf);
        self.append_request(&request, &mut buf);
        self.writer.write_all(&buf)?;
        self.read_response()
    }
}
