//! The event-driven TCP front-end: one poll thread, many connections.
//!
//! A single reactor thread owns every connection's state machine
//! (reading → dispatching → writing) and multiplexes them over a
//! level-triggered [`re_net::Poller`] (epoll on Linux). Parsed requests
//! are handed to a small worker pool over a channel; each worker encodes
//! its batch's responses into one buffer and hands it back over a
//! completion channel, poking the reactor's [`re_net::WakePipe`]. The
//! reactor therefore blocks in *one* indefinite poll wait: an idle
//! connection — however many thousands of them — costs one parked buffer
//! and zero wakeups, which the `reactor.epoll_waits` counter makes
//! observable (and testable).
//!
//! ## Ordering and sessions
//!
//! Each connection has at most one batch *in flight* at a time: the
//! reactor drains every complete request buffered on the socket into a
//! queue, dispatches the queue as one job, and dispatches the next job
//! only when the previous completion is back. Responses therefore come
//! back in request order — the pipelining contract — and two pipelined
//! FETCHes on the same session can never race each other's cursor
//! checkout. Different connections' jobs run truly in parallel across
//! the worker pool.
//!
//! The per-connection pipeline cap is applied per read drain, exactly
//! like the thread-per-connection front-end: requests beyond
//! `max_pipeline` in one drain are answered — in order — with typed
//! `overloaded` errors without ever being dispatched.
//!
//! ## Disconnects
//!
//! Peer EOF or reset tears the connection down *immediately*: the fd is
//! deregistered and closed (level-triggered pollers would otherwise spin
//! on a dead socket), queued-but-undispatched requests are dropped, and
//! any in-flight FETCH's session gets its cancel token tripped through
//! [`SessionTable::cancel_if_checked_out`] — the enumerator stops at its
//! next morsel boundary instead of computing a page nobody will read.
//! Parked sessions are deliberately left alone: clients resume sessions
//! across reconnects.
//!
//! [`SessionTable::cancel_if_checked_out`]: crate::session::SessionTable::cancel_if_checked_out

use crate::protocol::{Request, Response};
use crate::server::{RankedQueryServer, ServerConfig, ServerHandle};
use crate::wire::{self, InboundItem, Negotiation, WireProtocol};
use re_net::{wait_events, Event, Interest, Poller, WakePipe};
use std::collections::{HashMap, VecDeque};
use std::io::{IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// Token of the wake pipe's read end.
const WAKER: u64 = 0;
/// Token of the listening socket.
const LISTENER: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN: u64 = 2;

/// One parsed inbound item, queued on its connection until dispatch.
enum WorkItem {
    /// A well-formed request.
    Request(Request),
    /// A malformed request on intact framing: answered with this error.
    Malformed(String),
    /// Shed by the per-drain pipeline cap: answered with `overloaded`.
    Shed,
}

/// One batch of a connection's queued items, run by a pool worker.
struct Job {
    token: u64,
    protocol: WireProtocol,
    items: Vec<WorkItem>,
}

/// A finished job: every response of the batch, encoded in order into
/// one buffer ready for vectored writes.
struct Completion {
    token: u64,
    buf: Vec<u8>,
}

/// Per-connection state machine.
struct Conn {
    /// The socket; `None` after teardown while a completion is still in
    /// flight (the entry then exists only to absorb that completion).
    stream: Option<TcpStream>,
    /// Negotiated from the first bytes; `None` until decided.
    protocol: Option<WireProtocol>,
    /// Raw bytes read but not yet parsed into complete requests.
    inbuf: Vec<u8>,
    /// Encoded response buffers awaiting the socket, oldest first.
    outq: VecDeque<Vec<u8>>,
    /// Bytes of `outq.front()` already written.
    outpos: usize,
    /// Parsed items not yet dispatched (at most one job in flight).
    queued: VecDeque<WorkItem>,
    /// Whether a job for this connection is running on the pool.
    job_inflight: bool,
    /// Session ids of the in-flight job's FETCHes — the sessions to
    /// cancel if the peer disconnects before the job completes.
    inflight_fetches: Vec<u64>,
    /// Framing broke (oversized length prefix): close once the final
    /// error response has flushed.
    framing_broken: bool,
    /// The interest currently registered with the poller.
    interest: Interest,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream: Some(stream),
            protocol: None,
            inbuf: Vec::new(),
            outq: VecDeque::new(),
            outpos: 0,
            queued: VecDeque::new(),
            job_inflight: false,
            inflight_fetches: Vec::new(),
            framing_broken: false,
            interest: Interest::READ,
        }
    }

    fn has_output(&self) -> bool {
        !self.outq.is_empty()
    }
}

/// Serve with the reactor front-end. See [`crate::serve_reactor`].
pub(crate) fn serve_reactor(
    server: Arc<RankedQueryServer>,
    bind_addr: &str,
    config: &ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(bind_addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let waker = Arc::new(WakePipe::new()?);
    let poller = Poller::new()?;
    poller.register(waker.read_fd(), WAKER, Interest::READ)?;
    poller.register(listener.as_raw_fd(), LISTENER, Interest::READ)?;

    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let job_rx = Arc::new(Mutex::new(job_rx));
    let (done_tx, done_rx) = mpsc::channel::<Completion>();

    let max_pipeline = config.max_pipeline.max(1);
    let mut threads: Vec<JoinHandle<()>> = (0..config.workers.max(1))
        .map(|_| {
            let job_rx = Arc::clone(&job_rx);
            let done_tx = done_tx.clone();
            let server = Arc::clone(&server);
            let waker = Arc::clone(&waker);
            std::thread::spawn(move || loop {
                // Holding the receiver lock only while popping keeps the
                // other workers free to pick up the next job.
                let next = job_rx.lock().expect("job queue poisoned").recv();
                let Ok(job) = next else {
                    return; // reactor gone, queue drained
                };
                let mut buf = Vec::new();
                for item in job.items {
                    let response = match item {
                        WorkItem::Request(request) => server.handle_caught(request),
                        WorkItem::Malformed(message) => Response::error(message),
                        WorkItem::Shed => server.shed_pipeline_response(max_pipeline),
                    };
                    wire::append_response(job.protocol, &response, &mut buf);
                }
                if done_tx
                    .send(Completion {
                        token: job.token,
                        buf,
                    })
                    .is_err()
                {
                    return;
                }
                waker.wake();
            })
        })
        .collect();
    drop(done_tx); // the reactor detects worker loss via channel close

    let reactor = {
        let shutdown = Arc::clone(&shutdown);
        let waker = Arc::clone(&waker);
        std::thread::spawn(move || {
            let mut r = Reactor {
                server,
                listener,
                poller,
                waker,
                shutdown,
                job_tx,
                done_rx,
                conns: HashMap::new(),
                next_token: FIRST_CONN,
                max_pipeline,
                ready_events: re_obs::global().histogram("reactor.ready_events"),
            };
            r.run();
        })
    };
    threads.push(reactor);

    Ok(ServerHandle::from_parts(
        addr,
        shutdown,
        Some(waker),
        threads,
    ))
}

struct Reactor {
    server: Arc<RankedQueryServer>,
    listener: TcpListener,
    poller: Poller,
    waker: Arc<WakePipe>,
    shutdown: Arc<AtomicBool>,
    job_tx: mpsc::Sender<Job>,
    done_rx: mpsc::Receiver<Completion>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    max_pipeline: usize,
    /// Histogram of ready events per poll wait: the reactor's batching
    /// factor under load, and proof of quiescence when idle.
    ready_events: Arc<re_obs::AtomicHistogram>,
}

impl Reactor {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            // Indefinite wait: with nothing to do the reactor makes *zero*
            // syscalls — wakeups come only from sockets, the listener, or
            // the wake pipe (worker completions and shutdown).
            if wait_events(&self.poller, &mut events, None).is_err() {
                return;
            }
            self.server.bump_transport(|t| t.epoll_waits = 1);
            self.ready_events.record(events.len() as u64);
            for &event in &events {
                match event.token {
                    WAKER => {
                        let drained = self.waker.drain();
                        self.server.bump_transport(|t| t.wakeups = drained);
                        self.drain_completions(drained);
                    }
                    LISTENER => self.accept_ready(),
                    token => self.conn_ready(token, event),
                }
            }
            if self.shutdown.load(Ordering::SeqCst) {
                self.teardown_all();
                return;
            }
        }
    }

    /// Accept every pending connection (the listener is level-triggered,
    /// but draining here saves a poll round trip per accepted burst).
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.server.bump_transport(|t| t.conns_accepted = 1);
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        self.server.bump_transport(|t| t.disconnects = 1);
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, Interest::READ)
                        .is_err()
                    {
                        self.server.bump_transport(|t| t.disconnects = 1);
                        continue;
                    }
                    self.conns.insert(token, Conn::new(stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Advance one connection's state machine on readiness.
    fn conn_ready(&mut self, token: u64, event: Event) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // already torn down (e.g. by an earlier event this round)
        };
        if conn.stream.is_none() {
            return; // awaiting its orphan completion
        }
        if event.writable && conn.has_output() && !Self::flush(&self.server, conn) {
            self.teardown(token);
            return;
        }
        if event.readable || event.hangup {
            match self.read_and_parse(token) {
                ReadOutcome::Open => {}
                ReadOutcome::Closed => {
                    self.teardown(token);
                    return;
                }
            }
        }
        self.after_progress(token);
    }

    /// Drain the socket into the connection's input buffer, negotiate the
    /// protocol if still undecided, and parse complete requests into the
    /// queue (applying the per-drain pipeline cap).
    fn read_and_parse(&mut self, token: u64) -> ReadOutcome {
        let conn = self.conns.get_mut(&token).expect("caller checked");
        let stream = conn.stream.as_mut().expect("caller checked");
        let mut chunk = [0u8; 16 * 1024];
        let mut peer_closed = false;
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    peer_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.inbuf.extend_from_slice(&chunk[..n]);
                    self.server.bump_transport(|t| t.bytes_in = n as u64);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    peer_closed = true; // reset: same cleanup as EOF
                    break;
                }
            }
        }
        if conn.protocol.is_none() {
            match wire::negotiate(&conn.inbuf) {
                Negotiation::NeedMore => {
                    return if peer_closed {
                        ReadOutcome::Closed
                    } else {
                        ReadOutcome::Open
                    };
                }
                Negotiation::Json => conn.protocol = Some(WireProtocol::Json),
                Negotiation::Binary => {
                    conn.inbuf.drain(..wire::BINARY_MAGIC.len());
                    conn.protocol = Some(WireProtocol::Binary);
                }
            }
        }
        let protocol = conn.protocol.expect("negotiated above");
        if !conn.framing_broken {
            let mut drained = 0usize;
            loop {
                match wire::next_inbound(protocol, &mut conn.inbuf) {
                    Ok(None) => break,
                    Ok(Some(item)) => {
                        let item = if drained >= self.max_pipeline {
                            WorkItem::Shed
                        } else {
                            match item {
                                InboundItem::Request(request) => WorkItem::Request(request),
                                InboundItem::Malformed(message) => WorkItem::Malformed(message),
                            }
                        };
                        drained += 1;
                        conn.queued.push_back(item);
                    }
                    Err(message) => {
                        // Framing is unrecoverable: answer with a final
                        // error (in order, behind anything queued) and
                        // close once it has flushed.
                        conn.queued.push_back(WorkItem::Malformed(message));
                        conn.framing_broken = true;
                        conn.inbuf.clear();
                        break;
                    }
                }
            }
        }
        if peer_closed {
            ReadOutcome::Closed
        } else {
            ReadOutcome::Open
        }
    }

    /// Absorb up to `drained` worker completions, flush their buffers,
    /// and keep each connection's dispatch pipeline moving.
    ///
    /// Completions are consumed strictly 1:1 with drained wake-pipe
    /// bytes — never speculatively — so a completion's byte can never go
    /// stale in the pipe and fire a deferred wake while the reactor is
    /// otherwise idle (the zero-wakeups-when-parked contract). The count
    /// is sound because a worker always `send`s before it `wake`s and
    /// the channel is FIFO: `drained` bytes imply at least `drained`
    /// completions already queued, except for shutdown pokes, which
    /// carry no completion and surface here as an early `Err` — the
    /// loop's shutdown check handles those. (A `wake` can only be
    /// dropped once the pipe holds a full 64 KiB of pending bytes, which
    /// would take >65536 outstanding completions in one reactor
    /// iteration — more than one per live connection — so the count
    /// cannot run short in practice.)
    fn drain_completions(&mut self, drained: u64) {
        for _ in 0..drained {
            let Ok(done) = self.done_rx.try_recv() else {
                return;
            };
            let Some(conn) = self.conns.get_mut(&done.token) else {
                continue;
            };
            conn.job_inflight = false;
            conn.inflight_fetches.clear();
            if conn.stream.is_none() {
                // The peer disconnected while the job ran: the responses
                // have no reader, and the entry only waited for this.
                self.conns.remove(&done.token);
                continue;
            }
            if !done.buf.is_empty() {
                conn.outq.push_back(done.buf);
            }
            if !Self::flush(&self.server, conn) {
                self.teardown(done.token);
                continue;
            }
            self.after_progress(done.token);
        }
    }

    /// Dispatch the next batch if idle, re-arm interest, and close a
    /// broken-framing connection whose final error has flushed.
    fn after_progress(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.stream.is_none() {
            return;
        }
        if !conn.job_inflight && !conn.queued.is_empty() {
            let items: Vec<WorkItem> = conn.queued.drain(..).collect();
            conn.inflight_fetches = items
                .iter()
                .filter_map(|item| match item {
                    WorkItem::Request(Request::Fetch { session, .. }) => Some(*session),
                    _ => None,
                })
                .collect();
            conn.job_inflight = true;
            let job = Job {
                token,
                protocol: conn.protocol.expect("items imply negotiation"),
                items,
            };
            if self.job_tx.send(job).is_err() {
                // No workers left (shutdown race): the connection cannot
                // be served any more.
                self.teardown(token);
                return;
            }
        }
        if conn.framing_broken && !conn.job_inflight && conn.queued.is_empty() && !conn.has_output()
        {
            self.teardown(token);
            return;
        }
        let wanted = if conn.has_output() {
            Interest::READ_WRITE
        } else {
            Interest::READ
        };
        if wanted != conn.interest {
            let fd = conn.stream.as_ref().expect("checked above").as_raw_fd();
            if self.poller.modify(fd, token, wanted).is_err() {
                self.teardown(token);
                return;
            }
            conn.interest = wanted;
        }
    }

    /// Write as much of the outbound queue as the socket accepts, with
    /// one vectored syscall per attempt. Returns `false` when the
    /// connection died under the write.
    fn flush(server: &RankedQueryServer, conn: &mut Conn) -> bool {
        let stream = conn.stream.as_mut().expect("caller checked");
        while !conn.outq.is_empty() {
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(conn.outq.len());
            for (i, buf) in conn.outq.iter().enumerate() {
                if i == 0 {
                    slices.push(IoSlice::new(&buf[conn.outpos..]));
                } else {
                    slices.push(IoSlice::new(buf));
                }
            }
            match stream.write_vectored(&slices) {
                Ok(0) => return false,
                Ok(mut n) => {
                    server.bump_transport(|t| t.bytes_out = n as u64);
                    while n > 0 {
                        let front_left =
                            conn.outq.front().expect("bytes imply a buffer").len() - conn.outpos;
                        if n >= front_left {
                            n -= front_left;
                            conn.outq.pop_front();
                            conn.outpos = 0;
                        } else {
                            conn.outpos += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }

    /// Tear a connection down *now*: deregister and close the fd (a dead
    /// socket must leave the level-triggered poller immediately), drop
    /// queued-but-undispatched requests and unread responses, and cancel
    /// any in-flight FETCH's session so its enumerator stops working for
    /// a reader that is gone. The entry survives (stream-less) only while
    /// a job is still in flight, to absorb its orphan completion.
    fn teardown(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if let Some(stream) = conn.stream.take() {
            let _ = self.poller.deregister(stream.as_raw_fd());
            drop(stream);
            self.server.bump_transport(|t| t.disconnects = 1);
        }
        conn.queued.clear();
        conn.outq.clear();
        conn.outpos = 0;
        for session in std::mem::take(&mut conn.inflight_fetches) {
            self.server.cancel_disconnected_fetch(session);
        }
        if !conn.job_inflight {
            self.conns.remove(&token);
        }
    }

    /// Shutdown: tear down every connection (cancelling in-flight
    /// fetches) and return, dropping `job_tx` so the workers drain their
    /// queue and exit.
    fn teardown_all(&mut self) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.teardown(token);
        }
    }
}

/// What a read drain learned about the peer.
enum ReadOutcome {
    /// Still connected.
    Open,
    /// EOF or reset: tear the connection down.
    Closed,
}
