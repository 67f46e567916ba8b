//! The event-driven TCP front-end: one poll thread, many connections.
//!
//! A single reactor thread multiplexes every connection over a
//! level-triggered [`re_net::Poller`] (epoll on Linux) and is the only
//! thread that reads a socket, parses requests, decides what runs next and
//! notices a peer going away. What it does *not* do is sit on the response
//! path:
//!
//! ```text
//! client   reactor thread                    worker thread
//!   | req -> epoll_wait returns, read, parse
//!   |        mark in flight, push the batch -> pop (the push wakes one worker)
//!   |        back into epoll_wait             run it, encode one buffer
//!   |                                         append, publish idle, writev
//!   | <------------------------------------- response
//! ```
//!
//! One poll wake and one thread wake per request; no completion message,
//! no wake-pipe byte, no second poll. The reactor still blocks in *one*
//! indefinite poll wait: an idle connection — however many thousands of
//! them — costs one parked buffer and zero wakeups, which the
//! `reactor.epoll_waits` / `reactor.wakeups` counters make observable (and
//! testable).
//!
//! ## Who may write a socket
//!
//! Each connection's output half (`ConnShared`: the stream plus one
//! mutex over the outbound queue) is shared between the reactor and the
//! worker running the connection's batch. Whoever holds that mutex may
//! write, and everybody writes through the one routine
//! `Outbound::flush`. A worker appends its encoded batch and flushes it
//! itself; only when the socket would block does it leave the rest to the
//! reactor (`reactor_flushes`), which arms WRITE interest and finishes the
//! job on writable events. While the reactor owns the leftover, workers
//! append behind it and touch nothing else.
//!
//! ## Ordering and sessions
//!
//! Each connection has at most one batch *in flight* at a time: the
//! reactor drains the complete requests a read brought into a queue,
//! dispatches the queue as one job, and dispatches the next job only once
//! the connection is idle again. "Idle" is shared state
//! (`ConnShared::inflight`), not a message. The worker publishes it
//! after appending its buffer but *before* the flush syscall: the
//! client's next request can arrive the instant the bytes land, and the
//! reactor must find the connection idle then (published after the write,
//! every request-response exchange would lose that race and take the
//! detour below). Responses still come back in request order — the
//! pipelining contract — because a later batch's worker has to take the
//! same output lock, behind bytes already queued. Two pipelined FETCHes
//! on the same session can never race each other's cursor checkout, and
//! different connections' jobs run truly in parallel across the pool.
//!
//! The per-connection pipeline cap is applied per read drain: requests
//! beyond `max_pipeline` in one drain are answered — in order — with typed
//! `overloaded` errors without ever being dispatched.
//!
//! ## When the wake pipe fires
//!
//! A worker pokes the reactor — one token on the attention channel, then
//! one byte into the [`re_net::WakePipe`] — in exactly three cases:
//!
//! * its flush left bytes behind (or found the socket dead): the reactor
//!   arms WRITE interest (or tears the connection down);
//! * the reactor queued a request behind the running batch and asked to
//!   be told when it ends (`ConnShared::poke_when_done`). No wake-up is
//!   lost: the reactor sets the flag and then re-checks `inflight`, the
//!   worker clears `inflight` and then test-and-clears the flag, all
//!   `SeqCst` — whichever of the two comes second sees the other's store;
//! * the batch was the last of a connection whose framing broke, which
//!   the reactor closes once that batch has flushed (same flag).
//!
//! The fourth writer of the pipe is [`ServerHandle::shutdown`].
//!
//! ## Disconnects
//!
//! Peer EOF or reset tears the connection down *immediately*: the fd is
//! deregistered (level-triggered pollers would otherwise spin on a dead
//! socket) and shut down in both directions — a worker may still hold the
//! stream through its job, so dropping the reactor's handle alone would
//! close nothing — queued-but-undispatched requests are dropped, later
//! deliveries are discarded, and any in-flight FETCH's session gets its
//! cancel token tripped through
//! [`SessionTable::cancel_if_checked_out`] — the enumerator stops at its
//! next morsel boundary instead of computing a page nobody will read.
//! Parked sessions are deliberately left alone: clients resume sessions
//! across reconnects.
//!
//! [`SessionTable::cancel_if_checked_out`]: crate::session::SessionTable::cancel_if_checked_out

use crate::protocol::{Request, Response};
use crate::server::{RankedQueryServer, ServerConfig, ServerHandle};
use crate::wire::{self, InboundItem, Negotiation, WireProtocol};
use crate::work_queue::{CloseOnDrop, WorkQueue};
use re_net::{wait_events, Event, Interest, Poller, WakePipe};
use std::collections::{HashMap, VecDeque};
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
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

/// One batch of a connection's queued items, run by a pool worker, which
/// delivers the responses through `conn` itself.
struct Job {
    token: u64,
    conn: Arc<ConnShared>,
    protocol: WireProtocol,
    items: Vec<WorkItem>,
}

/// The half of a connection the reactor shares with the worker running
/// its batch. See the module docs for the protocol around each field.
struct ConnShared {
    /// Non-blocking. Read by the reactor only; written by whoever holds
    /// `out`.
    stream: TcpStream,
    out: Mutex<Outbound>,
    /// A batch of this connection is on the pool. Set by the reactor at
    /// dispatch, cleared by the batch's worker once its responses are
    /// queued.
    inflight: AtomicBool,
    /// The reactor wants a poke when the running batch ends.
    poke_when_done: AtomicBool,
}

/// A connection's outbound queue. Every buffer in `outq` is non-empty and
/// `outpos < outq[0].len()`.
#[derive(Default)]
struct Outbound {
    /// Encoded response buffers awaiting the socket, oldest first.
    outq: VecDeque<Vec<u8>>,
    /// Bytes of `outq.front()` already written.
    outpos: usize,
    /// The socket stopped taking bytes (or died) under a worker's flush
    /// and the reactor has been poked about it: until the reactor has
    /// drained `outq`, it alone flushes.
    reactor_flushes: bool,
    /// Torn down: nobody will read what is delivered from now on.
    closed: bool,
}

/// What [`Outbound::flush`] left behind.
enum Flush {
    /// Everything queued is on the wire.
    Drained,
    /// The socket would block; bytes remain.
    Blocked,
    /// The connection died under the write.
    Dead,
}

impl Outbound {
    /// Write as much of the queue as the socket accepts, one vectored
    /// syscall per attempt — the only code that writes a connection.
    ///
    /// Failpoint `reactor.flush`: an injected error makes this attempt a
    /// one-byte short write followed by a full socket, which drives the
    /// leftover → reactor → WRITE-interest path whatever the socket
    /// buffers would have taken.
    fn flush(&mut self, mut stream: &TcpStream, server: &RankedQueryServer) -> Flush {
        while !self.outq.is_empty() {
            let short_write = re_fault::fire("reactor.flush").is_err();
            let written = if short_write {
                stream.write(&self.outq[0][self.outpos..=self.outpos])
            } else {
                let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(self.outq.len());
                for (i, buf) in self.outq.iter().enumerate() {
                    let from = if i == 0 { self.outpos } else { 0 };
                    slices.push(IoSlice::new(&buf[from..]));
                }
                stream.write_vectored(&slices)
            };
            match written {
                Ok(0) => return Flush::Dead,
                Ok(n) => {
                    server.bump_transport(|t| t.bytes_out = n as u64);
                    self.consume(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Flush::Blocked,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Flush::Dead,
            }
            if short_write {
                break;
            }
        }
        if self.outq.is_empty() {
            Flush::Drained
        } else {
            Flush::Blocked
        }
    }

    /// Drop the first `n` queued bytes, which the socket took.
    fn consume(&mut self, mut n: usize) {
        while let Some(front) = self.outq.front() {
            let front_left = front.len() - self.outpos;
            if n < front_left {
                self.outpos += n;
                return;
            }
            n -= front_left;
            self.outq.pop_front();
            self.outpos = 0;
        }
    }
}

impl ConnShared {
    /// Poison recovery, not propagation: `Outbound` is only ever changed
    /// by whole-buffer queue operations and plain stores, so a panic while
    /// the guard is held leaves it valid — the policy of the session
    /// table and [`WorkQueue`].
    fn lock_out(&self) -> MutexGuard<'_, Outbound> {
        self.out
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Worker side: queue a finished batch's responses, publish the
    /// connection idle, and put the bytes on the wire. Returns whether the
    /// reactor needs a poke (see the module docs for the three reasons).
    fn deliver(&self, server: &RankedQueryServer, buf: Vec<u8>) -> bool {
        let mut out = self.lock_out();
        if !buf.is_empty() && !out.closed {
            out.outq.push_back(buf);
        }
        // Idle goes out after the append — a later batch's responses queue
        // behind these — and before the write: once the bytes land the
        // client may answer at once, and the reactor must then find the
        // connection idle.
        self.inflight.store(false, Ordering::SeqCst);
        let mut poke = self.poke_when_done.swap(false, Ordering::SeqCst);
        if !out.closed && !out.reactor_flushes {
            match out.flush(&self.stream, server) {
                Flush::Drained => {}
                // A dead socket goes the same way as a full one: the
                // reactor's next flush sees it and tears down.
                Flush::Blocked | Flush::Dead => {
                    out.reactor_flushes = true;
                    poke = true;
                }
            }
        }
        poke
    }
}

/// Per-connection state machine, private to the reactor thread.
struct Conn {
    shared: Arc<ConnShared>,
    /// Negotiated from the first bytes; `None` until decided.
    protocol: Option<WireProtocol>,
    /// Raw bytes read but not yet parsed into complete requests.
    inbuf: Vec<u8>,
    /// Leading bytes of `inbuf` already searched for a line end
    /// ([`wire::next_inbound_resuming`]).
    inbuf_scanned: usize,
    /// Parsed items not yet dispatched (at most one job in flight).
    queued: VecDeque<WorkItem>,
    /// Session ids of the last dispatched job's FETCHes — the sessions to
    /// cancel if the peer disconnects before that job ends. Stale, and
    /// ignored, once `shared.inflight` is clear.
    inflight_fetches: Vec<u64>,
    /// Framing broke (oversized length prefix or request line): close
    /// once the final error response has flushed; bytes still arriving
    /// are read and dropped.
    framing_broken: bool,
    /// The interest currently registered with the poller.
    interest: Interest,
}

/// Serve the request protocol on `bind_addr` (e.g. `"127.0.0.1:0"`): one
/// poll thread reads, parses and dispatches for every connection —
/// JSON-lines or the binary protocol, negotiated per connection from its
/// first bytes — and hands parsed requests to a `config.workers`-thread
/// pool, whose workers write their responses to the socket themselves.
/// Idle connections cost one buffer and zero wakeups, so tens of thousands
/// of parked sessions can stay connected.
pub fn serve(
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

    let jobs = WorkQueue::<Job>::new();
    let (attention_tx, attention_rx) = mpsc::channel::<u64>();

    let max_pipeline = config.max_pipeline.max(1);
    let mut threads: Vec<JoinHandle<()>> = (0..config.workers.max(1))
        .map(|_| {
            let jobs = Arc::clone(&jobs);
            let attention_tx = attention_tx.clone();
            let server = Arc::clone(&server);
            let waker = Arc::clone(&waker);
            std::thread::spawn(move || {
                while let Some(job) = jobs.pop() {
                    let mut buf = Vec::new();
                    for item in job.items {
                        let response = match item {
                            WorkItem::Request(request) => server.handle_caught(request),
                            WorkItem::Malformed(message) => Response::error(message),
                            WorkItem::Shed => server.shed_pipeline_response(max_pipeline),
                        };
                        wire::append_response(job.protocol, &response, &mut buf);
                    }
                    if job.conn.deliver(&server, buf) {
                        // Token first, byte second: the reactor takes one
                        // token per byte it drains. A send can only fail
                        // once the reactor is gone, with every connection.
                        let _ = attention_tx.send(job.token);
                        waker.wake();
                    }
                }
            })
        })
        .collect();

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
                jobs: jobs.close_on_drop(),
                attention_rx,
                conns: HashMap::new(),
                next_token: FIRST_CONN,
                max_pipeline,
                ready_events: re_obs::global().histogram("reactor.ready_events"),
            };
            r.run();
        })
    };
    threads.push(reactor);

    Ok(ServerHandle::from_parts(addr, shutdown, waker, threads))
}

struct Reactor {
    server: Arc<RankedQueryServer>,
    listener: TcpListener,
    poller: Poller,
    waker: Arc<WakePipe>,
    shutdown: Arc<AtomicBool>,
    /// Closed when the reactor goes, however it goes: that releases the
    /// workers parked on it.
    jobs: CloseOnDrop<Job>,
    /// Tokens of connections a worker poked the reactor about.
    attention_rx: mpsc::Receiver<u64>,
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
            // the wake pipe (a worker's poke, or shutdown).
            if wait_events(&self.poller, &mut events, None).is_err() {
                return;
            }
            self.server.bump_transport(|t| t.epoll_waits = 1);
            self.ready_events.record(events.len() as u64);
            for &event in &events {
                match event.token {
                    WAKER => {
                        let pokes = self.waker.drain();
                        self.server.bump_transport(|t| t.wakeups = pokes);
                        self.attend(pokes);
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
                    let conn = Conn {
                        shared: Arc::new(ConnShared {
                            stream,
                            out: Mutex::default(),
                            inflight: AtomicBool::new(false),
                            poke_when_done: AtomicBool::new(false),
                        }),
                        protocol: None,
                        inbuf: Vec::new(),
                        inbuf_scanned: 0,
                        queued: VecDeque::new(),
                        inflight_fetches: Vec::new(),
                        framing_broken: false,
                        interest: Interest::READ,
                    };
                    self.conns.insert(token, conn);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Advance one connection's state machine on readiness.
    fn conn_ready(&mut self, token: u64, event: Event) {
        if event.writable && !self.flush_leftover(token) {
            return;
        }
        if event.readable || event.hangup {
            match self.read_and_parse(token, event.hangup) {
                ReadOutcome::Open => {}
                ReadOutcome::Closed => return self.teardown(token),
            }
        }
        self.dispatch_queued(token);
    }

    /// Read what the socket has, negotiate the protocol if still
    /// undecided, and parse complete requests into the queue (applying the
    /// per-drain pipeline cap).
    ///
    /// One `read` per readiness report unless it filled the whole chunk:
    /// the poller is level-triggered, so bytes a short read left behind
    /// are reported again, and a second `read` whose only answer is
    /// `EAGAIN` is a syscall per request for nothing. A hang-up is read
    /// through to EOF, so a peer that is gone is torn down in this round
    /// instead of having its last requests dispatched first.
    fn read_and_parse(&mut self, token: u64, hangup: bool) -> ReadOutcome {
        let Some(conn) = self.conns.get_mut(&token) else {
            return ReadOutcome::Closed; // by an earlier event of this round
        };
        let mut stream = &conn.shared.stream;
        let mut chunk = [0u8; 16 * 1024];
        let mut peer_closed = false;
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    peer_closed = true;
                    break;
                }
                Ok(n) => {
                    if !conn.framing_broken {
                        conn.inbuf.extend_from_slice(&chunk[..n]);
                    }
                    self.server.bump_transport(|t| t.bytes_in = n as u64);
                    if n < chunk.len() && !hangup {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    peer_closed = true; // reset: same cleanup as EOF
                    break;
                }
            }
        }
        let outcome = if peer_closed {
            ReadOutcome::Closed
        } else {
            ReadOutcome::Open
        };
        let protocol = match conn.protocol {
            Some(protocol) => protocol,
            None => match wire::negotiate(&conn.inbuf) {
                Negotiation::NeedMore => return outcome,
                Negotiation::Json => WireProtocol::Json,
                Negotiation::Binary => {
                    conn.inbuf.drain(..wire::BINARY_MAGIC.len());
                    WireProtocol::Binary
                }
            },
        };
        conn.protocol = Some(protocol);
        if !conn.framing_broken {
            let mut drained = 0usize;
            loop {
                let next =
                    wire::next_inbound_resuming(protocol, &mut conn.inbuf, &mut conn.inbuf_scanned);
                match next {
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
                        // Nothing parses this connection again: give the
                        // buffer (up to the frame cap) back now.
                        conn.inbuf = Vec::new();
                        break;
                    }
                }
            }
        }
        outcome
    }

    /// Answer `pokes` worker pokes: finish (or take over) the connection's
    /// output and keep its dispatch pipeline moving.
    ///
    /// Tokens are consumed strictly 1:1 with drained wake-pipe bytes —
    /// never speculatively — so a token's byte can never go stale in the
    /// pipe and fire a deferred wake while the reactor is otherwise idle
    /// (the zero-wakeups-when-parked contract). The count is sound
    /// because a worker always sends its token before it writes its byte
    /// and the channel is FIFO: `pokes` bytes imply at least `pokes`
    /// tokens already queued, except for the shutdown poke, which carries
    /// no token and surfaces here as an early `Err` — the loop's shutdown
    /// check handles that one. Bytes beyond the one `read` the drain makes
    /// are not lost either: the read end stays readable, the
    /// level-triggered poller reports it again, and their tokens are taken
    /// then. (A `wake` is only dropped once the pipe holds a full 64 KiB
    /// of pending bytes, which takes more than 65 536 pokes outstanding
    /// within one reactor iteration — a connection has a handful at most —
    /// so the count cannot run short in practice.)
    ///
    /// Everything a poke asks for is idempotent — flush what is queued,
    /// dispatch what is waiting if the connection is idle — so a poke
    /// that lost a race to the reactor's own progress finds nothing to do.
    fn attend(&mut self, pokes: u64) {
        for _ in 0..pokes {
            let Ok(token) = self.attention_rx.try_recv() else {
                return;
            };
            if self.flush_leftover(token) {
                self.dispatch_queued(token);
            }
        }
    }

    /// Reactor side of the output half: flush what a worker left behind
    /// and hold WRITE interest exactly while bytes remain. Returns `false`
    /// when the connection is gone (torn down here, or earlier).
    fn flush_leftover(&mut self, token: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        let flushed = {
            let mut out = conn.shared.lock_out();
            let flushed = out.flush(&conn.shared.stream, &self.server);
            out.reactor_flushes = matches!(flushed, Flush::Blocked);
            flushed
        };
        let wanted = match flushed {
            Flush::Drained => Interest::READ,
            Flush::Blocked => Interest::READ_WRITE,
            Flush::Dead => {
                self.teardown(token);
                return false;
            }
        };
        if wanted != conn.interest {
            let fd = conn.shared.stream.as_raw_fd();
            if self.poller.modify(fd, token, wanted).is_err() {
                self.teardown(token);
                return false;
            }
            conn.interest = wanted;
        }
        true
    }

    /// Dispatch the queued requests as the next batch if the connection
    /// is idle — otherwise ask the running batch's worker for a poke — and
    /// close a broken-framing connection whose final error has flushed.
    fn dispatch_queued(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let shared = &conn.shared;
        if !conn.queued.is_empty() {
            let mut idle = !shared.inflight.load(Ordering::SeqCst);
            if !idle {
                // Flag first, then look again: a worker that cleared
                // `inflight` before this second load may already be past
                // its test of the flag, so the dispatch is ours.
                shared.poke_when_done.store(true, Ordering::SeqCst);
                idle = !shared.inflight.load(Ordering::SeqCst);
            }
            if idle {
                let items: Vec<WorkItem> = conn.queued.drain(..).collect();
                conn.inflight_fetches = items
                    .iter()
                    .filter_map(|item| match item {
                        WorkItem::Request(Request::Fetch { session, .. }) => Some(*session),
                        _ => None,
                    })
                    .collect();
                // The batch that answers a framing error is the
                // connection's last: hear about its end to close.
                shared
                    .poke_when_done
                    .store(conn.framing_broken, Ordering::SeqCst);
                shared.inflight.store(true, Ordering::SeqCst);
                self.jobs.push(Job {
                    token,
                    conn: Arc::clone(shared),
                    // Only a negotiated connection parses items.
                    protocol: conn.protocol.expect("items imply negotiation"),
                    items,
                });
            }
        }
        if conn.framing_broken
            && conn.queued.is_empty()
            && !shared.inflight.load(Ordering::SeqCst)
            && shared.lock_out().outq.is_empty()
        {
            self.teardown(token);
        }
    }

    /// Tear a connection down *now*: deregister the fd (a dead socket must
    /// leave the level-triggered poller immediately), shut the socket down
    /// — the fd itself closes with the last `Arc`, which a worker may hold
    /// — drop queued-but-undispatched requests and unread responses, and
    /// cancel any in-flight FETCH's session so its enumerator stops
    /// working for a reader that is gone.
    fn teardown(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        let stream = &conn.shared.stream;
        let _ = self.poller.deregister(stream.as_raw_fd());
        let _ = stream.shutdown(Shutdown::Both);
        {
            let mut out = conn.shared.lock_out();
            out.closed = true;
            out.outq.clear();
            out.outpos = 0;
        }
        self.server.bump_transport(|t| t.disconnects = 1);
        if conn.shared.inflight.load(Ordering::SeqCst) {
            for session in conn.inflight_fetches {
                self.server.cancel_disconnected_fetch(session);
            }
        }
    }

    /// Shutdown: tear down every connection (cancelling in-flight
    /// fetches) and return; dropping the reactor then closes the job
    /// queue, so the workers drain it and exit.
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
