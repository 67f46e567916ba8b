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
//! What a connection does next — ordering, the pipeline cap, broken
//! framing — is decided by a machine that does no I/O (`conn`, with its
//! own docs); this module is the driver that performs what it decides:
//! the poll loop, the socket reads and writes, the pool and the workers.
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
//! deliveries are discarded, and no dispatched FETCH computes a page
//! nobody will read. The reactor raises the connection's closed flag
//! (`ConnShared::closed`) first, then trips the cancel token of every
//! dispatched FETCH's session that is lent through
//! [`SessionTable::cancel_if_checked_out`] — the enumerator stops at its
//! next morsel boundary. A FETCH whose worker has not taken its session
//! yet finds the flag raised once it has, and ends the session as
//! cancelled the same way: the worker takes before it reads the flag, the
//! reactor raises it before it cancels, so one of the two sees the other.
//! Parked sessions without a dispatched FETCH are deliberately left alone:
//! clients resume sessions across reconnects.
//!
//! ## Accepting
//!
//! An accept error that leaves the connection in the backlog (`EMFILE`,
//! `ENFILE`, `ENOMEM`, …) would keep the level-triggered listener ready,
//! and the reactor would spin on it. Accepting pauses instead: the
//! listener is deregistered, one `warn` is logged, and it is registered
//! again at the next teardown (which frees a descriptor) or after 100 ms,
//! the only timed poll wait the reactor makes.
//!
//! [`SessionTable::cancel_if_checked_out`]: crate::session::SessionTable::cancel_if_checked_out

mod conn;

use crate::protocol::Response;
use crate::server::{RankedQueryServer, ServerConfig, ServerHandle};
use crate::wire;
use crate::work_queue::{CloseOnDrop, WorkQueue};
use conn::{Batch, Next, Rearm, WorkItem};
use re_net::{wait_events, Event, Interest, Poller, WakePipe};
use re_obs::FieldValue;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token of the wake pipe's read end.
const WAKER: u64 = 0;
/// Token of the listening socket.
const LISTENER: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN: u64 = 2;
/// How long accepting pauses after an error that leaves the backlog full.
const ACCEPT_PAUSE: Duration = Duration::from_millis(100);

/// One batch of a connection's queued items, run by a pool worker, which
/// delivers the responses through `conn` itself.
struct Job {
    token: u64,
    conn: Arc<ConnShared>,
    batch: Batch,
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
    /// Torn down: nobody will read what is delivered from now on, and a
    /// dispatched FETCH that has not started its page must not start it.
    /// Raised by the reactor, under `out`, before it cancels the
    /// connection's lent sessions.
    closed: AtomicBool,
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
}

/// What [`Outbound::flush`] left behind.
#[derive(Clone, Copy, Debug, PartialEq)]
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
    fn flush(&mut self, mut stream: impl Write, server: &RankedQueryServer) -> Flush {
        while !self.outq.is_empty() {
            let short_write = re_fault::fire("reactor.flush").is_err();
            let written = if short_write {
                stream.write(&self.outq[0][self.outpos..=self.outpos])
            } else {
                let front = IoSlice::new(&self.outq[0][self.outpos..]);
                let rest = self.outq.iter().skip(1).map(|buf| IoSlice::new(buf));
                stream.write_vectored(&std::iter::once(front).chain(rest).collect::<Vec<_>>())
            };
            match written {
                Ok(0) => return Flush::Dead,
                Ok(n) => {
                    server.bump_transport(|t| t.bytes_out = n as u64);
                    self.consume(n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Flush::Blocked,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Flush::Dead,
            }
            if short_write && !self.outq.is_empty() {
                return Flush::Blocked;
            }
        }
        Flush::Drained
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

    /// No batch of this connection is on the pool.
    fn idle(&self) -> bool {
        !self.inflight.load(Ordering::SeqCst)
    }

    /// Reactor side of the poke handshake: ask the running batch's worker
    /// for a poke when it ends, then look at [`Self::idle`] again.
    fn ask_for_poke(&self) {
        self.poke_when_done.store(true, Ordering::SeqCst);
    }

    /// Worker side of the poke handshake: publish the connection idle,
    /// then [`Self::take_poke_request`].
    fn publish_idle(&self) {
        self.inflight.store(false, Ordering::SeqCst);
    }

    /// Whether the reactor asked for a poke, clearing the request.
    fn take_poke_request(&self) -> bool {
        self.poke_when_done.swap(false, Ordering::SeqCst)
    }

    /// Teardown's half of the disconnect handshake, before it cancels:
    /// raise `closed` and drop the responses nobody will read.
    fn raise_closed(&self) {
        let mut out = self.lock_out();
        self.closed.store(true, Ordering::SeqCst);
        out.outq.clear();
        out.outpos = 0;
    }

    /// Worker side: queue a finished batch's responses, publish the
    /// connection idle, and put the bytes on the wire. Returns whether the
    /// reactor needs a poke (see the module docs for the three reasons).
    fn deliver(&self, server: &RankedQueryServer, buf: Vec<u8>) -> bool {
        let mut out = self.lock_out();
        let closed = self.closed.load(Ordering::SeqCst);
        if !buf.is_empty() && !closed {
            out.outq.push_back(buf);
        }
        // Idle goes out after the append — a later batch's responses queue
        // behind these — and before the write: once the bytes land the
        // client may answer at once, and the reactor must then find the
        // connection idle.
        self.publish_idle();
        let mut poke = self.take_poke_request();
        if !closed && !out.reactor_flushes {
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
                    for item in job.batch.items {
                        let response = match item {
                            WorkItem::Request(request) => {
                                server.handle_caught(request, &job.conn.closed)
                            }
                            WorkItem::Malformed(message) => Response::error(message),
                            WorkItem::Shed => server.shed_pipeline_response(max_pipeline),
                        };
                        wire::append_response(job.batch.protocol, &response, &mut buf);
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

    threads.push({
        let shutdown = Arc::clone(&shutdown);
        let waker = Arc::clone(&waker);
        std::thread::spawn(move || {
            Reactor {
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
                accept_paused_until: None,
                ready_events: re_obs::global().histogram("reactor.ready_events"),
            }
            .run();
        })
    });

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
    /// Per connection, the half shared with workers and the machine that
    /// decides what happens next.
    conns: HashMap<u64, (Arc<ConnShared>, conn::Conn)>,
    next_token: u64,
    max_pipeline: usize,
    /// Accepting is paused (the listener deregistered) until then, or
    /// until the next teardown.
    accept_paused_until: Option<Instant>,
    /// Histogram of ready events per poll wait: the reactor's batching
    /// factor under load, and proof of quiescence when idle.
    ready_events: Arc<re_obs::AtomicHistogram>,
}

impl Reactor {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            // Indefinite wait unless accepting is paused: with nothing to
            // do the reactor makes *zero* syscalls — wakeups come only
            // from sockets, the listener, or the wake pipe (a worker's
            // poke, or shutdown).
            let pause = self.accept_paused_until;
            let timeout = pause.map(|until| until.saturating_duration_since(Instant::now()));
            if wait_events(&self.poller, &mut events, timeout).is_err() {
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
            if pause.is_some_and(|until| until <= Instant::now()) {
                self.resume_accept();
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
                    let shared = Arc::new(ConnShared {
                        stream,
                        out: Mutex::default(),
                        inflight: AtomicBool::new(false),
                        poke_when_done: AtomicBool::new(false),
                        closed: AtomicBool::new(false),
                    });
                    self.conns.insert(token, (shared, conn::Conn::default()));
                }
                Err(e) => match e.kind() {
                    ErrorKind::WouldBlock => return,
                    ErrorKind::Interrupted | ErrorKind::ConnectionAborted => continue,
                    _ => return self.pause_accept(&e),
                },
            }
        }
    }

    /// Stop accepting after an error that leaves the connection in the
    /// backlog, which would keep the listener ready (see the module docs).
    fn pause_accept(&mut self, error: &std::io::Error) {
        let _ = self.poller.deregister(self.listener.as_raw_fd());
        self.accept_paused_until = Some(Instant::now() + ACCEPT_PAUSE);
        let error = error.to_string();
        let fields = [("error", FieldValue::Str(&error))];
        re_obs::log::warn("re_server", "accept paused", &fields);
    }

    /// Register the listener again if accepting is paused.
    fn resume_accept(&mut self) {
        if self.accept_paused_until.take().is_some() {
            let fd = self.listener.as_raw_fd();
            if self.poller.register(fd, LISTENER, Interest::READ).is_err() {
                self.accept_paused_until = Some(Instant::now() + ACCEPT_PAUSE);
            }
        }
    }

    /// Advance one connection on readiness.
    fn conn_ready(&mut self, token: u64, event: Event) {
        if event.writable && !self.flush_leftover(token) {
            return;
        }
        if (event.readable || event.hangup) && !self.read_and_parse(token, event.hangup) {
            return self.teardown(token);
        }
        self.dispatch_queued(token);
    }

    /// Read what the socket has into the machine and end the drain there.
    /// Returns `false` once the peer is gone (EOF or reset).
    ///
    /// One `read` per readiness report unless it filled the whole chunk:
    /// the poller is level-triggered, so bytes a short read left behind
    /// are reported again, and a second `read` whose only answer is
    /// `EAGAIN` is a syscall per request for nothing. A hang-up is read
    /// through to EOF, so a peer that is gone is torn down in this round
    /// instead of having its last requests dispatched first.
    fn read_and_parse(&mut self, token: u64, hangup: bool) -> bool {
        let Some((shared, machine)) = self.conns.get_mut(&token) else {
            return false; // by an earlier event of this round
        };
        let mut stream = &shared.stream;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => return false,
                Ok(n) => {
                    machine.received(&chunk[..n]);
                    self.server.bump_transport(|t| t.bytes_in = n as u64);
                    if n < chunk.len() && !hangup {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false, // reset: same cleanup as EOF
            }
        }
        machine.parse(self.max_pipeline);
        true
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
    /// and register the interest the machine wants. Returns `false` when
    /// the connection is gone (torn down here, or earlier).
    fn flush_leftover(&mut self, token: u64) -> bool {
        let Some((shared, machine)) = self.conns.get_mut(&token) else {
            return false;
        };
        let flushed = {
            let mut out = shared.lock_out();
            let flushed = out.flush(&shared.stream, &self.server);
            out.reactor_flushes = flushed == Flush::Blocked;
            flushed
        };
        let fd = shared.stream.as_raw_fd();
        let alive = match machine.flushed(flushed) {
            Rearm::Keep => true,
            Rearm::To(interest) => self.poller.modify(fd, token, interest).is_ok(),
            Rearm::Close => false,
        };
        if !alive {
            self.teardown(token);
        }
        alive
    }

    /// Dispatch the queued requests as the next batch if the connection
    /// is idle — otherwise ask the running batch's worker for a poke — and
    /// close a broken-framing connection whose final error has flushed.
    fn dispatch_queued(&mut self, token: u64) {
        let conn = self.conns.get_mut(&token);
        let Some((shared, machine)) = conn.filter(|(_, machine)| machine.awaits_idle()) else {
            return;
        };
        // Flag first, then look again: a worker that cleared `inflight`
        // before the second look may already be past its test of the
        // flag, so the dispatch is ours.
        let idle = shared.idle() || {
            shared.ask_for_poke();
            shared.idle()
        };
        match machine.next(idle) {
            Next::Dispatch(batch) => {
                // The batch that answers a framing error is the
                // connection's last: hear about its end to close.
                shared.poke_when_done.store(batch.last, Ordering::SeqCst);
                shared.inflight.store(true, Ordering::SeqCst);
                let conn = Arc::clone(shared);
                self.jobs.push(Job { token, conn, batch });
            }
            Next::CloseWhenDrained if shared.lock_out().outq.is_empty() => self.teardown(token),
            Next::CloseWhenDrained | Next::Wait => {}
        }
    }

    /// Tear a connection down *now*: deregister the fd (a dead socket must
    /// leave the level-triggered poller immediately), shut the socket down
    /// — the fd itself closes with the last `Arc`, which a worker may hold
    /// — drop queued-but-undispatched requests and unread responses, and
    /// raise the closed flag, then cancel any in-flight FETCH's session, so
    /// no enumerator works for a reader that is gone (see the module docs).
    /// A descriptor is free again, so a paused listener resumes.
    fn teardown(&mut self, token: u64) {
        let Some((shared, machine)) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.poller.deregister(shared.stream.as_raw_fd());
        let _ = shared.stream.shutdown(Shutdown::Both);
        shared.raise_closed();
        self.server.bump_transport(|t| t.disconnects = 1);
        for &session in machine.cancels(shared.idle()) {
            self.server.cancel_disconnected_fetch(session);
        }
        self.resume_accept();
    }

    /// Shutdown: tear down every connection (cancelling in-flight
    /// fetches) and return; dropping the reactor then closes the job
    /// queue, so the workers drain it and exit.
    fn teardown_all(&mut self) {
        for token in self.conns.keys().copied().collect::<Vec<u64>>() {
            self.teardown(token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;
    use re_storage::{attr::attrs, Database, Relation};
    use std::io;

    /// One scripted answer of [`Socket`] to a write attempt.
    #[derive(Clone, Copy)]
    enum Answer {
        /// Take up to this many bytes.
        Take(usize),
        Block,
        Interrupt,
        Zero,
        Fail,
    }

    /// A scripted socket: answers each write attempt with the next
    /// [`Answer`] (then takes everything) and keeps what it took.
    #[derive(Default)]
    struct Socket {
        answers: VecDeque<Answer>,
        taken: Vec<u8>,
    }

    impl Write for Socket {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut room = match self.answers.pop_front().unwrap_or(Answer::Take(usize::MAX)) {
                Answer::Take(n) => n,
                Answer::Block => return Err(ErrorKind::WouldBlock.into()),
                Answer::Interrupt => return Err(ErrorKind::Interrupted.into()),
                Answer::Zero => return Ok(0),
                Answer::Fail => return Err(ErrorKind::ConnectionReset.into()),
            };
            let before = self.taken.len();
            for buf in bufs {
                let n = buf.len().min(room);
                self.taken.extend_from_slice(&buf[..n]);
                room -= n;
            }
            Ok(self.taken.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// `Outbound`'s stated invariant, and the bytes still queued.
    fn left(out: &Outbound) -> Vec<u8> {
        assert!(
            out.outq.iter().all(|buf| !buf.is_empty()),
            "an empty buffer queued"
        );
        match out.outq.front() {
            Some(front) => assert!(out.outpos < front.len(), "outpos past the front buffer"),
            None => assert_eq!(out.outpos, 0, "outpos of an empty queue"),
        }
        let mut left: Vec<u8> = out.outq.iter().flatten().copied().collect();
        left.drain(..out.outpos);
        left
    }

    /// One to three queued buffers of distinct bytes.
    fn queues() -> Vec<Vec<Vec<u8>>> {
        let shapes: [&[usize]; 5] = [&[1], &[5], &[3, 4], &[1, 1, 1], &[2, 1, 3]];
        let mut next = 0u8;
        let buf = |len: usize, next: &mut u8| -> Vec<u8> {
            (0..len)
                .map(|_| {
                    *next += 1;
                    *next
                })
                .collect()
        };
        let queue = |shape: &[usize], next: &mut u8| shape.iter().map(|&n| buf(n, next)).collect();
        shapes.iter().map(|shape| queue(shape, &mut next)).collect()
    }

    fn outbound(queue: &[Vec<u8>]) -> Outbound {
        Outbound {
            outq: queue.iter().cloned().collect(),
            ..Outbound::default()
        }
    }

    /// A server to count the bytes written against.
    fn server() -> Arc<RankedQueryServer> {
        RankedQueryServer::new(ServerConfig {
            exec_threads: 1,
            ..ServerConfig::default()
        })
    }

    /// Flush `out` into `socket` under `answers`; check the invariant and
    /// that the bytes taken and the bytes left are the bytes queued.
    fn flush(
        server: &RankedQueryServer,
        out: &mut Outbound,
        socket: &mut Socket,
        answers: &[Answer],
        all: &[u8],
    ) -> Flush {
        socket.answers = answers.iter().copied().collect();
        let flushed = out.flush(&mut *socket, server);
        let mut seen = socket.taken.clone();
        seen.extend(left(out));
        assert_eq!(seen, all, "taken then left are the queued bytes");
        flushed
    }

    /// A short write at every byte offset of one to three buffers blocks
    /// the flush there, and the next flush finishes from exactly there.
    #[test]
    fn a_short_write_at_every_offset_resumes_where_it_stopped() {
        let server = server();
        for queue in queues() {
            let all = queue.concat();
            for n in 1..all.len() {
                let (mut out, mut socket) = (outbound(&queue), Socket::default());
                let answers = [Answer::Take(n), Answer::Block];
                assert_eq!(
                    flush(&server, &mut out, &mut socket, &answers, &all),
                    Flush::Blocked
                );
                assert_eq!(socket.taken, all[..n], "{queue:?}: took {n}");
                assert_eq!(
                    flush(&server, &mut out, &mut socket, &[], &all),
                    Flush::Drained
                );
                assert_eq!(socket.taken, all);
            }
            // One byte per attempt: every attempt is a short write.
            let (mut out, mut socket) = (outbound(&queue), Socket::default());
            let answers = vec![Answer::Take(1); all.len()];
            assert_eq!(
                flush(&server, &mut out, &mut socket, &answers, &all),
                Flush::Drained
            );
        }
    }

    /// `Interrupted` is retried, `WouldBlock` mid-queue stops the flush
    /// until the next one, and `Ok(0)` or any other error reports a dead
    /// socket, leaving the queue consistent.
    #[test]
    fn a_flush_retries_interrupts_and_reports_blocked_and_dead_sockets() {
        use Answer::*;
        let server = server();
        for queue in queues() {
            let all = queue.concat();
            let first = queue[0].len();
            // Blocked between two buffers; a lone buffer is drained first.
            let mid = [Flush::Drained, Flush::Blocked][usize::from(queue.len() > 1)];
            let cases: [(&[Answer], Flush); 5] = [
                (&[Interrupt, Interrupt], Flush::Drained),
                (&[Take(first), Block], mid),
                (&[Take(first), Interrupt, Block], mid),
                (&[Take(first - 1), Zero], Flush::Dead),
                (&[Interrupt, Fail], Flush::Dead),
            ];
            for (answers, want) in cases {
                let (mut out, mut socket) = (outbound(&queue), Socket::default());
                assert_eq!(flush(&server, &mut out, &mut socket, answers, &all), want);
                assert_eq!(
                    flush(&server, &mut out, &mut socket, &[], &all),
                    Flush::Drained
                );
            }
        }
    }

    /// `consume` of every prefix keeps the invariant and drops exactly
    /// that prefix.
    #[test]
    fn consume_drops_exactly_the_bytes_taken() {
        for queue in queues() {
            let all = queue.concat();
            for n in 0..=all.len() {
                let mut out = outbound(&queue);
                out.consume(n);
                assert_eq!(left(&out), all[n..], "{queue:?}: consumed {n}");
            }
        }
    }

    /// The six orders of two steps on each side that keep each side's own
    /// order: `R` the reactor's next step, `W` the worker's.
    const ORDERS: [&str; 6] = ["RRWW", "RWRW", "RWWR", "WRRW", "WRWR", "WWRR"];

    /// The server half of a loopback connection, and its peer.
    fn loopback() -> (ConnShared, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let shared = ConnShared {
            stream: listener.accept().unwrap().0,
            out: Mutex::default(),
            inflight: AtomicBool::new(false),
            poke_when_done: AtomicBool::new(false),
            closed: AtomicBool::new(false),
        };
        (shared, peer)
    }

    /// The reactor found the connection busy with items queued: it asks
    /// for a poke, then looks again. The batch's worker publishes the
    /// connection idle, then takes the poke request. In every order the
    /// reactor dispatches or the worker pokes it.
    #[test]
    fn no_order_of_the_poke_handshake_strands_a_queued_batch() {
        let (shared, _peer) = loopback();
        for order in ORDERS {
            shared.inflight.store(true, Ordering::SeqCst);
            shared.poke_when_done.store(false, Ordering::SeqCst);
            let (mut reactor, mut worker) = (0, 0);
            let (mut dispatches, mut pokes) = (false, false);
            for side in order.chars() {
                match (side, reactor, worker) {
                    ('R', 0, _) => shared.ask_for_poke(),
                    ('R', _, _) => dispatches = shared.idle(),
                    (_, _, 0) => shared.publish_idle(),
                    (_, _, _) => pokes = shared.take_poke_request(),
                }
                *if side == 'R' {
                    &mut reactor
                } else {
                    &mut worker
                } += 1;
            }
            assert!(dispatches || pokes, "{order}: neither dispatch nor poke");
        }
    }

    /// Teardown raises `closed`, then cancels the lent sessions of the
    /// in-flight FETCHes; the FETCH's worker checks its session out, then
    /// reads `closed`. In every order the session ends cancelled: the
    /// FETCH never re-parks it for a reader that is gone.
    #[test]
    fn no_order_of_the_disconnect_handshake_re_parks_the_session() {
        let server = server();
        let mut db = Database::new();
        let rows = (1..=20).map(|v| vec![v]).collect::<Vec<_>>();
        db.add_relation(Relation::with_tuples("T", attrs(["a"]), rows).unwrap())
            .unwrap();
        server.catalog().register("d", db);
        for order in ORDERS {
            let open = Request::Open {
                db: "d".into(),
                sql: "SELECT DISTINCT T.a FROM T ORDER BY T.a".into(),
                deadline_millis: None,
            };
            let Response::Opened { session, .. } = server.handle(open) else {
                panic!("{order}: OPEN failed");
            };
            let (shared, _peer) = loopback();
            let (mut reactor, mut lent, mut gone) = (0, None, false);
            for side in order.chars() {
                match (side, reactor, &lent) {
                    ('R', 0, _) => shared.raise_closed(),
                    ('R', _, _) => server.cancel_disconnected_fetch(session),
                    (_, _, None) => lent = Some(server.lend(session).unwrap()),
                    (_, _, Some(_)) => gone = shared.closed.load(Ordering::SeqCst),
                }
                reactor += usize::from(side == 'R');
            }
            let _ = server.fetch_lent(lent.unwrap(), 3, gone);
            let Err(Response::Error { code, .. }) = server.lend(session) else {
                panic!("{order}: the session outlived its connection");
            };
            assert_eq!(code, "cancelled", "{order}");
        }
    }
}
