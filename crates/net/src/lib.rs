//! # re_net — a minimal readiness-polling abstraction
//!
//! The event-driven server front-end needs exactly three primitives from
//! the operating system: *"tell me which of these sockets are readable or
//! writable"* ([`Poller`]), *"let another thread interrupt that wait"*
//! ([`WakePipe`]), and non-blocking I/O (which `std::net` already
//! provides). This crate supplies the first two over raw syscalls —
//! `epoll` on Linux, `poll(2)` on other Unixes — declared directly
//! against the C library every Rust binary already links, so the
//! workspace stays free of registry dependencies.
//!
//! The abstraction is deliberately small and level-triggered:
//!
//! * [`Poller::register`] associates a file descriptor with a caller
//!   chosen `u64` token and an [`Interest`] (readable and/or writable).
//! * [`Poller::wait`] blocks until at least one registered descriptor is
//!   ready (or the timeout passes) and reports [`Event`]s carrying the
//!   registered tokens.
//! * [`WakePipe`] is a non-blocking self-pipe: its read end is registered
//!   with the poller, and any thread may call [`WakePipe::wake`] to make
//!   a concurrent or future `wait` return — the mechanism worker threads
//!   use when a connection needs the reactor's attention, and the
//!   reactor's only shutdown signal (no periodic timeout polling: an idle
//!   reactor makes *zero* wakeups until a socket or the pipe has news).
//!
//! Level-triggered readiness keeps the state machines simple: a socket
//! that still has buffered bytes stays ready, so short reads never strand
//! data, and `EAGAIN` is the only "stop now" signal the caller needs to
//! handle.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

mod sys;

pub use sys::Poller;

/// What readiness to watch a descriptor for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor becomes readable (or the peer hangs up).
    pub readable: bool,
    /// Wake when the descriptor becomes writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only — the resting state of an idle connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Writable only.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Readable and writable — a connection with a pending outbound
    /// buffer that still accepts pipelined requests.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness report from [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the descriptor was registered under.
    pub token: u64,
    /// The descriptor is readable (includes pending EOF).
    pub readable: bool,
    /// The descriptor is writable.
    pub writable: bool,
    /// The peer hung up or the descriptor errored; the owner should read
    /// to EOF (draining any final bytes) and tear the connection down.
    pub hangup: bool,
}

/// A non-blocking self-pipe for cross-thread wakeups.
///
/// The read end is registered with a [`Poller`]; [`WakePipe::wake`] from
/// any thread makes the poller's `wait` return. Wakeups coalesce: one
/// [`WakePipe::drain`] takes every byte pending (up to 64 per call), and
/// a full pipe on `wake` simply means a wakeup is already pending, which
/// is exactly the semantics wanted.
pub struct WakePipe {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl WakePipe {
    /// A fresh pipe, both ends non-blocking and close-on-exec.
    pub fn new() -> io::Result<WakePipe> {
        let (read_fd, write_fd) = sys::nonblocking_pipe()?;
        Ok(WakePipe { read_fd, write_fd })
    }

    /// The read end, for registration with a [`Poller`].
    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Make any concurrent or future [`Poller::wait`] watching the read
    /// end return. Never blocks: a full pipe means a wakeup is already
    /// queued and the write is dropped.
    pub fn wake(&self) {
        let _ = sys::write_byte(self.write_fd);
    }

    /// Coalesce the pending wakeups into this call, with a single `read`:
    /// returns how many wakeup bytes it took (at most 64). Bytes beyond
    /// that keep the read end readable, so a level-triggered [`Poller`]
    /// reports the pipe again and the next call takes them.
    pub fn drain(&self) -> u64 {
        sys::drain_fd(self.read_fd)
    }
}

// The pipe is a pair of kernel descriptors; writing one byte from several
// threads concurrently is exactly what pipes guarantee to be safe.
unsafe impl Send for WakePipe {}
unsafe impl Sync for WakePipe {}

impl Drop for WakePipe {
    fn drop(&mut self) {
        sys::close_fd(self.read_fd);
        sys::close_fd(self.write_fd);
    }
}

/// Convenience wrapper: wait with an optional timeout, retrying on
/// `EINTR` so callers never see spurious interrupted-syscall errors.
pub fn wait_events(
    poller: &Poller,
    events: &mut Vec<Event>,
    timeout: Option<Duration>,
) -> io::Result<usize> {
    loop {
        match poller.wait(events, timeout) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            other => return other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn wake_pipe_wakes_a_waiting_poller() {
        let poller = Poller::new().unwrap();
        let pipe = WakePipe::new().unwrap();
        poller.register(pipe.read_fd(), 7, Interest::READ).unwrap();
        let mut events = Vec::new();
        // Nothing pending: a short timed wait comes back empty.
        let n = wait_events(&poller, &mut events, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0, "no event before the wake");
        pipe.wake();
        pipe.wake(); // coalesces with the first
        let n = wait_events(&poller, &mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        assert!(pipe.drain() >= 1, "the pending wakeup bytes drain");
        let n = wait_events(&poller, &mut events, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0, "drained pipe is quiet again");
    }

    #[test]
    fn socket_readability_is_reported_with_its_token() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_end, _) = listener.accept().unwrap();
        server_end.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller
            .register(server_end.as_raw_fd(), 42, Interest::READ)
            .unwrap();
        let mut events = Vec::new();
        let n = wait_events(&poller, &mut events, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0, "idle socket raises no events");

        client.write_all(b"hello").unwrap();
        let n = wait_events(&poller, &mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable);

        // Level-triggered: the event repeats until the bytes are consumed.
        let n = wait_events(&poller, &mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1, "unread bytes keep the socket ready");
        let mut buf = [0u8; 16];
        let got = (&server_end).read(&mut buf).unwrap();
        assert_eq!(&buf[..got], b"hello");
        let n = wait_events(&poller, &mut events, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0, "consumed socket is quiet");
    }

    #[test]
    fn peer_close_reports_readable_or_hangup() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server_end, _) = listener.accept().unwrap();
        server_end.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller
            .register(server_end.as_raw_fd(), 1, Interest::READ)
            .unwrap();
        drop(client);
        let mut events = Vec::new();
        let n = wait_events(&poller, &mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert!(
            events[0].readable || events[0].hangup,
            "EOF surfaces as readable (read returns 0) or an explicit hangup"
        );
    }

    #[test]
    fn writable_interest_fires_and_can_be_modified_away() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let (server_end, _) = listener.accept().unwrap();
        server_end.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller
            .register(server_end.as_raw_fd(), 5, Interest::READ_WRITE)
            .unwrap();
        let mut events = Vec::new();
        let n = wait_events(&poller, &mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert!(events[0].writable, "an empty send buffer is writable");

        poller
            .modify(server_end.as_raw_fd(), 5, Interest::READ)
            .unwrap();
        let n = wait_events(&poller, &mut events, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0, "write interest dropped, socket idle again");

        poller.deregister(server_end.as_raw_fd()).unwrap();
    }
}
