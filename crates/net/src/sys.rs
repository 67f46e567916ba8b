//! Raw syscall bindings and the `epoll` [`Poller`].
//!
//! Everything here is declared directly against the C library the binary
//! already links — no `libc` crate, no build script. The crate is
//! Linux-only: `epoll` keeps the fd set in the kernel, so a wakeup costs
//! O(ready events), and the constants below are Linux's.

#[cfg(not(target_os = "linux"))]
compile_error!("re_net supports Linux only: it drives epoll directly");

use super::{Event, Interest};
use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_void};
use std::time::Duration;

extern "C" {
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
}

/// Close a descriptor, ignoring errors (double-close is a bug upstream;
/// EINTR on close is unrecoverable anyway).
pub(crate) fn close_fd(fd: RawFd) {
    // SAFETY: `close` takes no pointer. Callers pass a descriptor they own
    // and close it once, from `Drop`.
    unsafe {
        close(fd);
    }
}

/// Write one byte, ignoring the result (a full pipe means a wakeup is
/// already pending).
pub(crate) fn write_byte(fd: RawFd) -> io::Result<()> {
    let byte = 1u8;
    // SAFETY: the pointer is to a live local byte and the length is 1. The
    // descriptor is non-blocking, so a full pipe returns `EAGAIN` instead
    // of blocking the caller.
    let n = unsafe { write(fd, (&byte as *const u8).cast(), 1) };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(())
    }
}

/// The most bytes [`drain_fd`] takes per call.
pub(crate) const DRAIN_BYTES: usize = 64;

/// The most events one `Poller::wait` reports: the length of the buffer it
/// hands `epoll_wait`.
pub(crate) const WAIT_EVENTS: usize = 128;

/// Take what one `read` finds on a non-blocking descriptor (up to
/// [`DRAIN_BYTES`]); returns the bytes drained. No second `read` to see
/// `EAGAIN`: anything left keeps the descriptor readable, and the
/// level-triggered poller reports it again.
pub(crate) fn drain_fd(fd: RawFd) -> u64 {
    let mut buf = [0u8; DRAIN_BYTES];
    // SAFETY: the length passed is that of `buf`, which outlives the call.
    // The descriptor is non-blocking, so an empty pipe returns `EAGAIN`.
    let n = unsafe { read(fd, buf.as_mut_ptr().cast(), buf.len()) };
    // EAGAIN, EOF and a racing drain all count as nothing drained.
    n.max(0) as u64
}

/// Clamp an optional timeout to the millisecond `c_int` the syscalls
/// take: `None` means block forever (-1), sub-millisecond waits round up
/// so a caller asking for "a moment" never busy-spins at timeout 0.
fn timeout_millis(timeout: Option<Duration>) -> c_int {
    match timeout {
        None => -1,
        Some(t) => {
            let ms = t.as_millis();
            if ms == 0 && t.as_nanos() > 0 {
                1
            } else {
                ms.min(c_int::MAX as u128) as c_int
            }
        }
    }
}

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const O_NONBLOCK: c_int = 0o4000;
const O_CLOEXEC: c_int = 0o2000000;

// The kernel ABI struct: packed on x86-64 (12 bytes), naturally
// aligned elsewhere.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

pub(crate) fn nonblocking_pipe() -> io::Result<(RawFd, RawFd)> {
    let mut fds = [0 as c_int; 2];
    // SAFETY: `pipe2` writes exactly two descriptors through the
    // pointer, and `fds` has room for two.
    if unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((fds[0], fds[1]))
}

fn mask_of(interest: Interest) -> u32 {
    let mut mask = EPOLLRDHUP;
    if interest.readable {
        mask |= EPOLLIN;
    }
    if interest.writable {
        mask |= EPOLLOUT;
    }
    mask
}

/// Level-triggered epoll instance. The registered-fd set lives in the
/// kernel, so `wait` costs O(ready events), not O(registered fds) —
/// ten thousand parked connections cost nothing per wakeup.
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// A fresh epoll instance (close-on-exec).
    pub fn new() -> io::Result<Poller> {
        // SAFETY: `epoll_create1` takes no pointer; a negative result
        // is checked below.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    /// Watch `fd` for `interest`, reporting events with `token`.
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Change the interest or token of an already-registered `fd`.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Stop watching `fd`.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: `self.epfd` is the live epoll descriptor this poller
        // owns, and `ev` is a valid event the kernel may read (older
        // kernels require one even for `EPOLL_CTL_DEL`).
        if unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: mask_of(interest),
            data: token,
        };
        // SAFETY: `self.epfd` is the live epoll descriptor this poller
        // owns, and `ev` is a valid event the kernel reads once.
        if unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Block until readiness or timeout; fills `events` (cleared
    /// first) and returns how many fired. `None` blocks forever.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        events.clear();
        let mut raw = [EpollEvent { events: 0, data: 0 }; WAIT_EVENTS];
        // SAFETY: `self.epfd` is the live epoll descriptor this poller
        // owns, and `maxevents` is the length of `raw`, so the kernel
        // writes at most that many events into it.
        let n = unsafe {
            epoll_wait(
                self.epfd,
                raw.as_mut_ptr(),
                raw.len() as c_int,
                timeout_millis(timeout),
            )
        };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        for ev in raw.iter().take(n as usize) {
            // Copy out of the (possibly packed) ABI struct before use.
            let mask = ev.events;
            let token = ev.data;
            events.push(Event {
                token,
                readable: mask & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                writable: mask & EPOLLOUT != 0,
                hangup: mask & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(events.len())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        close_fd(self.epfd);
    }
}
