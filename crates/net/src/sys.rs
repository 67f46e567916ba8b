//! Raw syscall bindings and the per-OS [`Poller`] implementation.
//!
//! Everything here is declared directly against the C library the binary
//! already links — no `libc` crate, no build script. Linux gets the real
//! `epoll` backend (O(ready) wakeups, the fd set lives in the kernel);
//! other Unixes get a `poll(2)` fallback with the same level-triggered
//! semantics so the crate builds and tests everywhere.

use super::{Event, Interest};
use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_void};
use std::time::Duration;

extern "C" {
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
}

/// Close a descriptor, ignoring errors (double-close is a bug upstream;
/// EINTR on close is unrecoverable anyway).
pub(crate) fn close_fd(fd: RawFd) {
    unsafe {
        close(fd);
    }
}

/// Write one byte, ignoring the result (a full pipe means a wakeup is
/// already pending).
pub(crate) fn write_byte(fd: RawFd) -> io::Result<()> {
    let byte = 1u8;
    let n = unsafe { write(fd, (&byte as *const u8).cast(), 1) };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(())
    }
}

/// Take what one `read` finds on a non-blocking descriptor (up to 64
/// bytes); returns the bytes drained. No second `read` to see `EAGAIN`:
/// anything left keeps the descriptor readable, and the level-triggered
/// poller reports it again.
pub(crate) fn drain_fd(fd: RawFd) -> u64 {
    let mut buf = [0u8; 64];
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

#[cfg(target_os = "linux")]
mod imp {
    use super::*;

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

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
    }

    pub(crate) fn nonblocking_pipe() -> io::Result<(RawFd, RawFd)> {
        let mut fds = [0 as c_int; 2];
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
            if unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Block until readiness or timeout; fills `events` (cleared
        /// first) and returns how many fired. `None` blocks forever.
        pub fn wait(
            &self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            events.clear();
            let mut raw = [EpollEvent { events: 0, data: 0 }; 128];
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
}

#[cfg(all(unix, not(target_os = "linux")))]
mod imp {
    use super::*;
    use std::sync::Mutex;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;
    const F_GETFL: c_int = 3;
    const F_SETFL: c_int = 4;
    // O_NONBLOCK on the BSD family (macOS included).
    const O_NONBLOCK: c_int = 0x0004;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: c_int) -> c_int;
        fn pipe(fds: *mut c_int) -> c_int;
        fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
    }

    pub(crate) fn nonblocking_pipe() -> io::Result<(RawFd, RawFd)> {
        let mut fds = [0 as c_int; 2];
        if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
            return Err(io::Error::last_os_error());
        }
        for fd in fds {
            let flags = unsafe { fcntl(fd, F_GETFL, 0) };
            if flags < 0 || unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) } < 0 {
                return Err(io::Error::last_os_error());
            }
        }
        Ok((fds[0], fds[1]))
    }

    /// `poll(2)` fallback: the fd set lives in user space and each wait
    /// is O(registered fds). Correctness-equivalent to the Linux epoll
    /// backend; only the scaling constant differs.
    pub struct Poller {
        fds: Mutex<Vec<(RawFd, u64, Interest)>>,
    }

    impl Poller {
        /// A fresh poller.
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                fds: Mutex::new(Vec::new()),
            })
        }

        /// Watch `fd` for `interest`, reporting events with `token`.
        pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut fds = self.fds.lock().unwrap();
            if fds.iter().any(|(f, _, _)| *f == fd) {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd already registered",
                ));
            }
            fds.push((fd, token, interest));
            Ok(())
        }

        /// Change the interest or token of an already-registered `fd`.
        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut fds = self.fds.lock().unwrap();
            for entry in fds.iter_mut() {
                if entry.0 == fd {
                    *entry = (fd, token, interest);
                    return Ok(());
                }
            }
            Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
        }

        /// Stop watching `fd`.
        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            let mut fds = self.fds.lock().unwrap();
            let before = fds.len();
            fds.retain(|(f, _, _)| *f != fd);
            if fds.len() == before {
                return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
            }
            Ok(())
        }

        /// Block until readiness or timeout; fills `events` (cleared
        /// first) and returns how many fired. `None` blocks forever.
        pub fn wait(
            &self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            events.clear();
            let registered: Vec<(RawFd, u64, Interest)> = self.fds.lock().unwrap().clone();
            let mut pollfds: Vec<PollFd> = registered
                .iter()
                .map(|(fd, _, interest)| PollFd {
                    fd: *fd,
                    events: if interest.readable { POLLIN } else { 0 }
                        | if interest.writable { POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            let n = unsafe {
                poll(
                    pollfds.as_mut_ptr(),
                    pollfds.len() as u64,
                    timeout_millis(timeout),
                )
            };
            if n < 0 {
                return Err(io::Error::last_os_error());
            }
            for (pollfd, (_, token, _)) in pollfds.iter().zip(registered.iter()) {
                let re = pollfd.revents;
                if re == 0 {
                    continue;
                }
                events.push(Event {
                    token: *token,
                    readable: re & (POLLIN | POLLHUP) != 0,
                    writable: re & POLLOUT != 0,
                    hangup: re & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(events.len())
        }
    }
}

#[cfg(not(unix))]
compile_error!("re_net supports Unix targets only (epoll on Linux, poll(2) elsewhere)");

pub(crate) use imp::nonblocking_pipe;
pub use imp::Poller;
