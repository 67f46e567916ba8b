//! The reactor at the process's descriptor limit: an accept that fails
//! with `EMFILE` leaves its connection in the backlog and the listener
//! readable, so the reactor pauses accepting instead of spinning in
//! `epoll_wait`, and accepts the connection once a descriptor is free.
//!
//! A binary of its own: the limit it lowers is per process.

use re_server::{serve, RankedQueryServer, Request, Response, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `struct rlimit` of Linux: soft and hard limit.
#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

/// Linux's resource number for the open-descriptor limit.
const RLIMIT_NOFILE: i32 = 7;

extern "C" {
    fn getrlimit(resource: i32, limit: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, limit: *const RLimit) -> i32;
}

/// Lower this process's soft descriptor limit to `cur`.
fn limit_descriptors(cur: u64) {
    let mut limit = RLimit { cur: 0, max: 0 };
    // SAFETY: `limit` is a live, writable `struct rlimit` (two `rlim_t`,
    // which are `u64` on Linux) for the call to fill.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut limit) }, 0);
    limit.cur = cur.min(limit.max);
    // SAFETY: `limit` is a valid `struct rlimit` the call only reads; a
    // soft limit at or below the hard one needs no privilege.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &limit) }, 0);
}

/// Descriptors this process holds now.
fn open_descriptors() -> u64 {
    // The directory stream holds one descriptor of its own.
    std::fs::read_dir("/proc/self/fd").unwrap().count() as u64 - 1
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_full_descriptor_table_pauses_accepting_instead_of_spinning() {
    let config = ServerConfig::default();
    let server = RankedQueryServer::new(config.clone());
    let handle = serve(Arc::clone(&server), "127.0.0.1:0", &config).unwrap();
    let transport = || server.stats_report().transport;

    // Room for ten connections, both ends in this process, and the
    // client end of an eleventh, whose accept then fails.
    let accepted = 10;
    limit_descriptors(open_descriptors() + 2 * accepted + 1);
    let mut clients: Vec<TcpStream> = (0..=accepted)
        .map(|_| TcpStream::connect(handle.addr()).unwrap())
        .collect();
    wait_until("ten connections are accepted", || {
        transport().conns_accepted == accepted
    });

    // Give any spin time to show, then count poll waits.
    std::thread::sleep(Duration::from_millis(50));
    let before = transport().epoll_waits;
    std::thread::sleep(Duration::from_millis(200));
    let waits = transport().epoll_waits - before;
    assert!(waits <= 10, "{waits} poll waits in 200 ms at the limit");
    assert_eq!(
        transport().conns_accepted,
        accepted,
        "accepted past the limit"
    );

    // One client goes; the backlogged one is accepted and answered.
    drop(clients.remove(0));
    let mut last = clients.pop().unwrap();
    last.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    writeln!(last, "{}", Request::Ping.encode()).unwrap();
    let mut line = String::new();
    BufReader::new(&last).read_line(&mut line).unwrap();
    assert_eq!(Response::decode(line.trim()), Ok(Response::Pong));
    assert_eq!(transport().conns_accepted, accepted + 1);
    drop(clients);
    handle.shutdown();
}
