//! Reactor front-end integration: idle cost, the one-poll-wait request
//! path, pipelining order, slow readers, disconnects under a running
//! batch, both wire protocols, and the reactor's own metrics.

use re_server::{
    serve, wire, LocalClient, RankedQueryServer, Request, Response, ServerConfig, TcpClient,
    Transport, TransportCounters, WireProtocol,
};
use re_storage::{attr::attrs, Database, Relation};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The failpoint registry is process-global: tests that arm it, and the
/// test that counts poll waits exactly, serialise on this. (The other
/// tests only get slower under a foreign failpoint, never wrong.)
static FAULTS: Mutex<()> = Mutex::new(());

fn faults_locked() -> std::sync::MutexGuard<'static, ()> {
    FAULTS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn coauthor_db() -> Database {
    let mut db = Database::new();
    let mut rows = Vec::new();
    for paper in 0..12u64 {
        for slot in 0..4u64 {
            rows.push(vec![(paper * 3 + slot * 7) % 40, 1000 + paper]);
        }
    }
    db.add_relation(Relation::with_tuples("AP", attrs(["aid", "pid"]), rows).unwrap())
        .unwrap();
    db
}

const TWO_HOP: &str = "SELECT DISTINCT AP1.aid, AP2.aid FROM AP AS AP1, AP AS AP2 \
                       WHERE AP1.pid = AP2.pid ORDER BY AP1.aid + AP2.aid";

fn reactor_server() -> (Arc<RankedQueryServer>, re_server::ServerHandle) {
    let config = ServerConfig::default();
    let server = RankedQueryServer::new(config.clone());
    server.catalog().register("dblp", coauthor_db());
    let handle = serve(Arc::clone(&server), "127.0.0.1:0", &config).unwrap();
    (server, handle)
}

/// A database whose 2-hop statement has more than 24 pages of 1 024
/// distinct answers.
fn wide_db() -> Database {
    let mut db = Database::new();
    let mut rows = Vec::new();
    for paper in 0..1500u64 {
        for slot in 0..5u64 {
            rows.push(vec![
                (paper * 7919 + slot * slot * 104_729 + slot * 31) % 4001,
                10_000 + paper,
            ]);
        }
    }
    db.add_relation(Relation::with_tuples("AP", attrs(["aid", "pid"]), rows).unwrap())
        .unwrap();
    db
}

/// Both wire protocols: the scenarios that are not about one of them run
/// once per protocol.
const PROTOCOLS: [WireProtocol; 2] = [WireProtocol::Json, WireProtocol::Binary];

/// A raw client socket: the tests below decide themselves what goes into
/// which TCP segment and when (if ever) the responses are read.
struct RawConn {
    stream: TcpStream,
    protocol: WireProtocol,
    magic_sent: bool,
}

impl RawConn {
    fn connect(handle: &re_server::ServerHandle, protocol: WireProtocol) -> RawConn {
        let stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        // A dead worker must fail the test, not hang it.
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        RawConn {
            stream,
            protocol,
            magic_sent: false,
        }
    }

    /// Write `requests` with one `write` call (one segment, sizes
    /// permitting); returns the bytes written.
    fn send(&mut self, requests: &[Request]) -> u64 {
        let mut buf = Vec::new();
        if self.protocol == WireProtocol::Binary && !self.magic_sent {
            buf.extend_from_slice(&wire::BINARY_MAGIC);
            self.magic_sent = true;
        }
        for request in requests {
            match self.protocol {
                WireProtocol::Json => {
                    buf.extend_from_slice(request.encode().as_bytes());
                    buf.push(b'\n');
                }
                WireProtocol::Binary => {
                    wire::append_frame(&mut buf, &wire::encode_request(request))
                }
            }
        }
        self.stream.write_all(&buf).unwrap();
        buf.len() as u64
    }

    /// The raw bytes of the next `n` responses.
    fn read_raw(&mut self, n: usize) -> Vec<u8> {
        let mut raw = Vec::new();
        let mut chunk = vec![0u8; 64 * 1024];
        while split_responses(self.protocol, &raw).len() < n {
            let got = self.stream.read(&mut chunk).expect("response in time");
            assert!(got > 0, "server closed the connection");
            raw.extend_from_slice(&chunk[..got]);
        }
        assert_eq!(split_responses(self.protocol, &raw).len(), n);
        raw
    }

    fn read_responses(&mut self, n: usize) -> Vec<Response> {
        let raw = self.read_raw(n);
        split_responses(self.protocol, &raw)
            .into_iter()
            .map(|payload| match self.protocol {
                WireProtocol::Json => {
                    Response::decode(std::str::from_utf8(payload).unwrap()).unwrap()
                }
                WireProtocol::Binary => wire::decode_response(payload).unwrap(),
            })
            .collect()
    }
}

/// The payloads of the complete responses at the front of `raw` (JSON
/// lines without their newline, binary frames without their length).
fn split_responses(protocol: WireProtocol, raw: &[u8]) -> Vec<&[u8]> {
    let mut rest = raw;
    let mut payloads = Vec::new();
    loop {
        // Where the next payload sits in `rest`, and where the one after
        // it starts.
        let (payload, next) = match protocol {
            WireProtocol::Json => match rest.iter().position(|&b| b == b'\n') {
                Some(newline) => (0..newline, newline + 1),
                None => return payloads,
            },
            WireProtocol::Binary => match rest.first_chunk::<4>() {
                Some(prefix) => {
                    let end = 4 + u32::from_le_bytes(*prefix) as usize;
                    (4..end, end)
                }
                None => return payloads,
            },
        };
        if rest.len() < next {
            return payloads;
        }
        payloads.push(&rest[payload]);
        rest = &rest[next..];
    }
}

fn transport_stats(server: &RankedQueryServer) -> TransportCounters {
    server.stats_report().transport
}

/// Poll `done` until it holds (the counters are bumped by server threads
/// the test cannot join on).
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Write `requests` as one segment and wait until the reactor has read
/// it — so the next segment is read, and dispatched or queued, on its own.
fn send_and_wait_read(conn: &mut RawConn, server: &RankedQueryServer, requests: &[Request]) {
    let target = transport_stats(server).bytes_in + conn.send(requests);
    wait_until("the reactor read the segment", || {
        transport_stats(server).bytes_in >= target
    });
}

fn sample(body: &str, metric: &str) -> f64 {
    body.lines()
        .find(|l| l.split(' ').next() == Some(metric))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// The tentpole's economics: a parked session on an idle reactor
/// connection costs **zero** syscalls — no periodic wakeups, no polling
/// ticks. The poll wait is infinite until a readable fd or the wakeup
/// pipe fires.
#[test]
fn idle_reactor_connection_causes_no_wakeups() {
    let (server, handle) = reactor_server();
    let mut tcp = TcpClient::connect_json(handle.addr()).unwrap();
    let opened = tcp.open("dblp", TWO_HOP).unwrap();
    let first = tcp.fetch(opened.session, 3).unwrap();
    assert_eq!(first.rows.len(), 3);

    // Stats over the in-process client: reading them must not touch the
    // reactor, so an idle window shows a frozen epoll_waits/wakeups pair.
    let mut local = LocalClient::new(Arc::clone(&server));
    let before = local.stats().unwrap().transport;
    std::thread::sleep(Duration::from_millis(300));
    let after = local.stats().unwrap().transport;
    assert_eq!(
        (after.epoll_waits, after.wakeups),
        (before.epoll_waits, before.wakeups),
        "an idle reactor with a parked session must not wake up at all"
    );

    // The connection is parked, not dead: the next fetch resumes the
    // cursor exactly where it stopped.
    let second = tcp.fetch(opened.session, 3).unwrap();
    assert_eq!(second.rows.len(), 3);
    assert_ne!(first.rows, second.rows);
    let final_stats = local.stats().unwrap().transport;
    assert!(final_stats.epoll_waits > after.epoll_waits);
    tcp.close(opened.session).unwrap();
    handle.shutdown();
}

/// Pipelined requests of mixed types come back strictly in submission
/// order, one response per request.
#[test]
fn pipelined_mixed_requests_answer_in_order() {
    let (_server, handle) = reactor_server();
    for protocol in PROTOCOLS {
        let mut client = TcpClient::connect_with(handle.addr(), protocol).unwrap();
        let responses = client
            .pipeline(&[
                Request::Ping,
                Request::Catalog,
                Request::Close { session: 999_999 },
                Request::Ping,
            ])
            .unwrap();
        assert_eq!(responses.len(), 4, "{protocol:?}");
        assert_eq!(responses[0], Response::Pong);
        assert_eq!(
            responses[1],
            Response::Catalog {
                databases: vec!["dblp".into()]
            }
        );
        assert_eq!(responses[2], Response::Closed { existed: false });
        assert_eq!(responses[3], Response::Pong);
    }
    handle.shutdown();
}

/// The constructor selects the client protocol end to end; the plain one
/// negotiates JSON lines.
#[test]
fn constructors_select_the_client_protocol() {
    let (_server, handle) = reactor_server();
    let plain = TcpClient::connect(handle.addr()).unwrap();
    assert_eq!(plain.protocol(), WireProtocol::Json);
    let mut binary = TcpClient::connect_binary(handle.addr()).unwrap();
    assert_eq!(binary.protocol(), WireProtocol::Binary);
    assert_eq!(binary.request(Request::Ping).unwrap(), Response::Pong);
    let mut json = TcpClient::connect_json(handle.addr()).unwrap();
    assert_eq!(json.protocol(), WireProtocol::Json);
    assert_eq!(json.request(Request::Ping).unwrap(), Response::Pong);
    handle.shutdown();
}

/// The reactor exports its transport counters through the Prometheus
/// exposition (`re_reactor_*`) and the stats report.
#[test]
fn reactor_counters_flow_into_stats_and_metrics() {
    let (_server, handle) = reactor_server();
    let mut client = TcpClient::connect_binary(handle.addr()).unwrap();
    let outcome = client.query("dblp", &format!("{TWO_HOP} LIMIT 5")).unwrap();
    assert_eq!(outcome.rows.len(), 5);

    let stats = client.stats().unwrap().transport;
    assert!(stats.conns_accepted >= 1);
    assert!(stats.epoll_waits >= 1);
    assert!(stats.bytes_in > 0);
    // A worker counts the bytes once its write returns, by which time the
    // client may already have its next request answered by another one.
    wait_until("the written bytes are counted", || {
        client.stats().unwrap().transport.bytes_out > 0
    });

    let body = client.metrics().unwrap();
    re_obs::validate_exposition(&body).expect("well-formed exposition");
    assert!(sample(&body, "re_reactor_conns_accepted") >= 1.0);
    assert!(sample(&body, "re_reactor_epoll_waits") >= 1.0);
    assert!(sample(&body, "re_reactor_bytes_in") > 0.0);
    assert!(sample(&body, "re_reactor_bytes_out") > 0.0);
    handle.shutdown();
}

/// Dropping a connection with a parked (not mid-fetch) session leaves the
/// session resumable from a new connection — disconnect teardown only
/// cancels cursors that are checked out at that moment.
#[test]
fn parked_sessions_survive_a_disconnect_and_resume_elsewhere() {
    let (_server, handle) = reactor_server();
    let session = {
        let mut first = TcpClient::connect_binary(handle.addr()).unwrap();
        let opened = first.open("dblp", TWO_HOP).unwrap();
        let page = first.fetch(opened.session, 2).unwrap();
        assert_eq!(page.rows.len(), 2);
        opened.session
        // `first` drops here: TCP FIN reaches the reactor, which tears
        // the connection down without touching the parked cursor.
    };
    std::thread::sleep(Duration::from_millis(100));
    let mut second = TcpClient::connect_json(handle.addr()).unwrap();
    let resumed = second.fetch(session, 2).unwrap();
    assert_eq!(resumed.rows.len(), 2);
    assert!(second.close(session).unwrap());
    handle.shutdown();
}

/// The request path's economics: the reactor wakes once per request, to
/// read it, and the worker that ran it writes the response — no
/// completion hand-back, no wake-pipe byte, no second poll wait.
#[test]
fn sequential_requests_cost_one_poll_wait_each_and_no_wakeups() {
    let _g = faults_locked();
    for protocol in PROTOCOLS {
        let (server, handle) = reactor_server();
        let mut tcp = TcpClient::connect_with(handle.addr(), protocol).unwrap();
        let opened = tcp.open("dblp", TWO_HOP).unwrap();

        let before = transport_stats(&server);
        for i in 0..200 {
            if i % 2 == 0 {
                assert_eq!(tcp.request(Request::Ping).unwrap(), Response::Pong);
            } else {
                assert_eq!(tcp.fetch(opened.session, 1).unwrap().rows.len(), 1);
            }
        }
        let after = transport_stats(&server);
        assert_eq!(after.epoll_waits - before.epoll_waits, 200);
        assert_eq!(after.wakeups - before.wakeups, 0);
        handle.shutdown();
    }
}

/// Requests that arrive while a batch runs queue behind it, go out as the
/// next batch the moment its worker says so — one poke — and are
/// answered in request order.
#[test]
fn requests_behind_a_running_batch_answer_in_order_after_one_poke() {
    let _g = faults_locked();
    for protocol in PROTOCOLS {
        let (server, handle) = reactor_server();
        let mut local = LocalClient::new(Arc::clone(&server));
        let reference = local.open("dblp", TWO_HOP).unwrap().session;
        let expected = [
            local.fetch(reference, 2).unwrap().rows,
            local.fetch(reference, 2).unwrap().rows,
        ];
        let session = local.open("dblp", TWO_HOP).unwrap().session;
        let fetch = Request::Fetch { session, k: 2 };

        re_fault::configure("fetch.next=sleep(500)").unwrap();
        let mut conn = RawConn::connect(&handle, protocol);
        send_and_wait_read(&mut conn, &server, std::slice::from_ref(&fetch));
        let before = transport_stats(&server);
        // The first batch is now held inside its FETCH; each of these is its
        // own segment and its own read.
        for request in [Request::Ping, fetch, Request::Ping] {
            send_and_wait_read(&mut conn, &server, &[request]);
        }
        re_fault::clear();

        let responses = conn.read_responses(4);
        let [first, second] = expected;
        assert_eq!(
            responses,
            vec![
                Response::Page {
                    rows: first,
                    exhausted: false
                },
                Response::Pong,
                Response::Page {
                    rows: second,
                    exhausted: false
                },
                Response::Pong,
            ]
        );
        let after = transport_stats(&server);
        assert_eq!(after.wakeups - before.wakeups, 1, "one poke, one batch");
        handle.shutdown();
    }
}

/// A client that pipelines pages without reading them gets, once it does
/// read, exactly the bytes of the request-by-request run: partial writes
/// and the hand-over of leftover output to the reactor reorder nothing
/// and lose nothing. Run once against whatever the socket buffers take
/// (loopback ones usually take it all), and once with `reactor.flush`
/// cutting every write short, which sends every byte down the leftover →
/// poke → WRITE-interest path.
#[test]
fn a_slow_reader_gets_the_sequential_bytes_on_both_protocols() {
    const PAGES: usize = 24;
    const FAULTED_PAGES: usize = 2;
    let _g = faults_locked();
    let config = ServerConfig::default();
    let server = RankedQueryServer::new(config.clone());
    server.catalog().register("wide", wide_db());
    let handle = serve(Arc::clone(&server), "127.0.0.1:0", &config).unwrap();
    let mut local = LocalClient::new(Arc::clone(&server));
    let mut fetches = |n: usize| -> Vec<Request> {
        let session = local.open("wide", TWO_HOP).unwrap().session;
        vec![Request::Fetch { session, k: 1024 }; n]
    };

    for protocol in PROTOCOLS {
        let mut sequential = Vec::new();
        let mut conn = RawConn::connect(&handle, protocol);
        for fetch in fetches(PAGES) {
            conn.send(&[fetch]);
            sequential.extend(conn.read_raw(1));
        }
        assert!(sequential.len() > PAGES * 1024 * 8, "full pages");

        let mut conn = RawConn::connect(&handle, protocol);
        conn.send(&fetches(PAGES));
        std::thread::sleep(Duration::from_millis(300)); // the slow reader
        assert!(conn.read_raw(PAGES) == sequential, "{protocol:?}");

        let wakeups_before = transport_stats(&server).wakeups;
        re_fault::configure("reactor.flush=error").unwrap();
        let mut conn = RawConn::connect(&handle, protocol);
        // One batch per page: the later ones finish while the reactor
        // still drips out the first, and append behind its leftover.
        for fetch in fetches(FAULTED_PAGES) {
            send_and_wait_read(&mut conn, &server, &[fetch]);
        }
        let faulted = conn.read_raw(FAULTED_PAGES);
        re_fault::clear();
        assert!(sequential.starts_with(&faulted), "{protocol:?} faulted");
        assert!(
            transport_stats(&server).wakeups > wakeups_before,
            "the short write handed the leftover to the reactor"
        );
    }
    handle.shutdown();
}

/// A worker that finishes its batch after the peer is gone delivers into
/// a closed connection: nothing panics, the disconnect counts once, and
/// sessions parked at the time stay resumable.
#[test]
fn a_batch_outliving_its_connection_is_dropped_quietly() {
    let _g = faults_locked();
    for protocol in PROTOCOLS {
        // One worker: if delivering to the dead connection killed it, the
        // request at the end would never be answered.
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let server = RankedQueryServer::new(config.clone());
        server.catalog().register("dblp", coauthor_db());
        let handle = serve(Arc::clone(&server), "127.0.0.1:0", &config).unwrap();
        let mut local = LocalClient::new(Arc::clone(&server));
        let parked = local.open("dblp", TWO_HOP).unwrap().session;
        let first_page = local.fetch(parked, 2).unwrap().rows;
        let doomed = local.open("dblp", TWO_HOP).unwrap().session;

        re_fault::configure("fetch.next=sleep(300)").unwrap();
        let mut conn = RawConn::connect(&handle, protocol);
        let fetch = Request::Fetch {
            session: doomed,
            k: 2,
        };
        send_and_wait_read(&mut conn, &server, &[fetch]);
        let before = transport_stats(&server);
        drop(conn); // FIN while the worker sleeps inside the FETCH
        wait_until("the reactor tore the connection down", || {
            transport_stats(&server).disconnects > before.disconnects
        });
        // The cancelled cursor is discarded when the worker comes back.
        wait_until("the worker finished the orphaned batch", || {
            local.stats().unwrap().sessions_open == 1
        });
        re_fault::clear();

        let mut conn = RawConn::connect(&handle, protocol);
        conn.send(&[Request::Fetch {
            session: parked,
            k: 2,
        }]);
        let [Response::Page { rows, .. }] = &conn.read_responses(1)[..] else {
            panic!("the parked session must still be resumable");
        };
        assert_eq!(rows.len(), 2);
        assert_ne!(rows, &first_page);
        assert_eq!(
            transport_stats(&server).disconnects,
            before.disconnects + 1,
            "exactly one disconnect"
        );
        handle.shutdown();
    }
}

/// A FETCH that waits in the job queue behind the only worker while its
/// connection closes: the disconnect finds its session parked, so it is
/// the worker, once it holds the session, that finds the connection
/// closed and ends the session as cancelled — counted once, like a FETCH
/// the disconnect caught mid-page. The busy worker's own FETCH, from a
/// live connection, is answered and its session stays resumable.
#[test]
fn a_fetch_queued_behind_a_busy_worker_is_cancelled_by_its_disconnect() {
    let _g = faults_locked();
    for protocol in PROTOCOLS {
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let server = RankedQueryServer::new(config.clone());
        server.catalog().register("dblp", coauthor_db());
        let handle = serve(Arc::clone(&server), "127.0.0.1:0", &config).unwrap();
        let mut local = LocalClient::new(Arc::clone(&server));
        let busy = local.open("dblp", TWO_HOP).unwrap().session;
        let queued = local.open("dblp", TWO_HOP).unwrap().session;
        let cancelled_before = local.stats().unwrap().enumeration.cancelled;

        re_fault::configure("fetch.next=sleep(300)").unwrap();
        let injected = re_fault::injected_total();
        let mut holder = RawConn::connect(&handle, protocol);
        holder.send(&[Request::Fetch {
            session: busy,
            k: 2,
        }]);
        wait_until("the only worker sleeps inside the first FETCH", || {
            re_fault::injected_total() > injected
        });
        let mut doomed = RawConn::connect(&handle, protocol);
        let fetch = Request::Fetch {
            session: queued,
            k: 2,
        };
        send_and_wait_read(&mut doomed, &server, &[fetch]);
        let before = transport_stats(&server);
        drop(doomed);
        wait_until("the reactor tore the connection down", || {
            transport_stats(&server).disconnects > before.disconnects
        });
        re_fault::clear();

        let [Response::Page { rows, .. }] = &holder.read_responses(1)[..] else {
            panic!("the live connection's FETCH is answered");
        };
        assert_eq!(rows.len(), 2);
        wait_until("the queued FETCH ended its session", || {
            local.stats().unwrap().sessions_open == 1
        });
        let stats = local.stats().unwrap();
        assert_eq!(stats.enumeration.cancelled, cancelled_before + 1);
        match local.fetch(queued, 2).unwrap_err() {
            re_server::ClientError::Server { code, .. } => assert_eq!(code, "cancelled"),
            other => panic!("expected a typed server error, got {other}"),
        }
        assert_eq!(local.fetch(busy, 2).unwrap().rows.len(), 2);
        handle.shutdown();
    }
}

/// `ServerHandle::shutdown` returns — every thread joined — while all the
/// workers are parked on the hand-off queue.
/// A JSON peer that never ends its line is cut off at the frame cap: the
/// answers owed before the line arrive, then one typed error, then the
/// close — the text framing's version of the oversized length prefix.
#[test]
fn a_json_line_past_the_frame_cap_gets_a_final_error_and_the_close() {
    let (server, handle) = reactor_server();
    let mut conn = RawConn::connect(&handle, WireProtocol::Json);
    conn.send(&[Request::Ping]);
    assert_eq!(conn.read_responses(1), [Response::Pong]);
    // One byte more than a line may hold, dripped in large segments; the
    // reactor only ever searches the segment that just arrived.
    let segment = vec![b'x'; 1 << 20];
    let mut left = wire::MAX_FRAME_LEN + 1;
    while left > 0 {
        let n = left.min(segment.len());
        conn.stream.write_all(&segment[..n]).unwrap();
        left -= n;
    }
    match &conn.read_responses(1)[..] {
        [Response::Error { message, .. }] => {
            assert!(message.contains("request line exceeds"), "{message}")
        }
        other => panic!("expected the framing error, got {other:?}"),
    }
    assert_eq!(conn.stream.read(&mut [0u8; 16]).unwrap(), 0, "then EOF");
    wait_until("the reactor closed the connection", || {
        transport_stats(&server).disconnects >= 1
    });
    let transport = transport_stats(&server);
    assert_eq!((transport.conns_accepted, transport.disconnects), (1, 1));
    handle.shutdown();
}

#[test]
fn shutdown_joins_the_workers_parked_on_the_queue() {
    let config = ServerConfig::default();
    let server = RankedQueryServer::new(config.clone());
    let handle = serve(server, "127.0.0.1:0", &config).unwrap();
    // One request served and its connection closed: whichever worker
    // took it is back in `pop()` with the rest.
    let mut client = TcpClient::connect(handle.addr()).unwrap();
    assert_eq!(client.request(Request::Ping).unwrap(), Response::Pong);
    drop(client);

    let (joined_tx, joined_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.shutdown();
        joined_tx.send(()).unwrap();
    });
    joined_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown did not join its threads");
}
