//! Chaos suite: deterministic fault injection against the full server.
//!
//! Every test arms `re_fault` failpoints (a process-global registry), so
//! the whole suite serialises on one lock and disarms on the way out.
//! The recurring shape is the acceptance criterion of the overload-safe
//! serving design: inject a fault, observe the typed error, disarm, and
//! prove the *next* OPEN/FETCH produces answers identical to a fault-free
//! run — with no leaked sessions and the robustness counters accounting
//! for exactly what happened.
//!
//! (A `Page` response's wire bytes are a pure function of its rows and
//! `exhausted` flag — the session id is not part of it — so comparing
//! pages compares the bytes a client would have read.)

use re_server::{
    serve, LocalClient, RankedQueryServer, Response, RetryPolicy, ServerConfig, TcpClient,
    Transport, WireProtocol,
};
use re_storage::{attr::attrs, Database, Relation, Tuple};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The failpoint registry is process-global: chaos tests run one at a
/// time, and each disarms before releasing the lock.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    let guard = CHAOS_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    re_fault::clear();
    guard
}

/// Membership relation with enough structure for a non-trivial 4-cycle.
fn m_db() -> Database {
    let mut db = Database::new();
    let mut rows = Vec::new();
    for i in 0..60u64 {
        rows.push(vec![i % 12, 100 + i % 9]);
        rows.push(vec![(i * 5 + 3) % 12, 100 + i % 9]);
    }
    let mut rel = Relation::with_tuples("M", attrs(["e", "c"]), rows).unwrap();
    rel.dedup_tuples();
    db.add_relation(rel).unwrap();
    db
}

/// Co-authorship database for the fast acyclic path.
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

/// Cyclic 4-cycle: routes through GHD bag materialisation, i.e. past the
/// `bags.materialize` failpoint. Its decomposition races the single bag,
/// which wins on `m_db`, so the residual is one relation and no reducer
/// pass runs.
const FOUR_CYCLE: &str = "SELECT DISTINCT M1.e, M3.e FROM M AS M1, M AS M2, M AS M3, M AS M4 \
                          WHERE M1.c = M2.c AND M2.e = M3.e AND M3.c = M4.c AND M4.e = M1.e \
                          ORDER BY M1.e + M3.e LIMIT 200";

/// Acyclic 2-hop: fast preprocessing, used where OPEN must succeed quickly,
/// and the statement whose OPEN runs full-reducer passes (`reduce.pass`).
const TWO_HOP: &str = "SELECT DISTINCT AP1.aid, AP2.aid FROM AP AS AP1, AP AS AP2 \
                       WHERE AP1.pid = AP2.pid ORDER BY AP1.aid + AP2.aid";

fn chaos_server(config: ServerConfig) -> Arc<RankedQueryServer> {
    let server = RankedQueryServer::new(config);
    server.catalog().register("m", m_db());
    server.catalog().register("dblp", coauthor_db());
    server
}

/// Both preprocessing regimes: with `exec_threads: 1` an OPEN preprocesses
/// on the worker's own stack, with `4` its bags run as tasks of the shared
/// pool — and a fault or a deadline unwinds through whichever it is.
const EXEC_THREADS: [usize; 2] = [1, 4];

/// Both wire protocols: disconnect handling and error delivery run in the
/// reactor's per-connection state machines, which differ per protocol.
const PROTOCOLS: [WireProtocol; 2] = [WireProtocol::Json, WireProtocol::Binary];

/// Every executor size under every protocol.
fn legs() -> impl Iterator<Item = (usize, WireProtocol)> {
    EXEC_THREADS
        .into_iter()
        .flat_map(|threads| PROTOCOLS.map(|protocol| (threads, protocol)))
}

fn chaos_server_at(exec_threads: usize) -> Arc<RankedQueryServer> {
    chaos_server(ServerConfig {
        exec_threads,
        ..ServerConfig::default()
    })
}

/// Drain a session to exhaustion (the server reaps it on the last page).
fn drain(client: &mut impl Transport, session: u64, k: u64) -> Vec<Tuple> {
    let mut rows = Vec::new();
    loop {
        let page = client.fetch(session, k).unwrap();
        rows.extend(page.rows);
        if page.exhausted {
            return rows;
        }
    }
}

/// Clean OPEN + drain: the recovery probe run after every injected fault.
fn clean_run(client: &mut impl Transport) -> Vec<Tuple> {
    let opened = client.open("m", FOUR_CYCLE).unwrap();
    drain(client, opened.session, 1_000)
}

#[test]
fn error_faults_at_every_site_recover_to_identical_answers() {
    let _g = locked();
    for (exec_threads, protocol) in legs() {
        let server = chaos_server_at(exec_threads);
        let handle = serve(Arc::clone(&server), "127.0.0.1:0", &ServerConfig::default()).unwrap();
        let mut client = TcpClient::connect_with(handle.addr(), protocol).unwrap();

        let reference = clean_run(&mut client);
        assert!(!reference.is_empty());
        let faults_before = client.stats().unwrap().enumeration.faults_injected;

        // Sites where an armed `error` action must surface as a typed error
        // response on OPEN — never a hangup, never a partial success — each
        // with a statement whose OPEN passes it.
        for (site, db, sql) in [
            ("server.dispatch", "m", FOUR_CYCLE),
            ("reduce.pass", "dblp", TWO_HOP),
            ("bags.materialize", "m", FOUR_CYCLE),
            ("session.park", "m", FOUR_CYCLE),
        ] {
            re_fault::configure(&format!("{site}=error")).unwrap();
            let err = client.open(db, sql).unwrap_err();
            assert!(
                err.to_string().contains("injected fault"),
                "{site}: expected the injected fault, got: {err}"
            );
            re_fault::clear();
            assert_eq!(
                clean_run(&mut client),
                reference,
                "{site}: recovery diverged"
            );
            assert_eq!(
                client.stats().unwrap().sessions_open,
                0,
                "{site}: a failed OPEN must not leak a session"
            );
        }

        // `fetch.next` fires mid-session: the cursor is suspect and dropped.
        let opened = client.open("m", FOUR_CYCLE).unwrap();
        re_fault::configure("fetch.next=error").unwrap();
        let err = client.fetch(opened.session, 5).unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
        re_fault::clear();
        let err = client.fetch(opened.session, 5).unwrap_err();
        assert!(
            err.to_string().contains("session"),
            "the faulted session must be gone, got: {err}"
        );
        assert_eq!(clean_run(&mut client), reference);
        assert_eq!(client.stats().unwrap().sessions_open, 0);

        // `pool.task.start` fires only where a pool runs the OPEN's bags: a
        // task has no error channel, so the fault surfaces as the batch's
        // panic. The serial server has no such site and sails through. Either
        // way the server must recover to the identical answer sequence.
        // On `m_db` only a deciding OPEN hands bags to the pool (each
        // contender's first bag is one task); a plan that recorded its
        // verdict builds the single bag alone, inline. Re-registering `m`
        // starts a new plan, so the faulted OPEN decides again.
        server.catalog().register("m", m_db());
        re_fault::configure("pool.task.start=error").unwrap();
        match client.open("m", FOUR_CYCLE) {
            Ok(opened) => {
                assert_eq!(exec_threads, 1, "a pooled OPEN must hit the site");
                client.close(opened.session).unwrap();
            }
            Err(err) => {
                assert_eq!(exec_threads, 4, "a serial OPEN has no pool task");
                assert!(err.to_string().contains("internal error"), "{err}");
            }
        }
        re_fault::clear();
        assert_eq!(clean_run(&mut client), reference);
        let stats = client.stats().unwrap();
        assert_eq!(stats.sessions_open, 0);
        assert_eq!(stats.enumeration.pool_tasks > 0, exec_threads > 1);

        // Every injected fault is visible in the folded counter.
        let faults_after = client.stats().unwrap().enumeration.faults_injected;
        assert!(
            faults_after >= faults_before + 5,
            "expected at least 5 injected faults on the counter, got {faults_before} -> {faults_after}"
        );
        handle.shutdown();
    }
}

#[test]
fn panic_faults_are_contained_and_leak_nothing() {
    let _g = locked();
    for (exec_threads, protocol) in legs() {
        let server = chaos_server_at(exec_threads);
        let handle = serve(Arc::clone(&server), "127.0.0.1:0", &ServerConfig::default()).unwrap();
        let mut client = TcpClient::connect_with(handle.addr(), protocol).unwrap();
        let reference = clean_run(&mut client);

        // A panic mid-FETCH: the session is checked out when it fires, so the
        // do_fetch catch_unwind must discard it — not strand the id in the
        // checked-out set (which would wedge every later FETCH and CLOSE).
        let opened = client.open("m", FOUR_CYCLE).unwrap();
        re_fault::configure("fetch.next=panic").unwrap();
        let err = client.fetch(opened.session, 5).unwrap_err();
        assert!(err.to_string().contains("internal error"), "{err}");
        re_fault::clear();
        let err = client.fetch(opened.session, 5).unwrap_err();
        assert!(
            err.to_string().contains("session"),
            "the panicked session must be discarded, not busy: {err}"
        );
        assert_eq!(client.stats().unwrap().sessions_open, 0);
        assert_eq!(clean_run(&mut client), reference);

        // A panic inside preprocessing unwinds through the dispatch
        // catch_unwind before any session exists.
        re_fault::configure("bags.materialize=panic").unwrap();
        let err = client.open("m", FOUR_CYCLE).unwrap_err();
        assert!(err.to_string().contains("internal error"), "{err}");
        re_fault::clear();
        assert_eq!(client.stats().unwrap().sessions_open, 0);
        assert_eq!(clean_run(&mut client), reference);

        // The observability plane survives the panics: stats and a
        // well-formed exposition still serve (lock poisoning recovered).
        let body = client.metrics().unwrap();
        re_obs::validate_exposition(&body).expect("well-formed exposition after injected panics");
        assert!(body.contains("re_fault_injected_total"));
        handle.shutdown();
    }
}

#[test]
fn probabilistic_faults_replay_exactly_under_one_seed() {
    let _g = locked();
    const SPEC: &str = "fetch.next=error:0.5@42";
    let pattern = |server: Arc<RankedQueryServer>| -> Vec<bool> {
        let mut client = LocalClient::new(server);
        (0..24)
            .map(|_| {
                // One OPEN + one FETCH per draw: the fetch either fails
                // (session discarded) or exhausts (session reaped), so
                // every iteration hits `fetch.next` exactly once.
                let opened = client.open("m", FOUR_CYCLE).unwrap();
                client.fetch(opened.session, 1_000).is_err()
            })
            .collect()
    };

    re_fault::configure(SPEC).unwrap();
    let run1 = pattern(chaos_server(ServerConfig::default()));
    // Re-arming the same spec resets the site's hit counter: the firing
    // decision is a pure function of (seed, site, hit number).
    re_fault::configure(SPEC).unwrap();
    let run2 = pattern(chaos_server(ServerConfig::default()));
    re_fault::clear();

    assert_eq!(run1, run2, "the same spec must replay the same faults");
    assert!(run1.iter().any(|&f| f), "p=0.5 over 24 draws fired never?");
    assert!(
        !run1.iter().all(|&f| f),
        "p=0.5 over 24 draws fired always?"
    );
}

#[test]
fn deadlines_abort_expensive_opens_promptly() {
    let _g = locked();
    for exec_threads in EXEC_THREADS {
        let server = chaos_server_at(exec_threads);
        let mut client = LocalClient::new(Arc::clone(&server));
        let reference = clean_run(&mut client);
        let before = client.stats().unwrap().enumeration.deadline_exceeded;

        // Make every bag's preparation slow, then give the OPEN a deadline
        // shorter than one: the cancellation poll at the next bag/sweep
        // boundary must abort the OPEN within a couple of sleeps — not after
        // the whole (artificially long) preprocessing run.
        re_fault::configure("bags.materialize=sleep(40)").unwrap();
        let t0 = Instant::now();
        let err = client
            .open_with_deadline("m", FOUR_CYCLE, Some(15))
            .unwrap_err();
        let elapsed = t0.elapsed();
        re_fault::clear();

        match &err {
            re_server::ClientError::Server { code, message, .. } => {
                assert_eq!(code, "deadline_exceeded");
                assert!(message.contains("deadline"), "{message}");
            }
            other => panic!("expected a typed server error, got {other}"),
        }
        assert!(
            elapsed < Duration::from_millis(1_500),
            "a deadlined OPEN must unwind within a couple of pass budgets, took {elapsed:?}"
        );
        assert_eq!(client.stats().unwrap().sessions_open, 0);
        assert!(client.stats().unwrap().enumeration.deadline_exceeded > before);
        assert_eq!(
            clean_run(&mut client),
            reference,
            "post-deadline recovery diverged"
        );
    }
}

#[test]
fn an_expired_session_deadline_fails_later_fetches_with_the_typed_error() {
    let _g = locked();
    let server = chaos_server(ServerConfig::default());
    let mut client = LocalClient::new(Arc::clone(&server));
    let before = client.stats().unwrap().enumeration.deadline_exceeded;

    // Preprocessing is fast (acyclic), so the OPEN and a first page fit
    // comfortably inside the deadline; then the deadline lapses while the
    // session is parked.
    let opened = client
        .open_with_deadline("dblp", TWO_HOP, Some(150))
        .unwrap();
    let page = client.fetch(opened.session, 3).unwrap();
    assert_eq!(page.rows.len(), 3);
    std::thread::sleep(Duration::from_millis(250));

    let err = client.fetch(opened.session, 3).unwrap_err();
    match &err {
        re_server::ClientError::Server { code, .. } => assert_eq!(code, "deadline_exceeded"),
        other => panic!("expected a typed server error, got {other}"),
    }
    // The session is gone, and later fetches say *why* — not "unknown id".
    let err = client.fetch(opened.session, 3).unwrap_err();
    assert!(err.to_string().contains("deadline"), "{err}");
    assert_eq!(client.stats().unwrap().sessions_open, 0);
    assert!(client.stats().unwrap().enumeration.deadline_exceeded > before);
}

#[test]
fn explicit_cancel_drops_the_session_and_attributes_later_fetches() {
    let _g = locked();
    let server = chaos_server(ServerConfig::default());
    let mut client = LocalClient::new(Arc::clone(&server));
    let before = client.stats().unwrap().enumeration.cancelled;

    let opened = client.open("m", FOUR_CYCLE).unwrap();
    assert!(!client.fetch(opened.session, 5).unwrap().rows.is_empty());

    assert!(client.cancel(opened.session).unwrap());
    assert!(
        !client.cancel(opened.session).unwrap(),
        "a second CANCEL finds nothing"
    );
    let err = client.fetch(opened.session, 5).unwrap_err();
    match &err {
        re_server::ClientError::Server { code, message, .. } => {
            assert_eq!(code, "cancelled");
            assert!(message.contains("cancelled"), "{message}");
        }
        other => panic!("expected a typed server error, got {other}"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.sessions_open, 0);
    assert_eq!(
        stats.enumeration.cancelled,
        before + 1,
        "one CANCEL, one bump — the attributed fetch must not re-count"
    );
}

#[test]
fn the_admission_gate_sheds_excess_requests_and_recovers() {
    let _g = locked();
    for protocol in PROTOCOLS {
        let server = chaos_server(ServerConfig {
            max_inflight: 1,
            ..ServerConfig::default()
        });
        let config = ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        };
        let handle = serve(Arc::clone(&server), "127.0.0.1:0", &config).unwrap();
        let addr = handle.addr();

        let mut slow = TcpClient::connect_with(addr, protocol).unwrap();
        let opened = slow.open("dblp", TWO_HOP).unwrap();

        // Park a FETCH inside the admission gate for 400 ms — it holds its
        // slot once its sleep has begun...
        re_fault::configure("fetch.next=sleep(400)").unwrap();
        let session = opened.session;
        let injected = re_fault::injected_total();
        let holder = std::thread::spawn(move || slow.fetch(session, 5).unwrap());
        let deadline = Instant::now() + Duration::from_secs(10);
        while re_fault::injected_total() == injected {
            assert!(
                Instant::now() < deadline,
                "the FETCH never reached its sleep"
            );
            std::thread::sleep(Duration::from_millis(1));
        }

        // ...so a second connection's OPEN must be shed with the typed
        // overloaded error and a back-off hint — while cheap requests
        // (ping, stats, cancel) still pass.
        let mut other = TcpClient::connect_with(addr, protocol).unwrap();
        other.ping().unwrap();
        let err = other.open("dblp", TWO_HOP).unwrap_err();
        assert!(err.is_overloaded(), "{err}");
        match &err {
            re_server::ClientError::Server {
                retry_after_millis, ..
            } => assert!(retry_after_millis.is_some(), "shed without a retry hint"),
            other => panic!("expected a typed server error, got {other}"),
        }

        holder.join().unwrap();
        re_fault::clear();

        // The slot is free again: the same OPEN now succeeds.
        let opened = other.open("dblp", TWO_HOP).unwrap();
        other.close(opened.session).unwrap();
        assert!(other.stats().unwrap().enumeration.requests_shed >= 1);
        handle.shutdown();
    }
}

#[test]
fn the_pipeline_cap_answers_excess_lines_in_order_with_overloaded() {
    let _g = locked();
    let server = chaos_server(ServerConfig::default());
    let config = ServerConfig {
        max_pipeline: 3,
        ..ServerConfig::default()
    };
    let handle = serve(Arc::clone(&server), "127.0.0.1:0", &config).unwrap();

    // One write syscall carrying six pipelined requests: the connection
    // drains them as one batch, serves the first three, and sheds the
    // rest — in order, so responses still line up with requests.
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    let burst = "{\"cmd\":\"ping\"}\n".repeat(6);
    raw.write_all(burst.as_bytes()).unwrap();
    raw.flush().unwrap();

    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut responses = Vec::new();
    for _ in 0..6 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        responses.push(Response::decode(line.trim()).unwrap());
    }
    for response in &responses[..3] {
        assert!(matches!(response, Response::Pong), "{response:?}");
    }
    let shed = responses
        .iter()
        .filter(|r| {
            matches!(
                r,
                Response::Error {
                    code,
                    retry_after_millis: Some(_),
                    ..
                } if code == "overloaded"
            )
        })
        .count();
    assert!(shed >= 1, "a 6-deep burst over a cap of 3 must shed");

    // The connection stays usable: a polite request after the burst works.
    raw.write_all(b"{\"cmd\":\"ping\"}\n").unwrap();
    raw.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(matches!(
        Response::decode(line.trim()).unwrap(),
        Response::Pong
    ));
    handle.shutdown();
}

/// Regression: a request line split across TCP segments with a stall
/// longer than the connection's 100 ms read timeout must be reassembled,
/// not dropped or answered early.
#[test]
fn a_partial_request_line_survives_a_read_timeout_stall() {
    let _g = locked();
    let server = chaos_server(ServerConfig::default());
    let handle = serve(Arc::clone(&server), "127.0.0.1:0", &ServerConfig::default()).unwrap();

    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.write_all(b"{\"cmd\":\"pi").unwrap();
    raw.flush().unwrap();
    std::thread::sleep(Duration::from_millis(250)); // > the read timeout
    raw.write_all(b"ng\"}\n").unwrap();
    raw.flush().unwrap();

    let mut reader = BufReader::new(raw);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(matches!(
        Response::decode(line.trim()).unwrap(),
        Response::Pong
    ));
    handle.shutdown();
}

#[test]
fn a_dropped_connection_reconnects_with_backoff_and_resumes_its_session() {
    let _g = locked();
    for protocol in PROTOCOLS {
        let server = chaos_server(ServerConfig::default());
        let handle = serve(Arc::clone(&server), "127.0.0.1:0", &ServerConfig::default()).unwrap();
        let addr = handle.addr();

        let reference = LocalClient::new(Arc::clone(&server))
            .query("dblp", TWO_HOP)
            .unwrap()
            .rows;

        // Fetch a prefix, then lose the connection mid-stream.
        let mut first = TcpClient::connect_with(addr, protocol).unwrap();
        let opened = first.open("dblp", TWO_HOP).unwrap();
        let prefix = first.fetch(opened.session, 4).unwrap().rows;
        drop(first);

        // Sessions live in the server, not the connection: the reconnect
        // policy's backed-off retry gets a fresh connection that resumes the
        // same cursor exactly where it stopped.
        let mut second =
            TcpClient::connect_with_retry(addr, protocol, &RetryPolicy::default()).unwrap();
        let mut combined = prefix;
        combined.extend(drain(&mut second, opened.session, 7));
        assert_eq!(combined, reference);
        assert_eq!(second.stats().unwrap().sessions_open, 0);

        // Against a dead endpoint the policy gives up with the last error
        // instead of hanging (port 1 refuses on loopback).
        let policy = RetryPolicy {
            attempts: 2,
            base_delay: Duration::from_millis(1),
            ..RetryPolicy::default()
        };
        assert!(TcpClient::connect_with_retry("127.0.0.1:1", protocol, &policy).is_err());
        handle.shutdown();
    }
}

/// The sample value of `metric` in a Prometheus exposition.
fn sample(body: &str, metric: &str) -> f64 {
    body.lines()
        .find(|l| l.split(' ').next() == Some(metric))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

#[test]
fn robustness_counters_flow_through_stats_and_prometheus() {
    let _g = locked();
    // `max_inflight: 0` sheds every expensive request — cheap ones
    // (stats, metrics, cancel) must keep working under total overload.
    let server = chaos_server(ServerConfig {
        max_inflight: 0,
        ..ServerConfig::default()
    });
    let mut client = LocalClient::new(Arc::clone(&server));

    let err = client.open("dblp", TWO_HOP).unwrap_err();
    assert!(err.is_overloaded(), "{err}");
    assert!(!client.cancel(404).unwrap(), "CANCEL passes the gate");

    let stats = client.stats().unwrap();
    assert_eq!(stats.enumeration.requests_shed, 1);
    assert_eq!(
        stats.enumeration.cancelled, 0,
        "a no-op CANCEL counts nothing"
    );

    let body = client.metrics().unwrap();
    re_obs::validate_exposition(&body).expect("well-formed exposition");
    assert!(sample(&body, "re_server_requests_shed") >= 1.0, "{body}");
    for metric in [
        "re_server_deadline_exceeded",
        "re_server_cancelled",
        "re_fault_injected_total",
    ] {
        assert!(
            body.lines().any(|l| l.split(' ').next() == Some(metric)),
            "missing {metric} in exposition"
        );
    }
}

#[test]
fn peer_disconnect_mid_fetch_cancels_the_checked_out_cursor() {
    let _g = locked();
    for protocol in PROTOCOLS {
        let server = chaos_server(ServerConfig::default());
        let handle = serve(Arc::clone(&server), "127.0.0.1:0", &ServerConfig::default()).unwrap();
        let mut local = LocalClient::new(Arc::clone(&server));
        let cancelled_before = local.stats().unwrap().enumeration.cancelled;

        // The session lives on one connection, the doomed fetch on another:
        // sessions are resumable across connections, so only the cursor's
        // *checked-out* state at disconnect time decides its fate.
        let mut owner = TcpClient::connect_with(handle.addr(), protocol).unwrap();
        let opened = owner.open("dblp", TWO_HOP).unwrap();

        // Stall the fetch long enough to rip the connection out from under it
        // while the cursor is checked out.
        re_fault::configure("fetch.next=sleep(400)").unwrap();
        {
            let mut doomed = TcpStream::connect(handle.addr()).unwrap();
            let line = re_server::Request::Fetch {
                session: opened.session,
                k: 3,
            }
            .encode()
                + "\n";
            doomed.write_all(line.as_bytes()).unwrap();
            doomed.flush().unwrap();
            std::thread::sleep(Duration::from_millis(120));
            // Dropping the stream sends FIN mid-fetch: the reactor tears the
            // connection down and cancels the in-flight cursor.
        }
        std::thread::sleep(Duration::from_millis(600));
        re_fault::clear();

        let stats = local.stats().unwrap();
        assert_eq!(
            stats.sessions_open, 0,
            "the disconnected fetch's cursor must be released"
        );
        assert_eq!(
            stats.enumeration.cancelled,
            cancelled_before + 1,
            "exactly one cancel, attributed to the disconnect"
        );

        // The owning connection is still healthy, and a later fetch on the id
        // says *why* the session is gone — not "unknown id".
        let err = owner.fetch(opened.session, 3).unwrap_err();
        match &err {
            re_server::ClientError::Server { code, .. } => assert_eq!(code, "cancelled"),
            other => panic!("expected a typed server error, got {other}"),
        }
        assert_eq!(owner.stats().unwrap().sessions_open, 0);
        handle.shutdown();
    }
}
