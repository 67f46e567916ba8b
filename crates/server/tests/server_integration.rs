//! Integration tests for the ranked-query service — including the
//! acceptance criteria of the session-server design:
//!
//! * `OPEN` + two successive `FETCH k` calls concatenate to exactly the
//!   single-shot `LIMIT 2k` result, with preprocessing having run once
//!   (asserted through the `enumerators_built` / `cells_created` metrics
//!   and the plan-cache hit counters);
//! * at least four concurrent sessions over one shared catalog produce
//!   correct, duplicate-free, rank-ordered answers;
//! * the TCP front-end serves the same protocol through its worker pool.

use re_server::{
    serve, LocalClient, RankedQueryServer, ServerConfig, TcpClient, Transport, WireProtocol,
};
use re_storage::{attr::attrs, Database, Relation};
use std::sync::Arc;
use std::time::Duration;

/// Both wire protocols: every TCP leg below runs once per protocol, so
/// JSON-lines and binary framing stay equivalent end to end.
const PROTOCOLS: [WireProtocol; 2] = [WireProtocol::Json, WireProtocol::Binary];

/// Co-authorship database: enough rows for multi-page enumerations.
fn coauthor_db() -> Database {
    let mut db = Database::new();
    let mut rows = Vec::new();
    for paper in 0..12u64 {
        for slot in 0..4u64 {
            // author ids overlap across papers → shared co-authors
            rows.push(vec![(paper * 3 + slot * 7) % 40, 1000 + paper]);
        }
    }
    db.add_relation(Relation::with_tuples("AP", attrs(["aid", "pid"]), rows).unwrap())
        .unwrap();
    db
}

const TWO_HOP: &str = "SELECT DISTINCT AP1.aid, AP2.aid FROM AP AS AP1, AP AS AP2 \
                       WHERE AP1.pid = AP2.pid ORDER BY AP1.aid + AP2.aid";

fn server_with_db(ttl: Duration) -> Arc<RankedQueryServer> {
    let server = RankedQueryServer::new(ServerConfig {
        session_ttl: ttl,
        ..ServerConfig::default()
    });
    server.catalog().register("dblp", coauthor_db());
    server
}

#[test]
fn paged_fetches_equal_single_shot_with_one_preprocessing_pass() {
    let server = server_with_db(Duration::from_secs(60));
    let mut client = LocalClient::new(Arc::clone(&server));
    let k = 10;
    // The session and the one-shot run the *same* statement (LIMIT 3k), so
    // the one-shot is a plan-cache hit; the 2k comparison uses its prefix.
    let statement = format!("{TWO_HOP} LIMIT {}", 3 * k);

    let opened = client.open("dblp", &statement).unwrap();
    assert_eq!(opened.algorithm, "acyclic");
    assert!(!opened.plan_cached, "first open plans from scratch");
    assert_eq!(opened.columns, vec!["AP1.aid", "AP2.aid"]);

    let after_open = client.stats().unwrap();
    assert_eq!(after_open.enumerators_built, 1);
    let preprocessing_cells = after_open.enumeration.cells_created;
    assert!(preprocessing_cells > 0, "preprocessing ran at OPEN");

    let p1 = client.fetch(opened.session, k).unwrap();
    let p2 = client.fetch(opened.session, k).unwrap();
    assert_eq!(p1.rows.len() as u64, k);
    assert_eq!(p2.rows.len() as u64, k);

    let single = client.query("dblp", &statement).unwrap();
    assert!(
        single.plan_cached,
        "same normalised statement hits the cache"
    );
    let mut combined = p1.rows.clone();
    combined.extend(p2.rows.clone());
    assert_eq!(combined, single.rows[..2 * k as usize]);

    // Preprocessing ran once per enumerator: the session's two fetches
    // added successor cells but no second preprocessing pass (the one-shot
    // query built the second enumerator).
    let final_stats = client.stats().unwrap();
    assert_eq!(final_stats.enumerators_built, 2);
    assert_eq!(final_stats.plan_cache_hits, 1);
    assert_eq!(final_stats.plan_cache_misses, 1);
    assert!(
        final_stats.enumeration.cells_created < 3 * preprocessing_cells,
        "fetches must extend the existing cells, not rebuild them"
    );

    assert!(client.close(opened.session).unwrap());
    assert!(
        !client.close(opened.session).unwrap(),
        "double close is clean"
    );

    // The acceptance shape verbatim: OPEN (no LIMIT) + two FETCH k == the
    // single-shot `LIMIT 2k` result of the same query.
    let unlimited = client.open("dblp", TWO_HOP).unwrap();
    let q1 = client.fetch(unlimited.session, k).unwrap();
    let q2 = client.fetch(unlimited.session, k).unwrap();
    let limit_2k = client
        .query("dblp", &format!("{TWO_HOP} LIMIT {}", 2 * k))
        .unwrap();
    let mut paged = q1.rows;
    paged.extend(q2.rows);
    assert_eq!(paged, limit_2k.rows);
    client.close(unlimited.session).unwrap();
}

#[test]
fn concurrent_sessions_share_one_catalog_and_stay_correct() {
    let server = server_with_db(Duration::from_secs(60));

    // Reference: the full answer sequence, single-threaded.
    let mut reference_client = LocalClient::new(Arc::clone(&server));
    let reference = reference_client.query("dblp", TWO_HOP).unwrap().rows;
    assert!(
        reference.len() > 20,
        "workload is big enough to be interesting"
    );

    let threads = 6;
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let server = Arc::clone(&server);
            let reference = reference.clone();
            std::thread::spawn(move || {
                let mut client = LocalClient::new(server);
                let opened = client.open("dblp", TWO_HOP).unwrap();
                // Page with a small k to maximise interleaving.
                let mut collected = Vec::new();
                loop {
                    let page = client.fetch(opened.session, 7).unwrap();
                    collected.extend(page.rows);
                    if page.exhausted {
                        break;
                    }
                }
                assert_eq!(collected, reference, "session diverged from reference");
                // Exhausted sessions are reaped server-side.
                assert!(!client.close(opened.session).unwrap());
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let mut client = LocalClient::new(Arc::clone(&server));
    let stats = client.stats().unwrap();
    assert_eq!(stats.sessions_opened, threads as u64);
    assert_eq!(
        stats.sessions_open, 0,
        "all sessions were reaped on exhaustion"
    );
    assert_eq!(stats.plan_cache_misses, 1, "one plan served every session");
    assert_eq!(stats.plan_cache_hits, threads as u64);
    // Duplicate-free and rank-ordered (the reference is checked once here).
    let mut seen = std::collections::HashSet::new();
    let mut last_sum = 0u64;
    for row in &reference {
        assert!(seen.insert(row.clone()), "duplicate answer {row:?}");
        let sum = row[0] + row[1];
        assert!(sum >= last_sum, "answers out of rank order");
        last_sum = sum;
    }
}

#[test]
fn tcp_front_end_serves_the_protocol_through_the_worker_pool() {
    let server = server_with_db(Duration::from_secs(60));
    let config = ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    };
    let handle = serve(Arc::clone(&server), "127.0.0.1:0", &config).unwrap();
    let addr = handle.addr();

    // Reference result computed in-process.
    let reference = LocalClient::new(Arc::clone(&server))
        .query("dblp", &format!("{TWO_HOP} LIMIT 12"))
        .unwrap()
        .rows;

    // Four concurrent clients per protocol, on one server.
    let threads: Vec<_> = (0..8)
        .map(|i| {
            let reference = reference.clone();
            std::thread::spawn(move || {
                let mut client = TcpClient::connect_with(addr, PROTOCOLS[i % 2]).unwrap();
                client.ping().unwrap();
                assert_eq!(client.catalog().unwrap(), vec!["dblp".to_string()]);
                let opened = client.open("dblp", TWO_HOP).unwrap();
                let p1 = client.fetch(opened.session, 5).unwrap();
                let p2 = client.fetch(opened.session, 7).unwrap();
                let mut combined = p1.rows;
                combined.extend(p2.rows);
                assert_eq!(combined, reference);
                client.close(opened.session).unwrap();
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    // Server-side errors arrive as typed error responses, not hangups.
    for protocol in PROTOCOLS {
        let mut client = TcpClient::connect_with(addr, protocol).unwrap();
        let err = client.open("nope", TWO_HOP).unwrap_err();
        assert!(err.to_string().contains("unknown database"));
        let err = client.fetch(999_999, 5).unwrap_err();
        assert!(err.to_string().contains("session"));
        let err = client.open("dblp", "SELECT broken FROM").unwrap_err();
        assert!(matches!(err, re_server::ClientError::Server { .. }));
    }

    handle.shutdown();
}

#[test]
fn idle_sessions_are_evicted_and_reported() {
    // A TTL no OPEN → first FETCH gap comes near, even on a loaded core;
    // the only timing-sensitive step is the sleep past it, which can only
    // err long.
    let ttl = Duration::from_millis(500);
    let server = server_with_db(ttl);
    let mut client = LocalClient::new(Arc::clone(&server));
    let opened = client.open("dblp", TWO_HOP).unwrap();
    assert_eq!(client.fetch(opened.session, 3).unwrap().rows.len(), 3);
    std::thread::sleep(ttl + Duration::from_millis(60));
    let err = client.fetch(opened.session, 3).unwrap_err();
    assert!(
        err.to_string().contains("session"),
        "evicted session is gone"
    );
    let stats = client.stats().unwrap();
    assert_eq!(stats.sessions_evicted, 1);
    assert_eq!(
        stats.sessions_evicted_idle, 1,
        "TTL reaping must be attributed to the idle counter"
    );
    assert_eq!(stats.sessions_evicted_budget, 0);
    assert_eq!(stats.sessions_open, 0);
}

#[test]
fn memory_budget_evicts_the_heaviest_idle_session_first() {
    let tiny_db = || {
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples("T", attrs(["a"]), vec![vec![1], vec![2], vec![3]]).unwrap(),
        )
        .unwrap();
        db
    };
    const TINY: &str = "SELECT DISTINCT T.a FROM T ORDER BY T.a";

    // Probe pass: measure the deterministic parked footprint of the heavy
    // (2-hop) and tiny cursors on an unlimited server.
    let probe = server_with_db(Duration::from_secs(60));
    probe.catalog().register("tiny", tiny_db());
    let mut client = LocalClient::new(Arc::clone(&probe));
    let heavy = client.open("dblp", TWO_HOP).unwrap();
    let heavy_bytes = client.stats().unwrap().session_bytes_parked;
    client.close(heavy.session).unwrap();
    let small = client.open("tiny", TINY).unwrap();
    let small_bytes = client.stats().unwrap().session_bytes_parked;
    client.close(small.session).unwrap();
    assert!(heavy_bytes > small_bytes, "2-hop frontier outweighs 3 rows");
    assert!(small_bytes > 1);

    // Real pass: the budget admits the heavy session plus one tiny one.
    // Parking a second tiny session pushes the table over, and the policy
    // must evict the *heaviest* idle cursor — not the oldest, not the
    // newest.
    let server = RankedQueryServer::new(ServerConfig {
        session_budget_bytes: heavy_bytes + small_bytes + 1,
        ..ServerConfig::default()
    });
    server.catalog().register("dblp", coauthor_db());
    server.catalog().register("tiny", tiny_db());
    let mut client = LocalClient::new(Arc::clone(&server));
    let heavy = client.open("dblp", TWO_HOP).unwrap();
    let small_a = client.open("tiny", TINY).unwrap();
    let small_b = client.open("tiny", TINY).unwrap();

    // The heavy cursor is gone, with the documented error on FETCH.
    let err = client.fetch(heavy.session, 3).unwrap_err();
    assert!(
        err.to_string()
            .contains("evicted to enforce the session memory budget"),
        "budget eviction must be attributed: {err}"
    );
    // Both tiny sessions still stream.
    assert_eq!(
        client.fetch(small_a.session, 1).unwrap().rows,
        vec![vec![1]]
    );
    assert_eq!(
        client.fetch(small_b.session, 1).unwrap().rows,
        vec![vec![1]]
    );

    let stats = client.stats().unwrap();
    assert_eq!(stats.sessions_evicted_budget, 1);
    assert_eq!(
        stats.sessions_evicted_idle, 0,
        "a budget eviction must not leak into the idle counter"
    );
    assert_eq!(stats.sessions_evicted, 1);
    assert_eq!(stats.session_budget_bytes, heavy_bytes + small_bytes + 1);
    assert_eq!(stats.sessions_open, 2);
    assert!(stats.session_bytes_parked <= stats.session_budget_bytes);
    assert!(stats.enumeration.frontier_bytes > 0);
    assert!(stats.enumeration.frontier_peak_bytes > 0);
}

/// A membership relation `AP(aid, pid)`: `papers` papers of four authors
/// each, drawn from `papers` authors by a fixed generator.
fn membership_db(papers: u64) -> Database {
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut rows = Vec::new();
    for pid in 0..papers {
        for _ in 0..4 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            rows.push(vec![x % papers, 1_000_000 + pid]);
        }
    }
    let mut db = Database::new();
    db.add_relation(Relation::with_tuples("AP", attrs(["aid", "pid"]), rows).unwrap())
        .unwrap();
    db
}

#[test]
fn memory_budget_evicts_the_session_that_holds_the_most_heap() {
    // A LEX 2-hop over 4 000 memberships runs Algorithm 3 (lexi), whose
    // heap is mostly its two reduced relations; a SUM 2-hop over 240 runs
    // the general engine. On the allocator the lexi session holds more
    // than twice the other, and `frontier_alloc_tripwire` holds every
    // engine's reported bytes to within 10 % of the allocator's. A ledger
    // that counted only lexi's candidate lists saw it the other way round,
    // and evicted the SUM session.
    const LEX: &str = "SELECT DISTINCT AP1.aid, AP2.aid FROM AP AS AP1, AP AS AP2 \
                       WHERE AP1.pid = AP2.pid ORDER BY AP1.aid, AP2.aid";
    let tiny_db = || {
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("T", attrs(["a"]), vec![vec![1], vec![2]]).unwrap())
            .unwrap();
        db
    };
    const TINY: &str = "SELECT DISTINCT T.a FROM T ORDER BY T.a";
    let server_with = |budget: u64| {
        let server = RankedQueryServer::new(ServerConfig {
            session_budget_bytes: budget,
            ..ServerConfig::default()
        });
        server.catalog().register("big", membership_db(1_000));
        server.catalog().register("small", membership_db(60));
        server.catalog().register("tiny", tiny_db());
        server
    };

    // Probe pass: each session's parked bytes on an unlimited server.
    let mut client = LocalClient::new(server_with(0));
    let mut parked = |db: &str, sql: &str| {
        let opened = client.open(db, sql).unwrap();
        let bytes = client.stats().unwrap().session_bytes_parked;
        client.close(opened.session).unwrap();
        (opened.algorithm, bytes)
    };
    let (lex_algorithm, lex_bytes) = parked("big", LEX);
    let (sum_algorithm, sum_bytes) = parked("small", TWO_HOP);
    let (_, tiny_bytes) = parked("tiny", TINY);
    assert_eq!(
        (lex_algorithm.as_str(), sum_algorithm.as_str()),
        ("lexi", "acyclic")
    );

    // Real pass: the two 2-hops and one tiny session overflow the budget
    // by a byte, so parking the tiny one must evict one 2-hop — the one
    // holding more.
    let budget = lex_bytes + sum_bytes + tiny_bytes - 1;
    let mut client = LocalClient::new(server_with(budget));
    let lex = client.open("big", LEX).unwrap();
    let sum = client.open("small", TWO_HOP).unwrap();
    client.open("tiny", TINY).unwrap();
    let err = client.fetch(lex.session, 1).unwrap_err();
    assert!(
        err.to_string()
            .contains("evicted to enforce the session memory budget"),
        "the lexi session holds the most heap and must go: {err}"
    );
    assert_eq!(client.fetch(sum.session, 1).unwrap().rows.len(), 1);
    assert_eq!(client.stats().unwrap().sessions_evicted_budget, 1);
    assert!(
        lex_bytes > 2 * sum_bytes,
        "lexi reports {lex_bytes} bytes, the SUM 2-hop {sum_bytes}"
    );
}

#[test]
fn union_and_cyclic_statements_report_their_algorithm() {
    let server = RankedQueryServer::new(ServerConfig::default());
    let mut db = Database::new();
    db.add_relation(
        Relation::with_tuples(
            "E",
            attrs(["s", "t"]),
            vec![vec![1, 2], vec![2, 3], vec![3, 1], vec![2, 4], vec![4, 1]],
        )
        .unwrap(),
    )
    .unwrap();
    server.catalog().register("graph", db);
    let mut client = LocalClient::new(server);

    let triangle = client
        .open(
            "graph",
            "SELECT DISTINCT E1.s, E2.s FROM E AS E1, E AS E2, E AS E3 \
             WHERE E1.t = E2.s AND E2.t = E3.s AND E3.t = E1.s",
        )
        .unwrap();
    assert_eq!(triangle.algorithm, "cyclic-ghd");
    let page = client.fetch(triangle.session, 100).unwrap();
    assert!(!page.rows.is_empty(), "the graph contains triangles");

    // The stats endpoint surfaces the chosen GHD plan: its shape string,
    // bag count and cost estimate, and that no fallback was needed.
    let stats = client.stats().unwrap();
    assert!(
        stats.ghd_last_plan.starts_with("cycle-"),
        "expected a cycle-shaped plan, got `{}`",
        stats.ghd_last_plan
    );
    assert!(stats.enumeration.ghd_bags >= 1);
    assert!(stats.enumeration.ghd_estimated_rows > 0);
    assert_eq!(stats.enumeration.ghd_fallbacks, 0);

    let union = client
        .query(
            "graph",
            "SELECT DISTINCT E1.s FROM E AS E1 UNION SELECT DISTINCT E2.t FROM E AS E2",
        )
        .unwrap();
    assert_eq!(union.algorithm, "union-merge");
    assert!(!union.rows.is_empty());
}

#[test]
fn lexicographic_order_routes_to_the_lexi_engine() {
    // An acyclic statement under a lexicographic ORDER BY is served by the
    // index-backed Algorithm 3; its answers equal the general algorithm's
    // SUM-free sequence and the memoized-cell counters reach the stats
    // endpoint.
    let server = server_with_db(Duration::from_secs(60));
    let mut client = LocalClient::new(Arc::clone(&server));
    let lex_statement = "SELECT DISTINCT AP1.aid, AP2.aid FROM AP AS AP1, AP AS AP2 \
                         WHERE AP1.pid = AP2.pid ORDER BY AP1.aid, AP2.aid";

    let opened = client.open("dblp", lex_statement).unwrap();
    assert_eq!(opened.algorithm, "lexi");
    let mut rows = Vec::new();
    loop {
        let page = client.fetch(opened.session, 7).unwrap();
        rows.extend(page.rows);
        if page.exhausted {
            break;
        }
    }
    // Rank order under the default value-as-weight lexicographic ranking
    // is plain (aid1, aid2) dictionary order; distinct by construction.
    assert!(rows.windows(2).all(|w| w[0] < w[1]));
    let single_shot = client.query("dblp", lex_statement).unwrap();
    assert_eq!(single_shot.algorithm, "lexi");
    assert!(single_shot.plan_cached, "same normalised statement");
    assert_eq!(rows, single_shot.rows);

    // The 2-hop a2-level depends on the whole (a1) prefix, so reuse comes
    // from its single-shot rerun sharing nothing — but the counter must at
    // least surface through the protocol without erroring.
    let stats = client.stats().unwrap();
    assert!(stats.enumeration.cells_created > 0);
    assert!(stats.enumeration.answers >= 2 * rows.len() as u64);
}

#[test]
fn opens_route_preprocessing_through_the_shared_pool() {
    // A cyclic OPEN materialises its GHD bags as tasks on the server's
    // shared pool; the `stats` endpoint must therefore show pool work
    // after the open, and the answers must match a serial server's.
    let make_db = || {
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
    };
    // 4-cycle over the membership relation: a1–p1–a2–p2–a1.
    let four_cycle = "SELECT DISTINCT M1.e, M3.e FROM M AS M1, M AS M2, M AS M3, M AS M4 \
                      WHERE M1.c = M2.c AND M2.e = M3.e AND M3.c = M4.c AND M4.e = M1.e \
                      ORDER BY M1.e + M3.e LIMIT 200";

    let pooled = RankedQueryServer::new(ServerConfig {
        exec_threads: 2,
        ..ServerConfig::default()
    });
    pooled.catalog().register("m", make_db());
    let serial = RankedQueryServer::new(ServerConfig {
        exec_threads: 1,
        ..ServerConfig::default()
    });
    serial.catalog().register("m", make_db());

    let mut pooled_client = LocalClient::new(Arc::clone(&pooled));
    let mut serial_client = LocalClient::new(serial);

    let before = pooled_client.stats().unwrap();
    assert_eq!(before.exec_pool_threads, 2);
    assert_eq!(before.enumeration.pool_tasks, 0);

    let opened = pooled_client.open("m", four_cycle).unwrap();
    assert_eq!(opened.algorithm, "cyclic-ghd");
    let after = pooled_client.stats().unwrap();
    assert!(
        after.enumeration.pool_tasks > 0,
        "cyclic preprocessing must run on the shared pool"
    );

    // Determinism across thread counts, end to end through the server.
    let pooled_rows = pooled_client.fetch(opened.session, 1_000).unwrap().rows;
    let serial_rows = serial_client.query("m", four_cycle).unwrap().rows;
    assert!(!pooled_rows.is_empty());
    assert_eq!(pooled_rows, serial_rows);
}

#[test]
fn catalog_updates_do_not_disturb_live_sessions() {
    let server = server_with_db(Duration::from_secs(60));
    let mut client = LocalClient::new(Arc::clone(&server));
    let opened = client.open("dblp", TWO_HOP).unwrap();
    let before = client.fetch(opened.session, 4).unwrap().rows;

    // Swap the database under the same name mid-session.
    let mut tiny = Database::new();
    tiny.add_relation(
        Relation::with_tuples("AP", attrs(["aid", "pid"]), vec![vec![7, 1]]).unwrap(),
    )
    .unwrap();
    server.catalog().register("dblp", tiny);

    // The live cursor keeps streaming from its original snapshot...
    let after = client.fetch(opened.session, 4).unwrap().rows;
    assert_eq!(before.len(), 4);
    assert_eq!(after.len(), 4);
    assert_ne!(before, after, "pages advance");
    // ...while new sessions see the replacement — and because the cache
    // key includes the registration generation, the statement is
    // re-planned against the new schema instead of reusing the stale plan.
    let fresh = client.query("dblp", TWO_HOP).unwrap();
    assert!(!fresh.plan_cached, "replacement database must re-plan");
    assert_eq!(fresh.rows, vec![vec![7, 7]]);
}

/// The sample value of `metric` in a Prometheus exposition (0 if the
/// metric has not been registered yet — the registry is process-global,
/// so tests assert on deltas).
fn sample(body: &str, metric: &str) -> f64 {
    body.lines()
        .find(|l| l.split(' ').next() == Some(metric))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

#[test]
fn metrics_exposition_covers_spans_latencies_and_ttfa() {
    // Cyclic database: a triangle query forces GHD bag materialisation,
    // so the OPEN must populate the `preprocess.bags` span histogram.
    let mut db = Database::new();
    let mut rows = Vec::new();
    for a in 0..8u64 {
        for b in 0..8u64 {
            if a != b {
                rows.push(vec![a, b]);
            }
        }
    }
    db.add_relation(Relation::with_tuples("E", attrs(["s", "t"]), rows).unwrap())
        .unwrap();
    let triangle = "SELECT DISTINCT E1.s, E2.s FROM E AS E1, E AS E2, E AS E3 \
                    WHERE E1.t = E2.s AND E2.t = E3.s AND E3.t = E1.s \
                    ORDER BY E1.s + E2.s LIMIT 50";

    let server = RankedQueryServer::new(ServerConfig::default());
    server.catalog().register("g", db);
    let mut client = LocalClient::new(Arc::clone(&server));

    // The registry is process-global: measure deltas, not absolutes.
    let before = client.metrics().unwrap();
    re_obs::validate_exposition(&before).expect("well-formed exposition before any session");
    let bags_before = sample(&before, "re_span_preprocess_bags_seconds_count");
    let open_before = sample(&before, "re_server_open_seconds_count");
    let fetch_before = sample(&before, "re_server_fetch_seconds_count");
    let ttfa_before = sample(&before, "re_cursor_ttfa_seconds_count");

    let opened = client.open("g", triangle).unwrap();
    assert_eq!(opened.algorithm, "cyclic-ghd");
    let after_open = client.metrics().unwrap();
    re_obs::validate_exposition(&after_open).expect("well-formed exposition after OPEN");
    assert!(
        sample(&after_open, "re_span_preprocess_bags_seconds_count") >= bags_before + 1.0,
        "a cyclic OPEN must record a preprocess.bags span"
    );
    assert!(sample(&after_open, "re_server_open_seconds_count") >= open_before + 1.0);

    let page = client.fetch(opened.session, 5).unwrap();
    assert!(!page.rows.is_empty());
    let after_fetch = client.metrics().unwrap();
    re_obs::validate_exposition(&after_fetch).expect("well-formed exposition after FETCH");
    assert!(
        sample(&after_fetch, "re_server_fetch_seconds_count") >= fetch_before + 1.0,
        "a FETCH must record into the fetch-latency histogram"
    );
    assert!(
        sample(&after_fetch, "re_cursor_ttfa_seconds_count") >= ttfa_before + 1.0,
        "the first answer must record time-to-first-answer"
    );

    // The summary shape the ROADMAP's p50/p99 targets will be read from.
    for metric in ["re_server_open_seconds", "re_server_fetch_seconds"] {
        for quantile in ["0.5", "0.99"] {
            let line = format!("{metric}{{quantile=\"{quantile}\"}}");
            assert!(
                after_fetch.lines().any(|l| l.starts_with(&line)),
                "missing {line} in exposition"
            );
        }
    }
    // Scalar counters from the stats report ride along.
    assert!(sample(&after_fetch, "re_sessions_opened") >= 1.0);
    assert!(sample(&after_fetch, "re_enum_answers") >= 1.0);

    // The same body arrives intact over TCP (multi-line text inside one
    // JSON string, or one binary frame).
    let handle = serve(Arc::clone(&server), "127.0.0.1:0", &ServerConfig::default()).unwrap();
    for protocol in PROTOCOLS {
        let mut tcp = TcpClient::connect_with(handle.addr(), protocol).unwrap();
        let scraped = tcp.metrics().unwrap();
        re_obs::validate_exposition(&scraped).expect("well-formed exposition over TCP");
        assert!(scraped.contains("re_span_preprocess_bags_seconds_count"));
    }
    handle.shutdown();
}

#[test]
fn explain_and_explain_analyze_over_the_protocol() {
    let server = server_with_db(Duration::from_secs(60));
    let mut client = LocalClient::new(Arc::clone(&server));

    let plan = client.explain("dblp", TWO_HOP, false).unwrap();
    assert!(plan.starts_with("EXPLAIN\n"), "{plan}");
    assert!(plan.contains("algorithm: acyclic"), "{plan}");
    assert!(
        plan.contains("join tree (rooted, projection-pruned):"),
        "{plan}"
    );
    assert!(
        !plan.contains("execution:"),
        "plain EXPLAIN must not execute"
    );

    let analyzed = client.explain("dblp", TWO_HOP, true).unwrap();
    assert!(analyzed.starts_with("EXPLAIN ANALYZE\n"), "{analyzed}");
    assert!(analyzed.contains("execution:"), "{analyzed}");
    assert!(analyzed.contains("answers:"), "{analyzed}");
    assert!(analyzed.contains("trace:"), "{analyzed}");

    // An EXPLAIN prefix written in the SQL text overrides the flag.
    let prefixed = client
        .explain("dblp", &format!("EXPLAIN ANALYZE {TWO_HOP}"), false)
        .unwrap();
    assert!(prefixed.starts_with("EXPLAIN ANALYZE\n"), "{prefixed}");

    // Failures arrive as server errors, not panics.
    assert!(client.explain("nope", TWO_HOP, false).is_err());
    assert!(client
        .explain("dblp", "SELECT AP.aid FROM AP", false)
        .is_err());

    // The same request works across the wire.
    let handle = serve(Arc::clone(&server), "127.0.0.1:0", &ServerConfig::default()).unwrap();
    for protocol in PROTOCOLS {
        let mut tcp = TcpClient::connect_with(handle.addr(), protocol).unwrap();
        let over_tcp = tcp.explain("dblp", TWO_HOP, true).unwrap();
        assert!(over_tcp.starts_with("EXPLAIN ANALYZE\n"), "{over_tcp}");
        assert!(over_tcp.contains("execution:"), "{over_tcp}");
    }
    handle.shutdown();
}

#[test]
fn stats_expose_per_worker_pool_counters() {
    let mut db = Database::new();
    let mut rows = Vec::new();
    for i in 0..60u64 {
        rows.push(vec![i % 12, 100 + i % 9]);
        rows.push(vec![(i * 5 + 3) % 12, 100 + i % 9]);
    }
    let mut rel = Relation::with_tuples("M", attrs(["e", "c"]), rows).unwrap();
    rel.dedup_tuples();
    db.add_relation(rel).unwrap();
    let four_cycle = "SELECT DISTINCT M1.e, M3.e FROM M AS M1, M AS M2, M AS M3, M AS M4 \
                      WHERE M1.c = M2.c AND M2.e = M3.e AND M3.c = M4.c AND M4.e = M1.e \
                      ORDER BY M1.e + M3.e LIMIT 50";

    let server = RankedQueryServer::new(ServerConfig {
        exec_threads: 2,
        ..ServerConfig::default()
    });
    server.catalog().register("m", db);
    let mut client = LocalClient::new(Arc::clone(&server));
    let opened = client.open("m", four_cycle).unwrap();
    assert_eq!(opened.algorithm, "cyclic-ghd");

    let stats = client.stats().unwrap();
    assert_eq!(
        stats.per_worker.len(),
        3,
        "two pool workers plus the trailing caller slot"
    );
    // The per-worker slices partition the aggregates exactly: both are
    // bumped together at every task completion.
    let tasks: u64 = stats.per_worker.iter().map(|w| w.tasks).sum();
    let steals: u64 = stats.per_worker.iter().map(|w| w.steals).sum();
    assert!(tasks > 0, "cyclic preprocessing must run pool tasks");
    assert_eq!(tasks, stats.enumeration.pool_tasks);
    assert_eq!(steals, stats.enumeration.pool_steals);

    // And the exposition carries them as labeled samples.
    let body = client.metrics().unwrap();
    re_obs::validate_exposition(&body).expect("well-formed exposition with labeled samples");
    assert!(
        body.contains("re_exec_worker_tasks{worker=\"0\"}"),
        "{body}"
    );
    assert!(
        body.contains("re_exec_worker_tasks{worker=\"1\"}"),
        "{body}"
    );
    assert!(
        body.contains("re_exec_worker_busy_micros{worker=\"caller\"}"),
        "{body}"
    );
}

#[test]
fn sampled_opens_push_request_traces_into_the_ring() {
    let server = RankedQueryServer::new(ServerConfig {
        trace_sample: 1, // trace every OPEN
        ..ServerConfig::default()
    });
    server.catalog().register("dblp", coauthor_db());
    let mut client = LocalClient::new(Arc::clone(&server));
    let opened = client.open("dblp", TWO_HOP).unwrap();
    assert!(!opened.columns.is_empty());

    // The trace ring is process-global; find this server's OPEN trace.
    let traces = re_obs::global().recent_traces();
    let trace = traces
        .iter()
        .rev()
        .find(|t| t.name == "server.open")
        .expect("a fully-sampled OPEN must push its trace");
    assert!(
        trace.spans.iter().any(|s| s.name == "preprocess.reduce"),
        "the OPEN's preprocessing spans belong to the request trace"
    );
    let json = trace.to_chrome_json();
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("preprocess.reduce"));
}
