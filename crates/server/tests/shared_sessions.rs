//! Sessions of one statement share its enumerator: the second OPEN of a
//! statement that a live session already built attaches to that session's
//! frontier instead of building, over the in-process client and both wire
//! protocols, at 1 and 4 preprocessing threads — and every session still
//! reads exactly the private enumerator's sequence, with the work counted
//! once.
//!
//! A cyclic statement decides its GHD once per catalog generation: the
//! first OPEN races selection's choice against the single bag and records
//! the winner in the cached plan, later OPENs build the winner alone, and
//! re-registering the database starts a new plan that races again.

use re_obs::AttrValue;
use re_server::{
    serve, LocalClient, RankedQueryServer, ServerConfig, TcpClient, Transport, WireProtocol,
};
use re_sql::SqlExecutor;
use re_storage::{attr::attrs, Database, Relation, Tuple};
use re_workloads::membership::WeightScheme;
use re_workloads::DblpWorkload;
use std::sync::Arc;

/// Co-authorship memberships: 40 papers of four authors out of 60.
fn coauthor_db() -> Database {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut rows = Vec::new();
    for paper in 0..40u64 {
        for _ in 0..4 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            rows.push(vec![x % 60, 1000 + paper]);
        }
    }
    let mut db = Database::new();
    db.add_relation(Relation::with_tuples("AP", attrs(["aid", "pid"]), rows).unwrap())
        .unwrap();
    db
}

const TWO_HOP: &str = "SELECT DISTINCT AP1.aid, AP2.aid FROM AP AS AP1, AP AS AP2 \
                       WHERE AP1.pid = AP2.pid ORDER BY AP1.aid + AP2.aid";

fn server(exec_threads: usize, trace_sample: u64) -> Arc<RankedQueryServer> {
    let server = RankedQueryServer::new(ServerConfig {
        exec_threads,
        trace_sample,
        ..ServerConfig::default()
    });
    server.catalog().register("dblp", coauthor_db());
    server
}

/// One page of `k` from `session`, appended to `got`: whether it was the
/// last.
fn page<T: Transport>(client: &mut T, session: u64, k: u64, got: &mut Vec<Tuple>) -> bool {
    let page = client.fetch(session, k).unwrap();
    got.extend(page.rows);
    page.exhausted
}

/// Two sessions of one statement, then a third while the second lives,
/// then a fourth after all have ended, over `clients`.
fn sessions_share_one_enumerator<T: Transport>(
    server: &RankedQueryServer,
    [one, two]: [&mut T; 2],
    what: &str,
) {
    let db = coauthor_db();
    let mut private = SqlExecutor::new(&db).open(TWO_HOP).unwrap();
    let expected = private.fetch_all();
    let whole_run = private.stats_snapshot();
    assert!(expected.len() > 100, "{what}: a multi-page enumeration");
    let built = || server.stats_report().enumerators_built;

    let a = one.open("dblp", TWO_HOP).unwrap();
    let b = two.open("dblp", TWO_HOP).unwrap();
    assert_eq!(built(), 1, "{what}: the second OPEN attaches");
    assert!(b.plan_cached, "{what}");
    assert_eq!((a.algorithm.as_str(), &a.columns), ("acyclic", &b.columns));
    let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
    for k in [3, 9, 1, 7] {
        page(one, a.session, k, &mut got_a);
        page(two, b.session, k + 2, &mut got_b);
    }
    assert!(one.close(a.session).unwrap());
    assert_eq!(got_a, expected[..got_a.len()], "{what}: session a");

    // b still holds the frontier: c attaches and replays from the start.
    let c = one.open("dblp", TWO_HOP).unwrap();
    assert_eq!(built(), 1, "{what}: a sharer lives");
    let mut got_c = Vec::new();
    let (mut b_done, mut c_done) = (false, false);
    while !(b_done && c_done) {
        if !b_done {
            b_done = page(two, b.session, 11, &mut got_b);
        }
        if !c_done {
            c_done = page(one, c.session, 5, &mut got_c);
        }
    }
    assert_eq!(got_b, expected, "{what}: session b");
    assert_eq!(got_c, expected, "{what}: session c");
    // The chain was extended to its end once, whoever read it.
    let counted = server.stats_report().enumeration;
    assert_eq!(
        (
            counted.cells_created,
            counted.pq_pushes,
            counted.pq_pops,
            counted.frontier_bytes,
            counted.frontier_peak_bytes
        ),
        (
            whole_run.cells_created,
            whole_run.pq_pushes,
            whole_run.pq_pops,
            whole_run.frontier_bytes,
            whole_run.frontier_peak_bytes
        ),
        "{what}: work and bytes counted once"
    );
    assert_eq!(counted.answers, (got_a.len() + 2 * expected.len()) as u64);

    // Both exhausted sessions ended, and the frontier with them.
    let d = two.open("dblp", TWO_HOP).unwrap();
    assert_eq!(built(), 2, "{what}: no sharer left, so the OPEN builds");
    let mut got_d = Vec::new();
    page(two, d.session, 4, &mut got_d);
    assert_eq!(got_d, expected[..4], "{what}: session d");
    assert!(two.close(d.session).unwrap());
}

#[test]
fn sessions_of_one_statement_share_its_enumerator_in_process() {
    for threads in [1, 4] {
        let server = server(threads, 0);
        let mut one = LocalClient::new(Arc::clone(&server));
        let mut two = LocalClient::new(Arc::clone(&server));
        let what = format!("local, {threads} threads");
        sessions_share_one_enumerator(&server, [&mut one, &mut two], &what);
    }
}

#[test]
fn sessions_of_one_statement_share_its_enumerator_over_both_protocols() {
    for protocol in [WireProtocol::Json, WireProtocol::Binary] {
        for threads in [1, 4] {
            let server = server(threads, 0);
            let config = ServerConfig::default();
            let handle = serve(Arc::clone(&server), "127.0.0.1:0", &config).unwrap();
            let connect = || match protocol {
                WireProtocol::Json => TcpClient::connect_json(handle.addr()).unwrap(),
                WireProtocol::Binary => TcpClient::connect_binary(handle.addr()).unwrap(),
            };
            let (mut one, mut two) = (connect(), connect());
            let what = format!("{protocol:?}, {threads} threads");
            sessions_share_one_enumerator(&server, [&mut one, &mut two], &what);
            handle.shutdown();
        }
    }
}

#[test]
fn an_attaching_open_is_traced_as_one_attach_span() {
    let server = server(1, 1);
    let mut client = LocalClient::new(Arc::clone(&server));
    let a = client.open("dblp", TWO_HOP).unwrap();
    client.fetch(a.session, 6).unwrap();
    let b = client.open("dblp", TWO_HOP).unwrap();
    assert_eq!(server.stats_report().enumerators_built, 1);
    // The trace ring is process-global: find the attaching OPEN's trace.
    let traces = re_obs::global().recent_traces();
    let attach = traces
        .iter()
        .filter(|t| t.name == "server.open")
        .flat_map(|t| t.spans.iter().map(move |s| (t, s)))
        .find(|(_, s)| s.name == "preprocess.attach")
        .expect("the attaching OPEN's trace holds its attach span");
    let (trace, span) = attach;
    assert!(
        span.attrs
            .iter()
            .any(|(k, v)| k == "chain_len" && matches!(v, AttrValue::U64(6))),
        "the chain held the six answers session a read: {:?}",
        span.attrs
    );
    assert!(
        !trace
            .spans
            .iter()
            .any(|s| s.name.starts_with("preprocess.") && s.name != "preprocess.attach"),
        "an attach runs no build phase"
    );
    client.close(a.session).unwrap();
    client.close(b.session).unwrap();
}

/// The membership 4-cycle over the co-authorship relation: cyclic, so its
/// OPEN plans a GHD.
const FOUR_CYCLE: &str = "SELECT DISTINCT AP1.aid, AP3.aid \
                          FROM AP AS AP1, AP AS AP2, AP AS AP3, AP AS AP4 \
                          WHERE AP1.pid = AP2.pid AND AP2.aid = AP3.aid \
                          AND AP3.pid = AP4.pid AND AP4.aid = AP1.aid \
                          ORDER BY AP1.aid + AP3.aid";

/// OPEN `sql` on `db`, read one page of `k`, CLOSE (an exhausted session
/// has ended already): the page, and the server's `ghd_last_plan` after
/// the OPEN.
fn open_page_close(
    server: &RankedQueryServer,
    client: &mut LocalClient,
    db: &str,
    sql: &str,
    k: u64,
) -> (Vec<Tuple>, String) {
    let opened = client.open(db, sql).unwrap();
    let plan = server.stats_report().ghd_last_plan;
    let mut rows = Vec::new();
    if !page(client, opened.session, k, &mut rows) {
        assert!(client.close(opened.session).unwrap());
    }
    (rows, plan)
}

#[test]
fn a_cyclic_statement_races_once_per_catalog_generation() {
    let expected = SqlExecutor::new(&coauthor_db())
        .open(FOUR_CYCLE)
        .unwrap()
        .fetch(20);
    assert_eq!(expected.len(), 20);
    for threads in [1, 4] {
        let server = server(threads, 0);
        let mut client = LocalClient::new(Arc::clone(&server));
        let counts = || {
            let report = server.stats_report();
            let e = report.enumeration;
            (report.enumerators_built, e.ghd_races, e.ghd_verdict_hits)
        };
        for open in 1..=3 {
            let (rows, plan) = open_page_close(&server, &mut client, "dblp", FOUR_CYCLE, 20);
            assert_eq!(rows, expected, "open {open}, {threads} threads");
            let marker = if open == 1 {
                "[raced "
            } else {
                "[recorded over "
            };
            assert!(plan.contains(marker), "open {open}: {plan}");
        }
        assert_eq!(counts(), (3, 1, 2), "{threads} threads: one race, two hits");

        // Re-registering makes a new generation, so a new plan: it races.
        server.catalog().register("dblp", coauthor_db());
        let (rows, plan) = open_page_close(&server, &mut client, "dblp", FOUR_CYCLE, 20);
        assert_eq!(rows, expected);
        assert!(plan.contains("[raced "), "{plan}");
        assert_eq!(counts(), (4, 2, 2), "{threads} threads");
    }
}

/// The bowtie of `relation(aid, pid)` as SQL: two membership squares that
/// share `L1.aid`, projecting one outer author of each.
fn bowtie_sql(relation: &str) -> String {
    let from: Vec<String> = ["L1", "L2", "L3", "L4", "R1", "R2", "R3", "R4"]
        .iter()
        .map(|alias| format!("{relation} AS {alias}"))
        .collect();
    format!(
        "SELECT DISTINCT L2.aid, R2.aid FROM {} \
         WHERE L1.pid = L2.pid AND L2.aid = L3.aid AND L3.pid = L4.pid AND L4.aid = L1.aid \
         AND L1.aid = R1.aid AND R1.pid = R2.pid AND R2.aid = R3.aid AND R3.pid = R4.pid \
         AND R4.aid = L1.aid ORDER BY L2.aid + R2.aid",
        from.join(", ")
    )
}

#[test]
fn each_generation_records_its_own_winner() {
    let dblp = DblpWorkload::generate(350, 21, WeightScheme::Random);
    let relation = dblp.relation();
    let sql = bowtie_sql(relation);
    // Three authors on four papers: both contenders' walks fit in one
    // step, and the single bag takes the tie. On DBLP-350 the split wins.
    let mut tiny = Database::new();
    let rows = [
        (1, 10),
        (2, 10),
        (1, 11),
        (2, 11),
        (1, 12),
        (3, 12),
        (1, 13),
        (3, 13),
    ];
    tiny.add_relation(
        Relation::with_tuples(
            relation,
            attrs(["aid", "pid"]),
            rows.iter().map(|&(a, p)| vec![a, p]),
        )
        .unwrap(),
    )
    .unwrap();
    let split = "cycle-split(0,4)";
    let generations = [
        (&tiny, "single-bag", split),
        (dblp.db(), split, "single-bag"),
        (&tiny, "single-bag", split),
    ];
    let server = server(2, 0);
    let mut client = LocalClient::new(Arc::clone(&server));
    for (i, (db, winner, loser)) in generations.into_iter().enumerate() {
        server.catalog().register("bowtie", db.clone());
        let expected = SqlExecutor::new(db).open(&sql).unwrap().fetch(30);
        assert!(!expected.is_empty(), "generation {i}");
        let (rows, plan) = open_page_close(&server, &mut client, "bowtie", &sql, 30);
        assert_eq!(rows, expected, "generation {i}, racing OPEN");
        assert_eq!(plan, format!("{winner} [raced {loser}]"), "generation {i}");
        let (rows, plan) = open_page_close(&server, &mut client, "bowtie", &sql, 30);
        assert_eq!(rows, expected, "generation {i}, recorded OPEN");
        assert_eq!(plan, format!("{winner} [recorded over {loser}]"));
    }
    let e = server.stats_report().enumeration;
    assert_eq!((e.ghd_races, e.ghd_verdict_hits), (3, 3));
}
