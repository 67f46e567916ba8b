//! Sessions of one statement share its enumerator: the second OPEN of a
//! statement that a live session already built attaches to that session's
//! frontier instead of building, over the in-process client and both wire
//! protocols, at 1 and 4 preprocessing threads — and every session still
//! reads exactly the private enumerator's sequence, with the work counted
//! once.

use re_obs::AttrValue;
use re_server::{
    serve, LocalClient, RankedQueryServer, ServerConfig, TcpClient, Transport, WireProtocol,
};
use re_sql::SqlExecutor;
use re_storage::{attr::attrs, Database, Relation, Tuple};
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
