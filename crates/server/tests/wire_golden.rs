//! Golden wire bytes: the exact JSON line and binary payload of one sample
//! of every `Request` and `Response` variant, and the scalar section of the
//! Prometheus page of a fresh server, captured at commit 1a059f9 — the last
//! one with hand-written codecs and a hand-written metrics list. The
//! table-driven codecs must reproduce them byte for byte: key order,
//! `reactor_` prefixes, flattened enumeration keys, omitted optional keys,
//! presence bytes, and the Prometheus names that are not derivable from
//! the field names (`fault.injected_total`, `sessions.bytes_parked`, ...).

use rankedenum_core::StatsSnapshot;
use re_server::wire::{decode_request, decode_response, encode_request, encode_response};
use re_server::{
    LocalClient, RankedQueryServer, Request, Response, ServerConfig, StatsReport, Transport,
    TransportCounters, WorkerCounters,
};

/// `(JSON line, binary payload in hex)` per entry of [`sample_requests`].
const REQUESTS: [(&str, &str); 11] = [
    (
        r##"{"cmd":"open","db":"dblp","sql":"SELECT DISTINCT a FROM \"T\" ORDER BY a LIMIT 5"}"##,
        "010400000064626c702d00000053454c4543542044495354494e435420612046524f4d20225422204f524445522042592061204c494d49542035000000000000000000",
    ),
    (
        r##"{"cmd":"open","db":"dblp","sql":"SELECT DISTINCT a FROM \"T\" ORDER BY a LIMIT 5","deadline_millis":1500}"##,
        "010400000064626c702d00000053454c4543542044495354494e435420612046524f4d20225422204f524445522042592061204c494d4954203501dc05000000000000",
    ),
    (
        r##"{"cmd":"fetch","session":18446744073709551615,"k":10}"##,
        "02ffffffffffffffff0a00000000000000",
    ),
    (
        r##"{"cmd":"close","session":7}"##,
        "030700000000000000",
    ),
    (
        r##"{"cmd":"cancel","session":9}"##,
        "040900000000000000",
    ),
    (
        r##"{"cmd":"query","db":"d","sql":"SELECT DISTINCT a\n\tFROM T -- \\ ünï"}"##,
        "0501000000642400000053454c4543542044495354494e435420610a0946524f4d2054202d2d205c20c3bc6ec3af",
    ),
    (
        r##"{"cmd":"explain","db":"d","sql":"SELECT DISTINCT a FROM \"T\" ORDER BY a LIMIT 5","analyze":true}"##,
        "0601000000642d00000053454c4543542044495354494e435420612046524f4d20225422204f524445522042592061204c494d4954203501",
    ),
    (
        r##"{"cmd":"stats"}"##,
        "07",
    ),
    (
        r##"{"cmd":"metrics"}"##,
        "08",
    ),
    (
        r##"{"cmd":"catalog"}"##,
        "09",
    ),
    (
        r##"{"cmd":"ping"}"##,
        "0a",
    ),
];

/// `(JSON line, binary payload in hex)` per entry of [`sample_responses`].
const RESPONSES: [(&str, &str); 15] = [
    (
        r##"{"ok":true,"type":"opened","session":3,"columns":["a1","a2"],"algorithm":"acyclic","plan_cached":true}"##,
        "0103000000000000000200000002000000613102000000613207000000616379636c696301",
    ),
    (
        r##"{"ok":true,"type":"page","rows":[[18446744073709551615,2],[],[3,1152921504606846976]],"exhausted":false}"##,
        "020300000002000000ffffffffffffffff020000000000000000000000020000000300000000000000000000000000001000",
    ),
    (
        r##"{"ok":true,"type":"page","rows":[],"exhausted":true}"##,
        "020000000001",
    ),
    (
        r##"{"ok":true,"type":"closed","existed":true}"##,
        "0301",
    ),
    (
        r##"{"ok":true,"type":"cancelled","existed":false}"##,
        "0400",
    ),
    (
        r##"{"ok":true,"type":"result","columns":["x"],"rows":[[9]],"algorithm":"union-merge","plan_cached":false}"##,
        "05010000000100000078010000000100000009000000000000000b000000756e696f6e2d6d6572676500",
    ),
    (
        r##"{"ok":true,"type":"explained","text":"EXPLAIN\nstatement: \"join-project\" (2 atoms)\t\\ \u0001 ünï\r\n"}"##,
        "06370000004558504c41494e0a73746174656d656e743a20226a6f696e2d70726f6a656374222028322061746f6d7329095c200120c3bc6ec3af0d0a",
    ),
    (
        r##"{"ok":true,"type":"stats","sessions_open":1,"sessions_opened":2,"sessions_evicted":3,"sessions_evicted_budget":4,"sessions_evicted_idle":5,"session_budget_bytes":6,"session_bytes_parked":7,"enumerators_built":8,"plan_cache_hits":9,"plan_cache_misses":10,"plan_cache_size":11,"exec_pool_threads":12,"ghd_last_plan":"cycle-split(0,3) over 6 atoms","pq_pushes":13,"pq_pops":14,"cells_created":15,"cells_reused":16,"answers":17,"tuple_allocs":18,"frontier_bytes":19,"frontier_peak_bytes":20,"ghd_bags":21,"ghd_estimated_rows":22,"ghd_fallbacks":23,"ghd_races":24,"ghd_verdict_hits":25,"reduce_passes":26,"reduce_input_rows":27,"reduce_output_rows":28,"pool_tasks":29,"pool_steals":30,"pool_busy_micros":31,"requests_shed":32,"deadline_exceeded":33,"cancelled":34,"faults_injected":35,"reactor_epoll_waits":36,"reactor_wakeups":37,"reactor_bytes_in":38,"reactor_bytes_out":39,"reactor_conns_accepted":40,"reactor_disconnects":41,"per_worker":[[42,43,44],[45,46,47]]}"##,
        "070100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000000b000000000000000c000000000000001d0000006379636c652d73706c697428302c3329206f76657220362061746f6d730d000000000000000e000000000000000f0000000000000010000000000000001100000000000000120000000000000013000000000000001400000000000000150000000000000016000000000000001700000000000000180000000000000019000000000000001a000000000000001b000000000000001c000000000000001d000000000000001e000000000000001f000000000000002000000000000000210000000000000022000000000000002300000000000000240000000000000025000000000000002600000000000000270000000000000028000000000000002900000000000000020000002a000000000000002b000000000000002c000000000000002d000000000000002e000000000000002f00000000000000",
    ),
    (
        r##"{"ok":true,"type":"metrics","body":"# TYPE re_sessions_open gauge\nre_sessions_open 1\n"}"##,
        "08310000002320545950452072655f73657373696f6e735f6f70656e2067617567650a72655f73657373696f6e735f6f70656e20310a",
    ),
    (
        r##"{"ok":true,"type":"catalog","databases":["a","b"]}"##,
        "090200000001000000610100000062",
    ),
    (
        r##"{"ok":true,"type":"catalog","databases":[]}"##,
        "0900000000",
    ),
    (
        r##"{"ok":true,"type":"pong"}"##,
        "0a",
    ),
    (
        r##"{"ok":false,"type":"error","error":"boom"}"##,
        "0b04000000626f6f6d00000000000000000000000000",
    ),
    (
        r##"{"ok":false,"type":"error","error":"too busy","code":"overloaded","retry_after_millis":250}"##,
        "0b08000000746f6f20627573790a0000006f7665726c6f6164656401fa00000000000000",
    ),
    (
        r##"{"ok":false,"type":"error","error":"query deadline exceeded","code":"deadline_exceeded"}"##,
        "0b17000000717565727920646561646c696e6520657863656564656411000000646561646c696e655f6578636565646564000000000000000000",
    ),
];

/// `metrics` on a fresh two-thread server, up to the first histogram.
const METRICS_SCALARS: &str = "\
# HELP re_sessions_open Sessions currently live.\n\
# TYPE re_sessions_open gauge\n\
re_sessions_open 0\n\
# HELP re_sessions_opened Sessions opened since start.\n\
# TYPE re_sessions_opened counter\n\
re_sessions_opened 0\n\
# HELP re_sessions_evicted Sessions reaped by eviction (idle TTL + memory budget).\n\
# TYPE re_sessions_evicted counter\n\
re_sessions_evicted 0\n\
# HELP re_sessions_evicted_budget Sessions evicted to enforce the memory budget.\n\
# TYPE re_sessions_evicted_budget counter\n\
re_sessions_evicted_budget 0\n\
# HELP re_sessions_evicted_idle Sessions evicted by the idle TTL sweep.\n\
# TYPE re_sessions_evicted_idle counter\n\
re_sessions_evicted_idle 0\n\
# HELP re_sessions_budget_bytes Configured parked-memory budget (0 = unlimited).\n\
# TYPE re_sessions_budget_bytes gauge\n\
re_sessions_budget_bytes 0\n\
# HELP re_sessions_bytes_parked Frontier bytes retained by parked sessions.\n\
# TYPE re_sessions_bytes_parked gauge\n\
re_sessions_bytes_parked 0\n\
# HELP re_enumerators_built Enumerators built (preprocessing passes).\n\
# TYPE re_enumerators_built counter\n\
re_enumerators_built 0\n\
# HELP re_plan_cache_hits Plan-cache hits.\n\
# TYPE re_plan_cache_hits counter\n\
re_plan_cache_hits 0\n\
# HELP re_plan_cache_misses Plan-cache misses.\n\
# TYPE re_plan_cache_misses counter\n\
re_plan_cache_misses 0\n\
# HELP re_plan_cache_size Plans currently cached.\n\
# TYPE re_plan_cache_size gauge\n\
re_plan_cache_size 0\n\
# HELP re_exec_pool_threads Threads of the shared preprocessing pool.\n\
# TYPE re_exec_pool_threads gauge\n\
re_exec_pool_threads 2\n\
# HELP re_enum_pq_pushes Priority-queue insertions.\n\
# TYPE re_enum_pq_pushes counter\n\
re_enum_pq_pushes 0\n\
# HELP re_enum_pq_pops Priority-queue pops.\n\
# TYPE re_enum_pq_pops counter\n\
re_enum_pq_pops 0\n\
# HELP re_enum_cells_created Cells allocated.\n\
# TYPE re_enum_cells_created counter\n\
re_enum_cells_created 0\n\
# HELP re_enum_cells_reused Memoized cells served from the memo.\n\
# TYPE re_enum_cells_reused counter\n\
re_enum_cells_reused 0\n\
# HELP re_enum_answers Answers emitted.\n\
# TYPE re_enum_answers counter\n\
re_enum_answers 0\n\
# HELP re_enum_tuple_allocs Hot-path tuple allocations (tripwire).\n\
# TYPE re_enum_tuple_allocs counter\n\
re_enum_tuple_allocs 0\n\
# HELP re_enum_frontier_bytes Frontier bytes retained (monotone).\n\
# TYPE re_enum_frontier_bytes counter\n\
re_enum_frontier_bytes 0\n\
# HELP re_enum_frontier_peak_bytes Summed peak frontier bytes (upper bound).\n\
# TYPE re_enum_frontier_peak_bytes counter\n\
re_enum_frontier_peak_bytes 0\n\
# HELP re_enum_ghd_bags Bags across chosen GHD plans.\n\
# TYPE re_enum_ghd_bags counter\n\
re_enum_ghd_bags 0\n\
# HELP re_enum_ghd_estimated_rows Summed AGM bag-size estimates.\n\
# TYPE re_enum_ghd_estimated_rows counter\n\
re_enum_ghd_estimated_rows 0\n\
# HELP re_enum_ghd_fallbacks GHD selections that fell back to a single bag.\n\
# TYPE re_enum_ghd_fallbacks counter\n\
re_enum_ghd_fallbacks 0\n\
# HELP re_enum_ghd_races Bag races between a selected GHD and the single bag.\n\
# TYPE re_enum_ghd_races counter\n\
re_enum_ghd_races 0\n\
# HELP re_enum_ghd_verdict_hits Cyclic builds that served a recorded GHD verdict.\n\
# TYPE re_enum_ghd_verdict_hits counter\n\
re_enum_ghd_verdict_hits 0\n\
# HELP re_enum_reduce_passes Semi-join reducer passes.\n\
# TYPE re_enum_reduce_passes counter\n\
re_enum_reduce_passes 0\n\
# HELP re_enum_reduce_input_rows Rows scanned by the semi-join reducer.\n\
# TYPE re_enum_reduce_input_rows counter\n\
re_enum_reduce_input_rows 0\n\
# HELP re_enum_reduce_output_rows Rows surviving the semi-join reducer.\n\
# TYPE re_enum_reduce_output_rows counter\n\
re_enum_reduce_output_rows 0\n\
# HELP re_exec_pool_tasks Parallel-preprocessing tasks executed.\n\
# TYPE re_exec_pool_tasks counter\n\
re_exec_pool_tasks 0\n\
# HELP re_exec_pool_steals Pool tasks stolen across workers.\n\
# TYPE re_exec_pool_steals counter\n\
re_exec_pool_steals 0\n\
# HELP re_exec_pool_busy_micros Microseconds inside pool task bodies.\n\
# TYPE re_exec_pool_busy_micros counter\n\
re_exec_pool_busy_micros 0\n\
# HELP re_server_requests_shed Requests refused by admission control (in-flight gate, pipeline cap, load shedding).\n\
# TYPE re_server_requests_shed counter\n\
re_server_requests_shed 0\n\
# HELP re_server_deadline_exceeded Requests aborted because their deadline passed.\n\
# TYPE re_server_deadline_exceeded counter\n\
re_server_deadline_exceeded 0\n\
# HELP re_server_cancelled Sessions cancelled by explicit CANCEL requests.\n\
# TYPE re_server_cancelled counter\n\
re_server_cancelled 0\n\
# HELP re_fault_injected_total Faults injected by armed failpoints (RE_FAULT).\n\
# TYPE re_fault_injected_total counter\n\
re_fault_injected_total 0\n\
# HELP re_reactor_epoll_waits Poll waits the reactor returned from (0 while idle).\n\
# TYPE re_reactor_epoll_waits counter\n\
re_reactor_epoll_waits 0\n\
# HELP re_reactor_wakeups Worker-completion wakeups delivered over the wake pipe.\n\
# TYPE re_reactor_wakeups counter\n\
re_reactor_wakeups 0\n\
# HELP re_reactor_bytes_in Bytes read off client connections.\n\
# TYPE re_reactor_bytes_in counter\n\
re_reactor_bytes_in 0\n\
# HELP re_reactor_bytes_out Bytes written to client connections.\n\
# TYPE re_reactor_bytes_out counter\n\
re_reactor_bytes_out 0\n\
# HELP re_reactor_conns_accepted Connections accepted by the TCP front-end.\n\
# TYPE re_reactor_conns_accepted counter\n\
re_reactor_conns_accepted 0\n\
# HELP re_reactor_disconnects Connections that ended (EOF, reset, or shutdown).\n\
# TYPE re_reactor_disconnects counter\n\
re_reactor_disconnects 0\n\
# HELP re_exec_worker_tasks Pool tasks executed, per worker slot.\n\
# TYPE re_exec_worker_tasks counter\n\
re_exec_worker_tasks{worker=\"0\"} 0\n\
re_exec_worker_tasks{worker=\"1\"} 0\n\
re_exec_worker_tasks{worker=\"caller\"} 0\n\
# HELP re_exec_worker_steals Pool tasks stolen from another deque, per worker slot.\n\
# TYPE re_exec_worker_steals counter\n\
re_exec_worker_steals{worker=\"0\"} 0\n\
re_exec_worker_steals{worker=\"1\"} 0\n\
re_exec_worker_steals{worker=\"caller\"} 0\n\
# HELP re_exec_worker_busy_micros Microseconds inside task bodies, per worker slot.\n\
# TYPE re_exec_worker_busy_micros counter\n\
re_exec_worker_busy_micros{worker=\"0\"} 0\n\
re_exec_worker_busy_micros{worker=\"1\"} 0\n\
re_exec_worker_busy_micros{worker=\"caller\"} 0\n\
";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap())
        .collect()
}

fn sample_requests() -> Vec<Request> {
    let sql = "SELECT DISTINCT a FROM \"T\" ORDER BY a LIMIT 5".to_string();
    vec![
        Request::Open {
            db: "dblp".into(),
            sql: sql.clone(),
            deadline_millis: None,
        },
        Request::Open {
            db: "dblp".into(),
            sql: sql.clone(),
            deadline_millis: Some(1500),
        },
        Request::Fetch {
            session: u64::MAX,
            k: 10,
        },
        Request::Close { session: 7 },
        Request::Cancel { session: 9 },
        Request::Query {
            db: "d".into(),
            sql: "SELECT DISTINCT a\n\tFROM T -- \\ ünï".into(),
        },
        Request::Explain {
            db: "d".into(),
            sql: sql.clone(),
            analyze: true,
        },
        Request::Stats,
        Request::Metrics,
        Request::Catalog,
        Request::Ping,
    ]
}

/// Every declared counter populated — 1, 2, 3, ... in wire order — with two
/// `per_worker` rows.
fn full_report() -> StatsReport {
    fn next<const N: usize>(from: &mut u64) -> [u64; N] {
        std::array::from_fn(|_| {
            *from += 1;
            *from
        })
    }
    let mut n = 0;
    let scalars = next(&mut n);
    StatsReport {
        ghd_last_plan: "cycle-split(0,3) over 6 atoms".into(),
        enumeration: StatsSnapshot::from_values(next(&mut n)),
        transport: TransportCounters::from_values(next(&mut n)),
        per_worker: vec![
            WorkerCounters::from_values(next(&mut n)),
            WorkerCounters::from_values(next(&mut n)),
        ],
        ..StatsReport::from_values(scalars)
    }
}

fn sample_responses() -> Vec<Response> {
    vec![
        Response::Opened {
            session: 3,
            columns: vec!["a1".into(), "a2".into()],
            algorithm: "acyclic".into(),
            plan_cached: true,
        },
        Response::Page {
            rows: vec![vec![u64::MAX, 2], vec![], vec![3, 1 << 60]],
            exhausted: false,
        },
        Response::Page {
            rows: vec![],
            exhausted: true,
        },
        Response::Closed { existed: true },
        Response::Cancelled { existed: false },
        Response::Result {
            columns: vec!["x".into()],
            rows: vec![vec![9]],
            algorithm: "union-merge".into(),
            plan_cached: false,
        },
        Response::Explained {
            text: "EXPLAIN\nstatement: \"join-project\" (2 atoms)\t\\ \u{0001} ünï\r\n".into(),
        },
        Response::Stats(Box::new(full_report())),
        Response::Metrics {
            body: "# TYPE re_sessions_open gauge\nre_sessions_open 1\n".into(),
        },
        Response::Catalog {
            databases: vec!["a".into(), "b".into()],
        },
        Response::Catalog { databases: vec![] },
        Response::Pong,
        Response::error("boom"),
        Response::overloaded("too busy", 250),
        Response::error_coded("query deadline exceeded", "deadline_exceeded"),
    ]
}

#[test]
fn requests_match_the_golden_bytes() {
    let samples = sample_requests();
    assert_eq!(samples.len(), REQUESTS.len());
    for (request, (json, binary)) in samples.iter().zip(REQUESTS) {
        assert_eq!(request.encode(), json);
        assert_eq!(hex(&encode_request(request)), binary, "{request:?}");
        assert_eq!(&Request::decode(json).unwrap(), request);
        assert_eq!(&decode_request(&unhex(binary)).unwrap(), request);
    }
}

#[test]
fn responses_match_the_golden_bytes() {
    let samples = sample_responses();
    assert_eq!(samples.len(), RESPONSES.len());
    for (response, (json, binary)) in samples.iter().zip(RESPONSES) {
        assert_eq!(response.encode(), json);
        assert_eq!(hex(&encode_response(response)), binary, "{response:?}");
        assert_eq!(&Response::decode(json).unwrap(), response);
        assert_eq!(&decode_response(&unhex(binary)).unwrap(), response);
    }
}

#[test]
fn metrics_scalar_section_matches_the_golden_page() {
    let server = RankedQueryServer::new(ServerConfig {
        exec_threads: 2,
        ..ServerConfig::default()
    });
    let body = LocalClient::new(server).metrics().unwrap();
    let lines: Vec<&str> = body.lines().collect();
    let first_summary = lines
        .iter()
        .position(|l| l.starts_with("# TYPE") && l.ends_with(" summary"))
        .expect("the registry histograms follow the scalars");
    // The summary's `# HELP` line precedes its `# TYPE` line.
    let scalars: String = lines[..first_summary - 1]
        .iter()
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(scalars, METRICS_SCALARS);
}
