//! Transport equivalence: the binary protocol must carry exactly the
//! same [`Request`]/[`Response`] model as JSON-lines.
//!
//! Two layers of evidence:
//!
//! * **Codec properties** (proptest): generated requests and responses of
//!   every variant — `Stats` with random counter tables, worker rows and
//!   GHD plan text included — round-trip through the binary codec and
//!   through JSON-lines; frames reassemble from
//!   arbitrarily split reads; truncations and corrupt length prefixes
//!   fail cleanly instead of panicking or ballooning memory; pipelined
//!   request streams parse back in order under any read chunking.
//! * **Live equivalence**: two identically seeded servers, one client
//!   speaking JSON and one speaking binary, issue every request type and
//!   must decode to responses whose canonical (JSON) encodings are
//!   byte-identical — pages, plans, catalogs, and typed errors alike.

use proptest::prelude::*;
use rankedenum_core::StatsSnapshot;
use re_server::wire::{
    self, append_frame, decode_request, decode_response, encode_request, encode_response,
    next_inbound, split_frame, InboundItem, MAX_FRAME_LEN,
};
use re_server::{
    serve, RankedQueryServer, Request, Response, ServerConfig, StatsReport, TcpClient, Transport,
    TransportCounters, WireProtocol, WorkerCounters,
};
use re_storage::{attr::attrs, Database, Relation};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Value builders. The vendored proptest samples primitives only (no
// `prop_map`/`prop_oneof`), so the tests sample seeds/byte-vectors and
// deterministically build the Request/Response model values from them.
// Strings are skewed towards ASCII with multi-byte UTF-8 mixed in.
// ---------------------------------------------------------------------

fn mk_string(bytes: &[u8]) -> String {
    bytes
        .iter()
        .map(|b| match b % 66 {
            0..=61 => char::from_u32(u32::from(b'0') + u32::from(b % 62)).unwrap(),
            62 => ' ',
            63 => 'é',
            64 => '≤',
            _ => '💡',
        })
        .collect()
}

fn mk_request(kind: u64, a: &[u8], b: &[u8], x: u64) -> Request {
    let (a, b) = (mk_string(a), mk_string(b));
    match kind % 10 {
        0 => Request::Open {
            db: a,
            sql: b,
            deadline_millis: x.is_multiple_of(2).then_some(x >> 1),
        },
        1 => Request::Fetch {
            session: x,
            k: x ^ 0x9e37_79b9,
        },
        2 => Request::Close { session: x },
        3 => Request::Cancel { session: x },
        4 => Request::Query { db: a, sql: b },
        5 => Request::Explain {
            db: a,
            sql: b,
            analyze: x & 1 == 1,
        },
        6 => Request::Stats,
        7 => Request::Metrics,
        8 => Request::Catalog,
        _ => Request::Ping,
    }
}

/// A stats report whose every counter table is filled from `x`, with
/// `workers` per-worker rows and `ghd_last_plan` as the plan text.
fn mk_stats(x: u64, ghd_last_plan: String, workers: usize) -> StatsReport {
    let mut state = x;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state ^ (state >> 29)
    };
    StatsReport {
        ghd_last_plan,
        enumeration: StatsSnapshot::from_values(std::array::from_fn(|_| next())),
        transport: TransportCounters::from_values(std::array::from_fn(|_| next())),
        per_worker: (0..workers)
            .map(|_| WorkerCounters::from_values(std::array::from_fn(|_| next())))
            .collect(),
        ..StatsReport::from_values(std::array::from_fn(|_| next()))
    }
}

fn mk_response(kind: u64, a: &[u8], b: &[u8], rows: Vec<Vec<u64>>, x: u64) -> Response {
    let flag = x & 1 == 1;
    let (a, b) = (mk_string(a), mk_string(b));
    match kind % 11 {
        0 => Response::Opened {
            session: x,
            columns: vec![a.clone(), b],
            algorithm: a,
            plan_cached: flag,
        },
        1 => Response::Page {
            rows,
            exhausted: flag,
        },
        2 => Response::Closed { existed: flag },
        3 => Response::Cancelled { existed: flag },
        4 => Response::Result {
            columns: vec![a],
            rows,
            algorithm: b,
            plan_cached: flag,
        },
        5 => Response::Explained { text: a },
        6 => Response::Metrics { body: a },
        7 => Response::Catalog {
            databases: vec![a, b],
        },
        8 => Response::Pong,
        9 => Response::Stats(Box::new(mk_stats(x, a, rows.len()))),
        _ => Response::Error {
            message: a,
            code: b,
            retry_after_millis: x.is_multiple_of(2).then_some(x >> 1),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_request_roundtrips_both_codecs(
        kind in 0u64..10,
        a in prop::collection::vec(any::<u8>(), 0..40),
        b in prop::collection::vec(any::<u8>(), 0..40),
        x in any::<u64>(),
    ) {
        let request = mk_request(kind, &a, &b, x);
        let payload = encode_request(&request);
        prop_assert_eq!(decode_request(&payload).unwrap(), request.clone());
        prop_assert_eq!(Request::decode(&request.encode()).unwrap(), request);
    }

    #[test]
    fn any_response_roundtrips_both_codecs(
        kind in 0u64..11,
        a in prop::collection::vec(any::<u8>(), 0..40),
        b in prop::collection::vec(any::<u8>(), 0..40),
        rows in prop::collection::vec(prop::collection::vec(any::<u64>(), 0..5), 0..8),
        x in any::<u64>(),
    ) {
        let response = mk_response(kind, &a, &b, rows, x);
        let payload = encode_response(&response);
        prop_assert_eq!(decode_response(&payload).unwrap(), response.clone());
        prop_assert_eq!(Response::decode(&response.encode()).unwrap(), response);
    }

    #[test]
    fn truncated_request_payloads_never_panic_or_succeed(
        kind in 0u64..10,
        a in prop::collection::vec(any::<u8>(), 0..40),
        b in prop::collection::vec(any::<u8>(), 0..40),
        x in any::<u64>(),
        cut_seed in any::<u64>(),
    ) {
        let request = mk_request(kind, &a, &b, x);
        let full = encode_request(&request);
        let cut = (cut_seed as usize) % full.len().max(1);
        prop_assert!(decode_request(&full[..cut]).is_err());
    }

    #[test]
    fn pipelined_requests_reassemble_in_order_under_any_chunking(
        specs in prop::collection::vec(
            (0u64..10, prop::collection::vec(any::<u8>(), 0..12), any::<u64>()),
            1..6,
        ),
        chunks in prop::collection::vec(1usize..17, 1..64),
    ) {
        let requests: Vec<Request> = specs
            .iter()
            .map(|(kind, bytes, x)| mk_request(*kind, bytes, bytes, *x))
            .collect();
        // One wire image of the whole pipelined burst...
        let mut image = Vec::new();
        for request in &requests {
            append_frame(&mut image, &encode_request(request));
        }
        // ...fed to the parser in arbitrary chunk sizes (cycling through
        // the generated sizes) must yield the requests back in order.
        let mut pending = Vec::new();
        let mut parsed = Vec::new();
        let mut offset = 0usize;
        let mut chunk_i = 0usize;
        while offset < image.len() {
            let take = chunks[chunk_i % chunks.len()].min(image.len() - offset);
            chunk_i += 1;
            pending.extend_from_slice(&image[offset..offset + take]);
            offset += take;
            while let Some(item) = next_inbound(WireProtocol::Binary, &mut pending).unwrap() {
                match item {
                    InboundItem::Request(request) => parsed.push(request),
                    InboundItem::Malformed(m) => prop_assert!(false, "malformed: {}", m),
                }
            }
        }
        prop_assert_eq!(parsed, requests);
        prop_assert!(pending.is_empty());
    }

    #[test]
    fn corrupt_length_prefixes_fail_before_allocating(extra in any::<u32>()) {
        let len = (MAX_FRAME_LEN as u32).saturating_add(extra.max(1));
        let mut pending = len.to_le_bytes().to_vec();
        pending.extend_from_slice(b"junk");
        prop_assert!(split_frame(&mut pending).is_err());
    }

    #[test]
    fn random_garbage_never_panics_the_decoders(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        // Outcome unspecified (almost always Err); reaching this line at
        // all is the property.
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
        let mut pending = bytes;
        let _ = split_frame(&mut pending);
    }
}

// ---------------------------------------------------------------------
// Live equivalence: every request type, JSON vs binary, byte-identical
// canonical responses.
// ---------------------------------------------------------------------

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

fn equivalence_server() -> Arc<RankedQueryServer> {
    let server = RankedQueryServer::new(ServerConfig::default());
    server.catalog().register("dblp", coauthor_db());
    server
}

#[test]
fn every_request_type_answers_byte_identically_across_transports() {
    // Two identically seeded servers: session ids, plan caches and
    // catalogs evolve in lockstep, so deterministic responses must match
    // across them exactly.
    let json_server = equivalence_server();
    let json_handle = serve(
        Arc::clone(&json_server),
        "127.0.0.1:0",
        &ServerConfig::default(),
    )
    .unwrap();
    let binary_server = equivalence_server();
    let binary_handle = serve(
        Arc::clone(&binary_server),
        "127.0.0.1:0",
        &ServerConfig::default(),
    )
    .unwrap();

    let mut json = TcpClient::connect_json(json_handle.addr()).unwrap();
    let mut binary = TcpClient::connect_binary(binary_handle.addr()).unwrap();
    assert_eq!(json.protocol(), WireProtocol::Json);
    assert_eq!(binary.protocol(), WireProtocol::Binary);

    // Every deterministic request type, in an order that exercises the
    // session lifecycle. `Stats` and `Metrics` are live counters —
    // checked structurally below instead of byte-wise.
    let script = [
        Request::Ping,
        Request::Catalog,
        Request::Open {
            db: "dblp".into(),
            sql: TWO_HOP.into(),
            deadline_millis: None,
        },
        Request::Fetch { session: 1, k: 5 },
        Request::Fetch { session: 1, k: 7 },
        Request::Close { session: 1 },
        Request::Close { session: 1 }, // double close: existed=false
        Request::Cancel { session: 99 },
        Request::Query {
            db: "dblp".into(),
            sql: format!("{TWO_HOP} LIMIT 9"),
        },
        Request::Explain {
            db: "dblp".into(),
            sql: TWO_HOP.into(),
            analyze: false,
        },
        // Typed errors are part of the model too.
        Request::Open {
            db: "nope".into(),
            sql: TWO_HOP.into(),
            deadline_millis: None,
        },
        Request::Fetch {
            session: 424_242,
            k: 1,
        },
    ];
    for request in script {
        let from_json = json.request(request.clone()).unwrap();
        let from_binary = binary.request(request.clone()).unwrap();
        assert_eq!(
            from_json.encode(),
            from_binary.encode(),
            "transports diverged on {request:?}"
        );
    }

    // Stats and metrics: both transports decode them into the same shape
    // (field-for-field, via the codec), even if the live values differ
    // between the two server instances.
    let stats = binary.stats().unwrap();
    assert!(stats.sessions_opened >= 1);
    let reencoded = wire::encode_response(&Response::Stats(Box::new(stats.clone())));
    assert_eq!(
        wire::decode_response(&reencoded).unwrap(),
        Response::Stats(Box::new(stats))
    );
    let body = binary.metrics().unwrap();
    re_obs::validate_exposition(&body).expect("well-formed exposition over binary");

    json_handle.shutdown();
    binary_handle.shutdown();
}

#[test]
fn pipelined_batches_match_sequential_requests_on_both_transports() {
    for protocol in [WireProtocol::Json, WireProtocol::Binary] {
        let server = equivalence_server();
        let handle = serve(Arc::clone(&server), "127.0.0.1:0", &ServerConfig::default()).unwrap();
        let mut client = TcpClient::connect_with(handle.addr(), protocol).unwrap();

        let opened = client.open("dblp", TWO_HOP).unwrap();
        let batch: Vec<Request> = (0..4)
            .map(|_| Request::Fetch {
                session: opened.session,
                k: 3,
            })
            .collect();
        let responses = client.pipeline(&batch).unwrap();
        assert_eq!(responses.len(), 4);

        // The pipelined pages concatenate to the sequential prefix.
        let mut pipelined_rows = Vec::new();
        for response in responses {
            match response {
                Response::Page { rows, .. } => pipelined_rows.extend(rows),
                other => panic!("expected a page, got {other:?}"),
            }
        }
        let reference = client
            .query("dblp", &format!("{TWO_HOP} LIMIT 12"))
            .unwrap()
            .rows;
        assert_eq!(pipelined_rows, reference, "protocol {protocol:?}");
        client.close(opened.session).unwrap();
        handle.shutdown();
    }
}
