//! Direct probes of single layers.
//!
//! Each probe times calls into public functions of one crate, on the
//! statements and datasets the workloads use, with the benchmark's own
//! spans around them. Nothing here goes through a socket unless the layer
//! *is* the socket. Timings are medians over a fixed number of
//! repetitions; counts marked `*` in the catalogue come from fixed inputs
//! and repeat exactly for a seed.

use crate::harness::data::{Order, Stmt, RELATION};
use crate::harness::metrics::Values;
use crate::harness::stack::Stack;
use crate::harness::stats::{self, P99};
use crate::harness::trace::Recorder;
use rankedenum_core::{
    AcyclicEnumerator, CyclicEnumerator, ExecContext, InstrumentedStream, LexiEnumerator,
    LocalHistogram, RankedStream, UnionEnumerator,
};
use re_join::{materialize_bags_reported, reduce_then_prune_ctx, BagKernel};
use re_query::{GhdPlan, JoinTree, UnionQuery};
use re_ranking::{LexRanking, Ranking, SumRanking, WeightAssignment};
use re_server::{wire, PlanCache, Request, Response, Transport, WireProtocol};
use re_storage::{Attr, Database, HashIndex, SortedIndex, TrieIndex, Tuple};
use std::hint::black_box;
use std::time::Instant;

/// How much work each probe does.
#[derive(Clone, Copy, Debug)]
pub struct Effort {
    /// Repetitions of a microsecond-scale call.
    pub micro: usize,
    /// Repetitions of a millisecond-scale call.
    pub milli: usize,
    /// Repetitions of a call that takes tens of milliseconds.
    pub heavy: usize,
    /// Answers pulled from each enumerator.
    pub answers: usize,
}

impl Effort {
    pub const FULL: Effort = Effort {
        micro: 2000,
        milli: 40,
        heavy: 5,
        answers: 65_536,
    };
    pub const SMOKE: Effort = Effort {
        micro: 20,
        milli: 3,
        heavy: 2,
        answers: 512,
    };
}

/// Median seconds of `reps` timed calls of `f`, as one span named `name`.
pub fn median_secs<R>(
    rec: &mut Recorder,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> R,
) -> f64 {
    let open = rec.begin(name, 0);
    let secs: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    rec.end(open);
    stats::median(&secs)
}

/// The equivalent query of a single-chain statement over the dataset's own
/// relation.
fn query_of(stmt: &Stmt) -> re_query::JoinProjectQuery {
    stmt.branches[0].query(RELATION, RELATION)
}

/// Build the raw enumerator the SQL cursor would build for `stmt`.
pub fn build_stream(stmt: &Stmt, db: &Database, ctx: &ExecContext) -> Box<dyn RankedStream> {
    let sum = SumRanking::value_sum();
    if stmt.branches.len() > 1 {
        let branches = stmt.branches.iter().map(|c| c.query(RELATION, RELATION));
        let union = UnionQuery::new(branches.collect()).expect("branches project (x, y)");
        return Box::new(UnionEnumerator::new_ctx(&union, db, sum, ctx).expect("union builds"));
    }
    let query = query_of(stmt);
    if stmt.branches[0].closed {
        return Box::new(
            CyclicEnumerator::new_auto_ctx(&query, db, sum, ctx).expect("cyclic builds"),
        );
    }
    match stmt.order {
        Order::Sum => {
            Box::new(AcyclicEnumerator::new_ctx(&query, db, sum, ctx).expect("acyclic builds"))
        }
        Order::Lex => {
            let lex = LexRanking::new(
                query.projection().to_vec(),
                WeightAssignment::value_as_weight(),
            );
            Box::new(LexiEnumerator::new_ctx(&query, db, &lex, ctx).expect("lexi builds"))
        }
    }
}

/// `sql`: planning the workload's primary statement through the server's
/// plan cache, cold and warm.
pub fn sql(stack: &Stack, stmt: &Stmt, effort: Effort, rec: &mut Recorder, out: &mut Values) {
    let db = stack.db(stmt.db);
    let miss = median_secs(rec, "layer.sql.plan_miss", effort.micro / 4, || {
        PlanCache::new(128)
            .get_or_plan(stmt.db, 1, db, &stmt.sql)
            .expect("the statement plans")
    });
    let cache = PlanCache::new(128);
    cache
        .get_or_plan(stmt.db, 1, db, &stmt.sql)
        .expect("the statement plans");
    let hit = median_secs(rec, "layer.sql.plan_hit", effort.micro, || {
        cache
            .get_or_plan(stmt.db, 1, db, &stmt.sql)
            .expect("the statement plans")
    });
    out.set("sql.plan_miss_us", miss * 1e6);
    out.set("sql.plan_hit_us", hit * 1e6);
}

/// `query`: join-tree construction (3-hop) and cost-based GHD selection
/// (6-cycle).
pub fn query(stack: &Stack, effort: Effort, rec: &mut Recorder, out: &mut Values) {
    let three = query_of(&Stmt::sum3("mid"));
    let tree = median_secs(rec, "layer.query.join_tree", effort.micro, || {
        JoinTree::build(&three).expect("3-hop is acyclic")
    });
    let six = query_of(&Stmt::cycle("cyc6", "cyc", 6));
    let cyc = stack.db("cyc");
    let ghd = median_secs(rec, "layer.query.ghd_select", effort.micro / 4, || {
        GhdPlan::cost_based(&six, cyc).expect("a 6-cycle decomposes")
    });
    out.set("query.join_tree_us", tree * 1e6);
    out.set("query.ghd_select_us", ghd * 1e6);
}

/// `join`: the full reducer on the 3-hop over `mid`, and the GHD bags of
/// the 6-cycle over `cyc` on one and on two threads.
pub fn join(stack: &Stack, effort: Effort, rec: &mut Recorder, out: &mut Values) {
    let three = query_of(&Stmt::sum3("mid"));
    let mid = stack.db("mid");
    let two_threads = ExecContext::with_threads(2);
    let mut input_rows = 0;
    let reduce = median_secs(rec, "layer.join.reduce", effort.milli, || {
        let tree = JoinTree::build(&three).expect("3-hop is acyclic");
        let (_, _, stats) =
            reduce_then_prune_ctx(&two_threads, &three, tree, mid).expect("the reducer runs");
        input_rows = stats.input_rows;
    });
    out.set("join.reduce_ms", reduce * 1e3);
    out.set("join.reduce_rows_per_s", input_rows as f64 / reduce);
    out.set("join.reduce_input_rows", input_rows as f64);

    let six = query_of(&Stmt::cycle("cyc6", "cyc", 6));
    let cyc = stack.db("cyc");
    let plan = GhdPlan::cost_based(&six, cyc)
        .expect("a 6-cycle decomposes")
        .plan;
    let (mut bag_rows, mut intersections) = (0, 0);
    let contexts = [
        (
            "join.bags_ms.t1",
            "layer.join.bags.t1",
            ExecContext::serial(),
        ),
        ("join.bags_ms.t2", "layer.join.bags.t2", two_threads),
    ];
    for (metric, span, ctx) in contexts {
        let secs = median_secs(rec, span, effort.heavy, || {
            let bags =
                materialize_bags_reported(&six, cyc, plan.bags(), &ctx, BagKernel::default())
                    .expect("bags materialise");
            bag_rows = bags.iter().map(|(_, info)| info.rows).sum();
            intersections = bags.iter().map(|(_, info)| info.intersections).sum();
        });
        out.set(metric, secs * 1e3);
    }
    out.set("join.bag_rows", bag_rows as f64);
    out.set("join.wcoj_intersections", intersections as f64);
}

/// `storage`: index builds over the workload relations, per input row.
pub fn storage(stack: &Stack, effort: Effort, rec: &mut Recorder, out: &mut Values) {
    let mid = stack.db("mid").relation(RELATION).expect("relation");
    let cyc = stack.db("cyc").relation(RELATION).expect("relation");
    let pid = [Attr::new("pid")];
    let both = [Attr::new("aid"), Attr::new("pid")];
    let hash = median_secs(rec, "layer.storage.hash_index", effort.milli, || {
        HashIndex::build(mid, &pid).expect("pid is a column")
    });
    let sorted = median_secs(rec, "layer.storage.sorted_index", effort.milli, || {
        SortedIndex::build(mid, &pid).expect("pid is a column")
    });
    let trie = median_secs(rec, "layer.storage.trie_index", effort.milli, || {
        TrieIndex::build(cyc, &both).expect("both are columns")
    });
    out.set(
        "storage.hash_index_ns_per_row",
        hash * 1e9 / mid.len() as f64,
    );
    out.set(
        "storage.sorted_index_ns_per_row",
        sorted * 1e9 / mid.len() as f64,
    );
    out.set(
        "storage.trie_index_ns_per_row",
        trie * 1e9 / cyc.len() as f64,
    );
    let bytes = TrieIndex::build(cyc, &both)
        .expect("both are columns")
        .bytes();
    out.set("storage.trie_bytes", bytes as f64);
}

/// `exec`: what a pooled fan-out of trivial tasks costs over running them
/// inline.
pub fn exec(effort: Effort, rec: &mut Recorder, out: &mut Values) {
    let pooled = ExecContext::with_threads(2);
    let serial = ExecContext::serial();
    let fan_out = median_secs(rec, "layer.exec.map_pooled", effort.micro, || {
        pooled.map(16, |i| i)
    });
    let inline = median_secs(rec, "layer.exec.map_serial", effort.micro, || {
        serial.map(16, |i| i)
    });
    out.set("exec.map_overhead_us", (fan_out - inline) * 1e6);
}

/// What one timed pass over an enumerator found.
pub struct Scan {
    pub build_secs: f64,
    pub next: re_obs::HistSnapshot,
    pub rows_per_s: f64,
    pub stats: rankedenum_core::StatsSnapshot,
}

/// Build `stmt`'s enumerator and time every `next()`.
pub fn scan(
    stmt: &Stmt,
    db: &Database,
    answers: usize,
    rec: &mut Recorder,
    span: &'static str,
) -> Scan {
    let ctx = ExecContext::with_threads(2);
    let open = rec.begin(span, 0);
    let t = Instant::now();
    let mut stream = build_stream(stmt, db, &ctx);
    let build_secs = t.elapsed().as_secs_f64();
    let mut hist = LocalHistogram::new();
    let mut total_ns = 0u64;
    let mut rows = 0u64;
    for _ in 0..answers {
        let t = Instant::now();
        let row = stream.next();
        let ns = re_obs::saturating_nanos(t.elapsed());
        if black_box(row).is_none() {
            break;
        }
        hist.record(ns);
        total_ns += ns;
        rows += 1;
    }
    rec.end(open);
    Scan {
        build_secs,
        next: hist.snapshot(),
        rows_per_s: rows as f64 / (total_ns.max(1) as f64 / 1e9),
        stats: stream.stats_snapshot(),
    }
}

/// `core`: enumerator builds and the `next()` delay profile of the four
/// deep-scan statements; the delay guarantee's counters on the primary.
pub fn core(stack: &Stack, effort: Effort, rec: &mut Recorder, out: &mut Values) {
    let ctx = ExecContext::with_threads(2);
    let builds = [
        ("core.build_ms.acyclic", Stmt::sum2("mid"), effort.milli),
        ("core.build_ms.lexi", Stmt::lex2("mid"), effort.milli),
        (
            "core.build_ms.cyclic",
            Stmt::cycle("cyc6", "cyc", 6),
            effort.heavy,
        ),
        (
            "core.build_ms.union",
            Stmt::union23("mid"),
            effort.milli / 2,
        ),
    ];
    for (metric, stmt, reps) in builds {
        let db = stack.db(stmt.db);
        let secs = median_secs(rec, "layer.core.build", reps, || {
            build_stream(&stmt, db, &ctx)
        });
        out.set(metric, secs * 1e3);
    }
    let scans = [
        Stmt::sum2("big"),
        Stmt::lex2("big"),
        Stmt::sum3("mid"),
        Stmt::union23("mid"),
    ];
    for stmt in scans {
        let s = scan(
            &stmt,
            stack.db(stmt.db),
            effort.answers,
            rec,
            "layer.core.scan",
        );
        let class = stmt.class;
        out.set(
            &format!("core.next_p50_ns.{class}"),
            s.next.quantile(0.5) as f64,
        );
        out.set(
            &format!("core.next_p99_ns.{class}"),
            s.next.quantile(0.99) as f64,
        );
        out.set(
            &format!("core.next_max_ns.{class}"),
            s.next.max_estimate() as f64,
        );
        out.set(&format!("core.rows_per_s.{class}"), s.rows_per_s);
    }

    // The paper's delay bound, in priority-queue operations per answer, on
    // the primary scan. The concrete type exposes the per-answer counts.
    let stmt = Stmt::sum2("big");
    let big = stack.db("big");
    let mut primary =
        AcyclicEnumerator::new_ctx(&query_of(&stmt), big, SumRanking::value_sum(), &ctx)
            .expect("acyclic builds");
    let pulled = primary.by_ref().take(effort.answers).count();
    black_box(pulled);
    let stats = primary.stats();
    let mut ops = stats.ops_per_answer.clone();
    ops.sort_unstable();
    out.set(
        "core.pq_ops_per_answer_p99",
        stats::percentile(&ops, P99) as f64,
    );
    out.set(
        "core.pq_ops_per_answer_max",
        stats.max_ops_per_answer() as f64,
    );
    let input = (big.size() * stmt.branches[0].atoms) as f64;
    out.set("core.log2_input_rows", input.log2().ceil());
    out.set("core.frontier_peak_bytes", stats.frontier_peak_bytes as f64);
    out.set("core.cells_created", stats.cells_created as f64);
    out.set("core.tuple_allocs", stats.tuple_allocs as f64);
}

/// `ranking`: one `SUM` key computed and compared, per row of `mid`.
pub fn ranking(stack: &Stack, effort: Effort, rec: &mut Recorder, out: &mut Values) {
    let rel = stack.db("mid").relation(RELATION).expect("relation");
    let sum = SumRanking::value_sum();
    let plan = sum.plan(rel.attrs());
    let rows: Vec<&[u64]> = rel.iter().collect();
    let secs = median_secs(rec, "layer.ranking.sum_key", effort.milli, || {
        let mut smaller = 0usize;
        let mut last = sum.key(&plan, rows[0]);
        for row in &rows {
            let key = sum.key(&plan, row);
            smaller += usize::from(key < last);
            last = key;
        }
        smaller
    });
    out.set("ranking.sum_key_ns", secs * 1e9 / rows.len() as f64);
}

/// `obs`: what wrapping a stream in `InstrumentedStream` adds per answer.
/// Raw and wrapped scans alternate, and the median of the paired
/// differences is reported, so a slow stretch of the machine hits both.
pub fn obs(stack: &Stack, effort: Effort, rec: &mut Recorder, out: &mut Values) {
    let stmt = Stmt::sum2("big");
    let db = stack.db("big");
    let ctx = ExecContext::with_threads(2);
    let mut per_answer = |span, wrap: bool| {
        let raw = build_stream(&stmt, db, &ctx);
        let mut stream: Box<dyn RankedStream> = if wrap {
            Box::new(InstrumentedStream::new(raw, Instant::now(), Vec::new()))
        } else {
            raw
        };
        let open = rec.begin(span, 0);
        let t = Instant::now();
        let rows = stream.by_ref().take(effort.answers).count();
        let secs = t.elapsed().as_secs_f64() / rows.max(1) as f64;
        rec.end(open);
        secs
    };
    let differences: Vec<f64> = (0..2 * effort.heavy)
        .map(|_| {
            let raw = per_answer("layer.obs.raw_scan", false);
            per_answer("layer.obs.instrumented_scan", true) - raw
        })
        .collect();
    out.set(
        "obs.instrument_overhead_ns",
        stats::median(&differences) * 1e9,
    );
}

/// A real page of `k` rows of `stmt`.
pub fn page_of(stack: &Stack, stmt: &Stmt, k: usize) -> Vec<Tuple> {
    let ctx = ExecContext::serial();
    build_stream(stmt, stack.db(stmt.db), &ctx)
        .take(k)
        .collect()
}

/// Encode plus decode seconds (medians) and encoded bytes of `page` under
/// `protocol`.
pub fn codec_page(
    protocol: WireProtocol,
    page: &[Tuple],
    reps: usize,
    rec: &mut Recorder,
) -> (f64, f64, usize) {
    let response = Response::Page {
        rows: page.to_vec(),
        exhausted: false,
    };
    match protocol {
        WireProtocol::Json => {
            let text = response.encode();
            let enc = median_secs(rec, "layer.wire.json.encode", reps, || response.encode());
            let dec = median_secs(rec, "layer.wire.json.decode", reps, || {
                Response::decode(&text).expect("own encoding decodes")
            });
            (enc, dec, text.len() + 1)
        }
        WireProtocol::Binary => {
            let bytes = wire::encode_response(&response);
            let enc = median_secs(rec, "layer.wire.binary.encode", reps, || {
                wire::encode_response(&response)
            });
            let dec = median_secs(rec, "layer.wire.binary.decode", reps, || {
                wire::decode_response(&bytes).expect("own encoding decodes")
            });
            (enc, dec, bytes.len() + 4)
        }
    }
}

/// `wire`: both codecs on real pages of 8 and 1024 rows.
pub fn wire_layer(stack: &Stack, effort: Effort, rec: &mut Recorder, out: &mut Values) {
    let stmt = Stmt::sum2("big");
    let small = page_of(stack, &stmt, 8);
    let large = page_of(stack, &stmt, 1024);
    for (name, protocol) in [
        ("json", WireProtocol::Json),
        ("binary", WireProtocol::Binary),
    ] {
        let (enc, dec, _) = codec_page(protocol, &small, effort.micro, rec);
        out.set(&format!("wire.{name}.encode_page_us.k8"), enc * 1e6);
        out.set(&format!("wire.{name}.decode_page_us.k8"), dec * 1e6);
        let (enc, dec, bytes) = codec_page(protocol, &large, effort.milli, rec);
        out.set(&format!("wire.{name}.encode_page_us.k1024"), enc * 1e6);
        out.set(&format!("wire.{name}.decode_page_us.k1024"), dec * 1e6);
        out.set(
            &format!("wire.{name}.bytes_per_row"),
            bytes as f64 / large.len().max(1) as f64,
        );
    }
}

/// Median seconds of `handle(FETCH k)` in process — session checkout,
/// `k × next()`, stats, park — over the pages a session of `pages` pages
/// fetches after its first (at most 64 of them per session, so deep pages
/// of a long session do not outvote the early ones a short one sees).
pub fn handle_fetch(
    stack: &Stack,
    stmt: &Stmt,
    k: u64,
    pages: usize,
    reps: usize,
    rec: &mut Recorder,
    span: &'static str,
) -> f64 {
    let mut client = stack.local();
    let mut secs = Vec::with_capacity(reps);
    let open = rec.begin(span, 0);
    while secs.len() < reps.max(1) {
        let opened = client
            .open(stmt.db, &stmt.sql)
            .expect("the statement opens");
        // The first page pays lazy work; it is `ttfp`'s, not a steady FETCH.
        let mut live = !client
            .fetch(opened.session, k)
            .expect("the first page")
            .exhausted;
        let mut timed = 0;
        while live && timed < pages.saturating_sub(1).clamp(1, 64) && secs.len() < reps.max(1) {
            let t = Instant::now();
            let response = stack.server.handle(Request::Fetch {
                session: opened.session,
                k,
            });
            secs.push(t.elapsed().as_secs_f64());
            timed += 1;
            match black_box(response) {
                Response::Page { exhausted, .. } => live = !exhausted,
                other => panic!("FETCH answered {other:?}"),
            }
        }
        let _ = client.close(opened.session);
        if timed == 0 {
            break; // a one-page answer set has no steady FETCH to time
        }
    }
    rec.end(open);
    stats::median(&secs)
}

/// Median seconds of `handle(OPEN)` of `stmt`, in process.
pub fn handle_open(stack: &Stack, stmt: &Stmt, reps: usize, rec: &mut Recorder) -> f64 {
    let mut client = stack.local();
    let mut opened = Vec::new();
    let secs = median_secs(rec, "layer.server.handle_open", reps, || {
        let response = stack.server.handle(Request::Open {
            db: stmt.db.to_string(),
            sql: stmt.sql.clone(),
            deadline_millis: None,
        });
        match response {
            Response::Opened { session, .. } => opened.push(session),
            other => panic!("OPEN answered {other:?}"),
        }
    });
    for id in opened {
        let _ = client.close(id);
    }
    secs
}

/// `server`: request handling in process, and what a session adds to the
/// bare enumerator.
pub fn server(stack: &Stack, effort: Effort, rec: &mut Recorder, out: &mut Values) {
    let stmt = Stmt::sum2("mid");
    let k1 = handle_fetch(
        stack,
        &stmt,
        1,
        1000,
        effort.micro,
        rec,
        "layer.server.handle_fetch.k1",
    );
    let k8 = handle_fetch(
        stack,
        &stmt,
        8,
        1000,
        effort.micro,
        rec,
        "layer.server.handle_fetch.k8",
    );
    let open = handle_open(stack, &stmt, effort.milli, rec);
    let raw = scan(
        &stmt,
        stack.db("mid"),
        effort.answers.min(8192),
        rec,
        "layer.core.scan",
    );
    out.set("server.handle_fetch_us.k1", k1 * 1e6);
    out.set("server.handle_fetch_us.k8", k8 * 1e6);
    out.set("server.handle_open_us", open * 1e6);
    out.set(
        "server.session_overhead_us",
        k1 * 1e6 - raw.next.quantile(0.5) as f64 / 1e3,
    );
    // What one parked cursor retains after its first page.
    let mut client = stack.local();
    let before = stack.server.stats_report().session_bytes_parked;
    let opened = client
        .open(stmt.db, &stmt.sql)
        .expect("the statement opens");
    client.fetch(opened.session, 8).expect("the first page");
    let parked = stack.server.stats_report().session_bytes_parked;
    let _ = client.close(opened.session);
    out.set("server.parked_bytes", parked.saturating_sub(before) as f64);
}

/// Median round trip of a `PING` over TCP, in seconds.
pub fn ping_rtt(stack: &Stack, protocol: WireProtocol, reps: usize, rec: &mut Recorder) -> f64 {
    let mut tcp = stack.tcp(protocol);
    tcp.ping().expect("the server answers a ping");
    let span = match protocol {
        WireProtocol::Json => "layer.net.ping.json",
        WireProtocol::Binary => "layer.net.ping.binary",
    };
    median_secs(rec, span, reps, || {
        tcp.ping().expect("the server answers a ping")
    })
}

/// `net`: the socket round trip with nothing behind it.
pub fn net(stack: &Stack, effort: Effort, rec: &mut Recorder, out: &mut Values) {
    let json = ping_rtt(stack, WireProtocol::Json, effort.micro, rec);
    let binary = ping_rtt(stack, WireProtocol::Binary, effort.micro, rec);
    out.set("net.ping_rtt_us.json", json * 1e6);
    out.set("net.ping_rtt_us.binary", binary * 1e6);
}
