//! The four workloads, and how one is set up, driven and verified.
//!
//! | workload | transport | what dominates |
//! |---|---|---|
//! | `page-fetch-tcp` | 2 TCP connections (JSON + binary) | `net` + `wire`: small pages of a cheap cursor |
//! | `open-churn` | 1 TCP connection (binary) | `sql`, `query`, `join::reducer`, hash/sorted index builds: short sessions |
//! | `deep-scan` | in-process | `core` `next()`, `ranking`: long scans, no socket, no codec |
//! | `cyclic-open` | 1 TCP connection (binary) | `join::wcoj`, `storage::TrieIndex`, `exec` pool: heavy `OPEN` |
//!
//! Every workload has one load thread with one request in flight, and its
//! phases run confined to one CPU (see [`crate::harness::env::pin_to_one_cpu`]
//! for why).

use crate::harness::data::{self, Sizes, Stmt};
use crate::harness::driver::{run_clients, Mix, Samples, Shape, Until};
use crate::harness::oracle;
use crate::harness::stack::{ClientKind, Stack, MAX_CONNECTIONS};
use crate::harness::trace::Recorder;
use re_server::TcpClient;
use std::time::{Duration, Instant};

/// Point statements of `open-churn`: four times the plan cache's 128.
pub const POINT_STATEMENTS: usize = 512;

pub const PAGE_FETCH_TCP: Shape = Shape {
    name: "page-fetch-tcp",
    datasets: &["mid"],
    clients: &[ClientKind::Json, ClientKind::Binary],
    ring: 4,
    pages: 1000,
    k: 8,
    warm_sessions: 2,
    primary: "sum2",
    open_loop: true,
};

pub const OPEN_CHURN: Shape = Shape {
    name: "open-churn",
    datasets: &["mid"],
    clients: &[ClientKind::Binary],
    ring: 1,
    pages: 2,
    k: 10,
    warm_sessions: 80,
    primary: "sum2",
    open_loop: false,
};

pub const DEEP_SCAN: Shape = Shape {
    name: "deep-scan",
    datasets: &["big", "mid"],
    clients: &[ClientKind::Local],
    ring: 1,
    pages: 64,
    k: 1024,
    warm_sessions: 4,
    primary: "sum2",
    open_loop: false,
};

pub const CYCLIC_OPEN: Shape = Shape {
    name: "cyclic-open",
    datasets: &["cyc"],
    clients: &[ClientKind::Binary],
    ring: 1,
    pages: 2,
    k: 100,
    warm_sessions: 4,
    primary: "cyc6",
    open_loop: false,
};

pub const ALL: [&Shape; 4] = [&PAGE_FETCH_TCP, &OPEN_CHURN, &DEEP_SCAN, &CYCLIC_OPEN];

pub fn by_name(name: &str) -> Option<&'static Shape> {
    ALL.iter().copied().find(|s| s.name == name)
}

/// A workload sized for `--smoke`: same code paths, a fraction of the work.
pub fn smoke(shape: &Shape) -> Shape {
    Shape {
        pages: shape.pages.min(4),
        warm_sessions: shape.warm_sessions.min(2),
        ..shape.clone()
    }
}

/// The statement mix of `shape` over the datasets of `stack`.
pub fn mix(shape: &Shape, stack: &Stack, smoke: bool) -> Mix {
    match shape.name {
        "page-fetch-tcp" => Mix::round_robin(vec![Stmt::sum2("mid")]),
        "open-churn" => {
            let mut stmts = vec![
                Stmt::sum2("mid"),
                Stmt::sum3("mid"),
                Stmt::lex2("mid"),
                Stmt::sum4("mid"),
            ];
            let points = if smoke { 16 } else { POINT_STATEMENTS };
            stmts.extend(
                data::point_constants(stack.db("mid"), points)
                    .into_iter()
                    .map(|c| Stmt::point("mid", c)),
            );
            // 28 hot and 12 point sessions a block: 70 % hot.
            Mix {
                stmts,
                hot: 4,
                hot_repeat: 7,
                cold_draws: 12,
            }
        }
        // The 2-hop statements scan `big`; the 3-hop and the union, whose
        // answer sets are an order of magnitude larger per edge, scan `mid`
        // for a quarter of the pages, so no one statement owns the round.
        "deep-scan" => Mix::round_robin(vec![
            Stmt::sum2("big"),
            Stmt::lex2("big"),
            Stmt::sum3("mid").with_pages(shape.pages.div_ceil(4)),
            Stmt::union23("mid").with_pages(shape.pages.div_ceil(4)),
        ]),
        "cyclic-open" => Mix::round_robin(vec![
            Stmt::cycle("cyc6", "cyc", 6),
            Stmt::cycle("cyc4", "cyc", 4),
        ]),
        other => panic!("unknown workload `{other}`"),
    }
}

/// Run one phase on the calling thread, over the connections of the
/// shape: the warm-up without a `length`, a measured phase with one.
/// `keep_all` keeps every latency sample, not only each round's median.
/// Returns what the phase observed and its span recorder.
pub fn run_phase(
    stack: &Stack,
    shape: &Shape,
    mix: &Mix,
    seed: u64,
    length: Option<Duration>,
    keep_all: bool,
    traced: Option<Instant>,
) -> (Samples, Recorder) {
    assert!(shape.clients.len() <= MAX_CONNECTIONS);
    let mut rec = match traced {
        Some(epoch) => Recorder::new(true, epoch, 1),
        None => Recorder::disabled(),
    };
    let mut tcp: Vec<TcpClient> = shape
        .clients
        .iter()
        .filter_map(|kind| kind.protocol())
        .map(|p| stack.tcp(p))
        .collect();
    let until = match length {
        Some(length) => Until::Deadline {
            start: Instant::now(),
            length,
        },
        None => Until::Sessions(shape.warm_sessions as u64),
    };
    let samples = if tcp.is_empty() {
        let mut local = [stack.local()];
        run_clients(&mut local, shape, mix, seed, until, keep_all, &mut rec)
    } else {
        run_clients(&mut tcp, shape, mix, seed, until, keep_all, &mut rec)
    };
    (samples, rec)
}

/// Set the workload up once: generate the data, register it, start the
/// server, connect, and run the fixed warm-up. Returns the stack, the
/// warm-up's observations (its failures count) and the seconds it took.
pub fn set_up(
    shape: &Shape,
    sizes: &Sizes,
    seed: u64,
    smoke: bool,
    trace_sample: u64,
) -> (Stack, Mix, Samples, f64) {
    let began = Instant::now();
    let stack = Stack::start(shape.datasets, sizes, seed, trace_sample);
    let mix = mix(shape, &stack, smoke);
    let (warm, _) = run_phase(&stack, shape, &mix, seed ^ 0x77a2, None, false, None);
    (stack, mix, warm, began.elapsed().as_secs_f64())
}

/// Check every recorded session start against the oracle. Returns the
/// number of sessions checked and the mismatches.
pub fn verify(stack: &Stack, mix: &Mix, samples: &Samples) -> (u64, Vec<String>) {
    let mut mismatches = Vec::new();
    let mut checked = 0;
    for rec in &samples.recorded {
        checked += 1;
        let stmt = &mix.stmts[rec.stmt];
        if let Err(e) = oracle::verify_prefix(
            stmt,
            stack.db(stmt.db),
            &rec.prefix,
            rec.exhausted,
            rec.total,
        ) {
            mismatches.push(format!("{} `{}`: {e}", stmt.class, stmt.sql));
        }
    }
    (checked, mismatches)
}
