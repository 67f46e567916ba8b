//! The traced run: every per-layer metric.
//!
//! In order, on one CPU like the untraced run: the workload untraced for a
//! quarter of `--seconds` (tails, failures, and the end-to-end medians the
//! ledger is checked against); the same again with the span recorder on and
//! the server sampling every `OPEN` (tracing overhead, and the `stats`
//! deltas of the transport, the pool and the plan cache); the probes the
//! ledger adds up. Then, on every CPU: for `page-fetch-tcp` the open-loop
//! rate steps; the other direct layer probes. End-to-end metrics never
//! come from here.

use crate::harness::data::Stmt;
use crate::harness::driver::{self, Samples, Series, Shape};
use crate::harness::layers::{self, Effort};
use crate::harness::metrics::{Better, Values};
use crate::harness::openloop::{self, Link, TcpLink};
use crate::harness::report::Outcome;
use crate::harness::run::{Options, Tally};
use crate::harness::stack::Stack;
use crate::harness::stats::{self, P50, P90, P99};
use crate::harness::trace::{self, Recorder};
use crate::harness::{env, workloads};
use re_server::{StatsReport, Transport};
use std::time::{Duration, Instant};

/// Open-loop rates of `page-fetch-tcp`, requests a second over both
/// connections. Calibrated once against the closed-loop saturation of the
/// commit that introduced the benchmark (about 18 000 req/s) and frozen:
/// `R[1]` is half of it, `R[2]` under 0.7 of it, `R[3]` over 1.3 of it.
pub const RATES: [f64; 4] = [4_000.0, 9_000.0, 12_000.0, 24_000.0];

/// Share of `--seconds` each open-loop rate step lasts.
const STEP_SHARE: f64 = 0.15;

/// Ledger identities are reported as holding within this share.
pub const LEDGER_TOLERANCE: f64 = 0.15;

/// Rows per second of a phase (second-best round).
fn rows_per_s(samples: &Samples) -> f64 {
    driver::over_rounds(&samples.round_rates(|r| r.rows), Better::Higher).0
}

/// Run the four open-loop steps against fresh sessions on two binary
/// connections.
fn open_loop(stack: &Stack, shape: &Shape, seconds: f64, out: &mut Values) {
    let stmt = Stmt::sum2("mid");
    let length = Duration::from_secs_f64(seconds * STEP_SHARE);
    let mut opener = stack.local();
    let mut late_p99 = 0f64;
    let mut max_ok = 0f64;
    for (i, rate) in RATES.into_iter().enumerate() {
        // Enough sessions that none runs out of pages during the step:
        // the 2-hop over `mid` holds a little over 4 000 pages of 8.
        let requests = (rate * length.as_secs_f64()) as usize;
        let per_link = (requests / 2 / 3000 + 1).max(2);
        let mut open_sessions = |n: usize| -> Vec<u64> {
            (0..n)
                .map(|_| {
                    let opened = opener
                        .open(stmt.db, &stmt.sql)
                        .expect("the statement opens");
                    // Lazy first-page work stays out of the step.
                    opener
                        .fetch(opened.session, shape.k)
                        .expect("the first page");
                    opened.session
                })
                .collect()
        };
        let sessions: Vec<Vec<u64>> = (0..2).map(|_| open_sessions(per_link)).collect();
        let mut links: Vec<TcpLink> = sessions
            .iter()
            .map(|s| TcpLink::connect(stack.addr(), s.clone(), shape.k).expect("connect"))
            .collect();
        let mut dyn_links: Vec<&mut dyn Link> =
            links.iter_mut().map(|l| l as &mut dyn Link).collect();
        let step = openloop::run_rate(&mut dyn_links, rate, length, Duration::from_secs(2));
        drop(links);
        for id in sessions.into_iter().flatten() {
            let _ = opener.close(id);
        }
        println!(
            "open-loop rate {rate} req/s: sent {}, failed {}, due p50 {:.1} us, p99 {:.1} us, \
             generator late p99 {:.1} us, outstanding {} -> {}, sustained: {}",
            step.sent,
            step.failed,
            stats::percentile(&step.latency_ns, P50) as f64 / 1e3,
            step.due_p99_us(),
            step.late_p99_us(),
            step.outstanding_half,
            step.outstanding_end,
            step.sustained()
        );
        out.set(&format!("net.due_p99_us.r{}", i + 1), step.due_p99_us());
        late_p99 = late_p99.max(step.late_p99_us());
        if step.sustained() {
            max_ok = max_ok.max(rate);
        }
    }
    out.set("net.max_rate_ok", max_ok);
    out.set("net.generator_late_p99_us", late_p99);
}

/// Count and total nanoseconds of every span the program itself records
/// (`preprocess.reduce`, `preprocess.bags`, `exec.pooled_run`, …), read
/// from the registry its `metrics` endpoint renders.
fn program_spans() -> Vec<(String, u64, f64)> {
    re_obs::global()
        .histograms()
        .into_iter()
        .filter(|(name, _)| name.starts_with("span."))
        .map(|(name, h)| (name, h.count(), h.approx_sum()))
        .collect()
}

/// Print what the program's own spans gained between two readings.
fn print_program_spans(before: &[(String, u64, f64)], after: &[(String, u64, f64)]) {
    println!("program span                          count     total_ms");
    for (name, count, sum) in after {
        let (c0, s0) = before
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or((0, 0.0), |(_, c, s)| (*c, *s));
        if *count > c0 {
            println!("{name:<36} {:>6} {:>12.3}", count - c0, (sum - s0) / 1e6);
        }
    }
}

/// Deltas of the server's own counters over the traced phase.
fn stats_deltas(
    before: &StatsReport,
    after: &StatsReport,
    samples: &Samples,
    wall_secs: f64,
    out: &mut Values,
) {
    let (requests, sessions, rows) = (samples.attempted, samples.sessions, samples.rows);
    let per = |delta: u64, n: u64| delta as f64 / n.max(1) as f64;
    let hits = after.plan_cache_hits - before.plan_cache_hits;
    let misses = after.plan_cache_misses - before.plan_cache_misses;
    out.set("sql.plan_cache_hit_ratio", per(hits, hits + misses));
    let (t0, t1) = (&before.transport, &after.transport);
    out.set(
        "net.epoll_waits_per_req",
        per(t1.epoll_waits - t0.epoll_waits, requests),
    );
    out.set(
        "net.wakeups_per_req",
        per(t1.wakeups - t0.wakeups, requests),
    );
    out.set(
        "net.bytes_out_per_row",
        per(t1.bytes_out - t0.bytes_out, rows),
    );
    let pool = after.enumeration.diff(&before.enumeration);
    let threads_in_pool = after.exec_pool_threads.max(1) as f64;
    out.set(
        "exec.pool_busy_ratio",
        pool.pool_busy_micros as f64 / (wall_secs * 1e6 * threads_in_pool),
    );
    // Per completed session, so the figure does not scale with `--seconds`.
    out.set("exec.pool_tasks", per(pool.pool_tasks, sessions));
    out.set("exec.pool_steals", per(pool.pool_steals, sessions));
}

/// The two identities that tie the end-to-end medians to the layers, on
/// this workload's own primary statement, page size and transports.
fn ledger(
    stack: &Stack,
    shape: &Shape,
    primary: &Stmt,
    untraced: &Samples,
    effort: Effort,
    rec: &mut Recorder,
    out: &mut Values,
) {
    let protocols: Vec<_> = shape.clients.iter().filter_map(|c| c.protocol()).collect();
    let page = layers::page_of(stack, primary, shape.k as usize);
    let mean = |v: Vec<f64>| driver::mean(&v);
    let rtt_us = mean(
        protocols
            .iter()
            .map(|&p| layers::ping_rtt(stack, p, effort.micro, rec) * 1e6)
            .collect(),
    );
    let wire_us = mean(
        protocols
            .iter()
            .map(|&p| {
                let (enc, dec, _) = layers::codec_page(p, &page, effort.micro.min(200), rec);
                (enc + dec) * 1e6
            })
            .collect(),
    );
    let handle_us = layers::handle_fetch(
        stack,
        primary,
        shape.k,
        primary.pages.unwrap_or(shape.pages),
        effort.micro.min(if shape.pages > 2 { 500 } else { 24 }),
        rec,
        "layer.server.handle_fetch.page",
    ) * 1e6;
    let plan_hit_us = out.get("sql.plan_hit_us").map_or(0.0, |v| v.value);
    let ctx = rankedenum_core::ExecContext::with_threads(2);
    let db = stack.db(primary.db);
    let build_us =
        layers::median_secs(rec, "layer.core.build.primary", effort.heavy.max(3), || {
            layers::build_stream(primary, db, &ctx)
        }) * 1e6;

    // Plain medians over the whole untraced phase: the probes above are
    // plain medians too, and the quiet rounds would sit below them.
    let fetch_us = untraced.fetch.percentile_ns(P50) as f64 / 1e3;
    let open_us = untraced.open.percentile_ns(P50) as f64 / 1e3;
    let fetch_parts = rtt_us + wire_us + handle_us;
    let open_parts = rtt_us + plan_hit_us + build_us;
    out.set("ledger.fetch_unattributed_us", fetch_us - fetch_parts);
    out.set("ledger.open_unattributed_us", open_us - open_parts);
    let share = if protocols.is_empty() || fetch_us == 0.0 {
        0.0
    } else {
        1.0 - (handle_us + wire_us) / fetch_us
    };
    out.set("net.transport_share", share);
    let verdict = |whole: f64, parts: f64| {
        let residual = if whole == 0.0 {
            0.0
        } else {
            (whole - parts) / whole
        };
        let word = if residual.abs() <= LEDGER_TOLERANCE {
            "holds"
        } else {
            "OPEN"
        };
        format!(
            "residual {:+.1} % of the end-to-end median: {word}",
            residual * 100.0
        )
    };
    println!(
        "ledger fetch: {fetch_us:.1} us = net {rtt_us:.1} + wire {wire_us:.1} + server+core \
         {handle_us:.1} + unattributed {:.1}; {}",
        fetch_us - fetch_parts,
        verdict(fetch_us, fetch_parts)
    );
    println!(
        "ledger open: {open_us:.1} us = net {rtt_us:.1} + sql {plan_hit_us:.1} + build \
         {build_us:.1} + unattributed {:.1}; {}",
        open_us - open_parts,
        verdict(open_us, open_parts)
    );
}

/// The traced run of one workload.
pub fn traced(shape: &Shape, opts: &Options) -> Outcome {
    let shape = opts.shape(shape);
    let effort = if opts.smoke {
        Effort::SMOKE
    } else {
        Effort::FULL
    };
    let phase = Duration::from_secs_f64(opts.seconds / 4.0);
    let mut tally = Tally::default();
    let mut values = Values::default();

    // On one CPU, as the untraced run: both phases of the workload and the
    // probes the ledger adds up against them.
    let pinned = env::pin_to_one_cpu();
    let pinned_cpu = pinned.as_ref().map(|p| p.cpu);

    // Untraced: the reference this run's other numbers are read against.
    let (stack, mix, warm, _) = workloads::set_up(&shape, &opts.sizes(), opts.seed, opts.smoke, 0);
    tally.phase(&warm);
    let (plain, _) = workloads::run_phase(&stack, &shape, &mix, opts.seed, Some(phase), true, None);
    tally.phase(&plain);
    // Read before the oracle materialises its joins in this process.
    values.set("peak_rss_mb", env::peak_rss_mb());
    tally.oracle(workloads::verify(&stack, &mix, &plain));
    stack.shutdown();
    let tail = |series: &Series, p, per_unit: f64| {
        // 0 stands for "fewer than ten samples beyond the percentile".
        series
            .supported_ns(p)
            .map_or(0.0, |ns| ns as f64 / per_unit)
    };
    let (opens, fetches) = (&plain.open, &plain.fetch);
    values.set_sampled(
        "open_p90_ms",
        tail(opens, P90, 1e6),
        opens.count() as u64,
        0.0,
    );
    values.set_sampled(
        "fetch_p99_us",
        tail(fetches, P99, 1e3),
        fetches.count() as u64,
        0.0,
    );
    for class in ["sum2", "sum3", "lex2", "sum4", "point"] {
        let series = plain.class_open.get(class).cloned().unwrap_or_default();
        let name = format!("sql.open_ms.{class}");
        values.set_sampled(&name, tail(&series, P50, 1e6), series.count() as u64, 0.0);
    }

    // Traced: same load, recorder on, the server tracing every OPEN.
    let epoch = Instant::now();
    let (stack, mix, warm, _) = workloads::set_up(&shape, &opts.sizes(), opts.seed, opts.smoke, 1);
    tally.phase(&warm);
    let before = stack.server.stats_report();
    let spans_before = program_spans();
    let began = Instant::now();
    let (with_spans, load_rec) = workloads::run_phase(
        &stack,
        &shape,
        &mix,
        opts.seed,
        Some(phase),
        true,
        Some(epoch),
    );
    let wall = began.elapsed().as_secs_f64();
    let after = stack.server.stats_report();
    print_program_spans(&spans_before, &program_spans());
    tally.phase(&with_spans);
    stats_deltas(&before, &after, &with_spans, wall, &mut values);
    let (plain_rate, traced_rate) = (rows_per_s(&plain), rows_per_s(&with_spans));
    let overhead = if traced_rate > 0.0 {
        plain_rate / traced_rate
    } else {
        0.0
    };
    values.set("obs.trace_overhead_ratio", overhead);

    // The ledger's probes, on the same server and the same CPU.
    let mut rec = Recorder::new(true, epoch, 0);
    let primary = mix
        .stmts
        .iter()
        .find(|s| s.class == shape.primary)
        .expect("the mix holds its primary statement");
    layers::sql(&stack, primary, effort, &mut rec, &mut values);
    layers::net(&stack, effort, &mut rec, &mut values);
    ledger(
        &stack,
        &shape,
        primary,
        &plain,
        effort,
        &mut rec,
        &mut values,
    );
    stack.shutdown();

    // From here on two CPUs: the open loop, whose rates were calibrated on
    // two, and the layer probes that compare one thread with two.
    if let Some(pinned) = pinned {
        pinned.release();
    }
    if shape.open_loop {
        let stack = Stack::start(shape.datasets, &opts.sizes(), opts.seed, 0);
        open_loop(&stack, &shape, opts.seconds, &mut values);
        stack.shutdown();
    }
    let stack = Stack::start(&["cyc", "mid", "big"], &opts.sizes(), opts.seed, 1);
    layers::query(&stack, effort, &mut rec, &mut values);
    layers::join(&stack, effort, &mut rec, &mut values);
    layers::storage(&stack, effort, &mut rec, &mut values);
    layers::exec(effort, &mut rec, &mut values);
    layers::core(&stack, effort, &mut rec, &mut values);
    layers::ranking(&stack, effort, &mut rec, &mut values);
    layers::server(&stack, effort, &mut rec, &mut values);
    layers::wire_layer(&stack, effort, &mut rec, &mut values);
    layers::obs(&stack, effort, &mut rec, &mut values);
    stack.shutdown();

    values.set(
        "failed_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );

    let recorders = [load_rec, rec];
    let path = env::out_dir().join(format!("trace-{}.json", shape.name));
    match std::fs::write(&path, trace::chrome_json(&recorders)) {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => tally.errors.push(format!("{}: {e}", path.display())),
    }
    println!("span                                  count     total_ms      self_ms");
    for (name, t) in trace::self_times(&recorders) {
        println!(
            "{name:<36} {:>6} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }

    Outcome {
        workload: shape.name,
        seed: opts.seed,
        seconds: opts.seconds,
        traced: true,
        smoke: opts.smoke,
        pinned_cpu,
        attempted: tally.attempted,
        failed: tally.failed,
        values,
        errors: tally.errors,
    }
}
