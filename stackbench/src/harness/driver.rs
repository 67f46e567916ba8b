//! The closed-loop load driver all four workloads share.
//!
//! One load thread keeps a small ring of live sessions and visits them in
//! rotation: an empty slot is filled (`OPEN`, then the first `FETCH`), a
//! live one gets its next `FETCH`, a finished one is `CLOSE`d. The next
//! request goes out only when the previous reply is in, so exactly one
//! request is in flight whatever the number of connections, and a slower
//! server is offered less load. What differs between workloads is only the
//! [`Shape`]: connections, ring size, pages per session, page size and
//! statement mix.
//!
//! ## Rounds
//!
//! A measured phase is cut into rounds of nominally [`ROUND_SECS`]. A round
//! ends at the first *block boundary* after its nominal end, a block being
//! one pass over the statement mix in its fixed proportions — so every
//! round executes the same composition of statements and its rates are
//! comparable with every other round's. Each metric is computed per round
//! and reported as the second-best of the rounds (see
//! [`crate::harness::stats::quiet`]).

use crate::harness::data::Stmt;
use crate::harness::metrics::Better;
use crate::harness::oracle::{PageCheck, PREFIX_ROWS};
use crate::harness::stack::ClientKind;
use crate::harness::stats::{self, PerMille};
use crate::harness::trace::Recorder;
use re_server::Transport;
use re_storage::Tuple;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Nominal length of a round, in seconds.
pub const ROUND_SECS: f64 = 1.0;

/// Fewest rounds a measured phase is split into, however short it is.
pub const MIN_ROUNDS: usize = 5;

/// Rounds a measured phase of `length` is nominally split into.
pub fn rounds_in(length: Duration) -> usize {
    ((length.as_secs_f64() / ROUND_SECS).round() as usize).max(MIN_ROUNDS)
}

/// The fixed parameters of one workload.
#[derive(Clone, Debug)]
pub struct Shape {
    pub name: &'static str,
    pub datasets: &'static [&'static str],
    /// The load thread's connections; ring slot `i` uses connection
    /// `i % clients.len()`.
    pub clients: &'static [ClientKind],
    /// Live sessions, fetched in rotation.
    pub ring: usize,
    /// Pages fetched per session, the first included, unless the
    /// statement says otherwise.
    pub pages: usize,
    /// Rows per page.
    pub k: u64,
    /// Sessions completed as warm-up (part of set-up).
    pub warm_sessions: usize,
    /// Class of the statement the latency percentiles are taken over.
    pub primary: &'static str,
    /// Whether the traced run adds the open-loop rate steps.
    pub open_loop: bool,
}

/// The statements of a workload and the proportions they run in: a *block* holds every hot statement `hot_repeat` times and
/// `cold_draws` statements drawn from the rest.
#[derive(Clone, Debug)]
pub struct Mix {
    pub stmts: Vec<Stmt>,
    /// The first `hot` statements are the hot set.
    pub hot: usize,
    pub hot_repeat: usize,
    pub cold_draws: usize,
}

impl Mix {
    /// Every statement once per block, in order.
    pub fn round_robin(stmts: Vec<Stmt>) -> Mix {
        let hot = stmts.len();
        Mix {
            stmts,
            hot,
            hot_repeat: 1,
            cold_draws: 0,
        }
    }

    /// Sessions per block.
    pub fn block_len(&self) -> usize {
        self.hot * self.hot_repeat + self.cold_draws
    }

    /// The statement indexes of the next block. With cold draws the block
    /// is shuffled, so hot and cold statements interleave; without, the
    /// order is the declared one.
    fn next_block(&self, rng: &mut SplitMix) -> Vec<usize> {
        let mut block: Vec<usize> = (0..self.hot)
            .flat_map(|i| std::iter::repeat_n(i, self.hot_repeat))
            .collect();
        if self.cold_draws > 0 {
            let cold = (self.stmts.len() - self.hot) as u64;
            block.extend((0..self.cold_draws).map(|_| self.hot + rng.below(cold) as usize));
            for i in (1..block.len()).rev() {
                block.swap(i, rng.below(i as u64 + 1) as usize);
            }
        }
        block
    }
}

/// splitmix64: the benchmark's only randomness, seeded from `--seed`.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// When a load thread stops.
#[derive(Clone, Copy, Debug)]
pub enum Until {
    /// Measured phase: run for `length` from `start` and on to the end of
    /// the last round; sessions still live then are closed and not counted.
    Deadline { start: Instant, length: Duration },
    /// Warm-up: complete exactly this many sessions.
    Sessions(u64),
}

/// Latency samples of one phase: the median of every round and, when
/// asked to keep them, every sample. An untraced run keeps only the round
/// in progress, so that what the harness holds does not grow through the
/// run into the `peak_heap_mb` it reports (at 27 000 `FETCH`es a second the
/// samples of a 20 s run doubled it).
#[derive(Clone, Debug, Default)]
pub struct Series {
    /// Samples of the round in progress; emptied when it ends.
    current: Vec<u64>,
    /// The median of each completed round that had samples.
    medians: Vec<f64>,
    /// Every sample of the phase, if kept.
    all: Option<Vec<u64>>,
}

impl Series {
    fn new(keep_all: bool) -> Series {
        Series {
            all: keep_all.then(Vec::new),
            ..Series::default()
        }
    }

    fn push(&mut self, ns: u64) {
        self.current.push(ns);
        if let Some(all) = self.all.as_mut() {
            all.push(ns);
        }
    }

    fn end_round(&mut self) {
        if !self.current.is_empty() {
            self.current.sort_unstable();
            self.medians
                .push(stats::percentile(&self.current, stats::P50) as f64);
            self.current.clear();
        }
    }

    /// The median of each completed round that had samples.
    pub fn round_medians(&self) -> &[f64] {
        &self.medians
    }

    /// Samples kept (0 when only rounds were).
    pub fn count(&self) -> usize {
        self.all.as_ref().map_or(0, Vec::len)
    }

    fn sorted(&self) -> Vec<u64> {
        let mut v = self.all.clone().unwrap_or_default();
        v.sort_unstable();
        v
    }

    /// Percentile over all kept samples, whatever round they fell in.
    pub fn percentile_ns(&self, p: PerMille) -> u64 {
        stats::percentile(&self.sorted(), p)
    }

    /// Percentile over all kept samples if ten samples lie beyond it.
    pub fn supported_ns(&self, p: PerMille) -> Option<u64> {
        stats::supported_percentile(&self.sorted(), p)
    }
}

/// What one completed round delivered.
#[derive(Clone, Copy, Debug, Default)]
pub struct Round {
    pub rows: u64,
    pub sessions: u64,
    pub secs: f64,
}

/// The start of a session kept for the oracle.
#[derive(Clone, Debug)]
pub struct Recorded {
    /// Index into [`Mix::stmts`].
    pub stmt: usize,
    /// The first rows, at most [`PREFIX_ROWS`].
    pub prefix: Vec<Tuple>,
    pub exhausted: bool,
    /// Rows the session returned in all.
    pub total: usize,
}

/// Everything the load thread observed in one phase.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    /// `OPEN` sent → `Opened` received, primary statement.
    pub open: Series,
    /// `OPEN` sent → first page received, primary statement.
    pub ttfp: Series,
    /// Steady-state `FETCH` (not a session's first), primary statement.
    pub fetch: Series,
    /// `OPEN` latency of every statement, by class; only when every sample
    /// is kept.
    pub class_open: BTreeMap<&'static str, Series>,
    /// Completed rounds; what the deadline cut short is not among them.
    pub rounds: Vec<Round>,
    pub rows: u64,
    pub sessions: u64,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that errored, were refused, or returned a wrong or short
    /// page.
    pub failed: u64,
    /// First few failure messages.
    pub errors: Vec<String>,
    pub recorded: Vec<Recorded>,
}

impl Samples {
    fn new(keep_all: bool) -> Samples {
        Samples {
            open: Series::new(keep_all),
            ttfp: Series::new(keep_all),
            fetch: Series::new(keep_all),
            ..Samples::default()
        }
    }

    fn end_round(&mut self) {
        for series in [&mut self.open, &mut self.ttfp, &mut self.fetch] {
            series.end_round();
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }
}

impl Samples {
    /// `count ÷ seconds` of every completed round.
    pub fn round_rates(&self, count: fn(&Round) -> u64) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|r| count(r) as f64 / r.secs)
            .collect()
    }
}

/// The second-best of a per-round quantity, with the number of rounds
/// behind it and their spread.
pub fn over_rounds(per_round: &[f64], better: Better) -> (f64, u64, f64) {
    (
        stats::quiet(per_round, better),
        per_round.len() as u64,
        stats::spread(per_round),
    )
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// A session in a ring slot.
struct Live {
    session: u64,
    request: u64,
    stmt: usize,
    pages: usize,
    pages_done: usize,
    total: usize,
    check: PageCheck,
    /// `Some` while this session is the one recorded for the oracle.
    prefix: Option<Vec<Tuple>>,
    exhausted: bool,
    /// A request failed or a page was wrong: close and replace.
    broken: bool,
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Drive `clients`, the connections of `shape`, until `until`. With
/// `keep_all` every latency sample is kept, not only each round's median.
pub fn run_clients<T: Transport>(
    clients: &mut [T],
    shape: &Shape,
    mix: &Mix,
    seed: u64,
    until: Until,
    keep_all: bool,
    rec: &mut Recorder,
) -> Samples {
    let mut out = Samples::new(keep_all);
    let n_clients = clients.len();
    let mut rng = SplitMix::new(seed ^ 0x5851_f42d_4c95_7f2d);
    let rounds = match until {
        Until::Deadline { length, .. } => rounds_in(length),
        Until::Sessions(_) => 0,
    };
    let mut slots: Vec<Option<Live>> = (0..shape.ring).map(|_| None).collect();
    let mut recorded_stmts = vec![false; mix.stmts.len()];
    let mut block: Vec<usize> = Vec::new();
    let mut started: u64 = 0;
    // The round in progress: its index, start and tallies.
    let mut round = 0usize;
    let mut round_began = Instant::now();
    let mut tally = Round::default();
    let block_len = mix.block_len() as u64;
    let mut slot = 0usize;
    loop {
        let client = &mut clients[slot % n_clients];
        let may_open = match until {
            Until::Deadline { start, length } => {
                // The last round ends at the first block boundary past the
                // deadline; a server that completes no block must not hold
                // the run for ever.
                let elapsed = start.elapsed();
                if elapsed >= length && (round >= rounds || elapsed >= 2 * length) {
                    break;
                }
                true
            }
            Until::Sessions(n) => {
                if started >= n && slots.iter().all(Option::is_none) {
                    break;
                }
                started < n
            }
        };
        match slots[slot].as_mut() {
            None if !may_open => {}
            None => {
                if block.is_empty() {
                    block = mix.next_block(&mut rng);
                    block.reverse();
                }
                let idx = block.pop().expect("a block is never empty");
                let stmt = &mix.stmts[idx];
                let request = started;
                // A slot's first session is cut short in proportion to its
                // position, so the ring's sessions stay evenly staggered:
                // one is replaced every `pages / ring` visits instead of
                // all of them at once, and the memory they hold is level.
                let full = stmt.pages.unwrap_or(shape.pages);
                let pages = if (started as usize) < shape.ring {
                    (full * (slot + 1) / shape.ring).max(1)
                } else {
                    full
                };
                started += 1;
                out.attempted += 1;
                let t0 = Instant::now();
                let opened = rec.span("client.open", request, || client.open(stmt.db, &stmt.sql));
                let t1 = Instant::now();
                match opened {
                    Err(e) => out.fail(format!("OPEN {}: {e}", stmt.class)),
                    Ok(opened) => {
                        let record = !std::mem::replace(&mut recorded_stmts[idx], true);
                        let mut live = Live {
                            session: opened.session,
                            request,
                            stmt: idx,
                            pages,
                            pages_done: 0,
                            total: 0,
                            check: PageCheck::new(stmt.order),
                            prefix: record.then(Vec::new),
                            exhausted: false,
                            broken: false,
                        };
                        tally.rows += fetch_page(client, shape, stmt, &mut live, &mut out, rec);
                        if live.pages_done == 1 {
                            let open_ns = nanos(t1 - t0);
                            if stmt.class == shape.primary {
                                out.open.push(open_ns);
                                out.ttfp.push(nanos(t0.elapsed()));
                            }
                            if keep_all {
                                out.class_open
                                    .entry(stmt.class)
                                    .or_insert_with(|| Series::new(true))
                                    .push(open_ns);
                            }
                        }
                        slots[slot] = Some(live);
                    }
                }
            }
            Some(live) => {
                let stmt = &mix.stmts[live.stmt];
                let t0 = Instant::now();
                let before = live.pages_done;
                tally.rows += fetch_page(client, shape, stmt, live, &mut out, rec);
                if live.pages_done > before && stmt.class == shape.primary {
                    out.fetch.push(nanos(t0.elapsed()));
                }
            }
        }
        let done = slots[slot]
            .as_ref()
            .is_some_and(|l| l.exhausted || l.broken || l.pages_done >= l.pages);
        if done {
            let live = slots[slot].take().expect("slot was just checked");
            close(client, live, true, &mut out, rec);
            out.sessions += 1;
            tally.sessions += 1;
            if let Until::Deadline { start, length } = until {
                let nominal_end = length.mul_f64((round + 1) as f64 / rounds as f64);
                if out.sessions.is_multiple_of(block_len) && start.elapsed() >= nominal_end {
                    let now = Instant::now();
                    tally.secs = (now - round_began).as_secs_f64();
                    out.end_round();
                    out.rounds.push(tally);
                    tally = Round::default();
                    round_began = now;
                    round += 1;
                }
            }
        }
        slot = (slot + 1) % shape.ring;
    }
    // Sessions the deadline cut short: closed, not counted as completed.
    for (slot, live) in slots.into_iter().enumerate() {
        if let Some(live) = live {
            let client = &mut clients[slot % n_clients];
            close(client, live, false, &mut out, rec);
        }
    }
    out.rows = out.rounds.iter().map(|r| r.rows).sum::<u64>() + tally.rows;
    out
}

/// One `FETCH` on `live`: count it, check the page, keep the oracle
/// prefix. Returns the rows received.
fn fetch_page<T: Transport>(
    client: &mut T,
    shape: &Shape,
    stmt: &Stmt,
    live: &mut Live,
    out: &mut Samples,
    rec: &mut Recorder,
) -> u64 {
    out.attempted += 1;
    let page = rec.span("client.fetch", live.request, || {
        client.fetch(live.session, shape.k)
    });
    let page = match page {
        Ok(page) => page,
        Err(e) => {
            out.fail(format!("FETCH {}: {e}", stmt.class));
            live.broken = true;
            return 0;
        }
    };
    let rows = page.rows.len() as u64;
    live.pages_done += 1;
    live.total += page.rows.len();
    live.exhausted = page.exhausted;
    if (rows < shape.k && !page.exhausted) || rows > shape.k {
        out.fail(format!(
            "FETCH {}: {rows} rows for a page of {}, exhausted: {}",
            stmt.class, shape.k, page.exhausted
        ));
        live.broken = true;
    } else if let Err(e) = live.check.page(&page.rows) {
        out.fail(format!("FETCH {}: {e}", stmt.class));
        live.broken = true;
    }
    if let Some(prefix) = live.prefix.as_mut() {
        let room = PREFIX_ROWS.saturating_sub(prefix.len());
        prefix.extend(page.rows.into_iter().take(room));
    }
    rows
}

fn close<T: Transport>(
    client: &mut T,
    live: Live,
    completed: bool,
    out: &mut Samples,
    rec: &mut Recorder,
) {
    out.attempted += 1;
    match rec.span("client.close", live.request, || client.close(live.session)) {
        // The server drops a cursor the moment it is exhausted.
        Ok(existed) if existed || live.exhausted => {}
        Ok(_) => out.fail("CLOSE: the session no longer existed".to_string()),
        Err(e) => out.fail(format!("CLOSE: {e}")),
    }
    // A session cut short is a valid prefix too, but only a completed one
    // says whether the enumeration ended. A broken one already failed.
    if let Some(prefix) = live.prefix.filter(|_| !live.broken) {
        out.recorded.push(Recorded {
            stmt: live.stmt,
            prefix,
            exhausted: completed && live.exhausted,
            total: live.total,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_series_keeps_round_medians_and_all_samples_only_when_asked() {
        for keep_all in [false, true] {
            let mut series = Series::new(keep_all);
            for ns in [30, 10, 20] {
                series.push(ns);
            }
            series.end_round();
            // A round without samples has no median.
            series.end_round();
            for ns in [50, 70] {
                series.push(ns);
            }
            series.end_round();
            // What the deadline cut short is in no round.
            series.push(1000);
            assert_eq!(series.round_medians(), [20.0, 50.0]);
            assert_eq!(series.count(), if keep_all { 6 } else { 0 });
            assert_eq!(
                series.percentile_ns(stats::P50),
                if keep_all { 30 } else { 0 }
            );
        }
    }

    #[test]
    fn a_phase_has_a_round_a_second_and_never_fewer_than_five() {
        assert_eq!(rounds_in(Duration::from_secs(25)), 25);
        assert_eq!(rounds_in(Duration::from_secs_f64(6.25)), 6);
        assert_eq!(rounds_in(Duration::from_secs_f64(0.1)), MIN_ROUNDS);
    }

    #[test]
    fn blocks_hold_the_declared_proportions() {
        let stmts: Vec<Stmt> = (0..4)
            .map(|_| Stmt::sum2("mid"))
            .chain((0..50).map(|c| Stmt::point("mid", c)))
            .collect();
        let mix = Mix {
            stmts,
            hot: 4,
            hot_repeat: 7,
            cold_draws: 12,
        };
        assert_eq!(mix.block_len(), 40);
        let mut rng = SplitMix::new(42);
        let a = mix.next_block(&mut rng);
        let b = mix.next_block(&mut rng);
        for block in [&a, &b] {
            assert_eq!(block.len(), 40);
            for hot in 0..4 {
                assert_eq!(block.iter().filter(|&&i| i == hot).count(), 7);
            }
            assert_eq!(block.iter().filter(|&&i| i >= 4).count(), 12);
        }
        assert_ne!(a, b, "blocks are shuffled afresh");
        assert_eq!(
            a,
            mix.next_block(&mut SplitMix::new(42)),
            "same seed, same block"
        );
        let rr = Mix::round_robin(vec![Stmt::sum2("big"), Stmt::lex2("big")]);
        assert_eq!(rr.next_block(&mut rng), vec![0, 1]);
    }
}
