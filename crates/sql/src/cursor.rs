//! Resumable query cursors.
//!
//! A [`QueryCursor`] is a *live* ranked enumeration of a SQL statement: the
//! enumerator is built once (paying the preprocessing pass once) and then
//! pages of rank-ordered distinct answers are pulled with
//! [`QueryCursor::fetch`] — the access pattern of a paginated top-k API.
//! Because every enumerator owns its inputs and is `Send`, a cursor can be
//! parked in a session table and resumed from any worker thread; two
//! successive `fetch(k)` calls return exactly what a single-shot
//! `LIMIT 2k` execution would, without re-running preprocessing.
//!
//! A statement planned onto Algorithm 1 (acyclic, or cyclic over a GHD)
//! is built once for all the cursors open on it at a time: every open
//! builds its enumerator behind a [`SharedFrontier`]
//! ([`QueryCursor::frontier`]), and [`QueryCursor::attach`] opens further
//! cursors on it, each with its own position in the ranked answer list and
//! its own `LIMIT` budget, cancel token and timing. A frontier no other
//! cursor is attached to is private in effect, and its one cursor reports
//! the whole run's work. A server keeps the frontier for as long as some
//! cursor holds it. Lexicographic statements (Algorithm 3) own their
//! enumerator. A `UNION` has no one root chain to attach to: its merge
//! reads each Algorithm 1 branch through a frontier of its own, which
//! nothing else ever sees.

use crate::error::SqlError;
use crate::planner::{OrderSpec, PlannedQuery, SqlPlan};
use rankedenum_core::{
    Algorithm, CancelKind, CancelToken, ExecContext, InstrumentedStream, RankedStream,
    SharedFrontier, StatsSnapshot, TimingBreakdown, UnionEnumerator,
};
use re_ranking::{LexRanking, Ranking, SumRanking, WeightAssignment, WeightedSumRanking};
use re_storage::{Attr, Database, Tuple};
use std::sync::Arc;

/// A live, resumable ranked enumeration of a planned SQL statement.
pub struct QueryCursor {
    columns: Vec<String>,
    /// Owned by value: each answer pays one dynamic dispatch (into the
    /// enumerator), not a second one into the wrapper.
    stream: InstrumentedStream,
    /// Rows still allowed by the statement's `LIMIT` (`None`: unlimited).
    remaining: Option<usize>,
    exhausted: bool,
}

impl QueryCursor {
    /// Build a cursor for an already-planned statement over `db`.
    ///
    /// `db` must already contain the plan's derived relations (see
    /// [`SqlPlan::working_database`]); the executors take care of that.
    /// The cursor does not borrow `db` — the enumerator copies what it
    /// needs during the full-reducer pass. Which enumerator that is was
    /// decided when the statement was planned ([`SqlPlan::branches`]); its
    /// preprocessing runs under `ctx` — a pooled context parallelises the
    /// full reducer and GHD bag materialisation without changing any
    /// output.
    ///
    /// A statement of one Algorithm 1 branch gets its enumerator behind a
    /// [`SharedFrontier`] ([`QueryCursor::frontier`]) that later cursors of
    /// the statement can [attach](QueryCursor::attach) to.
    pub fn open_ctx(
        db: &Database,
        weights: &WeightAssignment,
        plan: &SqlPlan,
        ctx: &ExecContext,
    ) -> Result<Self, SqlError> {
        // Time the whole open and capture the preprocessing spans that
        // close on this thread, so the cursor can report an exact phase
        // breakdown (and the server a slow-query log line).
        let opened_at = std::time::Instant::now();
        let projection = plan.branch_queries()[0].projection();
        let (stream, phases) = re_obs::capture_phases(|| match &plan.order {
            None => open_stream(plan, db, SumRanking::new(weights.clone()), ctx),
            Some(OrderSpec::Sum(attrs)) => {
                // Projected columns: every one summed exactly once?
                let once =
                    attrs.len() == projection.len() && projection.iter().all(|p| attrs.contains(p));
                if once {
                    open_stream(plan, db, SumRanking::new(weights.clone()), ctx)
                } else {
                    let ranking = WeightedSumRanking::over_attrs(attrs.clone(), weights.clone());
                    open_stream(plan, db, ranking, ctx)
                }
            }
            Some(OrderSpec::Lex(items)) => {
                let lex = LexRanking::with_directions(items.clone(), weights.clone());
                open_stream(plan, db, lex, ctx)
            }
        });
        // Thread the context's cancel token (when present) into the
        // stream wrapper, so a deadline or explicit cancel also stops the
        // enumeration phase — preprocessing already checks it per morsel.
        let stream = InstrumentedStream::new(stream?, opened_at, phases);
        Ok(Self::wrap(plan, stream, ctx.cancel_token().cloned()))
    }

    /// Open a further cursor of `plan` on `frontier`, the shared enumerator
    /// an earlier [`QueryCursor::open_ctx`] of the same statement
    /// built: no preprocessing, only a lock to read how far the ranked
    /// answer list already reaches. The cursor starts at the first answer.
    /// Its open is one `preprocess.attach` phase, whose trace span carries
    /// that length as `chain_len`. `None` when the frontier is poisoned.
    pub fn attach(
        plan: &SqlPlan,
        frontier: &Arc<SharedFrontier>,
        cancel: Option<CancelToken>,
    ) -> Option<Self> {
        let opened_at = std::time::Instant::now();
        let (attached, phases) = re_obs::capture_phases(|| {
            let _span = re_obs::Span::enter("preprocess.attach");
            let mut trace_span = re_obs::trace::child_span("preprocess.attach");
            let (cursor, chain_len) = frontier.attach()?;
            if let Some(s) = trace_span.as_mut() {
                s.set_attr("chain_len", re_obs::AttrValue::U64(chain_len));
            }
            Some(cursor)
        });
        let stream = InstrumentedStream::new(Box::new(attached?), opened_at, phases);
        Some(Self::wrap(plan, stream, cancel))
    }

    fn wrap(plan: &SqlPlan, mut stream: InstrumentedStream, cancel: Option<CancelToken>) -> Self {
        if let Some(token) = cancel {
            stream = stream.with_cancel_token(token);
        }
        let projection = plan.branch_queries()[0].projection();
        QueryCursor {
            columns: projection.iter().map(|a| a.as_str().to_string()).collect(),
            stream,
            remaining: plan.limit,
            exhausted: false,
        }
    }

    /// The shared enumerator this cursor reads — every Algorithm 1
    /// cursor's, built or attached; `None` for a lexicographic cursor,
    /// which owns its enumerator, and for a `UNION`, whose branch
    /// frontiers only its merge reads.
    pub fn frontier(&self) -> Option<&Arc<SharedFrontier>> {
        self.stream.shared_frontier()
    }

    /// The heap this cursor's enumerator holds: a shared frontier's whole
    /// ([`SharedFrontier::frontier_bytes`]), however many cursors read it.
    /// [`QueryCursor::stats_snapshot`]'s `frontier_bytes` is instead this
    /// cursor's part of it — the growth it caused — so that the snapshots
    /// of a frontier's cursors sum to its bytes once.
    pub fn retained_bytes(&self) -> u64 {
        match self.frontier() {
            Some(frontier) => frontier.frontier_bytes(),
            None => self.stats_snapshot().frontier_bytes,
        }
    }

    /// Output column names (canonical projection attribute names).
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The projection attributes, in output order.
    pub fn output_attrs(&self) -> &[Attr] {
        self.stream.output_attrs()
    }

    /// The enumeration strategy driving this cursor.
    pub fn algorithm(&self) -> Algorithm {
        self.stream.algorithm()
    }

    /// Cheap snapshot of the enumeration counters (monotone; difference two
    /// snapshots for per-page costs).
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.stream.stats_snapshot()
    }

    /// The GHD plan shape behind this cursor, when the statement needed a
    /// decomposition (`None` for decomposition-free strategies). Carries
    /// the fallback annotation when plan selection had to degrade.
    pub fn plan_shape(&self) -> Option<String> {
        self.stream.plan_shape()
    }

    /// The full GHD selection report behind this cursor (candidates
    /// compared, per-bag estimate-vs-actual details), when the statement
    /// ran through a decomposition. `None` for decomposition-free
    /// strategies.
    pub fn ghd_report(&self) -> Option<rankedenum_core::GhdReport> {
        self.stream.ghd_report()
    }

    /// Wall-clock profile of this cursor: open duration, captured
    /// preprocessing phases, time-to-first-answer, and the distribution
    /// of delays between consecutive answers. Present for every cursor —
    /// `open_ctx` wraps the stream in an
    /// [`InstrumentedStream`].
    pub fn timing(&self) -> Option<TimingBreakdown> {
        self.stream.timing_breakdown()
    }

    /// Whether the enumeration has ended (all distinct answers emitted, or
    /// the statement's `LIMIT` budget is spent).
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Why this cursor stopped early, if it did: `Some(kind)` once the
    /// cursor's cancel token tripped mid-enumeration (the short page that
    /// observed it is the last page), `None` for an ordinary exhaustion.
    pub fn cancel_status(&self) -> Option<CancelKind> {
        self.stream.cancel_status()
    }

    /// The next page: up to `k` further answers in rank order. Consecutive
    /// pages concatenate to the single-shot result; a short (or empty) page
    /// means the cursor is exhausted.
    pub fn fetch(&mut self, k: usize) -> Vec<Tuple> {
        if self.exhausted {
            return Vec::new();
        }
        let take = match self.remaining {
            Some(rem) => rem.min(k),
            None => k,
        };
        let mut page = Vec::with_capacity(take.min(1024));
        // The whole page in one call: a shared enumerator is locked once
        // per page, not once per answer.
        self.stream.fill_page(take, &mut page);
        if page.len() < take {
            self.exhausted = true;
        }
        if let Some(rem) = &mut self.remaining {
            *rem -= page.len();
            if *rem == 0 {
                self.exhausted = true;
            }
        }
        page
    }

    /// Drain the cursor: every remaining answer (bounded by the statement's
    /// `LIMIT`).
    pub fn fetch_all(&mut self) -> Vec<Tuple> {
        // Page in bounded chunks so an unlimited statement cannot trigger
        // one huge up-front `with_capacity` reservation.
        const BATCH: usize = 1 << 20;
        let mut rows = Vec::new();
        while !self.exhausted {
            let page = self.fetch(BATCH);
            if page.is_empty() {
                break;
            }
            rows.extend(page);
        }
        rows
    }
}

/// Build the enumerator the plan decided on, under the statement's ranking.
fn open_stream<R: Ranking + Clone + 'static>(
    plan: &SqlPlan,
    db: &Database,
    ranking: R,
    ctx: &ExecContext,
) -> Result<Box<dyn RankedStream>, SqlError> {
    Ok(match &plan.query {
        PlannedQuery::Single(q) => plan.branches[0].open(q, db, ranking, ctx)?,
        // Never attached to: the merge interleaves several branch streams
        // and has no one root chain, so its branches' frontiers stay its own.
        PlannedQuery::Union(u) => Box::new(UnionEnumerator::with_plans_ctx(
            u,
            &plan.branches,
            db,
            ranking,
            ctx,
        )?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::SqlExecutor;
    use re_storage::attr::attrs;
    use re_storage::Relation;

    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples(
                "AP",
                attrs(["aid", "pid"]),
                vec![
                    vec![1, 10],
                    vec![2, 10],
                    vec![3, 10],
                    vec![1, 11],
                    vec![4, 11],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    const SQL: &str = "SELECT DISTINCT AP1.aid, AP2.aid FROM AP AS AP1, AP AS AP2 \
                       WHERE AP1.pid = AP2.pid ORDER BY AP1.aid + AP2.aid";

    #[test]
    fn pages_concatenate_to_the_single_shot_result() {
        let db = db();
        let exec = SqlExecutor::new(&db);
        let mut cursor = exec.open(SQL).unwrap();
        assert_eq!(cursor.algorithm(), Algorithm::Acyclic);
        let preprocessing = cursor.stats_snapshot();
        assert!(preprocessing.cells_created > 0, "preprocessing ran at open");

        let p1 = cursor.fetch(3);
        let p2 = cursor.fetch(3);
        assert_eq!(p1.len(), 3);
        assert_eq!(p2.len(), 3);
        // No new cells between pages beyond successor generation; the
        // preprocessing pass did not re-run (cells grow incrementally, far
        // below a rebuild).
        let single_shot = exec.run(&format!("{SQL} LIMIT 6")).unwrap();
        let mut combined = p1;
        combined.extend(p2);
        assert_eq!(combined, single_shot.rows);
    }

    #[test]
    fn cursor_honours_the_statement_limit() {
        let db = db();
        let mut cursor = SqlExecutor::new(&db)
            .open(&format!("{SQL} LIMIT 4"))
            .unwrap();
        let p1 = cursor.fetch(3);
        assert_eq!(p1.len(), 3);
        assert!(!cursor.is_exhausted());
        let p2 = cursor.fetch(100);
        assert_eq!(p2.len(), 1, "LIMIT 4 caps the second page");
        assert!(cursor.is_exhausted());
        assert!(cursor.fetch(10).is_empty());
    }

    #[test]
    fn exhaustion_is_reported_on_short_pages() {
        let db = db();
        let mut cursor = SqlExecutor::new(&db).open(SQL).unwrap();
        let all = cursor.fetch(1_000_000);
        assert!(cursor.is_exhausted());
        let rerun = SqlExecutor::new(&db).run(SQL).unwrap();
        assert_eq!(all, rerun.rows);
        assert_eq!(cursor.stats_snapshot().answers as usize, all.len());
    }

    #[test]
    fn fetch_all_equals_run() {
        let db = db();
        let mut cursor = SqlExecutor::new(&db)
            .open(&format!("{SQL} LIMIT 7"))
            .unwrap();
        let rows = cursor.fetch_all();
        assert_eq!(
            rows,
            SqlExecutor::new(&db)
                .run(&format!("{SQL} LIMIT 7"))
                .unwrap()
                .rows
        );
    }

    #[test]
    fn cursors_carry_a_wall_clock_timing_breakdown() {
        let db = db();
        let mut cursor = SqlExecutor::new(&db).open(SQL).unwrap();
        let before = cursor.timing().expect("cursors are instrumented");
        assert!(before.open_nanos > 0);
        assert!(before.first_answer_nanos.is_none());
        // The acyclic open ran the full reducer on this thread.
        assert!(before.phase_nanos("preprocess.reduce") > 0);

        let page = cursor.fetch(3);
        assert_eq!(page.len(), 3);
        let after = cursor.timing().unwrap();
        assert_eq!(after.answers, 3);
        // One answer in 64 is timed, answer 0 always.
        assert_eq!(after.delay.count(), 1);
        assert!(after.first_answer_nanos.unwrap() >= after.open_nanos);
    }

    #[test]
    fn attached_cursors_replay_the_shared_chain_with_their_own_limit() {
        let db = db();
        let exec = SqlExecutor::new(&db);
        let plan = exec.plan(&format!("{SQL} LIMIT 5")).unwrap();
        let mut first = exec.open_plan(&plan).unwrap();
        let frontier = Arc::clone(first.frontier().expect("an acyclic SUM shares"));
        let p1 = first.fetch(3);
        let mut second = QueryCursor::attach(&plan, &frontier, None).unwrap();
        // The open was one attach, no build phase.
        let timing = second.timing().unwrap();
        let phases: Vec<&str> = timing.phases.iter().map(|p| p.0.as_str()).collect();
        assert_eq!(phases, ["preprocess.attach"]);
        assert_eq!(second.stats_snapshot().cells_created, 0);
        assert_eq!(second.stats_snapshot().frontier_bytes, 0);
        assert_eq!(second.retained_bytes(), first.retained_bytes());
        assert!(second.retained_bytes() > 0);
        assert_eq!(second.fetch(100), exec.run_plan(&plan).unwrap().rows);
        assert!(second.is_exhausted(), "LIMIT 5 is the second cursor's too");
        let mut rest = p1;
        rest.extend(first.fetch(100));
        assert_eq!(rest.len(), 5);
        // A lexicographic statement keeps its enumerator to itself.
        let lex = exec
            .plan("SELECT DISTINCT AP.aid FROM AP ORDER BY AP.aid")
            .unwrap();
        assert!(exec.open_plan(&lex).unwrap().frontier().is_none());
    }

    #[test]
    fn cursor_is_send_and_outlives_the_executor_borrow() {
        let db = db();
        let cursor = {
            let exec = SqlExecutor::new(&db);
            exec.open(SQL).unwrap()
        };
        // the cursor owns its data: move it to another thread and drain it
        let rows = std::thread::spawn(move || {
            let mut cursor = cursor;
            cursor.fetch_all()
        })
        .join()
        .unwrap();
        assert!(!rows.is_empty());
    }
}
