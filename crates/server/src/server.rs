//! The ranked-query service: shared state and request dispatch.
//!
//! [`RankedQueryServer`] is plain shared state (`catalog` + `plan cache` +
//! `session table` + metrics) with one synchronous entry point,
//! [`RankedQueryServer::handle`] — the in-process client calls it directly,
//! and the TCP front-end ([`crate::reactor`], the only code that touches a
//! client socket) calls it from a pool of worker threads. All
//! concurrency lives in the data structures: the catalog is an `RwLock`
//! map of `Arc<Database>`s, plans are cached behind `Arc`, sessions are
//! checked out of a mutex-protected table for the duration of one fetch,
//! and metrics are plain atomics — no lock is held while an enumerator
//! runs.

use crate::catalog::Catalog;
use crate::plan_cache::PlanCache;
use crate::protocol::{Request, Response, StatsReport, TransportCounters, WorkerCounters};
use crate::session::{Ended, Gone, SessionTable};
use rankedenum_core::{
    machine_threads, CancelKind, CancelToken, ExecContext, SharedStats, StatsSnapshot, WorkerPool,
};
use re_obs::trace::TraceCtx;
use re_obs::{
    saturating_nanos, scalar_metrics, AtomicCounters, AtomicHistogram, FieldValue, LabeledMetric,
    ScalarMetric,
};
use re_sql::{ExplainMode, OwnedSqlExecutor};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Vestige of the retired front-end choice, kept because the frozen
/// `stackbench/` names it; it goes with ROADMAP item 2.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ServerTransport {
    /// The event-driven reactor: one epoll thread drives every
    /// connection's state machine and hands parsed requests to the
    /// worker pool; idle connections cost one buffer and no thread.
    #[default]
    Reactor,
}

/// Tunables for a server instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads of the TCP front-end's dispatch pool: the number of
    /// *requests* that run concurrently (connections are unbounded).
    pub workers: usize,
    /// Ignored — there is one front-end: a vestige that goes with ROADMAP
    /// item 2.
    pub transport: ServerTransport,
    /// Idle time after which a session's cursor is reaped.
    pub session_ttl: Duration,
    /// Maximum number of cached plans.
    pub plan_cache_capacity: usize,
    /// Threads of the shared preprocessing pool (`0`: size to the machine,
    /// `1`: serial preprocessing — no pool is spawned).
    pub exec_threads: usize,
    /// Maximum total frontier bytes parked sessions may retain
    /// (`0`: unlimited). When parking a cursor pushes the total over this
    /// budget, the heaviest idle sessions are evicted first (the
    /// just-parked session is never the victim); a later `FETCH` on an
    /// evicted id reports "evicted to enforce the session memory budget".
    pub session_budget_bytes: u64,
    /// OPENs whose preprocessing takes at least this many milliseconds
    /// are written to the slow-query log (a `warn`-level JSON line with
    /// the SQL, plan shape, algorithm and phase breakdown). `0` disables
    /// the log. Defaults to 500, overridable via `RE_SLOW_QUERY_MS`.
    pub slow_query_millis: u64,
    /// Trace one in every `trace_sample` OPENs as a request-scoped span
    /// tree (preprocessing phases, pool fan-out with worker attribution),
    /// retained in the global registry's trace ring for later export.
    /// `0` disables tracing. Defaults to the `RE_TRACE_SAMPLE`
    /// environment variable (itself defaulting to 0).
    pub trace_sample: u64,
    /// Admission control: maximum expensive requests (OPEN / FETCH /
    /// QUERY / EXPLAIN) in flight at once across all connections. Excess
    /// requests are shed with a typed `overloaded` error carrying a
    /// `retry_after_millis` back-off hint. Cheap requests (PING, STATS,
    /// METRICS, CATALOG, CLOSE, CANCEL) always pass, so health checks and
    /// cancels work *especially* under overload.
    pub max_inflight: u64,
    /// Per-connection pipeline cap: the most complete request lines one
    /// connection may have queued unanswered at once. Requests beyond
    /// the cap are answered — in order — with `overloaded`, keeping the
    /// connection usable.
    pub max_pipeline: usize,
    /// Load shedding: OPEN / QUERY requests are shed with `overloaded`
    /// while the shared preprocessing pool has more than this many tasks
    /// queued (`0` disables the signal).
    pub shed_pool_queue: usize,
    /// Default deadline, in milliseconds, applied to every OPEN / QUERY
    /// that does not carry its own `deadline_millis` (`0`: none).
    /// Defaults to the `RE_QUERY_DEADLINE_MS` environment variable
    /// (itself defaulting to 0).
    pub default_deadline_millis: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            transport: ServerTransport::default(),
            session_ttl: Duration::from_secs(300),
            plan_cache_capacity: 128,
            exec_threads: 0,
            session_budget_bytes: 0,
            slow_query_millis: std::env::var("RE_SLOW_QUERY_MS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(500),
            trace_sample: re_obs::trace::env_sample_rate(),
            max_inflight: 64,
            max_pipeline: 32,
            shed_pool_queue: 0,
            default_deadline_millis: std::env::var("RE_QUERY_DEADLINE_MS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
        }
    }
}

/// The shared state of the ranked-query service.
pub struct RankedQueryServer {
    catalog: Catalog,
    plan_cache: PlanCache,
    sessions: SessionTable,
    /// Enumeration work aggregated across every worker and session.
    enum_stats: SharedStats,
    enumerators_built: AtomicU64,
    /// Shape of the most recent GHD plan chosen for a cyclic statement
    /// (with its fallback annotation, if any); empty until one runs.
    ghd_last_plan: Mutex<String>,
    /// The shared preprocessing context: one machine-sized worker pool
    /// that every OPEN's full reducer and bag materialisation runs on, so
    /// concurrent sessions share the cores instead of each preprocessing
    /// serially. `None` pool (exec_threads = 1) means serial preprocessing.
    exec: ExecContext,
    /// Slow-query threshold in milliseconds (`0`: disabled).
    slow_query_millis: u64,
    /// Admission control: expensive requests currently in flight, and the
    /// cap beyond which new ones are shed.
    inflight: AtomicU64,
    max_inflight: u64,
    /// Load-shedding threshold on the shared pool's queue depth
    /// (`0`: signal disabled).
    shed_pool_queue: usize,
    /// Default OPEN/QUERY deadline in milliseconds (`0`: none).
    default_deadline_millis: u64,
    /// 1-in-N OPEN trace sampling (`0`: off).
    trace_sample: u64,
    /// OPENs dispatched so far, the sampling clock.
    open_seq: AtomicU64,
    /// Per-op latency instruments, resolved from the global registry once
    /// so the dispatch path never takes the registry lock.
    obs_open_ns: Arc<AtomicHistogram>,
    obs_fetch_ns: Arc<AtomicHistogram>,
    obs_close_ns: Arc<AtomicHistogram>,
    obs_fetch_rows: Arc<AtomicHistogram>,
    slow_queries: Arc<AtomicU64>,
    /// Transport counters of whichever TCP front-end serves this instance,
    /// snapshotted into [`StatsReport::transport`].
    transport_stats: AtomicCounters<{ TransportCounters::N }>,
}

impl RankedQueryServer {
    /// A server with the given tunables and an empty catalog.
    pub fn new(config: ServerConfig) -> Arc<Self> {
        let threads = if config.exec_threads == 0 {
            machine_threads()
        } else {
            config.exec_threads
        };
        let exec = if threads <= 1 {
            ExecContext::serial()
        } else {
            ExecContext::pooled(WorkerPool::new(threads))
        };
        let registry = re_obs::global();
        Arc::new(RankedQueryServer {
            catalog: Catalog::new(),
            plan_cache: PlanCache::new(config.plan_cache_capacity),
            sessions: SessionTable::new(config.session_ttl, config.session_budget_bytes),
            enum_stats: SharedStats::new(),
            enumerators_built: AtomicU64::new(0),
            ghd_last_plan: Mutex::new(String::new()),
            exec,
            slow_query_millis: config.slow_query_millis,
            inflight: AtomicU64::new(0),
            max_inflight: config.max_inflight,
            shed_pool_queue: config.shed_pool_queue,
            default_deadline_millis: config.default_deadline_millis,
            trace_sample: config.trace_sample,
            open_seq: AtomicU64::new(0),
            obs_open_ns: registry.histogram("server.open_ns"),
            obs_fetch_ns: registry.histogram("server.fetch_ns"),
            obs_close_ns: registry.histogram("server.close_ns"),
            obs_fetch_rows: registry.histogram("server.fetch_rows"),
            slow_queries: registry.counter("server.slow_queries"),
            transport_stats: AtomicCounters::default(),
        })
    }

    /// Add to the transport counters `set` touches (for the TCP front-end;
    /// the untouched ones stay zero and are skipped).
    pub(crate) fn bump_transport(&self, set: impl FnOnce(&mut TransportCounters)) {
        let mut delta = TransportCounters::default();
        set(&mut delta);
        self.transport_stats.add(delta.values());
    }

    /// The database catalog (register databases here before serving).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Current server-wide counters. The pool counters are read straight
    /// off the shared pool (they are monotone totals, like everything else
    /// in the snapshot).
    pub fn stats_report(&self) -> StatsReport {
        let mut enumeration = self.enum_stats.snapshot();
        // Add (not assign): enumerator snapshots carry zero pool fields
        // today, but a future producer feeding pool deltas into
        // `SharedStats` must not be silently overwritten here.
        let pool = self.exec.pool_stats();
        enumeration.pool_tasks += pool.tasks_executed;
        enumeration.pool_steals += pool.tasks_stolen;
        enumeration.pool_busy_micros += pool.busy_micros;
        // Folded from the process-global failpoint registry, like the pool
        // counters — the injection sites don't report through `SharedStats`.
        enumeration.faults_injected += re_fault::injected_total();
        StatsReport {
            sessions_open: self.sessions.open_count(),
            sessions_opened: self.sessions.opened_total(),
            sessions_evicted: self.sessions.evicted_total(),
            sessions_evicted_budget: self.sessions.evicted_budget_total(),
            sessions_evicted_idle: self.sessions.evicted_idle_total(),
            session_budget_bytes: self.sessions.budget_bytes(),
            session_bytes_parked: self.sessions.parked_bytes(),
            enumerators_built: self.enumerators_built.load(Ordering::Relaxed),
            plan_cache_hits: self.plan_cache.hits(),
            plan_cache_misses: self.plan_cache.misses(),
            plan_cache_size: self.plan_cache.len() as u64,
            exec_pool_threads: self.exec.threads() as u64,
            // Poison recovery, not skip: the stored value is a whole
            // `String` swapped in one assignment, so a panicking writer
            // cannot leave it half-updated — same policy as the session
            // table and the metrics registry.
            ghd_last_plan: self
                .ghd_last_plan
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .clone(),
            enumeration,
            per_worker: self
                .exec
                .worker_stats()
                .iter()
                .map(|w| WorkerCounters {
                    tasks: w.tasks_executed,
                    steals: w.tasks_stolen,
                    busy_micros: w.busy_micros,
                })
                .collect(),
            transport: TransportCounters::from_values(self.transport_stats.load()),
        }
    }

    /// Add to the shared metrics the robustness counters `set` touches: the
    /// untouched ones stay zero, which [`SharedStats::add`] skips, so a
    /// single-counter bump is one `fetch_add`.
    fn bump(&self, set: impl FnOnce(&mut StatsSnapshot)) {
        let mut delta = StatsSnapshot::zero();
        set(&mut delta);
        self.enum_stats.add(&delta);
    }

    /// Record a shed request: counter plus the structured log event.
    pub(crate) fn note_shed(&self, reason: &str, retry_after_millis: u64) {
        self.bump(|d| d.requests_shed = 1);
        re_obs::log::warn(
            "re_server",
            "request shed",
            &[
                ("reason", FieldValue::Str(reason)),
                ("retry_after_millis", FieldValue::U64(retry_after_millis)),
                // Shed requests never reach the traced open path.
                ("trace_id", FieldValue::Str("untraced")),
            ],
        );
    }

    /// The back-off hint for a shed request, scaled to how loaded the
    /// server currently looks (deeper pool queue → longer back-off).
    pub(crate) fn retry_after_hint(&self) -> u64 {
        let queued = self.exec.pool_queued() as u64;
        (25 + queued * 5).min(5_000)
    }

    /// The typed response for a request shed by the per-connection
    /// pipeline cap (counts and logs the shed; the reactor answers the
    /// excess — in order — with exactly this).
    pub(crate) fn shed_pipeline_response(&self, max_pipeline: usize) -> Response {
        let retry = self.retry_after_hint();
        self.note_shed("pipeline-cap", retry);
        Response::overloaded(
            format!(
                "connection pipelined more than {max_pipeline} requests; \
                 read responses before sending more"
            ),
            retry,
        )
    }

    /// [`Self::handle`] behind a panic boundary: a bug inside dispatch
    /// becomes an error response, never a dead worker thread (the shared
    /// tables recover from lock poisoning — see [`SessionTable`]).
    pub(crate) fn handle_caught(&self, request: Request) -> Response {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.handle(request)))
            .unwrap_or_else(|_| Response::error("internal error while serving the request"))
    }

    /// Disconnect cleanup for a FETCH whose connection died while the
    /// fetch was still running: trip the session's cancel token so the
    /// cursor stops cooperatively, but only if that session's cursor is
    /// *currently checked out* — a parked session survives its client's
    /// disconnect by design (clients resume sessions across reconnects).
    pub(crate) fn cancel_disconnected_fetch(&self, session: u64) {
        if self.sessions.cancel_if_checked_out(session) {
            self.bump(|d| d.cancelled = 1);
            re_obs::log::warn(
                "re_server",
                "session cancelled",
                &[
                    ("session", FieldValue::U64(session)),
                    ("reason", FieldValue::Str("peer-disconnect")),
                    ("trace_id", FieldValue::Str("untraced")),
                ],
            );
        }
    }

    /// Admission control for expensive requests. On success the returned
    /// guard holds one in-flight slot and releases it on drop — including
    /// the unwind of a panicking dispatch, so a crashed request can never
    /// leak its slot and ratchet the server shut.
    fn admit(&self, request: &Request) -> Result<InflightGuard<'_>, Response> {
        let prev = self.inflight.fetch_add(1, Ordering::SeqCst);
        let guard = InflightGuard {
            inflight: &self.inflight,
        };
        if prev >= self.max_inflight {
            let retry = self.retry_after_hint();
            self.note_shed("max-inflight", retry);
            return Err(Response::overloaded(
                format!(
                    "server is at its in-flight request limit ({}); retry later",
                    self.max_inflight
                ),
                retry,
            ));
        }
        // Preprocessing-heavy requests are also shed while the shared
        // pool's queue is deep: finishing the work already admitted beats
        // queueing more behind it.
        if self.shed_pool_queue > 0
            && matches!(request, Request::Open { .. } | Request::Query { .. })
        {
            let queued = self.exec.pool_queued();
            if queued > self.shed_pool_queue {
                let retry = self.retry_after_hint();
                self.note_shed("pool-queue-depth", retry);
                return Err(Response::overloaded(
                    format!("preprocessing pool is backed up ({queued} tasks queued); retry later"),
                    retry,
                ));
            }
        }
        Ok(guard)
    }

    /// Dispatch one request. Never panics on bad input; failures come back
    /// as [`Response::Error`]. Session-op latencies (OPEN/FETCH/CLOSE,
    /// including error outcomes) are recorded into the
    /// `server.{open,fetch,close}_ns` registry histograms.
    pub fn handle(&self, request: Request) -> Response {
        if let Err(fault) = re_fault::fire("server.dispatch") {
            return Response::error_coded(fault.to_string(), "fault");
        }
        let expensive = matches!(
            &request,
            Request::Open { .. }
                | Request::Fetch { .. }
                | Request::Query { .. }
                | Request::Explain { .. }
        );
        let _admission = if expensive {
            match self.admit(&request) {
                Ok(guard) => Some(guard),
                Err(response) => return response,
            }
        } else {
            None
        };
        let timer = match &request {
            Request::Open { .. } => Some(Arc::clone(&self.obs_open_ns)),
            Request::Fetch { .. } => Some(Arc::clone(&self.obs_fetch_ns)),
            Request::Close { .. } => Some(Arc::clone(&self.obs_close_ns)),
            _ => None,
        };
        let start = timer.as_ref().map(|_| Instant::now());
        let response = match request {
            Request::Open {
                db,
                sql,
                deadline_millis,
            } => self.do_open(db, sql, deadline_millis),
            Request::Fetch { session, k } => self.do_fetch(session, k),
            Request::Close { session } => Response::Closed {
                existed: self.sessions.close(session),
            },
            Request::Cancel { session } => self.do_cancel(session),
            Request::Query { db, sql } => self.do_query(db, sql),
            Request::Explain { db, sql, analyze } => self.do_explain(db, sql, analyze),
            Request::Stats => Response::Stats(Box::new(self.stats_report())),
            Request::Metrics => Response::Metrics {
                body: self.render_metrics(),
            },
            Request::Catalog => Response::Catalog {
                databases: self.catalog.names(),
            },
            Request::Ping => Response::Pong,
        };
        if let (Some(hist), Some(start)) = (timer, start) {
            hist.record(saturating_nanos(start.elapsed()));
        }
        response
    }

    fn do_open(&self, db_name: String, sql: String, deadline_millis: Option<u64>) -> Response {
        // The request's own deadline wins; otherwise the configured
        // default applies. The token exists even without a deadline so a
        // later `CANCEL` can reach the cursor mid-fetch.
        let deadline = deadline_millis
            .or_else(|| (self.default_deadline_millis > 0).then_some(self.default_deadline_millis));
        let token = CancelToken::new(deadline.map(Duration::from_millis));
        // 1-in-N sampling: mint a request-scoped trace so every span the
        // preprocessing pass opens (reduce passes, bag materialisation,
        // pool tasks with worker lanes) lands in one exportable tree.
        let seq = self.open_seq.fetch_add(1, Ordering::Relaxed);
        let trace_ctx = if re_obs::trace::should_sample(self.trace_sample, seq) {
            Some(TraceCtx::new("server.open"))
        } else {
            None
        };
        let guard = trace_ctx.as_ref().map(|ctx| re_obs::trace::install(ctx, 0));
        let outcome = self.open_cursor(&db_name, &sql, Some(&token));
        drop(guard);
        let trace_id = trace_ctx.map(|ctx| {
            let trace = ctx.finish();
            let id = trace.trace_id.to_string();
            re_obs::global().push_trace(Arc::new(trace));
            id
        });
        match outcome {
            Ok((cursor, algorithm, plan_cached)) => {
                self.maybe_log_slow_open(&db_name, &sql, &algorithm, &cursor, trace_id.as_deref());
                let columns = cursor.columns().to_vec();
                if let Err(fault) = re_fault::fire("session.park") {
                    // The cursor is built but never parked: it drops here,
                    // leaking nothing.
                    return Response::error_coded(fault.to_string(), "fault");
                }
                let session = self.sessions.insert(db_name, cursor, token);
                Response::Opened {
                    session,
                    columns,
                    algorithm,
                    plan_cached,
                }
            }
            Err(response) => {
                self.log_cancelled_outcome(&response, "open", trace_id.as_deref());
                response
            }
        }
    }

    /// Emit the structured event for an OPEN/QUERY/FETCH that ended in a
    /// cooperative cancellation (deadline or explicit), joined to the
    /// request's trace when one was sampled.
    fn log_cancelled_outcome(&self, response: &Response, op: &str, trace_id: Option<&str>) {
        let Response::Error { message, code, .. } = response else {
            return;
        };
        if code != "deadline_exceeded" && code != "cancelled" {
            return;
        }
        re_obs::log::warn(
            "re_server",
            "request cancelled",
            &[
                ("op", FieldValue::Str(op)),
                ("code", FieldValue::Str(code)),
                ("reason", FieldValue::Str(message)),
                ("trace_id", FieldValue::Str(trace_id.unwrap_or("untraced"))),
            ],
        );
    }

    /// Render the plan of `sql` — structure only (`analyze: false`) or
    /// annotated with the actual per-operator counters of one full run
    /// (`analyze: true`). The ANALYZE run preprocesses on the shared pool
    /// and always mints a trace (pushed to the registry ring), but its
    /// counters stay in the report text — they are diagnostics, not
    /// workload, so they do not inflate the server-wide aggregates.
    fn do_explain(&self, db_name: String, sql: String, analyze: bool) -> Response {
        let Some(db) = self.catalog.get(&db_name) else {
            return Response::error(format!("unknown database `{db_name}`"));
        };
        let mode = if analyze {
            ExplainMode::Analyze
        } else {
            ExplainMode::Plan
        };
        let executor = OwnedSqlExecutor::new(db).with_exec_context(self.exec.clone());
        match executor.explain(&sql, mode) {
            Ok(text) => Response::Explained { text },
            Err(e) => self.classify_sql_error(e),
        }
    }

    fn do_cancel(&self, id: u64) -> Response {
        let existed = self.sessions.cancel(id);
        if existed {
            // The single bump for this cancellation: fetches that later
            // observe the tripped token report the typed error without
            // re-counting.
            self.bump(|d| d.cancelled = 1);
            re_obs::log::warn(
                "re_server",
                "session cancelled",
                &[
                    ("session", FieldValue::U64(id)),
                    ("trace_id", FieldValue::Str("untraced")),
                ],
            );
        }
        Response::Cancelled { existed }
    }

    fn do_fetch(&self, id: u64, k: u64) -> Response {
        // Cancelled and budget-evicted sessions get documented,
        // distinguishable errors so clients can tell "re-OPEN and retry"
        // from a typo'd id.
        let mut session = match self.sessions.take(id) {
            Ok(session) => session,
            Err(Gone::Ended(Ended::Cancelled(kind))) => {
                return Response::error_coded(format!("session {id}: {kind}"), kind.code());
            }
            Err(Gone::Ended(Ended::BudgetEvicted)) => {
                return Response::error(format!(
                    "session {id} was evicted to enforce the session memory budget"
                ));
            }
            Err(Gone::Unknown) => {
                return Response::error(format!("unknown, expired or busy session {id}"));
            }
        };
        // Catch panics *here*, not only at the `handle_caught` boundary:
        // the session is lent, and bailing without `end` / `put_back`
        // would strand its slot in the table forever.
        type FetchOutcome = Result<(Vec<re_storage::Tuple>, bool), re_fault::FaultError>;
        let page = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| -> FetchOutcome {
            re_fault::fire("fetch.next")?;
            let rows = session.cursor.fetch(k.min(usize::MAX as u64) as usize);
            let exhausted = session.cursor.is_exhausted();
            Ok((rows, exhausted))
        }));
        let (rows, exhausted) = match page {
            Ok(Ok(page)) => {
                self.obs_fetch_rows.record(page.0.len() as u64);
                page
            }
            Ok(Err(fault)) => {
                // An injected error is indistinguishable from a real mid-
                // fetch failure by design: the cursor is suspect, drop it.
                self.sessions.end(session, None);
                return Response::error_coded(fault.to_string(), "fault");
            }
            Err(_) => {
                // The cursor's internal state is suspect; drop the session.
                self.sessions.end(session, None);
                return Response::error(format!("internal error while fetching from session {id}"));
            }
        };
        // Publish this page's enumeration work to the shared metrics.
        let snapshot = session.cursor.stats_snapshot();
        self.enum_stats.add(&snapshot.diff(&session.reported));
        session.reported = snapshot;
        // A tripped cancel token (deadline passed mid-page, or a CANCEL
        // racing this fetch) latches on the stream: report the typed
        // error on the owning cursor and release it.
        if let Some(kind) = session.cursor.cancel_status() {
            if kind == CancelKind::Deadline {
                self.bump(|d| d.deadline_exceeded = 1);
            }
            self.sessions.end(session, Some(kind));
            let response = Response::error_coded(format!("session {id}: {kind}"), kind.code());
            self.log_cancelled_outcome(&response, "fetch", None);
            return response;
        }
        if exhausted {
            // A finished cursor holds no future answers; release its memory
            // now instead of waiting for CLOSE or eviction.
            self.sessions.end(session, None);
        } else {
            self.sessions.put_back(session);
        }
        Response::Page { rows, exhausted }
    }

    fn do_query(&self, db_name: String, sql: String) -> Response {
        // One-shot queries run under the configured default deadline, if
        // any (there is no session to CANCEL, so the token is pure
        // deadline).
        let token = (self.default_deadline_millis > 0).then(|| {
            CancelToken::with_deadline(Duration::from_millis(self.default_deadline_millis))
        });
        match self.open_cursor(&db_name, &sql, token.as_ref()) {
            Ok((mut cursor, algorithm, plan_cached)) => {
                let at_open = cursor.stats_snapshot();
                let rows = cursor.fetch_all();
                // `open_cursor` already published the preprocessing work;
                // only the enumeration delta is new.
                self.enum_stats.add(&cursor.stats_snapshot().diff(&at_open));
                // A deadline that struck mid-drain produced a truncated
                // result; report the typed error instead of passing the
                // partial rows off as complete.
                if let Some(kind) = cursor.cancel_status() {
                    if kind == CancelKind::Deadline {
                        self.bump(|d| d.deadline_exceeded = 1);
                    }
                    let response =
                        Response::error_coded(format!("query aborted: {kind}"), kind.code());
                    self.log_cancelled_outcome(&response, "query", None);
                    return response;
                }
                Response::Result {
                    columns: cursor.columns().to_vec(),
                    rows,
                    algorithm,
                    plan_cached,
                }
            }
            Err(response) => {
                self.log_cancelled_outcome(&response, "query", None);
                response
            }
        }
    }

    /// Map an executor error to a response: cooperative cancellations get
    /// their typed code (and counter bump); everything else stays an
    /// unclassified error.
    fn classify_sql_error(&self, e: re_sql::SqlError) -> Response {
        match e {
            re_sql::SqlError::Cancelled(kind) => {
                match kind {
                    CancelKind::Deadline => self.bump(|d| d.deadline_exceeded = 1),
                    CancelKind::Explicit => self.bump(|d| d.cancelled = 1),
                }
                Response::error_coded(kind.to_string(), kind.code())
            }
            other => Response::error(other.to_string()),
        }
    }

    /// Shared open path of `open` and `query`: catalog lookup, plan cache,
    /// enumerator construction (the one preprocessing pass, run under the
    /// cancel token when one is given). Failures come back as ready-made
    /// responses, typed for cooperative cancellations.
    fn open_cursor(
        &self,
        db_name: &str,
        sql: &str,
        token: Option<&CancelToken>,
    ) -> Result<(re_sql::QueryCursor, String, bool), Response> {
        let (db, generation) = self
            .catalog
            .get_versioned(db_name)
            .ok_or_else(|| Response::error(format!("unknown database `{db_name}`")))?;
        let (plan, hit) = self
            .plan_cache
            .get_or_plan(db_name, generation, &db, sql)
            .map_err(|e| Response::error(e.to_string()))?;
        let exec = match token {
            Some(token) => self.exec.clone().with_cancel_token(token.clone()),
            None => self.exec.clone(),
        };
        let executor = OwnedSqlExecutor::new(db).with_exec_context(exec);
        let cursor = executor
            .open_plan(&plan)
            .map_err(|e| self.classify_sql_error(e))?;
        self.enumerators_built.fetch_add(1, Ordering::Relaxed);
        // Count the preprocessing pass towards the shared metrics right
        // away (fetch deltas continue from this snapshot).
        self.enum_stats.add(&cursor.stats_snapshot());
        if let Some(shape) = cursor.plan_shape() {
            // Poison recovery, not skip — see `stats_report`.
            *self
                .ghd_last_plan
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner()) = shape;
        }
        let algorithm = cursor.algorithm().label().to_string();
        Ok((cursor, algorithm, hit))
    }

    /// Emit a slow-query log line when an OPEN's preprocessing exceeded
    /// the configured threshold: SQL, plan shape, algorithm and the exact
    /// per-phase breakdown captured while the cursor was built.
    fn maybe_log_slow_open(
        &self,
        db_name: &str,
        sql: &str,
        algorithm: &str,
        cursor: &re_sql::QueryCursor,
        trace_id: Option<&str>,
    ) {
        if self.slow_query_millis == 0 {
            return;
        }
        let Some(timing) = cursor.timing() else {
            return;
        };
        let open_ms = timing.open_nanos / 1_000_000;
        if open_ms < self.slow_query_millis {
            return;
        }
        self.slow_queries.fetch_add(1, Ordering::Relaxed);
        let plan_shape = cursor.plan_shape().unwrap_or_default();
        re_obs::log::warn(
            "re_server",
            "slow query open",
            &[
                ("db", FieldValue::Str(db_name)),
                ("sql", FieldValue::Str(sql)),
                ("algorithm", FieldValue::Str(algorithm)),
                ("plan_shape", FieldValue::Str(&plan_shape)),
                ("open_ms", FieldValue::U64(open_ms)),
                ("phases", FieldValue::Str(&timing.phases_summary())),
                // Joins the log line to the sampled span tree, when this
                // OPEN drew a trace ("untraced" otherwise).
                ("trace_id", FieldValue::Str(trace_id.unwrap_or("untraced"))),
            ],
        );
    }

    /// The Prometheus text exposition behind the `metrics` request: the
    /// `stats` counters as scalars, then every registry histogram (spans,
    /// op latencies, cursor delay/TTFA) and registry counter.
    fn render_metrics(&self) -> String {
        let (scalars, labeled) = report_metrics(&self.stats_report());
        re_obs::render_prometheus_labeled(&scalars, &labeled, re_obs::global())
    }
}

/// The samples a [`StatsReport`] contributes to the metrics page, straight
/// off the counter tables: every declared scalar in wire order, then the
/// per-worker slices of the pool counters labeled by slot. The final slot
/// aggregates caller threads helping batches (see the exec pool's
/// `WorkerStat`); skew across workers is the signal the `exec.pool_*`
/// aggregates hide.
fn report_metrics(report: &StatsReport) -> (Vec<ScalarMetric>, Vec<LabeledMetric>) {
    let (enumeration, transport) = (report.enumeration.values(), report.transport.values());
    let scalars = scalar_metrics(&StatsReport::FIELDS, &report.values())
        .chain(scalar_metrics(&StatsSnapshot::FIELDS, &enumeration))
        .chain(scalar_metrics(&TransportCounters::FIELDS, &transport))
        .collect();
    let mut labeled = Vec::new();
    for (i, worker) in report.per_worker.iter().enumerate() {
        let slot = if i + 1 == report.per_worker.len() {
            "caller".to_string()
        } else {
            i.to_string()
        };
        for m in scalar_metrics(&WorkerCounters::FIELDS, &worker.values()) {
            labeled.push(LabeledMetric {
                name: m.name,
                help: m.help,
                kind: m.kind,
                labels: vec![("worker".to_string(), slot.clone())],
                value: m.value,
            });
        }
    }
    (scalars, labeled)
}

/// One admitted in-flight slot; released on drop — including a panic's
/// unwind — so a crashed request can never leak its slot.
struct InflightGuard<'a> {
    inflight: &'a AtomicU64,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Handle for a running TCP front-end: the bound address plus a shutdown
/// switch that joins every thread.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// The reactor's wake pipe, poked on shutdown so an idle reactor
    /// leaves its indefinite poll wait.
    waker: Arc<re_net::WakePipe>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    pub(crate) fn from_parts(
        addr: SocketAddr,
        shutdown: Arc<AtomicBool>,
        waker: Arc<re_net::WakePipe>,
        threads: Vec<JoinHandle<()>>,
    ) -> Self {
        ServerHandle {
            addr,
            shutdown,
            waker,
            threads,
        }
    }

    /// The address the listener is bound to (use for clients; port 0 in
    /// the bind address picks a free port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain the connection queue, and join all threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if !self.shutdown.load(Ordering::SeqCst) {
            self.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::tests::sample_report;
    use re_obs::CounterField;

    #[test]
    fn every_declared_counter_is_on_the_metrics_page_with_its_help_kind_and_value() {
        let report = sample_report();
        let (scalars, labeled) = report_metrics(&report);
        let registry = re_obs::MetricsRegistry::new();
        let page = re_obs::render_prometheus_labeled(&scalars, &labeled, &registry);
        re_obs::validate_exposition(&page).unwrap();
        let header = |f: &CounterField| {
            let name = re_obs::sanitize_metric_name(f.metric);
            let kind = format!("{:?}", f.kind).to_lowercase();
            (
                format!("# HELP {name} {}\n# TYPE {name} {kind}\n", f.help),
                name,
            )
        };
        let tables = [
            (&StatsReport::FIELDS[..], &report.values()[..]),
            (&StatsSnapshot::FIELDS[..], &report.enumeration.values()[..]),
            (
                &TransportCounters::FIELDS[..],
                &report.transport.values()[..],
            ),
        ];
        for (fields, values) in tables {
            for (field, value) in fields.iter().zip(values) {
                let (header, name) = header(field);
                let sample = format!("{header}{name} {value}\n");
                assert_eq!(page.matches(&sample).count(), 1, "{sample}");
            }
        }
        let [first, caller] = &report.per_worker[..] else {
            panic!("the sample report has two worker slots");
        };
        for (i, field) in WorkerCounters::FIELDS.iter().enumerate() {
            let (header, name) = header(field);
            let (a, b) = (first.values()[i], caller.values()[i]);
            let samples =
                format!("{header}{name}{{worker=\"0\"}} {a}\n{name}{{worker=\"caller\"}} {b}\n");
            assert_eq!(page.matches(&samples).count(), 1, "{samples}");
        }
    }
}
