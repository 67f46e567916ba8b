//! The message model and the JSON-lines wire protocol.
//!
//! One request per line, one response per line, UTF-8, no framing beyond
//! `\n`. Requests are objects with a `"cmd"` discriminator; responses carry
//! `"ok"` plus a `"type"` discriminator. The session commands implement the
//! resumable-cursor lifecycle:
//!
//! ```text
//! → {"cmd":"open","db":"dblp","sql":"SELECT DISTINCT ... LIMIT 100"}
//! ← {"ok":true,"type":"opened","session":7,"columns":["a1","a2"],
//!    "algorithm":"acyclic","plan_cached":false}
//! → {"cmd":"fetch","session":7,"k":10}
//! ← {"ok":true,"type":"page","rows":[[1,2],...],"exhausted":false}
//! → {"cmd":"close","session":7}
//! ← {"ok":true,"type":"closed","existed":true}
//! ```
//!
//! plus one-shot `query`, and the `stats` / `catalog` / `ping` endpoints.
//!
//! Each message describes its fields once for writing (`write`) and once
//! for reading (`read`), as calls on a field visitor (`Sink` / `Source`).
//! The JSON visitor (`crate::json`) uses the keys; the binary one
//! (`crate::wire`) is positional. The counters of a `stats` response are
//! declared once each, in the tables below.

use crate::json::{Json, JsonSink, JsonSource};
use rankedenum_core::StatsSnapshot;
use re_obs::{counter_table, CounterField};
use re_storage::Tuple;

/// Wire identity of a message family: the JSON discriminator key and the
/// variant names. A variant's binary tag is its 1-based position in `names`.
pub(crate) struct Kinds {
    pub(crate) key: &'static str,
    /// Whether JSON lines lead with `"ok"` (false only on `error`), so a
    /// client can branch before it reads the discriminator.
    pub(crate) ok_flag: bool,
    pub(crate) names: &'static [&'static str],
}

pub(crate) const REQUESTS: Kinds = Kinds {
    key: "cmd",
    ok_flag: false,
    names: &[
        "open", "fetch", "close", "cancel", "query", "explain", "stats", "metrics", "catalog",
        "ping",
    ],
};

pub(crate) const RESPONSES: Kinds = Kinds {
    key: "type",
    ok_flag: true,
    names: &[
        "opened",
        "page",
        "closed",
        "cancelled",
        "result",
        "explained",
        "stats",
        "metrics",
        "catalog",
        "pong",
        "error",
    ],
};

/// The visitor a message writes itself into: one call per field, in wire
/// order. JSON writes `key: value`; binary ignores the key.
pub(crate) trait Sink {
    /// The variant discriminator: `name`, one of `kinds.names`.
    fn kind(&mut self, kinds: &Kinds, name: &str);
    fn u64(&mut self, key: &str, value: u64);
    fn bool(&mut self, key: &str, value: bool);
    fn str(&mut self, key: &str, value: &str);
    /// A string whose empty value means "absent": JSON omits the key.
    fn opt_str(&mut self, key: &str, value: &str);
    /// JSON omits the key when `None`; binary writes a presence byte.
    fn opt_u64(&mut self, key: &str, value: Option<u64>);
    fn strings(&mut self, key: &str, value: &[String]);
    fn rows(&mut self, key: &str, value: &[Tuple]);
    /// One counter table, flattened: each value under its `key`.
    fn counters(&mut self, fields: &[CounterField], values: &[u64]);
    /// A list of counter rows under one key (JSON: an array of arrays).
    fn counter_rows<const N: usize>(&mut self, key: &str, rows: &[[u64; N]]);
}

/// The visitor a message reads itself from: the mirror of [`Sink`].
pub(crate) trait Source {
    /// The variant discriminator, as its name in `kinds.names`; a name or
    /// tag outside the family is an error.
    fn kind(&mut self, kinds: &Kinds) -> Result<&'static str, String>;
    fn u64(&mut self, key: &str) -> Result<u64, String>;
    fn bool(&mut self, key: &str) -> Result<bool, String>;
    fn str(&mut self, key: &str) -> Result<String, String>;
    fn opt_str(&mut self, key: &str) -> Result<String, String>;
    fn opt_u64(&mut self, key: &str) -> Result<Option<u64>, String>;
    fn strings(&mut self, key: &str) -> Result<Vec<String>, String>;
    fn rows(&mut self, key: &str) -> Result<Vec<Tuple>, String>;
    /// With `required: false` a JSON line may omit the table's keys (they
    /// read as zero); binary payloads always carry every value.
    fn counters<const N: usize>(
        &mut self,
        fields: &[CounterField; N],
        required: bool,
    ) -> Result<[u64; N], String>;
    fn counter_rows<const N: usize>(&mut self, key: &str) -> Result<Vec<[u64; N]>, String>;
}

/// A client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Open a resumable cursor on `sql` against catalog database `db`.
    Open {
        /// Catalog name of the database.
        db: String,
        /// The SQL statement.
        sql: String,
        /// Optional per-request deadline in milliseconds, measured from
        /// dispatch. Overrides the server's configured default; the open
        /// (including preprocessing) and every later fetch on the session
        /// abort cooperatively once it passes.
        deadline_millis: Option<u64>,
    },
    /// Fetch the next page of up to `k` answers from a session.
    Fetch {
        /// Session id returned by `Open`.
        session: u64,
        /// Maximum page size.
        k: u64,
    },
    /// Close a session, releasing its cursor.
    Close {
        /// Session id.
        session: u64,
    },
    /// Cancel a session cooperatively: a parked cursor is dropped at
    /// once; a cursor mid-fetch trips its cancel token and unwinds at the
    /// next morsel boundary. Later fetches report a typed `cancelled`
    /// error on the owning cursor.
    Cancel {
        /// Session id.
        session: u64,
    },
    /// One-shot execution (open + drain + close in one request).
    Query {
        /// Catalog name of the database.
        db: String,
        /// The SQL statement.
        sql: String,
    },
    /// Render the statement's plan as a stable text tree without running
    /// it (`analyze: false`), or execute it and annotate the plan with
    /// the actual per-operator counters (`analyze: true`). An `EXPLAIN`
    /// / `EXPLAIN ANALYZE` prefix written in the SQL itself takes
    /// precedence over the flag.
    Explain {
        /// Catalog name of the database.
        db: String,
        /// The SQL statement (with or without an `EXPLAIN` prefix).
        sql: String,
        /// Whether to execute the statement and report actuals.
        analyze: bool,
    },
    /// Server-wide metrics.
    Stats,
    /// Prometheus text-format exposition of counters, spans and latency
    /// histograms.
    Metrics,
    /// List the catalog.
    Catalog,
    /// Liveness check.
    Ping,
}

impl Request {
    /// Visit the variant's discriminator and fields, in wire order.
    pub(crate) fn write(&self, s: &mut impl Sink) {
        match self {
            Request::Open {
                db,
                sql,
                deadline_millis,
            } => {
                s.kind(&REQUESTS, "open");
                s.str("db", db);
                s.str("sql", sql);
                s.opt_u64("deadline_millis", *deadline_millis);
            }
            Request::Fetch { session, k } => {
                s.kind(&REQUESTS, "fetch");
                s.u64("session", *session);
                s.u64("k", *k);
            }
            Request::Close { session } => {
                s.kind(&REQUESTS, "close");
                s.u64("session", *session);
            }
            Request::Cancel { session } => {
                s.kind(&REQUESTS, "cancel");
                s.u64("session", *session);
            }
            Request::Query { db, sql } => {
                s.kind(&REQUESTS, "query");
                s.str("db", db);
                s.str("sql", sql);
            }
            Request::Explain { db, sql, analyze } => {
                s.kind(&REQUESTS, "explain");
                s.str("db", db);
                s.str("sql", sql);
                s.bool("analyze", *analyze);
            }
            Request::Stats => s.kind(&REQUESTS, "stats"),
            Request::Metrics => s.kind(&REQUESTS, "metrics"),
            Request::Catalog => s.kind(&REQUESTS, "catalog"),
            Request::Ping => s.kind(&REQUESTS, "ping"),
        }
    }

    /// Read the discriminator, then that variant's fields in wire order.
    pub(crate) fn read(s: &mut impl Source) -> Result<Request, String> {
        Ok(match s.kind(&REQUESTS)? {
            "open" => Request::Open {
                db: s.str("db")?,
                sql: s.str("sql")?,
                deadline_millis: s.opt_u64("deadline_millis")?,
            },
            "fetch" => Request::Fetch {
                session: s.u64("session")?,
                k: s.u64("k")?,
            },
            "close" => Request::Close {
                session: s.u64("session")?,
            },
            "cancel" => Request::Cancel {
                session: s.u64("session")?,
            },
            "query" => Request::Query {
                db: s.str("db")?,
                sql: s.str("sql")?,
            },
            "explain" => Request::Explain {
                db: s.str("db")?,
                sql: s.str("sql")?,
                analyze: s.bool("analyze")?,
            },
            "stats" => Request::Stats,
            "metrics" => Request::Metrics,
            "catalog" => Request::Catalog,
            "ping" => Request::Ping,
            other => return Err(format!("`{other}` is not a request")),
        })
    }

    /// Decode a request line.
    pub fn decode(line: &str) -> Result<Request, String> {
        let json = Json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
        Request::read(&mut JsonSource::new(&json))
    }

    /// Encode the request as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut sink = JsonSink::default();
        self.write(&mut sink);
        sink.finish()
    }
}

counter_table! {
    /// Counters of one shared-pool worker slot, as carried by the `stats`
    /// endpoint (one positional row per slot) and the labeled
    /// `exec.worker_*` metrics. The last entry of
    /// [`StatsReport::per_worker`] is the caller slot (threads helping a
    /// batch to completion) — see the exec pool's `WorkerStat`. Skew across
    /// entries is the signal the aggregate hides.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct WorkerCounters, key prefix "" {
        /// Tasks this worker ran to completion.
        tasks: Counter "exec.worker_tasks" = "Pool tasks executed, per worker slot.",
        steals: Counter "exec.worker_steals" = "Pool tasks stolen from another deque, per worker slot.",
        busy_micros: Counter "exec.worker_busy_micros" = "Microseconds inside task bodies, per worker slot.",
    }
}

counter_table! {
    /// Transport-level counters of the TCP front-end, as carried by the
    /// `stats` endpoint. All zero while only the in-process client is used;
    /// populated by the reactor once [`crate::serve`] runs. The reactor's
    /// defining property is visible here: `epoll_waits` and `wakeups`
    /// stand still while every connection is idle — parked sessions cost
    /// no periodic polling.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct TransportCounters, key prefix "reactor_" {
        /// Each return carried at least one event or a wakeup.
        epoll_waits: Counter "reactor.epoll_waits" = "Poll waits the reactor returned from (0 while idle).",
        /// Counts the wake-pipe signals the reactor consumed: a worker
        /// pokes it when a response did not fit the socket, when a request
        /// was queued behind the batch it just finished, or to close a
        /// connection after a framing error — not once per request — and
        /// shutdown pokes it once.
        wakeups: Counter "reactor.wakeups" = "Worker-completion wakeups delivered over the wake pipe.",
        bytes_in: Counter "reactor.bytes_in" = "Bytes read off client connections.",
        bytes_out: Counter "reactor.bytes_out" = "Bytes written to client connections.",
        conns_accepted: Counter "reactor.conns_accepted" = "Connections accepted by the TCP front-end.",
        /// Every teardown of an accepted connection counts, whatever ended
        /// it — a framing error and a socket the front-end failed to set
        /// up included — so `conns_accepted - disconnects` is the number
        /// of connections currently open.
        disconnects: Counter "reactor.disconnects" = "Connections that ended (EOF, reset, or shutdown).",
    }
}

counter_table! {
    /// Server-wide counters reported by the `stats` endpoint.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct StatsReport, key prefix "" {
        sessions_open: Gauge "sessions.open" = "Sessions currently live.",
        sessions_opened: Counter "sessions.opened" = "Sessions opened since start.",
        sessions_evicted: Counter "sessions.evicted" = "Sessions reaped by eviction (idle TTL + memory budget).",
        /// A subset of `sessions_evicted`.
        sessions_evicted_budget: Counter "sessions.evicted_budget" = "Sessions evicted to enforce the memory budget.",
        /// The remainder: `sessions_evicted - sessions_evicted_budget`.
        sessions_evicted_idle: Counter "sessions.evicted_idle" = "Sessions evicted by the idle TTL sweep.",
        /// In bytes.
        session_budget_bytes: Gauge "sessions.budget_bytes" = "Configured parked-memory budget (0 = unlimited).",
        session_bytes_parked: Gauge "sessions.bytes_parked" = "Frontier bytes retained by parked sessions.",
        enumerators_built: Counter "enumerators.built" = "Enumerators built (preprocessing passes).",
        plan_cache_hits: Counter "plan_cache.hits" = "Plan-cache hits.",
        /// Statements planned from scratch.
        plan_cache_misses: Counter "plan_cache.misses" = "Plan-cache misses.",
        plan_cache_size: Gauge "plan_cache.size" = "Plans currently cached.",
        /// 1 = serial preprocessing.
        exec_pool_threads: Gauge "exec.pool_threads" = "Threads of the shared preprocessing pool.",
    }
    extra {
        /// Shape of the most recent GHD plan chosen for a cyclic statement,
        /// annotated with the fallback reason when selection degraded to a
        /// single full-materialisation bag. Empty until a cyclic query runs.
        ghd_last_plan: String,
        /// Enumeration work aggregated across all workers and sessions,
        /// including the shared pool's parallel-preprocessing counters and
        /// the robustness outcomes.
        enumeration: StatsSnapshot,
        /// Transport-level counters of the TCP front-end (zero when only the
        /// in-process client is used).
        transport: TransportCounters,
        /// Per-worker slices of the pool counters: one entry per pool worker
        /// plus a trailing caller slot; empty when preprocessing is serial.
        per_worker: Vec<WorkerCounters>,
    }
}

impl StatsReport {
    fn write(&self, s: &mut impl Sink) {
        s.counters(&Self::FIELDS, &self.values());
        s.str("ghd_last_plan", &self.ghd_last_plan);
        s.counters(&StatsSnapshot::FIELDS, &self.enumeration.values());
        s.counters(&TransportCounters::FIELDS, &self.transport.values());
        let workers: Vec<_> = self.per_worker.iter().map(WorkerCounters::values).collect();
        s.counter_rows("per_worker", &workers);
    }

    fn read(s: &mut impl Source) -> Result<StatsReport, String> {
        let scalars = s.counters(&Self::FIELDS, true)?;
        Ok(StatsReport {
            ghd_last_plan: s.str("ghd_last_plan")?,
            enumeration: StatsSnapshot::from_values(s.counters(&StatsSnapshot::FIELDS, true)?),
            // Absent on pre-reactor stats lines; read as zero so old
            // captures keep decoding.
            transport: TransportCounters::from_values(
                s.counters(&TransportCounters::FIELDS, false)?,
            ),
            per_worker: (s.counter_rows("per_worker")?.into_iter())
                .map(WorkerCounters::from_values)
                .collect(),
            ..StatsReport::from_values(scalars)
        })
    }
}

/// A server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A session was opened.
    Opened {
        /// The session id for subsequent `Fetch`/`Close` requests.
        session: u64,
        /// Output column names.
        columns: Vec<String>,
        /// Label of the enumeration strategy the plan selected.
        algorithm: String,
        /// Whether the plan came from the plan cache.
        plan_cached: bool,
    },
    /// A page of answers.
    Page {
        /// Up to `k` rows, in rank order.
        rows: Vec<Tuple>,
        /// Whether the enumeration is complete.
        exhausted: bool,
    },
    /// A session was closed.
    Closed {
        /// Whether the session existed.
        existed: bool,
    },
    /// A `Cancel` was processed.
    Cancelled {
        /// Whether the session existed (parked or mid-fetch) when the
        /// cancel arrived.
        existed: bool,
    },
    /// A one-shot result.
    Result {
        /// Output column names.
        columns: Vec<String>,
        /// All rows, in rank order (bounded by the statement's LIMIT).
        rows: Vec<Tuple>,
        /// Label of the enumeration strategy the plan selected.
        algorithm: String,
        /// Whether the plan came from the plan cache.
        plan_cached: bool,
    },
    /// The rendered plan text of an `Explain` request.
    Explained {
        /// The stable text tree (`EXPLAIN` header, plan structure, and —
        /// under `ANALYZE` — the execution section with actual counters).
        text: String,
    },
    /// Server-wide metrics.
    Stats(Box<StatsReport>),
    /// Prometheus text-format metrics exposition.
    Metrics {
        /// The exposition body (`# HELP`/`# TYPE` comments and samples).
        body: String,
    },
    /// The catalog listing.
    Catalog {
        /// Names of the registered databases, sorted.
        databases: Vec<String>,
    },
    /// Liveness answer.
    Pong,
    /// Any failure.
    Error {
        /// Human-readable reason.
        message: String,
        /// Machine-readable classification: `"overloaded"`,
        /// `"deadline_exceeded"`, `"cancelled"`, `"fault"`, or empty for
        /// an unclassified failure (bad SQL, unknown session, ...).
        code: String,
        /// For `"overloaded"` errors: a hint, in milliseconds, of how
        /// long the client should back off before retrying.
        retry_after_millis: Option<u64>,
    },
}

impl Response {
    /// An unclassified error response (no code, no retry hint).
    pub fn error(message: impl Into<String>) -> Response {
        Response::Error {
            message: message.into(),
            code: String::new(),
            retry_after_millis: None,
        }
    }

    /// An error response with a machine-readable `code`.
    pub fn error_coded(message: impl Into<String>, code: impl Into<String>) -> Response {
        Response::Error {
            message: message.into(),
            code: code.into(),
            retry_after_millis: None,
        }
    }

    /// The typed `overloaded` error: the request was shed by admission
    /// control, with a back-off hint.
    pub fn overloaded(message: impl Into<String>, retry_after_millis: u64) -> Response {
        Response::Error {
            message: message.into(),
            code: "overloaded".into(),
            retry_after_millis: Some(retry_after_millis),
        }
    }

    /// Visit the variant's discriminator and fields, in wire order.
    pub(crate) fn write(&self, s: &mut impl Sink) {
        match self {
            Response::Opened {
                session,
                columns,
                algorithm,
                plan_cached,
            } => {
                s.kind(&RESPONSES, "opened");
                s.u64("session", *session);
                s.strings("columns", columns);
                s.str("algorithm", algorithm);
                s.bool("plan_cached", *plan_cached);
            }
            Response::Page { rows, exhausted } => {
                s.kind(&RESPONSES, "page");
                s.rows("rows", rows);
                s.bool("exhausted", *exhausted);
            }
            Response::Closed { existed } => {
                s.kind(&RESPONSES, "closed");
                s.bool("existed", *existed);
            }
            Response::Cancelled { existed } => {
                s.kind(&RESPONSES, "cancelled");
                s.bool("existed", *existed);
            }
            Response::Result {
                columns,
                rows,
                algorithm,
                plan_cached,
            } => {
                s.kind(&RESPONSES, "result");
                s.strings("columns", columns);
                s.rows("rows", rows);
                s.str("algorithm", algorithm);
                s.bool("plan_cached", *plan_cached);
            }
            Response::Explained { text } => {
                s.kind(&RESPONSES, "explained");
                s.str("text", text);
            }
            Response::Stats(report) => {
                s.kind(&RESPONSES, "stats");
                report.write(s);
            }
            Response::Metrics { body } => {
                s.kind(&RESPONSES, "metrics");
                s.str("body", body);
            }
            Response::Catalog { databases } => {
                s.kind(&RESPONSES, "catalog");
                s.strings("databases", databases);
            }
            Response::Pong => s.kind(&RESPONSES, "pong"),
            Response::Error {
                message,
                code,
                retry_after_millis,
            } => {
                s.kind(&RESPONSES, "error");
                s.str("error", message);
                s.opt_str("code", code);
                s.opt_u64("retry_after_millis", *retry_after_millis);
            }
        }
    }

    /// Read the discriminator, then that variant's fields in wire order.
    pub(crate) fn read(s: &mut impl Source) -> Result<Response, String> {
        Ok(match s.kind(&RESPONSES)? {
            "opened" => Response::Opened {
                session: s.u64("session")?,
                columns: s.strings("columns")?,
                algorithm: s.str("algorithm")?,
                plan_cached: s.bool("plan_cached")?,
            },
            "page" => Response::Page {
                rows: s.rows("rows")?,
                exhausted: s.bool("exhausted")?,
            },
            "closed" => Response::Closed {
                existed: s.bool("existed")?,
            },
            "cancelled" => Response::Cancelled {
                existed: s.bool("existed")?,
            },
            "result" => Response::Result {
                columns: s.strings("columns")?,
                rows: s.rows("rows")?,
                algorithm: s.str("algorithm")?,
                plan_cached: s.bool("plan_cached")?,
            },
            "explained" => Response::Explained {
                text: s.str("text")?,
            },
            "stats" => Response::Stats(Box::new(StatsReport::read(s)?)),
            "metrics" => Response::Metrics {
                body: s.str("body")?,
            },
            "catalog" => Response::Catalog {
                databases: s.strings("databases")?,
            },
            "pong" => Response::Pong,
            "error" => Response::Error {
                message: s.str("error")?,
                code: s.opt_str("code")?,
                retry_after_millis: s.opt_u64("retry_after_millis")?,
            },
            other => return Err(format!("`{other}` is not a response")),
        })
    }

    /// Encode the response as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut sink = JsonSink::default();
        self.write(&mut sink);
        sink.finish()
    }

    /// Decode a response line.
    pub fn decode(line: &str) -> Result<Response, String> {
        let json = Json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
        Response::read(&mut JsonSource::new(&json))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A report in which every declared counter has its own value — 1, 2,
    /// 3, ... in wire order — so a counter dropped, duplicated or swapped
    /// by any hop shows. A counter added to a table is covered without
    /// editing a test.
    pub(crate) fn sample_report() -> StatsReport {
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

    /// One sample (or more) of every request variant.
    pub(crate) fn sample_requests() -> Vec<Request> {
        vec![
            Request::Open {
                db: "dblp".into(),
                sql: "SELECT DISTINCT a FROM T ORDER BY a LIMIT 5".into(),
                deadline_millis: None,
            },
            Request::Open {
                db: "dblp".into(),
                sql: "SELECT DISTINCT a FROM T ORDER BY a LIMIT 5".into(),
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
                sql: "SELECT DISTINCT a FROM T".into(),
            },
            Request::Explain {
                db: "d".into(),
                sql: "SELECT DISTINCT a FROM T ORDER BY a".into(),
                analyze: true,
            },
            Request::Stats,
            Request::Metrics,
            Request::Catalog,
            Request::Ping,
        ]
    }

    /// One sample (or more) of every response variant.
    pub(crate) fn sample_responses() -> Vec<Response> {
        vec![
            Response::Opened {
                session: 3,
                columns: vec!["a1".into(), "a2".into()],
                algorithm: "acyclic".into(),
                plan_cached: true,
            },
            Response::Page {
                // u64-exact: values beyond 2^53 survive, unlike any
                // float-backed JSON implementation.
                rows: vec![vec![u64::MAX, 2], vec![3, 1 << 60]],
                exhausted: false,
            },
            Response::Closed { existed: true },
            Response::Cancelled { existed: true },
            Response::Cancelled { existed: false },
            Response::Result {
                columns: vec!["x".into()],
                rows: vec![vec![9]],
                algorithm: "union-merge".into(),
                plan_cached: false,
            },
            Response::Explained {
                text: "EXPLAIN\nstatement: join-project (2 atoms)\n".into(),
            },
            Response::Stats(Box::new(sample_report())),
            Response::Stats(Box::default()),
            Response::Metrics {
                body: "# TYPE re_sessions_open gauge\nre_sessions_open 1\n".into(),
            },
            Response::Catalog {
                databases: vec!["a".into(), "b".into()],
            },
            Response::Pong,
            Response::error("boom"),
            Response::overloaded("too busy", 250),
            Response::error_coded("query deadline exceeded", "deadline_exceeded"),
        ]
    }

    #[test]
    fn requests_roundtrip() {
        for req in sample_requests() {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        for resp in sample_responses() {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    /// The `stats` line of `report`, parsed, minus the keys `drop` selects.
    fn stats_line_without(report: &StatsReport, drop: impl Fn(&str) -> bool) -> String {
        let line = Response::Stats(Box::new(report.clone())).encode();
        let Json::Obj(members) = Json::parse(&line).unwrap() else {
            panic!("a stats line is an object");
        };
        Json::Obj(members.into_iter().filter(|(k, _)| !drop(k)).collect()).to_string()
    }

    #[test]
    fn every_declared_counter_is_on_the_stats_line_under_its_key() {
        let report = sample_report();
        let json = Json::parse(&stats_line_without(&report, |_| false)).unwrap();
        let tables = [
            (&StatsReport::FIELDS[..], &report.values()[..]),
            (&StatsSnapshot::FIELDS[..], &report.enumeration.values()[..]),
            (
                &TransportCounters::FIELDS[..],
                &report.transport.values()[..],
            ),
        ];
        let mut seen = 0;
        for (fields, values) in tables {
            for (field, &value) in fields.iter().zip(values) {
                let on_line = json.get(field.key).and_then(Json::as_u64);
                assert_eq!(on_line, Some(value), "{}", field.key);
                seen += 1;
            }
        }
        // ok, type, ghd_last_plan and per_worker are the only other keys:
        // no two counters share one.
        let Json::Obj(members) = &json else {
            unreachable!()
        };
        assert_eq!(members.len(), seen + 4);
        assert_eq!(
            json.get("per_worker").unwrap().to_string(),
            format!(
                "{:?}",
                report
                    .per_worker
                    .iter()
                    .map(WorkerCounters::values)
                    .collect::<Vec<_>>()
            )
            .replace(' ', "")
        );
    }

    #[test]
    fn stats_decode_requires_every_counter_but_the_transport_ones() {
        let report = sample_report();
        // Pre-reactor captures carry no `reactor_*` key at all: they keep
        // decoding, with zero transport counters.
        let old = stats_line_without(&report, |k| k.starts_with("reactor_"));
        let expected = StatsReport {
            transport: TransportCounters::default(),
            ..report.clone()
        };
        assert_eq!(
            Response::decode(&old).unwrap(),
            Response::Stats(Box::new(expected))
        );
        // Each transport key is optional on its own, too.
        for field in &TransportCounters::FIELDS {
            let line = stats_line_without(&report, |k| k == field.key);
            assert!(Response::decode(&line).is_ok(), "{}", field.key);
        }
        // Every other key is required.
        let required = (StatsReport::FIELDS.iter().chain(&StatsSnapshot::FIELDS))
            .map(|f| f.key)
            .chain(["ghd_last_plan", "per_worker"]);
        for key in required {
            let line = stats_line_without(&report, |k| k == key);
            assert!(Response::decode(&line).is_err(), "missing `{key}` decodes");
        }
        // A per-worker row is exactly one value per declared counter.
        let full = stats_line_without(&report, |_| false);
        let row = report.per_worker[0].values();
        let short = full.replace(
            &format!("[{},{},{}]", row[0], row[1], row[2]),
            &format!("[{},{}]", row[0], row[1]),
        );
        assert_ne!(short, full, "the row was shortened");
        assert!(Response::decode(&short).is_err());
    }

    #[test]
    fn error_code_and_retry_hint_are_optional_on_the_wire() {
        // Old-style error lines (no `code`, no `retry_after_millis`)
        // still decode — the fields default to unclassified.
        let decoded =
            Response::decode("{\"ok\":false,\"type\":\"error\",\"error\":\"boom\"}").unwrap();
        assert_eq!(decoded, Response::error("boom"));
        // And the unclassified encoding omits the optional fields.
        assert!(!Response::error("boom").encode().contains("code"));
        assert!(
            Response::overloaded("busy", 40)
                .encode()
                .contains("\"retry_after_millis\":40"),
            "the back-off hint rides on overloaded errors"
        );
    }

    /// The pieces a hostile JSON line is made of: the grammar's structural
    /// bytes, escapes, literals, and the protocol's own keys and kinds.
    #[rustfmt::skip]
    const JSON_SOUP: [&str; 32] = [
        "{", "}", "[", "]", "\"", "\\", "u", ":", ",", "0", "7", "18446744073709551616", "-", ".",
        "e", " ", "true", "false", "null", "\\u00", "d83d", "\\ud83d", "\\ude00", "é", "\u{1F600}",
        "\"cmd\"", "\"type\"", "\"ok\"", "\"open\"", "\"fetch\"", "\"page\"", "\"rows\"",
    ];

    /// Outcome unspecified; returning at all — no panic, no hang — is the
    /// property.
    fn decode_all(line: &str) {
        let _ = Json::parse(line);
        let _ = Request::decode(line);
        let _ = Response::decode(line);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn token_soup_never_panics_the_json_decoders(
            picks in proptest::collection::vec(0usize..JSON_SOUP.len(), 0..48),
        ) {
            let line: String = picks.iter().map(|&i| JSON_SOUP[i]).collect();
            decode_all(&line);
        }

        #[test]
        fn damaged_protocol_lines_never_panic_the_json_decoders(
            sample in 0usize..64,
            damage in 0u8..3,
            at in 0usize..4096,
            byte in proptest::prelude::any::<u8>(),
        ) {
            let mut lines: Vec<String> = sample_requests().iter().map(Request::encode).collect();
            lines.extend(sample_responses().iter().map(Response::encode));
            let mut bytes = lines.swap_remove(sample % lines.len()).into_bytes();
            let at = at % bytes.len();
            match damage {
                0 => bytes[at] = byte,
                1 => drop(bytes.remove(at)),
                _ => bytes.truncate(at),
            }
            // The front-end rejects a line that is not UTF-8 before the
            // decoders see it; the lossy form keeps the case and puts a
            // multi-byte character where the damage was.
            decode_all(&String::from_utf8_lossy(&bytes));
        }
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        assert!(Request::decode("not json").is_err());
        assert!(Request::decode("{\"cmd\":\"nope\"}").is_err());
        assert!(Request::decode("{\"cmd\":7}").is_err());
        assert!(Request::decode("{\"cmd\":\"fetch\",\"session\":1}").is_err());
        assert!(Request::decode("{\"cmd\":\"fetch\",\"session\":\"1\",\"k\":1}").is_err());
        assert!(Request::decode("{\"cmd\":\"open\",\"db\":\"d\"}").is_err());
        assert!(Request::decode("{\"cmd\":\"cancel\"}").is_err());
        // `deadline_millis`, when present, must be an unsigned integer.
        assert!(Request::decode(
            "{\"cmd\":\"open\",\"db\":\"d\",\"sql\":\"s\",\"deadline_millis\":\"soon\"}"
        )
        .is_err());
        // `explain` needs a boolean `analyze`, not a number.
        assert!(Request::decode("{\"cmd\":\"explain\",\"db\":\"d\",\"sql\":\"s\"}").is_err());
        assert!(
            Request::decode("{\"cmd\":\"explain\",\"db\":\"d\",\"sql\":\"s\",\"analyze\":1}")
                .is_err()
        );
    }
}
