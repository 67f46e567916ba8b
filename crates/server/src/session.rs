//! The session table: live cursors parked between fetches.
//!
//! A session owns a [`QueryCursor`] — a live enumerator that has already
//! paid its preprocessing pass — its [`CancelToken`], and bookkeeping for
//! metrics and eviction. Every live id has exactly one slot, in one of two
//! states:
//!
//! * **parked** — the table holds the session between fetches;
//! * **lent** — one fetch holds it ([`SessionTable::take`]) and the table
//!   keeps only its cancel token and what to do when the fetch hands it
//!   back. The cursor leaves the lock while it streams, so a slow page on
//!   one session never blocks fetches on others, and two clients racing on
//!   the same id cannot interleave pages (the loser sees "unknown, expired
//!   or busy session").
//!
//! A `CLOSE` or `CANCEL` of a lent session only raises what its fetch does
//! next — park, close, or cancel, in that order, never lowered — and a
//! `CANCEL` also trips the token so the fetch stops at its next morsel
//! boundary. [`SessionTable::put_back`] then does what the slot says:
//! re-park, drop, or drop and remember the cancellation. A `CLOSE` and a
//! `CANCEL` that both race one fetch therefore end the session as
//! cancelled, by construction.
//!
//! Sessions a later `FETCH` should hear about — budget evictions and
//! cancellations — leave a tombstone in one ring of the last 512 such
//! ends, so [`SessionTable::take`] says why an id is gone ([`Gone`]) under
//! the same lock that found it missing.
//!
//! Two eviction policies protect the server:
//!
//! * **Idle TTL** — sessions parked longer than the configured TTL are
//!   reaped lazily: every table operation that looks sessions up first
//!   sweeps expired entries, so an abandoned cursor's memory is reclaimed
//!   without a background reaper thread.
//! * **Memory budget** — each parked cursor reports its frontier footprint
//!   (`frontier_bytes` from the enumeration stats, refreshed after every
//!   page). When the sum over parked sessions exceeds the configured
//!   budget, the **heaviest idle cursors are evicted first** (ties go to
//!   the oldest session id) until the table fits — except the session
//!   that was just parked, so a fetch loop on one big cursor keeps
//!   making progress even when that cursor alone exceeds the budget.

use rankedenum_core::{CancelKind, CancelToken, StatsSnapshot};
use re_obs::FieldValue;
use re_sql::QueryCursor;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How many ended sessions (budget evictions and cancellations) are
/// remembered for error attribution — the two 256-entry rings this one
/// replaced, together.
const ENDED_RING_CAPACITY: usize = 512;

/// Emit the structured eviction event: which session went, why, and how
/// many frontier bytes its cursor was retaining. `info`-level — evictions
/// are policy working as intended, not a degradation.
fn log_eviction(session: &Session, reason: &str) {
    re_obs::log::info(
        "re_server",
        "session evicted",
        &[
            ("session", FieldValue::U64(session.id)),
            ("db", FieldValue::Str(&session.db)),
            ("reason", FieldValue::Str(reason)),
            ("retained_bytes", FieldValue::U64(session.frontier_bytes)),
        ],
    );
}

/// A live session: a resumable cursor plus bookkeeping.
pub struct Session {
    /// The session id.
    pub id: u64,
    /// Catalog name of the database the cursor runs against.
    pub db: String,
    /// The live cursor.
    pub cursor: QueryCursor,
    /// Enumeration counters already published to the server metrics
    /// (deltas are published after every page).
    pub reported: StatsSnapshot,
    /// Frontier bytes the parked cursor retains (refreshed at every park).
    pub frontier_bytes: u64,
    token: CancelToken,
    last_used: Instant,
}

/// What a lent session's fetch does when it hands the session back. Racing
/// requests only raise it: `Park` < `Close` < `Cancel`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum AfterFetch {
    Park,
    Close,
    Cancel,
}

/// The one slot of a live session id. Unboxed: most slots are parked, and
/// boxing them would cost an allocation per fetch.
#[allow(clippy::large_enum_variant)]
enum Slot {
    Parked(Session),
    Lent {
        token: CancelToken,
        after: AfterFetch,
    },
}

/// How a session ended, when a later `FETCH` on its id should say so.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ended {
    /// Evicted to enforce the parked-memory budget.
    BudgetEvicted,
    /// Cancelled explicitly or by its deadline.
    Cancelled(CancelKind),
}

/// Why [`SessionTable::take`] lent nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gone {
    /// Never opened, closed, exhausted, idle-evicted, forgotten by the
    /// tombstone ring, or lent to another fetch.
    Unknown,
    /// Ended in a way the client is told about.
    Ended(Ended),
}

/// The lock-protected part of the table: one slot per live id and the
/// tombstones of recently ended ones.
#[derive(Default)]
struct Inner {
    slots: HashMap<u64, Slot>,
    ended: VecDeque<(u64, Ended)>,
}

impl Inner {
    fn remember(&mut self, id: u64, ended: Ended) {
        if self.ended.len() == ENDED_RING_CAPACITY {
            self.ended.pop_front();
        }
        self.ended.push_back((id, ended));
    }

    fn parked(&self) -> impl Iterator<Item = &Session> {
        self.slots.values().filter_map(|slot| match slot {
            Slot::Parked(session) => Some(session),
            Slot::Lent { .. } => None,
        })
    }

    /// Remove `id`'s session if it is parked; a lent slot stays.
    fn unpark(&mut self, id: u64) -> Option<Session> {
        match self.slots.remove(&id)? {
            Slot::Parked(session) => Some(session),
            lent => {
                self.slots.insert(id, lent);
                None
            }
        }
    }

    /// Raise what `id`'s fetch does next, if `id` is lent (a cancel also
    /// trips the token); returns whether it was.
    fn raise(&mut self, id: u64, to: AfterFetch) -> bool {
        let Some(Slot::Lent { token, after }) = self.slots.get_mut(&id) else {
            return false;
        };
        if to == AfterFetch::Cancel {
            token.cancel();
        }
        *after = (*after).max(to);
        true
    }

    /// Free a lent slot for good, leaving a tombstone if the session was
    /// cancelled — by the fetch's own token (`kind`) or a racing `CANCEL`.
    fn retire(&mut self, id: u64, kind: Option<CancelKind>) {
        if let Some(Slot::Lent { after, .. }) = self.slots.remove(&id) {
            let raced = (after == AfterFetch::Cancel).then_some(CancelKind::Explicit);
            if let Some(kind) = kind.or(raced) {
                self.remember(id, Ended::Cancelled(kind));
            }
        }
    }
}

/// Concurrent session table with idle and memory-budget eviction.
pub struct SessionTable {
    ttl: Duration,
    /// Maximum total frontier bytes parked sessions may retain
    /// (`0` = unlimited).
    budget_bytes: u64,
    next_id: AtomicU64,
    inner: Mutex<Inner>,
    opened: AtomicU64,
    evicted: AtomicU64,
    evicted_budget: AtomicU64,
}

impl SessionTable {
    /// A table that evicts sessions idle longer than `ttl`, with a
    /// parked-memory budget in bytes (`0` disables the budget).
    pub fn new(ttl: Duration, budget_bytes: u64) -> Self {
        SessionTable {
            ttl,
            budget_bytes,
            next_id: AtomicU64::new(1),
            inner: Mutex::new(Inner::default()),
            opened: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            evicted_budget: AtomicU64::new(0),
        }
    }

    /// The configured parked-memory budget (`0` = unlimited).
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// Lock the table, recovering from poisoning: a worker that panicked
    /// mid-request loses at most its own session, and the table's map and
    /// ring are never left mid-mutation by the operations below (single
    /// inserts and removes), so continuing with the inner state is safe.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn sweep(&self, inner: &mut Inner) {
        let now = Instant::now();
        inner.slots.retain(|_, slot| match slot {
            Slot::Parked(session) if now.duration_since(session.last_used) > self.ttl => {
                log_eviction(session, "idle-ttl");
                self.evicted.fetch_add(1, Ordering::Relaxed);
                false
            }
            _ => true,
        });
    }

    /// Enforce the memory budget after parking `just_parked`: evict the
    /// heaviest parked sessions (ties to the oldest id) until the total
    /// fits, never evicting `just_parked` itself — the caller's cursor
    /// must stay resumable even when it alone exceeds the budget.
    ///
    /// Returns the evicted sessions instead of dropping them: a victim is,
    /// by policy, the *largest* parked enumerator, and releasing megabytes
    /// of arena slabs while holding the table mutex would stall every
    /// concurrent OPEN/FETCH/CLOSE — the caller drops the victims after
    /// the lock is gone.
    #[must_use]
    fn enforce_budget(&self, inner: &mut Inner, just_parked: u64) -> Vec<Session> {
        let mut victims = Vec::new();
        if self.budget_bytes == 0 {
            return victims;
        }
        let mut total: u64 = inner.parked().map(|s| s.frontier_bytes).sum();
        while total > self.budget_bytes {
            let victim = inner
                .parked()
                .filter(|s| s.id != just_parked)
                .max_by_key(|s| (s.frontier_bytes, std::cmp::Reverse(s.id)))
                .map(|s| s.id);
            let Some(session) = victim.and_then(|id| inner.unpark(id)) else {
                break; // only the just-parked session is left
            };
            total = total.saturating_sub(session.frontier_bytes);
            inner.remember(session.id, Ended::BudgetEvicted);
            self.evicted.fetch_add(1, Ordering::Relaxed);
            self.evicted_budget.fetch_add(1, Ordering::Relaxed);
            log_eviction(&session, "memory-budget");
            victims.push(session);
        }
        victims
    }

    /// Park a fresh cursor running under `token`; returns the new session
    /// id. The table keeps a handle to the token so a later `CANCEL` can
    /// trip the cursor even mid-fetch.
    pub fn insert(&self, db: String, cursor: QueryCursor, token: CancelToken) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let reported = cursor.stats_snapshot();
        let session = Session {
            id,
            db,
            frontier_bytes: reported.frontier_bytes,
            reported,
            cursor,
            token,
            last_used: Instant::now(),
        };
        let mut inner = self.lock();
        self.sweep(&mut inner);
        inner.slots.insert(id, Slot::Parked(session));
        let victims = self.enforce_budget(&mut inner, id);
        self.opened.fetch_add(1, Ordering::Relaxed);
        drop(inner);
        drop(victims); // cursor deallocation happens outside the lock
        id
    }

    /// Cancel a session; returns whether it existed. A parked session is
    /// dropped at once (its memory released outside the lock) and leaves
    /// its tombstone; a lent one has its cancel token tripped — the fetch
    /// unwinds at the next morsel boundary and hands the session back to
    /// be dropped. Either way later fetches get the typed `cancelled`
    /// error.
    pub fn cancel(&self, id: u64) -> bool {
        let mut inner = self.lock();
        self.sweep(&mut inner);
        let Some(session) = inner.unpark(id) else {
            return inner.raise(id, AfterFetch::Cancel);
        };
        session.token.cancel();
        inner.remember(id, Ended::Cancelled(CancelKind::Explicit));
        drop(inner);
        drop(session); // cursor deallocation happens outside the lock
        true
    }

    /// Cancel `id` only if it is *currently lent* to an in-flight fetch;
    /// returns whether it was. Used by the reactor when a connection dies
    /// mid-fetch: the running fetch must stop (nobody will read its page,
    /// and the cursor would otherwise stay busy), but a merely *parked*
    /// session survives — clients resume sessions across reconnects by
    /// design.
    pub fn cancel_if_checked_out(&self, id: u64) -> bool {
        self.lock().raise(id, AfterFetch::Cancel)
    }

    /// Lend a session to one fetch. On failure, says why the id has no
    /// session to lend: unknown, expired, closed or busy, or ended by a
    /// budget eviction or a cancellation it should be told about.
    pub fn take(&self, id: u64) -> Result<Session, Gone> {
        let mut inner = self.lock();
        self.sweep(&mut inner);
        if let Some(session) = inner.unpark(id) {
            let token = session.token.clone();
            let after = AfterFetch::Park;
            inner.slots.insert(id, Slot::Lent { token, after });
            return Ok(session);
        }
        Err(match inner.slots.get(&id) {
            Some(Slot::Lent { after, .. }) if *after == AfterFetch::Cancel => {
                Gone::Ended(Ended::Cancelled(CancelKind::Explicit))
            }
            Some(_) => Gone::Unknown,
            None => inner
                .ended
                .iter()
                .rfind(|e| e.0 == id)
                .map_or(Gone::Unknown, |e| Gone::Ended(e.1)),
        })
    }

    /// Hand a lent session back after a fetch and do what its slot says:
    /// re-park it (refreshing its idle clock and memory charge), or — if a
    /// `CLOSE` or `CANCEL` raced the fetch — drop it.
    pub fn put_back(&self, mut session: Session) {
        session.last_used = Instant::now();
        session.frontier_bytes = session.cursor.stats_snapshot().frontier_bytes;
        let id = session.id;
        let mut inner = self.lock();
        let lent = inner.slots.get(&id);
        if !matches!(lent, Some(Slot::Lent { after, .. }) if *after == AfterFetch::Park) {
            inner.retire(id, None);
            return; // the cursor drops after the lock is released
        }
        inner.slots.insert(id, Slot::Parked(session));
        let victims = self.enforce_budget(&mut inner, id);
        drop(inner);
        drop(victims); // cursor deallocation happens outside the lock
    }

    /// Drop a lent session for good: exhausted, faulted, or — with the
    /// `kind` its fetch observed — cancelled, which later fetches on the
    /// id then report as the typed error.
    pub fn end(&self, session: Session, kind: Option<CancelKind>) {
        self.lock().retire(session.id, kind);
        drop(session); // cursor deallocation happens outside the lock
    }

    /// Close a session; returns whether it existed. A session lent to a
    /// racing fetch is dropped when that fetch hands it back.
    pub fn close(&self, id: u64) -> bool {
        let mut inner = self.lock();
        self.sweep(&mut inner);
        let Some(session) = inner.unpark(id) else {
            return inner.raise(id, AfterFetch::Close);
        };
        drop(inner);
        drop(session); // cursor deallocation happens outside the lock
        true
    }

    /// Live sessions, parked or lent.
    pub fn open_count(&self) -> u64 {
        let mut inner = self.lock();
        self.sweep(&mut inner);
        inner.slots.len() as u64
    }

    /// Total frontier bytes retained by parked sessions.
    pub fn parked_bytes(&self) -> u64 {
        let mut inner = self.lock();
        self.sweep(&mut inner);
        inner.parked().map(|s| s.frontier_bytes).sum()
    }

    /// Sessions opened since construction.
    pub fn opened_total(&self) -> u64 {
        self.opened.load(Ordering::Relaxed)
    }

    /// Sessions reaped by eviction (idle TTL + memory budget) since
    /// construction.
    pub fn evicted_total(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Sessions evicted specifically to enforce the memory budget.
    pub fn evicted_budget_total(&self) -> u64 {
        self.evicted_budget.load(Ordering::Relaxed)
    }

    /// Sessions evicted by the idle TTL sweep: every eviction that was
    /// not a budget eviction. Reads the two counters independently, so a
    /// racing eviction can skew the difference by one momentarily; the
    /// saturating subtraction keeps it from underflowing.
    pub fn evicted_idle_total(&self) -> u64 {
        self.evicted_total()
            .saturating_sub(self.evicted_budget_total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_sql::SqlExecutor;
    use re_storage::attr::attrs;
    use re_storage::{Database, Relation};
    use std::cmp::Reverse;
    use std::collections::BTreeMap;

    /// Far longer than any test runs, so only `backdate` ages a session;
    /// short enough that backdating past it stays after the monotonic
    /// clock's origin (boot) on any host that has built the tests.
    const TTL: Duration = Duration::from_secs(30);

    /// One relation per frontier size: `T` with 3 rows, `U` with 40.
    fn db() -> Database {
        let mut db = Database::new();
        for (name, rows) in [("T", 3), ("U", 40)] {
            let tuples = (1..=rows).map(|v| vec![v]).collect::<Vec<_>>();
            db.add_relation(Relation::with_tuples(name, attrs(["a"]), tuples).unwrap())
                .unwrap();
        }
        db
    }

    fn open(db: &Database, big: bool) -> QueryCursor {
        let sql = if big {
            "SELECT DISTINCT U.a FROM U ORDER BY U.a"
        } else {
            "SELECT DISTINCT T.a FROM T ORDER BY T.a"
        };
        SqlExecutor::new(db).open(sql).unwrap()
    }

    fn cursor() -> QueryCursor {
        open(&db(), false)
    }

    fn park(table: &SessionTable) -> u64 {
        table.insert("d".into(), cursor(), CancelToken::unbounded())
    }

    /// Move a parked session's last use `by` into the past.
    fn backdate(table: &SessionTable, id: u64, by: Duration) {
        if let Some(Slot::Parked(session)) = table.lock().slots.get_mut(&id) {
            session.last_used = session
                .last_used
                .checked_sub(by)
                .expect("the monotonic clock started before the backdate");
        }
    }

    fn age_past_ttl(table: &SessionTable, id: u64) {
        backdate(table, id, TTL + Duration::from_millis(1));
    }

    #[test]
    fn take_is_exclusive_and_put_back_restores() {
        let table = SessionTable::new(TTL, 0);
        let id = park(&table);
        assert_eq!(table.open_count(), 1);
        let mut session = table.take(id).expect("session exists");
        assert_eq!(
            table.take(id).err(),
            Some(Gone::Unknown),
            "lent session is busy"
        );
        assert_eq!(session.cursor.fetch(1), vec![vec![1]]);
        table.put_back(session);
        let mut session = table.take(id).expect("session came back");
        assert_eq!(session.cursor.fetch(1), vec![vec![2]], "cursor resumed");
        table.put_back(session);
        assert!(table.close(id));
        assert!(!table.close(id));
    }

    #[test]
    fn lent_sessions_count_as_open() {
        let table = SessionTable::new(TTL, 0);
        let id = park(&table);
        let session = table.take(id).expect("session exists");
        assert_eq!(table.open_count(), 1, "a lent session is still live");
        assert_eq!(table.parked_bytes(), 0, "but retains no parked bytes");
        table.end(session, None);
        assert_eq!(table.open_count(), 0);
    }

    #[test]
    fn close_during_checkout_is_honoured_at_put_back() {
        let table = SessionTable::new(TTL, 0);
        let id = park(&table);
        let session = table.take(id).expect("session exists");
        // A racing CLOSE while the fetch is in flight succeeds...
        assert!(table.close(id), "close of a checked-out session succeeds");
        // ...and the completing fetch does not resurrect the session.
        table.put_back(session);
        assert_eq!(table.take(id).err(), Some(Gone::Unknown));
        assert_eq!(table.open_count(), 0);
    }

    #[test]
    fn close_and_cancel_racing_one_fetch_end_it_as_cancelled() {
        let cancelled = Some(Gone::Ended(Ended::Cancelled(CancelKind::Explicit)));
        for close_first in [true, false] {
            let table = SessionTable::new(TTL, 0);
            let id = park(&table);
            let session = table.take(id).expect("session exists");
            if close_first {
                assert!(table.close(id));
            }
            assert!(table.cancel(id));
            if !close_first {
                assert!(table.close(id));
            }
            assert_eq!(table.take(id).err(), cancelled, "busy, but cancelled");
            table.put_back(session);
            assert_eq!(table.open_count(), 0, "nothing stranded");
            assert_eq!(table.take(id).err(), cancelled);
        }
    }

    #[test]
    fn end_releases_a_checked_out_session() {
        let table = SessionTable::new(TTL, 0);
        let id = park(&table);
        let session = table.take(id).expect("session exists");
        table.end(session, None);
        assert_eq!(table.take(id).err(), Some(Gone::Unknown));
        assert!(!table.close(id), "ended session no longer exists");
    }

    #[test]
    fn idle_sessions_are_evicted() {
        let table = SessionTable::new(TTL, 0);
        let id = park(&table);
        age_past_ttl(&table, id);
        assert_eq!(
            table.take(id).err(),
            Some(Gone::Unknown),
            "expired session is gone"
        );
        assert_eq!(table.evicted_total(), 1);
        assert_eq!(table.evicted_budget_total(), 0);
        assert_eq!(table.opened_total(), 1);
        assert_eq!(table.open_count(), 0);
    }

    #[test]
    fn fresh_activity_resets_the_idle_clock() {
        let table = SessionTable::new(TTL, 0);
        let id = park(&table);
        for _ in 0..4 {
            // Idle for most of the TTL, four times over: each fetch resets
            // the clock, so the session outlives four TTLs of age.
            backdate(&table, id, TTL - Duration::from_secs(1));
            let session = table.take(id).expect("recently used session survives");
            table.put_back(session);
        }
        assert_eq!(table.evicted_total(), 0);
    }

    #[test]
    fn parked_sessions_report_their_frontier_bytes() {
        let table = SessionTable::new(TTL, 0);
        let _ = park(&table);
        assert!(
            table.parked_bytes() > 0,
            "a parked enumerator retains frontier memory"
        );
    }

    #[test]
    fn budget_evicts_the_heaviest_idle_session_first() {
        // Budget of one byte: any second session pushes the table over,
        // and the heaviest *other* session must go.
        let table = SessionTable::new(TTL, 1);
        let a = park(&table);
        // Parking a second session evicts the first (the freshly parked
        // one is protected).
        let b = park(&table);
        assert_eq!(
            table.take(a).err(),
            Some(Gone::Ended(Ended::BudgetEvicted)),
            "heaviest idle session evicted"
        );
        assert!(table.take(b).is_ok(), "just-parked session survives");
        assert_eq!(table.evicted_budget_total(), 1);
        assert_eq!(table.evicted_total(), 1);
    }

    #[test]
    fn unlimited_budget_never_evicts() {
        let table = SessionTable::new(TTL, 0);
        let ids: Vec<u64> = (0..4).map(|_| park(&table)).collect();
        assert_eq!(table.open_count(), 4);
        for id in ids {
            assert!(table.take(id).is_ok());
        }
        assert_eq!(table.evicted_budget_total(), 0);
    }

    #[test]
    fn cancel_of_a_parked_session_drops_it_and_is_attributed() {
        let table = SessionTable::new(TTL, 0);
        let token = CancelToken::unbounded();
        let id = table.insert("d".into(), cursor(), token.clone());
        assert!(table.cancel(id), "parked session is cancellable");
        assert!(token.is_cancelled(), "the table tripped the token");
        assert_eq!(
            table.take(id).err(),
            Some(Gone::Ended(Ended::Cancelled(CancelKind::Explicit))),
            "cancelled session is gone, and says why"
        );
        assert!(!table.cancel(id), "second cancel finds nothing");
        assert_eq!(table.open_count(), 0);
    }

    #[test]
    fn cancel_of_a_checked_out_session_trips_the_token_and_put_back_drops_it() {
        let table = SessionTable::new(TTL, 0);
        let token = CancelToken::unbounded();
        let id = table.insert("d".into(), cursor(), token.clone());
        let session = table.take(id).expect("session exists");
        assert!(table.cancel(id), "checked-out session is cancellable");
        assert!(token.is_cancelled(), "the in-flight fetch sees the trip");
        // The completing fetch must not resurrect the session.
        table.put_back(session);
        assert_eq!(
            table.take(id).err(),
            Some(Gone::Ended(Ended::Cancelled(CancelKind::Explicit)))
        );
        assert_eq!(table.open_count(), 0);
    }

    #[test]
    fn end_records_the_deadline_kind() {
        let table = SessionTable::new(TTL, 0);
        let id = park(&table);
        let session = table.take(id).expect("session exists");
        table.end(session, Some(CancelKind::Deadline));
        assert_eq!(
            table.take(id).err(),
            Some(Gone::Ended(Ended::Cancelled(CancelKind::Deadline)))
        );
    }

    #[test]
    fn generous_budget_keeps_everything() {
        let table = SessionTable::new(TTL, u64::MAX);
        let a = park(&table);
        let b = park(&table);
        assert!(table.take(a).is_ok());
        assert!(table.take(b).is_ok());
        assert_eq!(table.evicted_budget_total(), 0);
    }

    #[test]
    fn the_tombstone_ring_remembers_the_last_512_ends() {
        let table = SessionTable::new(TTL, 0);
        let db = db();
        let ids: Vec<u64> = (0..=ENDED_RING_CAPACITY)
            .map(|_| table.insert("d".into(), open(&db, false), CancelToken::unbounded()))
            .collect();
        for &id in &ids {
            assert!(table.cancel(id));
        }
        assert_eq!(table.take(ids[0]).err(), Some(Gone::Unknown), "forgotten");
        assert_eq!(
            table.take(ids[1]).err(),
            Some(Gone::Ended(Ended::Cancelled(CancelKind::Explicit)))
        );
    }

    /// The reference model: per live id its frontier bytes and, while
    /// lent, what its fetch does next; the tombstones; the idle and budget
    /// eviction counts.
    #[derive(Default)]
    struct Model {
        slots: BTreeMap<u64, (u64, Option<AfterFetch>)>,
        ended: Vec<(u64, Ended)>,
        evicted: [u64; 2],
    }

    impl Model {
        fn parked_bytes(&self) -> u64 {
            self.slots
                .values()
                .filter(|s| s.1.is_none())
                .map(|s| s.0)
                .sum()
        }

        fn park(&mut self, id: u64, bytes: u64, budget: u64) {
            self.slots.insert(id, (bytes, None));
            while budget > 0 && self.parked_bytes() > budget {
                let idle = self.slots.iter().filter(|(&v, s)| v != id && s.1.is_none());
                let Some((&v, _)) = idle.max_by_key(|(&v, s)| (s.0, Reverse(v))) else {
                    break;
                };
                self.slots.remove(&v);
                self.ended.push((v, Ended::BudgetEvicted));
                self.evicted[1] += 1;
            }
        }

        fn take(&mut self, id: u64) -> Result<(), Gone> {
            let tomb = self.ended.iter().rfind(|e| e.0 == id);
            match self.slots.get_mut(&id) {
                Some((_, after @ None)) => {
                    *after = Some(AfterFetch::Park);
                    Ok(())
                }
                Some((_, Some(AfterFetch::Cancel))) => {
                    Err(Gone::Ended(Ended::Cancelled(CancelKind::Explicit)))
                }
                Some(_) => Err(Gone::Unknown),
                None => Err(tomb.map_or(Gone::Unknown, |e| Gone::Ended(e.1))),
            }
        }

        fn end(&mut self, id: u64, kind: Option<CancelKind>) {
            let raced = self.slots.remove(&id).unwrap().1 == Some(AfterFetch::Cancel);
            if let Some(kind) = kind.or(raced.then_some(CancelKind::Explicit)) {
                self.ended.push((id, Ended::Cancelled(kind)));
            }
        }

        fn put_back(&mut self, id: u64, budget: u64) {
            match self.slots[&id] {
                (bytes, Some(AfterFetch::Park)) => self.park(id, bytes, budget),
                _ => self.end(id, None),
            }
        }

        /// CLOSE and CANCEL (`parked_too`), or the disconnect cancel.
        fn stop(&mut self, id: u64, to: AfterFetch, parked_too: bool) -> bool {
            match self.slots.get_mut(&id) {
                Some((_, Some(after))) => *after = (*after).max(to),
                Some((_, None)) if parked_too => {
                    self.slots.remove(&id);
                    if to == AfterFetch::Cancel {
                        self.ended
                            .push((id, Ended::Cancelled(CancelKind::Explicit)));
                    }
                }
                _ => return false,
            }
            true
        }

        fn age(&mut self, id: u64) {
            if self.slots.get(&id).is_some_and(|s| s.1.is_none()) {
                self.slots.remove(&id);
                self.evicted[0] += 1;
            }
        }
    }

    /// SplitMix64: a seeded stream of `0..n` draws.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    /// Everything observable about the table but `take`, against the model.
    fn check(table: &SessionTable, model: &Model, lent: &BTreeMap<u64, Session>, at: &str) {
        let [idle, budget] = model.evicted;
        assert_eq!(
            table.open_count(),
            model.slots.len() as u64,
            "{at}: open_count"
        );
        assert_eq!(
            table.parked_bytes(),
            model.parked_bytes(),
            "{at}: parked_bytes"
        );
        assert_eq!(
            [
                table.evicted_idle_total(),
                table.evicted_budget_total(),
                table.evicted_total()
            ],
            [idle, budget, idle + budget],
            "{at}: idle, budget and all evictions"
        );
        for (id, session) in lent {
            let cancelled = model.slots[id].1 == Some(AfterFetch::Cancel);
            assert_eq!(
                session.token.is_cancelled(),
                cancelled,
                "{at}: token of {id}"
            );
        }
    }

    /// Seeded sequences of every table operation on sessions of two
    /// frontier sizes under three budgets (none, one byte, a few sessions'
    /// worth), each step checked against [`Model`]; every sequence ends
    /// with all ids closed and the table empty.
    #[test]
    fn the_table_matches_its_reference_model() {
        let db = db();
        let sizes = [false, true].map(|big| open(&db, big).stats_snapshot().frontier_bytes);
        assert!(sizes[0] < sizes[1], "two frontier sizes: {sizes:?}");
        let budgets = [0, 1, 2 * sizes[1] + sizes[0]];
        for seed in 0..1000u64 {
            let mut rng = Rng(seed);
            let budget = budgets[(seed % 3) as usize];
            let table = SessionTable::new(TTL, budget);
            let mut model = Model::default();
            let mut lent: BTreeMap<u64, Session> = BTreeMap::new();
            let mut issued: Vec<u64> = Vec::new();
            for step in 0..1 + rng.below(40) {
                let at = format!("seed {seed} step {step}");
                // Any issued id, or 0, which never is.
                let id = match rng.below(issued.len() as u64 + 1) {
                    0 => 0,
                    i => issued[i as usize - 1],
                };
                let nth_lent = rng.below(lent.len().max(1) as u64) as usize;
                let lent_id = lent.keys().nth(nth_lent).copied();
                match (rng.below(10), lent_id) {
                    (0 | 1, _) => {
                        let big = rng.below(2) as usize;
                        let cursor = open(&db, big == 1);
                        let id = table.insert("d".into(), cursor, CancelToken::unbounded());
                        assert_eq!(id, issued.len() as u64 + 1, "{at}: ids count up");
                        issued.push(id);
                        model.park(id, sizes[big], budget);
                        assert_eq!(table.opened_total(), id, "{at}: opened_total");
                    }
                    (2 | 3, _) => match (table.take(id), model.take(id)) {
                        (Ok(session), Ok(())) => drop(lent.insert(id, session)),
                        (got, want) => assert_eq!(got.err(), want.err(), "{at}: take({id})"),
                    },
                    (4, Some(id)) => {
                        table.put_back(lent.remove(&id).unwrap());
                        model.put_back(id, budget);
                    }
                    (5, Some(id)) => {
                        let kinds = [None, Some(CancelKind::Explicit), Some(CancelKind::Deadline)];
                        let kind = kinds[rng.below(3) as usize];
                        table.end(lent.remove(&id).unwrap(), kind);
                        model.end(id, kind);
                    }
                    (6, _) => assert_eq!(
                        table.cancel(id),
                        model.stop(id, AfterFetch::Cancel, true),
                        "{at}: cancel({id})"
                    ),
                    (7, _) => assert_eq!(
                        table.cancel_if_checked_out(id),
                        model.stop(id, AfterFetch::Cancel, false),
                        "{at}: cancel_if_checked_out({id})"
                    ),
                    (8, _) => assert_eq!(
                        table.close(id),
                        model.stop(id, AfterFetch::Close, true),
                        "{at}: close({id})"
                    ),
                    _ => {
                        age_past_ttl(&table, id);
                        model.age(id);
                    }
                }
                check(&table, &model, &lent, &at);
            }
            let at = format!("seed {seed} wind-down");
            while let Some((id, session)) = lent.pop_first() {
                table.put_back(session);
                model.put_back(id, budget);
            }
            for &id in &issued {
                let closed = model.stop(id, AfterFetch::Close, true);
                assert_eq!(table.close(id), closed, "{at}: close({id})");
            }
            check(&table, &model, &lent, &at);
            assert_eq!(table.open_count(), 0, "{at}: table empty");
        }
    }
}
