//! The LRU plan cache.
//!
//! Planning a statement (parse, resolve, unify variables, pick an order
//! spec, decide each branch's algorithm and join tree) is pure given the
//! database schema, so plans are cached behind `Arc` and shared across
//! sessions and worker threads. The key is the catalog name and
//! registration generation plus the **normalised** statement text
//! ([`re_sql::normalize()`]), so spelling variants of the same statement
//! hit the same entry. The physical decision lives inside the plan
//! ([`SqlPlan::branches`]), so a hit hands OPEN its join tree ready-made.
//!
//! One decision reads the data, not the schema: a cyclic branch's GHD.
//! The plan's first OPEN that succeeds makes it (cost-based selection,
//! then the bag race) and records the plan that served inside the
//! branch ([`rankedenum_core::CyclicVerdict`]), so every later OPEN of the
//! cached plan builds that plan alone. The key fixes the data the verdict
//! was decided on: re-registering a database makes a new generation, a
//! new plan and an empty verdict, so the new data is raced again.
//!
//! An entry also records the statement's live [`SharedFrontier`], if it
//! has one: the enumerator an OPEN built for sharing
//! ([`PlanCache::share`]), held weakly. The key fixes what that enumerator
//! computes — the catalog generation fixes the database, the normalised
//! text the query and its ranking, under the server's one weight
//! assignment — so a later OPEN of the statement attaches a cursor to it
//! instead of building ([`CachedPlan::frontier`]). The cache owns no
//! frontier: it lives exactly as long as some session holds it, and a
//! statement opened by one session at a time keeps building its own.

use rankedenum_core::SharedFrontier;
use re_sql::{parse, plan, SqlError, SqlPlan};
use re_storage::Database;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};

struct Entry {
    plan: Arc<SqlPlan>,
    /// Logical timestamp of the last hit (for LRU eviction).
    last_used: u64,
    /// The statement's shared frontier, while some session holds it.
    frontier: Weak<SharedFrontier>,
}

/// A planned statement, from [`PlanCache::lookup`].
pub struct CachedPlan {
    /// The shared plan.
    pub plan: Arc<SqlPlan>,
    /// Whether the plan came from the cache.
    pub hit: bool,
    /// The statement's shared frontier, when a live session holds one
    /// that is not poisoned: open a cursor on it instead of building.
    pub frontier: Option<Arc<SharedFrontier>>,
    key: String,
}

/// The frontier `slot` refers to, if a session still holds it and no
/// panic poisoned it.
fn live(slot: &Weak<SharedFrontier>) -> Option<Arc<SharedFrontier>> {
    slot.upgrade().filter(|frontier| !frontier.is_poisoned())
}

/// LRU cache of planned statements, keyed on
/// `(database, registration generation, normalised SQL)`.
///
/// The generation (see [`crate::Catalog::get_versioned`]) is part of the
/// key because plans bind columns *positionally* against the schema they
/// were planned on: re-registering a database under the same name must
/// never let a stale plan execute against the replacement.
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<HashMap<String, Entry>>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (minimum 1).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            inner: Mutex::new(HashMap::new()),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Lock the map, recovering from poisoning (entries are immutable
    /// `Arc`s and `Weak`s inserted, replaced and removed atomically, so
    /// inner state stays valid even if a holder panicked).
    fn lock(&self) -> MutexGuard<'_, HashMap<String, Entry>> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn key(db_name: &str, generation: u64, normalized_sql: &str) -> String {
        format!("{db_name}@{generation}\n{normalized_sql}")
    }

    /// The plan for `sql` against `db` (registered under `db_name` with
    /// the given registration `generation`), from the cache when possible.
    /// Returns the shared plan and whether this was a hit.
    pub fn get_or_plan(
        &self,
        db_name: &str,
        generation: u64,
        db: &Database,
        sql: &str,
    ) -> Result<(Arc<SqlPlan>, bool), SqlError> {
        let cached = self.lookup(db_name, generation, db, sql)?;
        Ok((cached.plan, cached.hit))
    }

    /// [`PlanCache::get_or_plan`], with the statement's live shared
    /// frontier: a poisoned one is never handed out, so the OPEN that
    /// finds one builds afresh and [shares](PlanCache::share) that.
    pub fn lookup(
        &self,
        db_name: &str,
        generation: u64,
        db: &Database,
        sql: &str,
    ) -> Result<CachedPlan, SqlError> {
        let normalized = re_sql::normalize(sql)?;
        let key = Self::key(db_name, generation, &normalized);
        let now = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        {
            let mut map = self.lock();
            if let Some(entry) = map.get_mut(&key) {
                entry.last_used = now;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(CachedPlan {
                    plan: Arc::clone(&entry.plan),
                    hit: true,
                    frontier: live(&entry.frontier),
                    key,
                });
            }
        }
        // Plan outside the lock: planning touches only the schema, and a
        // duplicate concurrent miss just computes the same immutable plan.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let statement = parse(sql)?;
        let planned = Arc::new(plan(&statement, db)?);
        let mut map = self.lock();
        // Re-stamp: hits recorded while this thread was planning must not
        // make the brand-new entry look like the least recently used one.
        let now = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        if map.len() >= self.capacity && !map.contains_key(&key) {
            // Evict the least-recently-used entry (linear scan; the cache
            // is small and eviction is off the hit path).
            if let Some(lru) = map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                map.remove(&lru);
            }
        }
        map.insert(
            key.clone(),
            Entry {
                plan: Arc::clone(&planned),
                last_used: now,
                frontier: Weak::new(),
            },
        );
        Ok(CachedPlan {
            plan: planned,
            hit: false,
            frontier: None,
            key,
        })
    }

    /// Record `frontier`, built for `cached`'s statement, as the one later
    /// OPENs of it attach to. A live frontier already recorded stays: the
    /// sessions of a concurrent second build keep theirs to themselves.
    /// Nothing is recorded if the entry was evicted meanwhile.
    pub fn share(&self, cached: &CachedPlan, frontier: &Arc<SharedFrontier>) {
        let mut map = self.lock();
        if let Some(entry) = map.get_mut(&cached.key) {
            if live(&entry.frontier).is_none() {
                entry.frontier = Arc::downgrade(frontier);
            }
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Plans currently cached.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_storage::attr::attrs;
    use re_storage::Relation;

    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples("T", attrs(["a", "b"]), vec![vec![1, 2], vec![2, 3]]).unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn spelling_variants_hit_the_same_entry() {
        let cache = PlanCache::new(8);
        let db = db();
        let (_, hit1) = cache
            .get_or_plan("d", 1, &db, "SELECT DISTINCT T.a FROM T ORDER BY T.a")
            .unwrap();
        let (_, hit2) = cache
            .get_or_plan("d", 1, &db, "select distinct  T.a from T order by T.a ;")
            .unwrap();
        assert!(!hit1);
        assert!(hit2, "normalised spelling variants must hit");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_new_registration_generation_busts_the_cache() {
        let cache = PlanCache::new(8);
        let sql = "SELECT DISTINCT T.b FROM T WHERE T.a = 1";
        let (first, hit) = cache.get_or_plan("d", 1, &db(), sql).unwrap();
        assert!(!hit);
        // Same name, new generation: the database was re-registered with
        // T's columns swapped; the old plan's positional filter would
        // silently test the wrong column.
        let mut swapped = Database::new();
        swapped
            .add_relation(Relation::with_tuples("T", attrs(["b", "a"]), vec![vec![2, 1]]).unwrap())
            .unwrap();
        let (second, hit) = cache.get_or_plan("d", 2, &swapped, sql).unwrap();
        assert!(!hit, "a new generation must re-plan");
        assert_ne!(
            format!("{:?}", first.derived),
            format!("{:?}", second.derived),
            "the filter must move to the column's new position"
        );
        // The old generation's entry is still intact.
        let (_, hit) = cache.get_or_plan("d", 1, &db(), sql).unwrap();
        assert!(hit);
    }

    #[test]
    fn entries_are_keyed_per_database() {
        let cache = PlanCache::new(8);
        let db = db();
        let sql = "SELECT DISTINCT T.a FROM T";
        cache.get_or_plan("one", 1, &db, sql).unwrap();
        let (_, hit) = cache.get_or_plan("two", 1, &db, sql).unwrap();
        assert!(!hit, "same SQL against another database is another plan");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cached_plans_carry_the_physical_decision() {
        use rankedenum_core::Algorithm;
        let cache = PlanCache::new(8);
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples("E", attrs(["s", "t"]), vec![vec![1, 2], vec![2, 3]]).unwrap(),
        )
        .unwrap();
        let (acyclic, _) = cache
            .get_or_plan(
                "d",
                1,
                &db,
                "SELECT DISTINCT E1.s, E2.t FROM E AS E1, E AS E2 WHERE E1.t = E2.s",
            )
            .unwrap();
        assert_eq!(acyclic.algorithm(), Algorithm::Acyclic);
        assert!(acyclic.branches[0].join_tree().is_some());
        let (cyclic, _) = cache
            .get_or_plan(
                "d",
                1,
                &db,
                "SELECT DISTINCT E1.s, E2.s FROM E AS E1, E AS E2, E AS E3 \
                 WHERE E1.t = E2.s AND E2.t = E3.s AND E3.t = E1.s",
            )
            .unwrap();
        assert_eq!(cyclic.algorithm(), Algorithm::CyclicGhd);
        let (union, _) = cache
            .get_or_plan(
                "d",
                1,
                &db,
                "SELECT DISTINCT E1.s FROM E AS E1 UNION SELECT DISTINCT E2.t FROM E AS E2",
            )
            .unwrap();
        assert_eq!(union.algorithm(), Algorithm::UnionMerge);
        assert_eq!(union.branches.len(), 2);
    }

    #[test]
    fn lru_eviction_keeps_recently_used_plans() {
        let cache = PlanCache::new(2);
        let db = db();
        let q1 = "SELECT DISTINCT T.a FROM T";
        let q2 = "SELECT DISTINCT T.b FROM T";
        let q3 = "SELECT DISTINCT T.a, T.b FROM T";
        cache.get_or_plan("d", 1, &db, q1).unwrap();
        cache.get_or_plan("d", 1, &db, q2).unwrap();
        cache.get_or_plan("d", 1, &db, q1).unwrap(); // refresh q1
        cache.get_or_plan("d", 1, &db, q3).unwrap(); // evicts q2
        assert_eq!(cache.len(), 2);
        let (_, hit_q1) = cache.get_or_plan("d", 1, &db, q1).unwrap();
        assert!(hit_q1, "recently used plan survives eviction");
        let (_, hit_q2) = cache.get_or_plan("d", 1, &db, q2).unwrap();
        assert!(!hit_q2, "least recently used plan was evicted");
    }

    /// A frontier whose enumerator panicked while it was extended.
    fn poisoned_frontier() -> Arc<SharedFrontier> {
        use rankedenum_core::{BranchPlan, ExecContext};
        use re_ranking::{Ranking, SumRanking};
        use re_storage::{Attr, Value};
        use std::sync::atomic::AtomicBool;

        /// `SUM`, but every key panics once armed.
        #[derive(Clone)]
        struct PanicsOnceArmed(Arc<AtomicBool>);
        impl Ranking for PanicsOnceArmed {
            type Key = <SumRanking as Ranking>::Key;
            type Plan = <SumRanking as Ranking>::Plan;
            fn plan(&self, attrs: &[Attr]) -> Self::Plan {
                SumRanking::value_sum().plan(attrs)
            }
            fn key(&self, plan: &Self::Plan, values: &[Value]) -> Self::Key {
                assert!(!self.0.load(Ordering::Relaxed), "panics by design");
                SumRanking::value_sum().key(plan, values)
            }
        }
        let q = re_query::QueryBuilder::new()
            .atom("T", "T", ["a", "b"])
            .atom("U", "U", ["b", "c"])
            .project(["a", "c"])
            .build()
            .unwrap();
        let mut db = Database::new();
        for (name, cols, rows) in [
            ("T", ["a", "b"], vec![vec![1, 1], vec![2, 1]]),
            ("U", ["b", "c"], vec![vec![1, 1], vec![1, 3]]),
        ] {
            db.add_relation(Relation::with_tuples(name, attrs(cols), rows).unwrap())
                .unwrap();
        }
        let armed = Arc::new(AtomicBool::new(false));
        let ranking = PanicsOnceArmed(Arc::clone(&armed));
        let mut cursor = BranchPlan::of(&q, false)
            .unwrap()
            .open(&q, &db, ranking, &ExecContext::serial())
            .unwrap();
        armed.store(true, Ordering::Relaxed);
        let frontier = Arc::clone(cursor.shared_frontier().unwrap());
        let extended =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cursor.by_ref().count()));
        assert!(extended.is_err() && frontier.is_poisoned());
        frontier
    }

    #[test]
    fn a_live_frontier_is_handed_out_and_a_dead_or_poisoned_one_never() {
        let cache = PlanCache::new(8);
        let db = db();
        let sql = "SELECT DISTINCT T.a FROM T";
        let lookup = || cache.lookup("d", 1, &db, sql).unwrap();
        let cached = lookup();
        assert!(cached.frontier.is_none(), "nothing shared yet");
        let cursor = re_sql::SqlExecutor::new(&db)
            .open_plan(&cached.plan)
            .unwrap();
        let id = cursor.frontier().unwrap().id();
        cache.share(&cached, cursor.frontier().unwrap());
        let hit = lookup();
        assert!(hit.hit);
        assert_eq!(hit.frontier.map(|f| f.id()), Some(id));
        // The cache holds no frontier of its own: the last cursor frees it.
        drop(cursor);
        assert!(lookup().frontier.is_none());
        // A poisoned frontier is recorded, but never handed out; the OPEN
        // that finds it builds a fresh one, which replaces it.
        let poisoned = poisoned_frontier();
        cache.share(&cached, &poisoned);
        assert!(lookup().frontier.is_none());
        let fresh = re_sql::SqlExecutor::new(&db)
            .open_plan(&cached.plan)
            .unwrap();
        cache.share(&cached, fresh.frontier().unwrap());
        let id = fresh.frontier().unwrap().id();
        assert_eq!(lookup().frontier.map(|f| f.id()), Some(id));
        drop(poisoned);
    }

    #[test]
    fn planning_errors_surface_and_are_not_cached() {
        let cache = PlanCache::new(2);
        let db = db();
        assert!(cache
            .get_or_plan("d", 1, &db, "SELECT DISTINCT nope FROM T")
            .is_err());
        assert!(cache.is_empty());
        assert_eq!(cache.misses(), 1);
    }
}
