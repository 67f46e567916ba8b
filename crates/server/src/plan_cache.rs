//! The LRU plan cache.
//!
//! Planning a statement (parse, resolve, unify variables, pick an order
//! spec, decide each branch's algorithm and join tree) is pure given the
//! database schema, so plans are cached behind `Arc` and shared across
//! sessions and worker threads. The key is the catalog name plus the
//! **normalised** statement text ([`re_sql::normalize()`]), so spelling
//! variants of the same statement hit the same entry. The physical
//! decision lives inside the plan ([`SqlPlan::branches`]), so a hit hands
//! OPEN its join tree ready-made and the cache records nothing of its own.

use re_sql::{parse, plan, SqlError, SqlPlan};
use re_storage::Database;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

struct Entry {
    plan: Arc<SqlPlan>,
    /// Logical timestamp of the last hit (for LRU eviction).
    last_used: u64,
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
    /// `Arc`s inserted/removed atomically, so inner state stays valid even
    /// if a holder panicked).
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
        let normalized = re_sql::normalize(sql)?;
        let key = Self::key(db_name, generation, &normalized);
        let now = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        {
            let mut map = self.lock();
            if let Some(entry) = map.get_mut(&key) {
                entry.last_used = now;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((Arc::clone(&entry.plan), true));
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
            key,
            Entry {
                plan: Arc::clone(&planned),
                last_used: now,
            },
        );
        Ok((planned, false))
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
