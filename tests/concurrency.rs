//! Concurrent use of the library: N threads share one `Arc<Database>`,
//! each running `top_k` calls and paging cursors, and every thread must
//! see exactly the single-threaded rank-ordered result. This is the
//! contract the server subsystem builds on — enumerators own their inputs
//! and are `Send`, and a shared database needs no locking because it is
//! never mutated.

use rankedenum::prelude::*;
use std::sync::Arc;

/// A co-authorship database with enough overlap to make ties and
/// duplicates likely.
fn build_db() -> Database {
    let mut rows = Vec::new();
    for paper in 0..25u64 {
        for slot in 0..3u64 {
            rows.push(vec![(paper * 5 + slot * 11) % 31, 500 + paper]);
        }
    }
    let mut db = Database::new();
    db.add_relation(Relation::with_tuples("AP", attrs(["aid", "pid"]), rows).unwrap())
        .unwrap();
    db
}

fn two_hop() -> JoinProjectQuery {
    QueryBuilder::new()
        .atom("AP1", "AP", ["a1", "p"])
        .atom("AP2", "AP", ["a2", "p"])
        .project(["a1", "a2"])
        .build()
        .unwrap()
}

const SQL: &str = "SELECT DISTINCT AP1.aid, AP2.aid FROM AP AS AP1, AP AS AP2 \
                   WHERE AP1.pid = AP2.pid ORDER BY AP1.aid + AP2.aid";

#[test]
fn threads_sharing_one_database_agree_with_the_single_threaded_run() {
    let db = Arc::new(build_db());
    let query = two_hop();

    // Single-threaded references.
    let reference_topk = top_k(&query, &db, SumRanking::value_sum(), 40).unwrap();
    let reference_sql = SqlExecutor::new(&*db).run(SQL).unwrap().rows;
    assert!(
        reference_topk.len() == 40,
        "workload has at least 40 answers"
    );

    let threads = 8;
    let handles: Vec<_> = (0..threads)
        .map(|i| {
            let db = Arc::clone(&db);
            let query = query.clone();
            let reference_topk = reference_topk.clone();
            let reference_sql = reference_sql.clone();
            std::thread::spawn(move || {
                // Direct enumerator API against the shared database.
                let got = top_k(&query, &db, SumRanking::value_sum(), 40).unwrap();
                assert_eq!(got, reference_topk, "thread {i}: top_k diverged");

                // Cursor paging through the owned executor, page size
                // varying per thread to vary the interleaving.
                let exec = OwnedSqlExecutor::new(Arc::clone(&db));
                let mut cursor = exec.open(SQL).unwrap();
                let page_size = 3 + i;
                let mut collected = Vec::new();
                while !cursor.is_exhausted() {
                    let page = cursor.fetch(page_size);
                    if page.is_empty() {
                        break;
                    }
                    collected.extend(page);
                }
                assert_eq!(collected, reference_sql, "thread {i}: cursor diverged");
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // The references themselves are duplicate-free and rank-ordered.
    let mut seen = std::collections::HashSet::new();
    let mut last = 0u64;
    for row in &reference_sql {
        assert!(seen.insert(row.clone()), "duplicate {row:?}");
        let sum = row[0] + row[1];
        assert!(sum >= last, "out of rank order");
        last = sum;
    }
}

#[test]
fn cursors_opened_on_one_thread_resume_on_others() {
    let db = Arc::new(build_db());
    let exec = OwnedSqlExecutor::new(Arc::clone(&db));
    let reference = SqlExecutor::new(&*db).run(SQL).unwrap().rows;

    // Open on the main thread, fetch the first page here...
    let mut cursor = exec.open(SQL).unwrap();
    let mut collected = cursor.fetch(5);

    // ...then bounce the live cursor across a chain of threads, fetching a
    // page on each (the session-table migration pattern).
    for _hop in 0..4 {
        let (mut moved, mut sofar) = (cursor, collected);
        let handle = std::thread::spawn(move || {
            sofar.extend(moved.fetch(5));
            (moved, sofar)
        });
        (cursor, collected) = handle.join().unwrap();
    }
    collected.extend(cursor.fetch_all());
    assert_eq!(collected, reference);
}
