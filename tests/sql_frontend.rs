//! Integration tests for the SQL front-end: statements written the way the
//! paper writes its workload queries (Figure 4) must produce exactly the
//! same answers as the equivalent queries built through the programmatic
//! API, and the answers must satisfy the ranked-enumeration contract.

mod common;

use common::{assert_valid_ranked_output, reference_answers, reference_union_answers};
use proptest::prelude::*;
use rankedenum::prelude::*;
use rankedenum::sql::{PlannedQuery, SqlError};

/// A DBLP-shaped database with a membership relation and a dimension table.
fn dblp_db() -> Database {
    let mut author_papers = Vec::new();
    let mut papers = Vec::new();
    for p in 0u64..40 {
        let pid = 1000 + p;
        for aid in [1 + p % 11, 15 + p % 7, 25 + (p * 3) % 5] {
            author_papers.push(vec![aid, pid]);
        }
        papers.push(vec![pid, u64::from(p % 4 != 0)]);
    }
    let mut db = Database::new();
    db.add_relation(
        Relation::with_tuples("AuthorPapers", attrs(["aid", "pid"]), author_papers).unwrap(),
    )
    .unwrap();
    db.add_relation(Relation::with_tuples("Paper", attrs(["pid", "is_research"]), papers).unwrap())
        .unwrap();
    db
}

#[test]
fn sql_two_hop_matches_programmatic_query() {
    let db = dblp_db();
    let via_sql = sql_query(
        &db,
        "SELECT DISTINCT AP1.aid, AP2.aid FROM AuthorPapers AS AP1, AuthorPapers AS AP2 \
         WHERE AP1.pid = AP2.pid ORDER BY AP1.aid + AP2.aid",
    )
    .unwrap();

    let query = QueryBuilder::new()
        .atom("AP1", "AuthorPapers", ["AP1.aid", "p"])
        .atom("AP2", "AuthorPapers", ["AP2.aid", "p"])
        .project(["AP1.aid", "AP2.aid"])
        .build()
        .unwrap();
    let ranking = SumRanking::value_sum();
    let direct: Vec<Tuple> = AcyclicEnumerator::new(&query, &db, ranking.clone())
        .unwrap()
        .collect();
    assert_eq!(via_sql.rows, direct);

    let reference = reference_answers(&query, &db, &ranking);
    assert_valid_ranked_output(&via_sql.rows, &reference, &query, &ranking);
}

#[test]
fn sql_filtered_three_hop_matches_reference() {
    let db = dblp_db();
    let via_sql = sql_query(
        &db,
        "SELECT DISTINCT AP1.aid, AP3.aid \
         FROM AuthorPapers AS AP1, AuthorPapers AS AP2, AuthorPapers AS AP3, Paper AS P \
         WHERE AP1.pid = AP2.pid AND AP2.aid = AP3.aid AND AP3.pid = P.pid \
           AND P.is_research = TRUE \
         ORDER BY AP1.aid + AP3.aid",
    )
    .unwrap();

    // Reference: filter the Paper relation by hand, then run the equivalent
    // programmatic query.
    let mut filtered = db.clone();
    let research = filtered
        .relation("Paper")
        .unwrap()
        .select_eq(&Attr::new("is_research"), 1)
        .unwrap();
    filtered.set_relation({
        let mut r = research;
        r.set_name("ResearchPaper");
        r
    });
    let query = QueryBuilder::new()
        .atom("AP1", "AuthorPapers", ["AP1.aid", "p1"])
        .atom("AP2", "AuthorPapers", ["mid", "p1"])
        .atom("AP3", "AuthorPapers", ["mid", "p2"])
        .atom("P", "ResearchPaper", ["p2", "flag"])
        .project(["AP1.aid", "mid"])
        .build()
        .unwrap();
    let ranking = SumRanking::value_sum();
    let reference = reference_answers(&query, &filtered, &ranking);
    // Attribute names differ between the SQL plan and the handwritten query
    // ("AP3.aid" vs our alias), so compare as ranked sets of tuples.
    assert_eq!(via_sql.rows.len(), reference.len());
    let got: std::collections::HashSet<Tuple> = via_sql.rows.iter().cloned().collect();
    let want: std::collections::HashSet<Tuple> = reference.iter().cloned().collect();
    assert_eq!(got, want);
    // and the SQL answers are in non-decreasing endpoint-sum order
    let sums: Vec<u64> = via_sql.rows.iter().map(|r| r[0] + r[1]).collect();
    assert!(sums.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn selecting_the_same_unified_column_collapses_to_one() {
    // SELECTing the same unified column twice collapses to one output column
    // (set semantics over the projected variables).
    let db = dblp_db();
    let result = sql_query(
        &db,
        "SELECT DISTINCT AP1.aid, AP2.aid FROM AuthorPapers AS AP1, AuthorPapers AS AP2 \
         WHERE AP1.aid = AP2.aid ORDER BY AP1.aid",
    )
    .unwrap();
    assert!(result.rows.iter().all(|r| r.len() == 1));
    let mut authors: Vec<u64> = result.rows.iter().map(|r| r[0]).collect();
    let mut sorted = authors.clone();
    sorted.sort_unstable();
    assert_eq!(authors, sorted);
    authors.dedup();
    assert_eq!(authors.len(), result.rows.len());
}

#[test]
fn sql_limit_is_a_prefix_of_the_unlimited_answer() {
    let db = dblp_db();
    let sql_all = "SELECT DISTINCT AP1.aid, AP2.aid \
                   FROM AuthorPapers AS AP1, AuthorPapers AS AP2 \
                   WHERE AP1.pid = AP2.pid ORDER BY AP1.aid + AP2.aid";
    let all = sql_query(&db, sql_all).unwrap();
    for k in [1usize, 5, 17, 100] {
        let limited = sql_query(&db, &format!("{sql_all} LIMIT {k}")).unwrap();
        let expect = k.min(all.rows.len());
        assert_eq!(limited.rows.len(), expect);
        assert_eq!(&limited.rows[..], &all.rows[..expect]);
    }
}

#[test]
fn sql_union_equals_manual_union_query() {
    let mut db = dblp_db();
    db.add_relation(
        Relation::with_tuples(
            "PersonMovie",
            attrs(["pid", "mid"]),
            vec![vec![2, 7], vec![3, 7], vec![9, 8], vec![2, 8]],
        )
        .unwrap(),
    )
    .unwrap();
    let via_sql = sql_query(
        &db,
        "SELECT DISTINCT AP1.aid, AP2.aid FROM AuthorPapers AS AP1, AuthorPapers AS AP2 \
         WHERE AP1.pid = AP2.pid \
         UNION \
         SELECT DISTINCT PM1.pid, PM2.pid FROM PersonMovie AS PM1, PersonMovie AS PM2 \
         WHERE PM1.mid = PM2.mid \
         ORDER BY PM1.pid + PM2.pid",
    )
    .unwrap();

    let branch = |rel: &str, x: &str, y: &str, c: &str| {
        QueryBuilder::new()
            .atom("B1", rel, [x, c])
            .atom("B2", rel, [y, c])
            .project([x, y])
            .build()
            .unwrap()
    };
    let b1 = branch("AuthorPapers", "AP1.aid", "AP2.aid", "p");
    let b2 = branch("PersonMovie", "AP1.aid", "AP2.aid", "m");
    let union = UnionQuery::new(vec![b1, b2]).unwrap();
    let direct: Vec<Tuple> = UnionEnumerator::new(&union, &db, SumRanking::value_sum())
        .unwrap()
        .collect();
    assert_eq!(via_sql.rows, direct);
}

/// A later branch may reuse the first branch's aliases: its selected
/// columns take the first branch's output names, and its own column that
/// spells one of those names stays a separate variable.
#[test]
fn sql_union_branches_may_share_aliases() {
    let db = dblp_db();
    let via_sql = sql_query(
        &db,
        "SELECT DISTINCT AP1.aid, AP2.aid FROM AuthorPapers AS AP1, AuthorPapers AS AP2 \
         WHERE AP1.pid = AP2.pid \
         UNION \
         SELECT DISTINCT AP1.pid, AP2.pid FROM AuthorPapers AS AP1, AuthorPapers AS AP2 \
         WHERE AP1.aid = AP2.aid \
         ORDER BY AP1.pid + AP2.pid",
    )
    .unwrap();

    let branch = |first: [&str; 2], second: [&str; 2]| {
        QueryBuilder::new()
            .atom("B1", "AuthorPapers", first)
            .atom("B2", "AuthorPapers", second)
            .project(["x", "y"])
            .build()
            .unwrap()
    };
    let co_authors = branch(["x", "shared"], ["y", "shared"]);
    let co_papers = branch(["shared", "x"], ["shared", "y"]);
    let union = UnionQuery::new(vec![co_authors, co_papers]).unwrap();
    let expected = reference_union_answers(&union, &db, &SumRanking::value_sum());
    assert!(expected.iter().any(|t| t[0] >= 1000) && expected.iter().any(|t| t[0] < 1000));
    assert_eq!(via_sql.rows, expected);
}

#[test]
fn sql_error_paths_are_reported_not_panicked() {
    let db = dblp_db();
    for (sql, kind) in [
        ("SELECT DISTINCT x FROM", "parse"),
        ("SELECT DISTINCT x FROM NoTable", "resolution"),
        (
            "SELECT DISTINCT AP.nope FROM AuthorPapers AS AP",
            "resolution",
        ),
        ("SELECT aid FROM AuthorPapers", "unsupported"),
        (
            "SELECT DISTINCT AP.aid FROM AuthorPapers AS AP ORDER BY AP.pid",
            "unsupported",
        ),
    ] {
        let err = sql_query(&db, sql).unwrap_err();
        match kind {
            "parse" => assert!(matches!(err, SqlError::Parse { .. }), "{sql}: {err}"),
            "resolution" => assert!(matches!(err, SqlError::Resolution(_)), "{sql}: {err}"),
            _ => assert!(matches!(err, SqlError::Unsupported(_)), "{sql}: {err}"),
        }
    }
}

/// Statements of the shapes the workloads send: 2-hop SUM, filtered 3-atom
/// LEX, point selection, UNION, `EXPLAIN ANALYZE`.
const STATEMENTS: [&str; 5] = [
    "SELECT DISTINCT AP1.aid, AP2.aid FROM AuthorPapers AS AP1, AuthorPapers AS AP2 \
     WHERE AP1.pid = AP2.pid ORDER BY AP1.aid + AP2.aid LIMIT 10;",
    "SELECT DISTINCT AP1.aid, AP2.aid FROM AuthorPapers AS AP1, AuthorPapers AS AP2, Paper P \
     WHERE AP1.pid = AP2.pid AND AP1.pid = P.pid AND P.is_research = TRUE \
     ORDER BY AP1.aid DESC, AP2.aid ASC",
    "SELECT DISTINCT AP2.aid FROM AuthorPapers AS AP1, AuthorPapers AS AP2 \
     WHERE AP1.pid = AP2.pid AND AP1.aid = 3 -- point\n ORDER BY AP2.aid",
    "SELECT DISTINCT AP1.aid FROM AuthorPapers AS AP1 \
     UNION SELECT DISTINCT P.pid FROM Paper AS P ORDER BY P.pid LIMIT 7",
    "EXPLAIN ANALYZE SELECT DISTINCT aid FROM AuthorPapers ORDER BY aid",
];

/// The lexer's whole inventory plus what it rejects, and enough names to
/// resolve against [`dblp_db`] now and then.
#[rustfmt::skip]
const SQL_SOUP: [&str; 40] = [
    "SELECT", "DISTINCT", "FROM", "WHERE", "AND", "ORDER", "BY", "LIMIT", "AS", "UNION", "ASC",
    "DESC", "TRUE", "FALSE", "EXPLAIN", "ANALYZE", "select", "AuthorPapers", "Paper", "AP1", "AP2",
    "aid", "pid", "is_research", "_x", ",", ".", "+", "=", ";", "-", "--", "\n", "0", "7",
    "18446744073709551616", "(", "'", "é", "\u{1F600}",
];

/// Outcome unspecified; returning at all — no panic, no hang — is the
/// property, from the lexer to the planner.
fn feed_the_front_end(db: &Database, sql: &str) {
    let _ = rankedenum::sql::tokenize(sql);
    let _ = rankedenum::sql::parse(sql);
    let _ = rankedenum::sql::parse_input(sql);
    let _ = SqlExecutor::new(db).plan(sql);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn sql_token_soup_never_panics_the_front_end(
        picks in prop::collection::vec(0usize..SQL_SOUP.len(), 0..40),
        glue in prop::collection::vec(any::<bool>(), 40..41),
    ) {
        let mut sql = String::new();
        for (&i, &spaced) in picks.iter().zip(&glue) {
            sql.push_str(SQL_SOUP[i]);
            if spaced {
                sql.push(' ');
            }
        }
        feed_the_front_end(&dblp_db(), &sql);
    }

    #[test]
    fn damaged_statements_never_panic_the_front_end(
        statement in 0usize..STATEMENTS.len(),
        damage in 0u8..3,
        at in 0usize..4096,
        byte in any::<u8>(),
    ) {
        let mut bytes = STATEMENTS[statement].as_bytes().to_vec();
        let at = at % bytes.len();
        match damage {
            0 => bytes[at] = byte,
            1 => drop(bytes.remove(at)),
            _ => bytes.truncate(at),
        }
        // A request that is not UTF-8 never reaches the SQL layer; the
        // lossy form keeps the case, with a multi-byte character where the
        // damage was.
        feed_the_front_end(&dblp_db(), &String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn sql_plan_exposes_the_compiled_query_shape() {
    let db = dblp_db();
    let exec = SqlExecutor::new(&db);
    let plan = exec
        .plan(
            "SELECT DISTINCT AP1.aid, AP2.aid \
             FROM AuthorPapers AS AP1, AuthorPapers AS AP2, Paper AS P \
             WHERE AP1.pid = AP2.pid AND AP1.pid = P.pid AND P.is_research = TRUE \
             ORDER BY AP1.aid + AP2.aid LIMIT 10",
        )
        .unwrap();
    let PlannedQuery::Single(q) = &plan.query else {
        panic!("expected a single join-project query");
    };
    assert_eq!(q.atoms().len(), 3);
    assert_eq!(q.projection().len(), 2);
    assert!(!q.is_full());
    assert_eq!(plan.limit, Some(10));
    assert_eq!(plan.derived.len(), 1);
    assert_eq!(plan.output_columns, vec!["AP1.aid", "AP2.aid"]);
}
