//! The answer oracle.
//!
//! Two checks, both independent of the enumerators and of the SQL
//! front-end:
//!
//! * [`PageCheck`] runs on every page of every session: ranks (recomputed
//!   from the row, weights being the values) never decrease, and no
//!   projected tuple repeats.
//! * [`verify_prefix`] compares the first rows of a session — and, when the
//!   session ran to exhaustion, the total count — with
//!   [`MaterializeSortEngine`] evaluating the statement's equivalent query.
//!
//! Materialise-and-sort pays for the whole unprojected join, which for a
//! 4-hop on 5 000 edges is eight million tuples. Weights are non-negative,
//! so an answer ranked at or before a row with key `K` has both
//! coordinates `≤ K` (first coordinate `≤` the row's, for a lexicographic
//! order): the oracle restricts the two projecting atoms' relations to
//! those values first, which keeps every answer the comparison needs and
//! makes the reference cost follow the prefix length, not the join size.

use crate::harness::data::{Chain, Order, Stmt, RELATION};
use re_baseline::MaterializeSortEngine;
use re_ranking::SumRanking;
use re_storage::{Database, Relation, Tuple, Value};
use std::collections::HashSet;

/// Rows of a session the oracle compares with the reference.
pub const PREFIX_ROWS: usize = 1000;

/// The rank of a row: its value sum, or the row itself.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Key {
    Sum(u128),
    Lex(Tuple),
}

pub fn key(order: Order, row: &[Value]) -> Key {
    match order {
        Order::Sum => Key::Sum(row.iter().map(|&v| u128::from(v)).sum()),
        Order::Lex => Key::Lex(row.to_vec()),
    }
}

/// Per-session page checker. Ranks never decrease, so a repeated tuple can
/// only sit among the rows sharing the current rank: those are the only
/// ones remembered.
pub struct PageCheck {
    order: Order,
    last: Option<Key>,
    tie_group: HashSet<Tuple>,
}

impl PageCheck {
    pub fn new(order: Order) -> PageCheck {
        PageCheck {
            order,
            last: None,
            tie_group: HashSet::new(),
        }
    }

    /// Check the next page of the session.
    pub fn page(&mut self, rows: &[Tuple]) -> Result<(), String> {
        for row in rows {
            let k = key(self.order, row);
            match &self.last {
                Some(last) if k < *last => {
                    return Err(format!("rank decreased at row {row:?}"));
                }
                Some(last) if k == *last => {}
                _ => self.tie_group.clear(),
            }
            if !self.tie_group.insert(row.clone()) {
                return Err(format!("row {row:?} repeated"));
            }
            self.last = Some(k);
        }
        Ok(())
    }
}

/// The reference answers of a statement, restricted as far as comparing a
/// given prefix allows.
pub struct Reference {
    /// `(key, row)` in rank order (ties by row).
    rows: Vec<(Key, Tuple)>,
}

/// Upper bounds on the two projected columns; `None` is unbounded.
type Bounds = [Option<Value>; 2];

/// The relation of `db` with rows kept where column `col` is at most
/// `bound` and, for a point chain's first atom, `aid` equals the constant.
fn restricted(
    db: &Database,
    name: &str,
    col: usize,
    bound: Option<Value>,
    aid: Option<Value>,
) -> Relation {
    let mut rel = db.relation(RELATION).expect("dataset relation").clone();
    rel.set_name(name);
    rel.retain(|t| bound.is_none_or(|b| t[col] <= b) && aid.is_none_or(|c| t[0] == c));
    rel
}

fn branch_rows(db: &Database, chain: &Chain, bounds: Bounds) -> Result<Vec<Tuple>, String> {
    let mut work = Database::new();
    work.add_relation(db.relation(RELATION).expect("dataset relation").clone())
        .map_err(|e| e.to_string())?;
    work.add_relation(restricted(db, "First", 0, bounds[0], chain.point))
        .map_err(|e| e.to_string())?;
    work.add_relation(restricted(db, "Last", chain.last.index(), bounds[1], None))
        .map_err(|e| e.to_string())?;
    let query = chain.query("First", "Last");
    let (rows, _) = MaterializeSortEngine::new()
        .top_k(&query, &work, &SumRanking::value_sum(), usize::MAX)
        .map_err(|e| format!("reference engine: {e}"))?;
    Ok(rows)
}

impl Reference {
    /// Every answer of `stmt` over `db` whose columns respect `bounds`.
    pub fn compute(stmt: &Stmt, db: &Database, bounds: Bounds) -> Result<Reference, String> {
        let mut distinct: HashSet<Tuple> = HashSet::new();
        for chain in &stmt.branches {
            distinct.extend(branch_rows(db, chain, bounds)?);
        }
        let mut rows: Vec<(Key, Tuple)> = distinct
            .into_iter()
            .map(|row| (key(stmt.order, &row), row))
            .collect();
        rows.sort();
        Ok(Reference { rows })
    }
}

/// Compare the first rows a session returned with the reference: rank by
/// rank equal, every row an answer. (Within a rank the server may order
/// ties as it likes; [`PageCheck`] already excluded repeats.) `exhausted`
/// sessions must also have returned every answer: `total` is their row
/// count.
pub fn verify_prefix(
    stmt: &Stmt,
    db: &Database,
    prefix: &[Tuple],
    exhausted: bool,
    total: usize,
) -> Result<(), String> {
    let bounds: Bounds = match (exhausted, prefix.last()) {
        (true, _) | (false, None) => [None, None],
        (false, Some(last)) => match key(stmt.order, last) {
            Key::Sum(k) => {
                let b = Value::try_from(k).unwrap_or(Value::MAX);
                [Some(b), Some(b)]
            }
            Key::Lex(row) => [Some(row[0]), None],
        },
    };
    let reference = Reference::compute(stmt, db, bounds)?;
    if exhausted && reference.rows.len() != total {
        return Err(format!(
            "exhausted after {total} rows, reference has {}",
            reference.rows.len()
        ));
    }
    if reference.rows.len() < prefix.len() {
        return Err(format!(
            "{} rows returned, reference has only {}",
            prefix.len(),
            reference.rows.len()
        ));
    }
    let answers: HashSet<&Tuple> = reference.rows.iter().map(|(_, r)| r).collect();
    for (i, row) in prefix.iter().enumerate() {
        if key(stmt.order, row) != reference.rows[i].0 {
            return Err(format!(
                "row {i} is {row:?}, reference rank there is {:?}",
                reference.rows[i].0
            ));
        }
        if !answers.contains(row) {
            return Err(format!("row {i} {row:?} is not an answer"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::data::{generate, Sizes};

    #[test]
    fn page_check_accepts_ties_and_rejects_disorder_and_repeats() {
        let mut c = PageCheck::new(Order::Sum);
        assert!(c.page(&[vec![1, 1], vec![1, 2], vec![2, 1]]).is_ok());
        assert!(c.page(&[vec![0, 3], vec![2, 2]]).is_ok());
        assert!(c.page(&[vec![2, 1]]).is_err(), "rank 3 after rank 4");
        let mut c = PageCheck::new(Order::Sum);
        assert!(c.page(&[vec![1, 2]]).is_ok());
        assert!(c.page(&[vec![2, 1], vec![1, 2]]).is_err(), "repeat");
        let mut c = PageCheck::new(Order::Lex);
        assert!(c.page(&[vec![1, 5], vec![2, 0]]).is_ok());
        assert!(c.page(&[vec![2, 0]]).is_err(), "repeat under lex");
        assert!(c.page(&[vec![1, 9]]).is_err(), "lex order decreased");
    }

    /// The restricted reference must be a rank-order prefix of the full one.
    #[test]
    fn bounded_reference_is_a_prefix_of_the_unbounded_one() {
        let db = generate("mid", &Sizes::SMOKE, 42);
        for stmt in [
            Stmt::sum2("mid"),
            Stmt::lex2("mid"),
            Stmt::sum3("mid"),
            Stmt::union23("mid"),
        ] {
            let full = Reference::compute(&stmt, &db, [None, None]).unwrap();
            assert!(full.rows.len() > 50, "{}", stmt.class);
            let prefix: Vec<Tuple> = full.rows[..50].iter().map(|(_, r)| r.clone()).collect();
            verify_prefix(&stmt, &db, &prefix, false, 50).unwrap();
            let all: Vec<Tuple> = full.rows.iter().map(|(_, r)| r.clone()).collect();
            verify_prefix(&stmt, &db, &all, true, all.len()).unwrap();
            assert!(
                verify_prefix(&stmt, &db, &all, true, all.len() + 1).is_err(),
                "a wrong total must be caught"
            );
            let mut wrong = prefix.clone();
            wrong[10] = vec![Value::MAX / 4, 0];
            assert!(verify_prefix(&stmt, &db, &wrong, false, 50).is_err());
            let mut skipped = prefix;
            skipped.remove(0);
            assert!(
                verify_prefix(&stmt, &db, &skipped, false, 49).is_err()
                    || key(stmt.order, &skipped[0]) == full.rows[0].0,
                "dropping the best answer shifts a rank unless it was tied"
            );
        }
    }

    #[test]
    fn point_statements_are_filtered_in_the_reference() {
        let db = generate("mid", &Sizes::SMOKE, 42);
        let c = crate::harness::data::point_constants(&db, 4)[1];
        let stmt = Stmt::point("mid", c);
        let r = Reference::compute(&stmt, &db, [None, None]).unwrap();
        assert!(!r.rows.is_empty());
        assert!(r.rows.iter().all(|(_, row)| row[0] == c));
    }
}
