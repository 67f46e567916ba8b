//! Hash joins and full-join materialisation.
//!
//! The baselines of the paper's evaluation (MariaDB, PostgreSQL, Neo4j)
//! all execute ranked join-project queries by *materialising* the full
//! join with binary joins, then deduplicating and sorting — [`full_join`] +
//! [`project_distinct`] reproduce that blocking plan.

use crate::error::JoinError;
use crate::reducer::shared_attrs;
use re_query::JoinProjectQuery;
use re_storage::{project_key, Attr, Database, HashIndex, KeyTable, Relation, Value};

/// Natural hash join of two relations on their shared attributes. The
/// output schema is `left`'s attributes followed by `right`'s non-shared
/// attributes. A cartesian product is produced when no attribute is shared.
pub fn hash_join(left: &Relation, right: &Relation, out_name: &str) -> Result<Relation, JoinError> {
    let shared = shared_attrs(left, right);
    let right_extra: Vec<Attr> = right
        .attrs()
        .iter()
        .filter(|a| !shared.contains(a))
        .cloned()
        .collect();
    let mut out_attrs: Vec<Attr> = left.attrs().to_vec();
    out_attrs.extend(right_extra.iter().cloned());
    let mut out = Relation::new(out_name, out_attrs);
    // Pre-size for the one-match-per-probe case (the common shape after a
    // reducer pass); heavier keys grow the buffer amortised as usual.
    out.reserve_rows(left.len());

    // Output-order contract: build on `right`, probe `left` in storage
    // order, and emit each probe's matches in ascending right-row order
    // (index groups ascend in storage order). Callers that read the rows
    // unsorted (`full_join`, the star enumerator's all-heavy join) see
    // exactly this order, so keep the build/probe side choice stable.
    let right_index = HashIndex::build(right, &shared)?;
    let left_shared_pos = left.positions(&shared)?;
    let right_extra_pos = right.positions(&right_extra)?;

    let mut key: Vec<Value> = Vec::new();
    let mut row: Vec<Value> = Vec::with_capacity(left.arity() + right_extra.len());
    for lt in left.iter() {
        for &rid in right_index.rows(project_key(lt, &left_shared_pos, &mut key)) {
            let rt = right.tuple(rid as usize);
            row.clear();
            row.extend_from_slice(lt);
            row.extend(right_extra_pos.iter().map(|&p| rt[p]));
            out.push_unchecked(&row);
        }
    }
    Ok(out)
}

/// Materialise the full natural join of every atom of the query, in atom
/// declaration order (a left-deep binary join plan — exactly the shape the
/// RDBMS baselines of the paper use). The output schema is the union of the
/// query variables in first-appearance order.
pub fn full_join(query: &JoinProjectQuery, db: &Database) -> Result<Relation, JoinError> {
    let bound = crate::bind::bind_atoms(query, db)?;
    let mut iter = bound.into_iter();
    let mut acc = iter.next().expect("queries have at least one atom");
    for next in iter {
        acc = hash_join(&acc, &next, "join")?;
    }
    acc.set_name("full_join");
    Ok(acc)
}

/// `SELECT DISTINCT` projection of a relation onto `attrs`.
pub fn project_distinct(rel: &Relation, attrs: &[Attr]) -> Result<Relation, JoinError> {
    let pos = rel.positions(attrs)?;
    let mut out = Relation::new(format!("πd({})", rel.name()), attrs.to_vec());
    if !pos.is_empty() {
        // The table's key slab *is* the projection: distinct keys, back to
        // back, in first-occurrence order.
        out.append_rows(KeyTable::of_rows(rel.iter(), &pos).flat_keys());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_query::QueryBuilder;
    use re_storage::attr::attrs;

    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples(
                "R",
                attrs(["A", "B"]),
                vec![vec![1, 1], vec![2, 1], vec![3, 2]],
            )
            .unwrap(),
        )
        .unwrap();
        db.add_relation(
            Relation::with_tuples(
                "S",
                attrs(["B", "C"]),
                vec![vec![1, 10], vec![1, 20], vec![2, 30]],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn hash_join_on_shared_attr() {
        let db = db();
        let out = hash_join(db.relation("R").unwrap(), db.relation("S").unwrap(), "RS").unwrap();
        assert_eq!(out.arity(), 3);
        assert_eq!(out.len(), 5); // (1,1)x2, (2,1)x2, (3,2)x1
        assert_eq!(out.attrs()[2], Attr::new("C"));
    }

    #[test]
    fn hash_join_cartesian_when_disjoint() {
        let a = Relation::with_tuples("A", attrs(["X"]), vec![vec![1], vec![2]]).unwrap();
        let b = Relation::with_tuples("B", attrs(["Y"]), vec![vec![7], vec![8], vec![9]]).unwrap();
        let out = hash_join(&a, &b, "AB").unwrap();
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn project_distinct_removes_duplicates() {
        let db = db();
        let q = QueryBuilder::new()
            .atom("R1", "R", ["A1", "B"])
            .atom("R2", "R", ["A2", "B"])
            .project(["B"])
            .build()
            .unwrap();
        let fj = full_join(&q, &db).unwrap();
        assert_eq!(fj.len(), 5); // B=1 pairs: 2x2=4, B=2 pairs: 1
        let d = project_distinct(&fj, &attrs(["B"])).unwrap();
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn three_atom_self_join_counts() {
        let db = db();
        // 2-hop over R as a graph on (A,B): pairs of A joined through B.
        let q = QueryBuilder::new()
            .atom("R1", "R", ["a1", "b"])
            .atom("R2", "R", ["a2", "b"])
            .project(["a1", "a2"])
            .build()
            .unwrap();
        let fj = full_join(&q, &db).unwrap();
        assert_eq!(fj.len(), 5);
        let d = project_distinct(&fj, &attrs(["a1", "a2"])).unwrap();
        assert_eq!(d.len(), 5); // (1,1),(1,2),(2,1),(2,2),(3,3)
    }
}
