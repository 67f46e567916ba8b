//! Binding query atoms to stored relations.

use crate::error::JoinError;
use re_query::{JoinProjectQuery, QueryError};
use re_storage::{Database, Relation};

/// Materialise each atom of `query` as a relation whose attributes are the
/// atom's query variables. Column `i` of the stored relation becomes
/// variable `vars[i]` of the atom.
///
/// Self-joins are handled naturally: each atom gets its own (cheap, data is
/// copied once per atom) relation with its own variable names, so the rest
/// of the pipeline never needs to know two atoms scan the same base table.
pub fn bind_atoms(query: &JoinProjectQuery, db: &Database) -> Result<Vec<Relation>, JoinError> {
    bind_atoms_of(query, db, 0..query.atoms().len())
}

/// Bind the atoms at `atom_indices`, in that order — the unit operators
/// that touch only part of a query use (a reducer binds its tree's nodes,
/// a GHD bag its own atoms), so no atom's rows are copied for nothing.
/// Timed as the `preprocess.bind` phase; under a request trace the span
/// carries the atoms bound and the rows copied.
pub fn bind_atoms_of(
    query: &JoinProjectQuery,
    db: &Database,
    atom_indices: impl IntoIterator<Item = usize>,
) -> Result<Vec<Relation>, JoinError> {
    let _span = re_obs::Span::enter("preprocess.bind");
    let mut trace_span = re_obs::trace::child_span("preprocess.bind");
    let bound = atom_indices
        .into_iter()
        .map(|i| bind_atom(query, db, i))
        .collect::<Result<Vec<_>, _>>()?;
    if let Some(s) = trace_span.as_mut() {
        use re_obs::AttrValue;
        s.set_attr("atoms", AttrValue::U64(bound.len() as u64));
        let rows: usize = bound.iter().map(Relation::len).sum();
        s.set_attr("rows", AttrValue::U64(rows as u64));
    }
    Ok(bound)
}

/// Bind a single atom (by index) of `query` — the per-atom unit of
/// [`bind_atoms_of`].
pub fn bind_atom(
    query: &JoinProjectQuery,
    db: &Database,
    atom_index: usize,
) -> Result<Relation, JoinError> {
    let atom = &query.atoms()[atom_index];
    let base = db.relation(&atom.relation)?;
    if base.arity() != atom.vars.len() {
        return Err(JoinError::Query(QueryError::AtomArityMismatch {
            atom: atom.name.clone(),
            relation_arity: base.arity(),
            atom_arity: atom.vars.len(),
        }));
    }
    let mut bound = base.clone();
    bound.set_name(atom.name.clone());
    bound.set_attrs(atom.vars.clone());
    Ok(bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_query::QueryBuilder;
    use re_storage::attr::attrs;
    use re_storage::Attr;

    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples("AP", attrs(["aid", "pid"]), vec![vec![1, 10], vec![2, 10]])
                .unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn self_join_gets_two_independently_named_copies() {
        let q = QueryBuilder::new()
            .atom("AP1", "AP", ["a1", "p"])
            .atom("AP2", "AP", ["a2", "p"])
            .project(["a1", "a2"])
            .build()
            .unwrap();
        let bound = bind_atoms(&q, &db()).unwrap();
        assert_eq!(bound.len(), 2);
        assert_eq!(bound[0].name(), "AP1");
        assert_eq!(bound[0].attrs(), &[Attr::new("a1"), Attr::new("p")]);
        assert_eq!(bound[1].attrs(), &[Attr::new("a2"), Attr::new("p")]);
        assert_eq!(bound[0].len(), 2);
    }

    #[test]
    fn arity_mismatch_detected() {
        let q = QueryBuilder::new()
            .atom("AP1", "AP", ["a1", "p", "extra"])
            .project(["a1"])
            .build()
            .unwrap();
        assert!(bind_atoms(&q, &db()).is_err());
    }

    #[test]
    fn missing_relation_detected() {
        let q = QueryBuilder::new()
            .atom("X", "DoesNotExist", ["a", "b"])
            .project(["a"])
            .build()
            .unwrap();
        assert!(bind_atoms(&q, &db()).is_err());
    }
}
