//! A database: a named collection of relations.

use crate::error::StorageError;
use crate::relation::Relation;
use std::collections::BTreeMap;
use std::sync::Arc;

/// An in-memory database instance `D`.
///
/// The paper measures everything in terms of `|D|`, the total number of
/// tuples across all relations; [`Database::size`] reports exactly that.
///
/// Relations are held behind [`Arc`]s, so cloning a database — or placing
/// one of its relations into another with [`Database::share_relation`] —
/// shares the rows instead of copying them.
#[derive(Clone, Debug, Default)]
pub struct Database {
    relations: BTreeMap<String, Arc<Relation>>,
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Insert a relation; errors if a relation with the same name exists.
    pub fn add_relation(&mut self, relation: Relation) -> Result<(), StorageError> {
        let name = relation.name().to_string();
        if self.relations.contains_key(&name) {
            return Err(StorageError::DuplicateRelation(name));
        }
        self.relations.insert(name, Arc::new(relation));
        Ok(())
    }

    /// Insert or replace a relation.
    pub fn set_relation(&mut self, relation: Relation) {
        self.share_relation(Arc::new(relation));
    }

    /// Insert or replace a relation that stays shared with its other
    /// holders (see [`Database::relation_arc`]): no row is copied.
    pub fn share_relation(&mut self, relation: Arc<Relation>) {
        self.relations.insert(relation.name().to_string(), relation);
    }

    /// Look up a relation by name.
    pub fn relation(&self, name: &str) -> Result<&Relation, StorageError> {
        self.shared(name).map(|r| &**r)
    }

    /// A shared handle to a relation, for [`Database::share_relation`].
    pub fn relation_arc(&self, name: &str) -> Result<Arc<Relation>, StorageError> {
        self.shared(name).cloned()
    }

    fn shared(&self, name: &str) -> Result<&Arc<Relation>, StorageError> {
        self.relations
            .get(name)
            .ok_or_else(|| StorageError::UnknownRelation(name.to_string()))
    }

    /// Mutable lookup of a relation by name. A relation that is shared
    /// with another database is copied first, so the change stays local.
    pub fn relation_mut(&mut self, name: &str) -> Result<&mut Relation, StorageError> {
        self.relations
            .get_mut(name)
            .map(Arc::make_mut)
            .ok_or_else(|| StorageError::UnknownRelation(name.to_string()))
    }

    /// Whether a relation exists.
    pub fn contains(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Iterate over the relations in name order.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> + '_ {
        self.relations.values().map(|r| &**r)
    }

    /// Names of all relations, in sorted order.
    pub fn relation_names(&self) -> Vec<String> {
        self.relations.keys().cloned().collect()
    }

    /// Number of relations.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Total number of tuples across all relations (`|D|`).
    pub fn size(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::attrs;

    #[test]
    fn add_and_lookup() {
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("R", attrs(["A", "B"]), vec![vec![1, 2]]).unwrap())
            .unwrap();
        db.add_relation(
            Relation::with_tuples("S", attrs(["B", "C"]), vec![vec![2, 3], vec![2, 4]]).unwrap(),
        )
        .unwrap();
        assert_eq!(db.size(), 3);
        assert_eq!(db.relation_count(), 2);
        assert_eq!(db.relation("R").unwrap().len(), 1);
        assert!(db.relation("T").is_err());
        assert!(db.contains("S"));
    }

    #[test]
    fn duplicate_relation_rejected_by_add() {
        let mut db = Database::new();
        db.add_relation(Relation::new("R", attrs(["A"]))).unwrap();
        let err = db
            .add_relation(Relation::new("R", attrs(["A"])))
            .unwrap_err();
        assert!(matches!(err, StorageError::DuplicateRelation(_)));
        // set_relation overwrites silently.
        db.set_relation(Relation::with_tuples("R", attrs(["A"]), vec![vec![7]]).unwrap());
        assert_eq!(db.relation("R").unwrap().len(), 1);
    }

    #[test]
    fn shared_relations_are_copied_only_when_written() {
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("R", attrs(["A"]), vec![vec![1]]).unwrap())
            .unwrap();
        let mut other = Database::new();
        other.share_relation(db.relation_arc("R").unwrap());
        assert!(Arc::ptr_eq(
            &db.relation_arc("R").unwrap(),
            &other.relation_arc("R").unwrap()
        ));
        other.relation_mut("R").unwrap().push(&[2]).unwrap();
        assert_eq!(other.relation("R").unwrap().len(), 2);
        assert_eq!(db.relation("R").unwrap().len(), 1);
    }

    #[test]
    fn relation_names_sorted() {
        let mut db = Database::new();
        db.add_relation(Relation::new("Zeta", attrs(["A"])))
            .unwrap();
        db.add_relation(Relation::new("Alpha", attrs(["A"])))
            .unwrap();
        assert_eq!(
            db.relation_names(),
            vec!["Alpha".to_string(), "Zeta".to_string()]
        );
    }
}
