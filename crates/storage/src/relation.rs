//! Relations: named, flat, row-major tables over a fixed attribute schema.

use crate::attr::Attr;
use crate::error::StorageError;
use crate::keytable::KeyTable;
use crate::value::{Tuple, Value};
use std::collections::HashSet;

/// A relation instance `R(A_1, ..., A_a)`.
///
/// Tuples are stored row-major in a single flat `Vec<Value>`; the `i`-th
/// tuple occupies `data[i*arity .. (i+1)*arity]`. All operations that the
/// enumeration algorithms need — projection, selection, semi-join filtering,
/// degree counting — are positional and allocation-conscious.
#[derive(Clone, Debug)]
pub struct Relation {
    name: String,
    attrs: Vec<Attr>,
    data: Vec<Value>,
}

impl Relation {
    /// Create an empty relation with the given name and schema.
    pub fn new(name: impl Into<String>, attrs: impl IntoIterator<Item = impl Into<Attr>>) -> Self {
        Relation {
            name: name.into(),
            attrs: attrs.into_iter().map(Into::into).collect(),
            data: Vec::new(),
        }
    }

    /// Create a relation and bulk-load tuples.
    pub fn with_tuples(
        name: impl Into<String>,
        attrs: impl IntoIterator<Item = impl Into<Attr>>,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<Self, StorageError> {
        let mut rel = Relation::new(name, attrs);
        for t in tuples {
            rel.push(&t)?;
        }
        Ok(rel)
    }

    /// The relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the relation (used when the same base table appears under
    /// several aliases in a self-join).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The attribute schema, in storage order.
    pub fn attrs(&self) -> &[Attr] {
        &self.attrs
    }

    /// Rename the attributes (used for self-join aliases). The new schema
    /// must have the same arity.
    pub fn set_attrs(&mut self, attrs: impl IntoIterator<Item = impl Into<Attr>>) {
        let new: Vec<Attr> = attrs.into_iter().map(Into::into).collect();
        assert_eq!(new.len(), self.attrs.len(), "set_attrs must preserve arity");
        self.attrs = new;
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        if self.attrs.is_empty() {
            0
        } else {
            self.data.len() / self.attrs.len()
        }
    }

    /// Whether the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Position of an attribute in the schema.
    pub fn position(&self, attr: &Attr) -> Option<usize> {
        self.attrs.iter().position(|a| a == attr)
    }

    /// Positions of several attributes; errors if any attribute is missing.
    pub fn positions(&self, attrs: &[Attr]) -> Result<Vec<usize>, StorageError> {
        attrs
            .iter()
            .map(|a| {
                self.position(a)
                    .ok_or_else(|| StorageError::UnknownAttribute {
                        relation: self.name.clone(),
                        attribute: a.as_str().to_string(),
                    })
            })
            .collect()
    }

    /// Append a tuple.
    pub fn push(&mut self, tuple: &[Value]) -> Result<(), StorageError> {
        if tuple.len() != self.arity() {
            return Err(StorageError::ArityMismatch {
                relation: self.name.clone(),
                expected: self.arity(),
                got: tuple.len(),
            });
        }
        self.data.extend_from_slice(tuple);
        Ok(())
    }

    /// Append a tuple without arity checking (used by tight generator loops).
    /// Panics in debug builds on arity mismatch.
    pub fn push_unchecked(&mut self, tuple: &[Value]) {
        debug_assert_eq!(tuple.len(), self.arity());
        self.data.extend_from_slice(tuple);
    }

    /// The `i`-th tuple as a slice.
    pub fn tuple(&self, i: usize) -> &[Value] {
        let a = self.arity();
        &self.data[i * a..(i + 1) * a]
    }

    /// Iterate over all tuples.
    pub fn iter(&self) -> impl Iterator<Item = &[Value]> + '_ {
        self.data.chunks_exact(self.arity().max(1))
    }

    /// Project the relation onto the given attributes, keeping duplicates.
    pub fn project(&self, attrs: &[Attr]) -> Result<Relation, StorageError> {
        let pos = self.positions(attrs)?;
        let mut out = Relation::new(format!("π({})", self.name), attrs.to_vec());
        let mut buf = Vec::with_capacity(pos.len());
        for t in self.iter() {
            buf.clear();
            buf.extend(pos.iter().map(|&p| t[p]));
            out.push_unchecked(&buf);
        }
        Ok(out)
    }

    /// Distinct values of one attribute.
    pub fn distinct_values(&self, attr: &Attr) -> Result<Vec<Value>, StorageError> {
        let p = self
            .position(attr)
            .ok_or_else(|| StorageError::UnknownAttribute {
                relation: self.name.clone(),
                attribute: attr.as_str().to_string(),
            })?;
        let mut seen: HashSet<Value> = HashSet::new();
        for t in self.iter() {
            seen.insert(t[p]);
        }
        let mut vals: Vec<Value> = seen.into_iter().collect();
        vals.sort_unstable();
        Ok(vals)
    }

    /// Retain only tuples satisfying the predicate, compacting in place
    /// (a pass that keeps everything moves nothing). A relation that lost
    /// more than half of its storage hands the slack back, so a reduced
    /// relation parked in a session is not as large as its base table.
    pub fn retain(&mut self, mut keep: impl FnMut(&[Value]) -> bool) {
        let arity = self.arity();
        if arity == 0 {
            return;
        }
        let mut kept = 0;
        for read in (0..self.data.len()).step_by(arity) {
            if keep(&self.data[read..read + arity]) {
                if kept != read {
                    self.data.copy_within(read..read + arity, kept);
                }
                kept += arity;
            }
        }
        self.data.truncate(kept);
        if kept <= self.data.capacity() / 2 {
            self.data.shrink_to_fit();
        }
    }

    /// Select tuples where `attr == value`, returning a new relation.
    pub fn select_eq(&self, attr: &Attr, value: Value) -> Result<Relation, StorageError> {
        let p = self
            .position(attr)
            .ok_or_else(|| StorageError::UnknownAttribute {
                relation: self.name.clone(),
                attribute: attr.as_str().to_string(),
            })?;
        let mut out = Relation::new(self.name.clone(), self.attrs.clone());
        for t in self.iter() {
            if t[p] == value {
                out.push_unchecked(t);
            }
        }
        Ok(out)
    }

    /// Remove exact duplicate tuples (keeps first occurrence order).
    pub fn dedup_tuples(&mut self) {
        let arity = self.arity();
        if arity == 0 || self.data.is_empty() {
            return;
        }
        let all: Vec<usize> = (0..arity).collect();
        self.data = KeyTable::of_rows(self.iter(), &all).flat_keys().to_vec();
    }

    /// Sort tuples lexicographically by the given attribute positions.
    pub fn sort_by_positions(&mut self, positions: &[usize]) {
        let arity = self.arity();
        if arity == 0 {
            return;
        }
        let mut rows: Vec<Tuple> = self.iter().map(|t| t.to_vec()).collect();
        rows.sort_by(|a, b| {
            for &p in positions {
                match a[p].cmp(&b[p]) {
                    std::cmp::Ordering::Equal => continue,
                    other => return other,
                }
            }
            a.cmp(b)
        });
        self.data.clear();
        for r in rows {
            self.data.extend_from_slice(&r);
        }
    }

    /// Total number of stored values (arity × len) — used to account `|D|`.
    pub fn value_count(&self) -> usize {
        self.data.len()
    }

    /// Reserve storage for `rows` additional tuples (used by operators that
    /// can bound their output from the input cardinalities).
    pub fn reserve_rows(&mut self, rows: usize) {
        self.data.reserve(rows.saturating_mul(self.arity()));
    }

    /// Append pre-validated row-major data: `values.len()` must be a
    /// multiple of the arity. Used by parallel kernels to merge per-morsel
    /// output chunks without re-checking every tuple.
    pub fn append_rows(&mut self, values: &[Value]) {
        debug_assert!(self.arity() > 0 && values.len().is_multiple_of(self.arity()));
        self.data.extend_from_slice(values);
    }

    /// Zero-copy chunk views of at most `rows_per_chunk` consecutive tuples
    /// each, in storage order — the unit of morsel dispatch. The views
    /// carry their global starting row, so per-chunk results can be merged
    /// back deterministically.
    pub fn chunks(&self, rows_per_chunk: usize) -> Vec<RelationChunk<'_>> {
        let arity = self.arity();
        if arity == 0 {
            return Vec::new();
        }
        let step = rows_per_chunk.max(1);
        (0..self.len())
            .step_by(step)
            .map(|first_row| {
                let end = (first_row + step).min(self.len());
                RelationChunk {
                    data: &self.data[first_row * arity..end * arity],
                    arity,
                    first_row,
                }
            })
            .collect()
    }
}

/// A zero-copy view of a contiguous tuple range of a [`Relation`], produced
/// by [`Relation::chunks`] for morsel dispatch.
#[derive(Clone, Copy, Debug)]
pub struct RelationChunk<'a> {
    data: &'a [Value],
    arity: usize,
    first_row: usize,
}

impl<'a> RelationChunk<'a> {
    /// Number of tuples in the chunk.
    pub fn len(&self) -> usize {
        self.data.len() / self.arity
    }

    /// Whether the chunk holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Global row index (in the parent relation) of the chunk's first tuple.
    pub fn first_row(&self) -> usize {
        self.first_row
    }

    /// The `i`-th tuple of the chunk (0-based within the chunk).
    pub fn tuple(&self, i: usize) -> &'a [Value] {
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    /// Iterate over the chunk's tuples in storage order.
    pub fn iter(&self) -> impl Iterator<Item = &'a [Value]> + '_ {
        self.data.chunks_exact(self.arity)
    }

    /// Iterate over `(global_row, tuple)` pairs.
    pub fn global_rows(&self) -> impl Iterator<Item = (usize, &'a [Value])> + '_ {
        let first = self.first_row;
        self.iter().enumerate().map(move |(i, t)| (first + i, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::attrs;

    fn rel() -> Relation {
        Relation::with_tuples(
            "R",
            attrs(["A", "B"]),
            vec![vec![1, 10], vec![2, 10], vec![1, 20], vec![1, 10]],
        )
        .unwrap()
    }

    #[test]
    fn push_and_len() {
        let r = rel();
        assert_eq!(r.len(), 4);
        assert_eq!(r.arity(), 2);
        assert_eq!(r.tuple(2), &[1, 20]);
        assert_eq!(r.value_count(), 8);
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let mut r = rel();
        let err = r.push(&[1, 2, 3]).unwrap_err();
        assert!(matches!(
            err,
            StorageError::ArityMismatch {
                expected: 2,
                got: 3,
                ..
            }
        ));
    }

    #[test]
    fn project_keeps_duplicates() {
        let r = rel();
        let p = r.project(&attrs(["A"])).unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(p.arity(), 1);
    }

    #[test]
    fn distinct_values_sorted() {
        let r = rel();
        assert_eq!(r.distinct_values(&Attr::new("A")).unwrap(), vec![1, 2]);
        assert_eq!(r.distinct_values(&Attr::new("B")).unwrap(), vec![10, 20]);
    }

    #[test]
    fn select_eq_filters() {
        let r = rel();
        let s = r.select_eq(&Attr::new("B"), 10).unwrap();
        assert_eq!(s.len(), 3);
        assert!(s.iter().all(|t| t[1] == 10));
    }

    #[test]
    fn dedup_removes_exact_duplicates() {
        let mut r = rel();
        r.dedup_tuples();
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn retain_filters_in_place() {
        let mut r = rel();
        r.retain(|t| t[0] == 1);
        assert_eq!(r.len(), 3);
        assert!(r.iter().all(|t| t[0] == 1));
    }

    #[test]
    fn sort_by_positions_orders_rows() {
        let mut r = rel();
        r.sort_by_positions(&[1, 0]);
        let rows: Vec<Vec<Value>> = r.iter().map(|t| t.to_vec()).collect();
        assert_eq!(
            rows,
            vec![vec![1, 10], vec![1, 10], vec![2, 10], vec![1, 20]]
        );
    }

    #[test]
    fn chunks_cover_all_rows_in_order() {
        let r = rel();
        let chunks = r.chunks(3);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].len(), 3);
        assert_eq!(chunks[1].len(), 1);
        assert_eq!(chunks[0].first_row(), 0);
        assert_eq!(chunks[1].first_row(), 3);
        let rebuilt: Vec<Vec<Value>> = chunks
            .iter()
            .flat_map(|c| c.iter().map(|t| t.to_vec()))
            .collect();
        let direct: Vec<Vec<Value>> = r.iter().map(|t| t.to_vec()).collect();
        assert_eq!(rebuilt, direct);
        let globals: Vec<usize> = chunks
            .iter()
            .flat_map(|c| c.global_rows().map(|(g, _)| g))
            .collect();
        assert_eq!(globals, vec![0, 1, 2, 3]);
        assert_eq!(chunks[1].tuple(0), r.tuple(3));
    }

    #[test]
    fn append_rows_extends_in_bulk() {
        let mut r = rel();
        r.reserve_rows(2);
        r.append_rows(&[7, 70, 8, 80]);
        assert_eq!(r.len(), 6);
        assert_eq!(r.tuple(5), &[8, 80]);
    }

    #[test]
    fn unknown_attribute_errors() {
        let r = rel();
        assert!(r.project(&attrs(["Z"])).is_err());
        assert!(r.distinct_values(&Attr::new("Z")).is_err());
    }
}
