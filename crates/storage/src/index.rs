//! Indexes over relations.
//!
//! The enumeration algorithms rely on constant-time lookups of tuples by a
//! subset of their attributes (the *anchor* attributes of a join-tree node)
//! and on degree information (how many tuples share a key) for the
//! heavy/light split of the star-query algorithm.
//!
//! Layout: a row index is a [`KeyTable`] (distinct keys → dense group ids
//! in first-occurrence order, keys in one flat slab) plus the groups in
//! CSR form — `offsets[id] .. offsets[id + 1]` delimits group `id` inside
//! one `rows` buffer. Building it is one hashing pass that assigns each
//! row its group id and counts group sizes, a prefix sum, and one scatter;
//! no allocation per key or per group, and nothing about the result
//! depends on how the build was scheduled. [`TrieIndex`] is the sorted
//! multi-level sibling the worst-case-optimal join walks.

use crate::attr::Attr;
use crate::error::StorageError;
use crate::keytable::KeyTable;
use crate::relation::Relation;
use crate::value::{Tuple, Value};
use std::collections::HashMap;

/// The grouped row index under the name hash joins and semi-joins know it
/// by; one structure serves both roles.
pub type HashIndex = SortedIndex;

/// A grouped-adjacency index: key tuple → matching row ids, all groups in
/// one flat buffer.
///
/// Probing is one [`KeyTable`] lookup returning a slice, and iterating a
/// group is a linear scan — no per-key `Vec` headers, no pointer chasing.
///
/// Layout contract (what lets any build strategy be byte-identical to the
/// serial one): groups are laid out in **first-occurrence order** of their
/// key, and within a group row ids are in **ascending storage order**.
#[derive(Clone, Debug)]
pub struct SortedIndex {
    key_attrs: Vec<Attr>,
    key_positions: Vec<usize>,
    /// Distinct keys; a key's id is its group number.
    keys: KeyTable,
    /// Group `id` is `rows[offsets[id] .. offsets[id + 1]]`.
    offsets: Vec<u32>,
    /// All row ids, grouped per key.
    rows: Vec<u32>,
}

impl SortedIndex {
    /// Build an index over `relation` keyed on `key_attrs`.
    pub fn build(relation: &Relation, key_attrs: &[Attr]) -> Result<Self, StorageError> {
        let key_positions = relation.positions(key_attrs)?;
        // Row ids are u32 throughout the kernels.
        debug_assert!(relation.len() <= u32::MAX as usize);
        // Pass 1: a group id per row; group sizes are counted one slot to
        // the right so the prefix sum turns them into offsets.
        let (keys, group_of) = KeyTable::group_rows(relation.iter(), &key_positions);
        let mut offsets: Vec<u32> = vec![0; keys.len() + 1];
        for &id in &group_of {
            offsets[id as usize + 1] += 1;
        }
        for id in 1..offsets.len() {
            offsets[id] += offsets[id - 1];
        }
        // Pass 2: scatter rows in storage order, so each group ascends.
        let mut cursor: Vec<u32> = offsets[..keys.len()].to_vec();
        let mut rows = vec![0u32; group_of.len()];
        for (row, &id) in group_of.iter().enumerate() {
            let at = &mut cursor[id as usize];
            rows[*at as usize] = row as u32;
            *at += 1;
        }
        Ok(SortedIndex {
            key_attrs: key_attrs.to_vec(),
            key_positions,
            keys,
            offsets,
            rows,
        })
    }

    /// The attributes this index is keyed on.
    pub fn key_attrs(&self) -> &[Attr] {
        &self.key_attrs
    }

    /// Positions of the key attributes in the indexed relation.
    pub fn key_positions(&self) -> &[usize] {
        &self.key_positions
    }

    fn group(&self, id: u32) -> &[u32] {
        let id = id as usize;
        &self.rows[self.offsets[id] as usize..self.offsets[id + 1] as usize]
    }

    /// Row ids matching a key (ascending storage order), or an empty slice.
    pub fn rows(&self, key: &[Value]) -> &[u32] {
        self.keys.get(key).map_or(&[], |id| self.group(id))
    }

    /// Whether a key is present.
    pub fn contains(&self, key: &[Value]) -> bool {
        self.keys.contains(key)
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.keys.len()
    }

    /// Iterate over `(key, row ids)` groups in first-occurrence order.
    pub fn iter(&self) -> impl Iterator<Item = (&[Value], &[u32])> + '_ {
        (0..self.keys.len() as u32).map(|id| (self.keys.key(id), self.group(id)))
    }

    /// Total indexed rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the index covers no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Heap bytes of the index, from its buffers' capacities: the row
    /// buffer, the offsets, the key table and the key spec.
    pub fn heap_bytes(&self) -> usize {
        (self.rows.capacity() + self.offsets.capacity()) * std::mem::size_of::<u32>()
            + self.keys.heap_bytes()
            + self.key_attrs.capacity() * std::mem::size_of::<Attr>()
            + self.key_positions.capacity() * std::mem::size_of::<usize>()
    }
}

/// A sorted implicit trie over a column subset of a relation — the
/// multi-level sibling of [`SortedIndex`] that worst-case-optimal join
/// kernels walk attribute-at-a-time.
///
/// Where [`SortedIndex`] groups rows under one fixed key, a `TrieIndex`
/// stores the selected columns of every tuple as one flat row-major matrix,
/// lexicographically sorted and de-duplicated. A contiguous range of its
/// rows then represents "all tuples compatible with the bound prefix", and
/// the two operations generic join needs are both binary searches:
/// [`TrieIndex::narrow`] descends one level by fixing the next column to a
/// value, and [`TrieIndex::group_at`] steps through the distinct values of
/// the next column inside a range (each group is contiguous because the
/// matrix is sorted).
///
/// The structure is self-contained (it copies the selected columns), so it
/// probes without touching the source relation, and it is deterministic by
/// construction: the sorted matrix depends only on the tuple *set*, never
/// on input order or thread count.
#[derive(Clone, Debug)]
pub struct TrieIndex {
    attrs: Vec<Attr>,
    /// Row-major `[len × arity]` matrix of the selected columns,
    /// lexicographically sorted with exact duplicates removed.
    vals: Vec<Value>,
}

impl TrieIndex {
    /// Build a trie over `relation`'s `attrs_in_order` columns: the order
    /// given here is the level order enumeration will descend in.
    pub fn build(relation: &Relation, attrs_in_order: &[Attr]) -> Result<Self, StorageError> {
        let cols = relation.positions(attrs_in_order)?;
        let mut rows: Vec<Tuple> = relation
            .iter()
            .map(|t| cols.iter().map(|&c| t[c]).collect())
            .collect();
        rows.sort_unstable();
        rows.dedup();
        let mut vals = Vec::with_capacity(rows.len() * cols.len());
        for r in &rows {
            vals.extend_from_slice(r);
        }
        Ok(TrieIndex {
            attrs: attrs_in_order.to_vec(),
            vals,
        })
    }

    /// The indexed attributes, in level order.
    pub fn attrs(&self) -> &[Attr] {
        &self.attrs
    }

    /// Number of levels (selected columns).
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Number of distinct sorted rows.
    pub fn len(&self) -> usize {
        if self.attrs.is_empty() {
            0
        } else {
            self.vals.len() / self.attrs.len()
        }
    }

    /// Whether the trie holds no rows.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// The root range covering every row.
    pub fn full_range(&self) -> (usize, usize) {
        (0, self.len())
    }

    #[inline]
    fn at(&self, row: usize, depth: usize) -> Value {
        self.vals[row * self.attrs.len() + depth]
    }

    /// Narrow `[lo, hi)` to the rows whose `depth` column equals `value`
    /// (possibly empty). All rows in the input range must agree on the
    /// columns before `depth` — the invariant the descent maintains — so
    /// the matching rows are one contiguous block found by binary search.
    pub fn narrow(&self, (lo, hi): (usize, usize), depth: usize, value: Value) -> (usize, usize) {
        debug_assert!(depth < self.arity());
        let base = lo;
        let slice_len = hi - lo;
        // partition_point over the range: first row with column >= value,
        // then first row with column > value.
        let start = base + partition_point(slice_len, |i| self.at(base + i, depth) < value);
        let end = base + partition_point(slice_len, |i| self.at(base + i, depth) <= value);
        (start, end)
    }

    /// The first distinct-value group at `depth` inside `[lo, hi)`: its
    /// value and the end of its contiguous block. Iterate all groups by
    /// restarting at the returned end. Returns `None` on an empty range.
    pub fn group_at(&self, lo: usize, hi: usize, depth: usize) -> Option<(Value, usize)> {
        if lo >= hi {
            return None;
        }
        let value = self.at(lo, depth);
        let end = lo + partition_point(hi - lo, |i| self.at(lo + i, depth) <= value);
        Some((value, end))
    }

    /// Approximate bytes retained (length-based, stable across runs).
    pub fn bytes(&self) -> usize {
        self.vals.len() * std::mem::size_of::<Value>()
    }
}

/// `partition_point` over an index range `0..len` for a monotone predicate.
#[inline]
fn partition_point(len: usize, mut pred: impl FnMut(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0usize, len);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Degree statistics of one attribute of a relation: for each value, how
/// many tuples carry it. Used by the star-query heavy/light split
/// (Algorithm 4) and by the bounded-degree delay analysis (Appendix D).
#[derive(Clone, Debug)]
pub struct DegreeIndex {
    attr: Attr,
    counts: HashMap<Value, u32>,
    max_degree: u32,
}

impl DegreeIndex {
    /// Build degree statistics for `attr` over `relation`.
    pub fn build(relation: &Relation, attr: &Attr) -> Result<Self, StorageError> {
        let p = relation
            .position(attr)
            .ok_or_else(|| StorageError::UnknownAttribute {
                relation: relation.name().to_string(),
                attribute: attr.as_str().to_string(),
            })?;
        let mut counts: HashMap<Value, u32> = HashMap::new();
        for t in relation.iter() {
            *counts.entry(t[p]).or_insert(0) += 1;
        }
        let max_degree = counts.values().copied().max().unwrap_or(0);
        Ok(DegreeIndex {
            attr: attr.clone(),
            counts,
            max_degree,
        })
    }

    /// The attribute the statistics are about.
    pub fn attr(&self) -> &Attr {
        &self.attr
    }

    /// Degree of a value (0 if absent).
    pub fn degree(&self, value: Value) -> u32 {
        self.counts.get(&value).copied().unwrap_or(0)
    }

    /// Whether a value's degree is at least the threshold (a *heavy* value in
    /// the paper's terminology).
    pub fn is_heavy(&self, value: Value, threshold: u32) -> bool {
        self.degree(value) >= threshold
    }

    /// Maximum degree over all values.
    pub fn max_degree(&self) -> u32 {
        self.max_degree
    }

    /// Number of distinct values.
    pub fn distinct_values(&self) -> usize {
        self.counts.len()
    }

    /// Iterate over `(value, degree)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Value, u32)> + '_ {
        self.counts.iter().map(|(&v, &d)| (v, d))
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
            vec![vec![1, 10], vec![2, 10], vec![1, 20], vec![3, 30]],
        )
        .unwrap()
    }

    #[test]
    fn hash_index_lookup() {
        let r = rel();
        let idx = HashIndex::build(&r, &attrs(["B"])).unwrap();
        assert_eq!(idx.rows(&[10]).len(), 2);
        assert_eq!(idx.rows(&[20]), &[2]);
        assert_eq!(idx.rows(&[99]).len(), 0);
        assert_eq!(idx.distinct_keys(), 3);
        assert!(idx.contains(&[30]));
    }

    #[test]
    fn hash_index_composite_key() {
        let r = rel();
        let idx = HashIndex::build(&r, &attrs(["A", "B"])).unwrap();
        assert_eq!(idx.rows(&[1, 20]), &[2]);
        assert_eq!(idx.distinct_keys(), 4);
    }

    #[test]
    fn hash_index_empty_key_groups_everything() {
        let r = rel();
        let idx = HashIndex::build(&r, &[]).unwrap();
        assert_eq!(idx.rows(&[]).len(), 4);
        assert_eq!(idx.distinct_keys(), 1);
    }

    #[test]
    fn degree_index_counts() {
        let r = rel();
        let d = DegreeIndex::build(&r, &Attr::new("A")).unwrap();
        assert_eq!(d.degree(1), 2);
        assert_eq!(d.degree(2), 1);
        assert_eq!(d.degree(42), 0);
        assert_eq!(d.max_degree(), 2);
        assert_eq!(d.distinct_values(), 3);
        assert!(d.is_heavy(1, 2));
        assert!(!d.is_heavy(2, 2));
    }

    #[test]
    fn unknown_attr_is_error() {
        let r = rel();
        assert!(HashIndex::build(&r, &attrs(["Z"])).is_err());
        assert!(DegreeIndex::build(&r, &Attr::new("Z")).is_err());
        assert!(SortedIndex::build(&r, &attrs(["Z"])).is_err());
    }

    #[test]
    fn sorted_index_matches_hash_index_groups() {
        let r = rel();
        let sorted = SortedIndex::build(&r, &attrs(["B"])).unwrap();
        let hash = HashIndex::build(&r, &attrs(["B"])).unwrap();
        for b in [10u64, 20, 30, 99] {
            assert_eq!(sorted.rows(&[b]), hash.rows(&[b]), "key {b}");
            assert_eq!(sorted.contains(&[b]), hash.contains(&[b]));
        }
        assert_eq!(sorted.distinct_keys(), 3);
        assert_eq!(sorted.len(), 4);
        assert!(!sorted.is_empty());
        assert_eq!(sorted.key_attrs(), &attrs(["B"])[..]);
        assert_eq!(sorted.key_positions(), &[1]);
    }

    #[test]
    fn sorted_index_rows_ascend_and_composite_keys_work() {
        let r = Relation::with_tuples(
            "S",
            attrs(["A", "B"]),
            vec![vec![1, 7], vec![2, 7], vec![1, 7], vec![1, 8]],
        )
        .unwrap();
        let idx = SortedIndex::build(&r, &attrs(["A", "B"])).unwrap();
        assert_eq!(idx.rows(&[1, 7]), &[0, 2]);
        assert_eq!(idx.rows(&[2, 7]), &[1]);
        assert_eq!(idx.rows(&[9, 9]), &[] as &[u32]);
    }

    #[test]
    fn index_layout_contract_holds_on_generated_relations() {
        let mut x: u64 = 0xD1B5_4A32_D192_ED03;
        let mut draw = |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        let r = Relation::with_tuples(
            "G",
            attrs(["A", "B", "C"]),
            (0..3_000).map(|_| vec![draw(50) << 40, draw(3), draw(1_000)]),
        )
        .unwrap();
        for key in [attrs(["A"]), attrs(["B", "A"]), attrs(["C", "A", "B"])] {
            let idx = SortedIndex::build(&r, &key).unwrap();
            let pos = r.positions(&key).unwrap();
            // Model: groups in first-occurrence order, rows ascending.
            let mut order: Vec<Tuple> = Vec::new();
            let mut groups: HashMap<Tuple, Vec<u32>> = HashMap::new();
            for (i, t) in r.iter().enumerate() {
                let k: Tuple = pos.iter().map(|&p| t[p]).collect();
                if !groups.contains_key(&k) {
                    order.push(k.clone());
                }
                groups.entry(k).or_default().push(i as u32);
            }
            assert_eq!(idx.distinct_keys(), order.len());
            assert_eq!(idx.len(), r.len());
            let got: Vec<(Tuple, Vec<u32>)> = idx
                .iter()
                .map(|(k, rows)| (k.to_vec(), rows.to_vec()))
                .collect();
            let want: Vec<(Tuple, Vec<u32>)> = order
                .iter()
                .map(|k| (k.clone(), groups[k].clone()))
                .collect();
            assert_eq!(got, want);
            for k in &order {
                assert_eq!(idx.rows(k), groups[k].as_slice());
                assert!(idx.contains(k));
            }
            assert!(idx.rows(&vec![u64::MAX; key.len()]).is_empty());
            // Rows, offsets and the key spec are sized exactly; the key
            // table holds at least its keys and two slots per key.
            let exact = (r.len() + order.len() + 1) * 4 + key.len() * (16 + 8);
            assert!(idx.heap_bytes() >= exact + order.len() * (key.len() * 8 + 8));
        }
    }

    #[test]
    fn sorted_index_empty_key_groups_everything() {
        let r = rel();
        let idx = SortedIndex::build(&r, &[]).unwrap();
        assert_eq!(idx.rows(&[]), &[0, 1, 2, 3]);
        assert_eq!(idx.distinct_keys(), 1);
    }

    #[test]
    fn trie_index_sorts_dedups_and_reorders_columns() {
        let r = Relation::with_tuples(
            "T",
            attrs(["A", "B"]),
            vec![vec![2, 10], vec![1, 20], vec![2, 10], vec![1, 10]],
        )
        .unwrap();
        // Level order B then A: rows become (10,1), (10,2), (20,1).
        let t = TrieIndex::build(&r, &attrs(["B", "A"])).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.arity(), 2);
        assert_eq!(t.attrs(), &attrs(["B", "A"])[..]);
        assert!(t.bytes() > 0);

        let root = t.full_range();
        assert_eq!(root, (0, 3));
        let (v, end) = t.group_at(root.0, root.1, 0).unwrap();
        assert_eq!((v, end), (10, 2));
        let (v, end2) = t.group_at(end, root.1, 0).unwrap();
        assert_eq!((v, end2), (20, 3));
        assert!(t.group_at(end2, root.1, 0).is_none());
    }

    #[test]
    fn trie_index_narrow_descends_by_binary_search() {
        let r = Relation::with_tuples(
            "T",
            attrs(["A", "B"]),
            vec![
                vec![1, 5],
                vec![1, 7],
                vec![2, 5],
                vec![2, 6],
                vec![2, 9],
                vec![3, 1],
            ],
        )
        .unwrap();
        let t = TrieIndex::build(&r, &attrs(["A", "B"])).unwrap();
        let root = t.full_range();
        let twos = t.narrow(root, 0, 2);
        assert_eq!(twos, (2, 5));
        // Inside A = 2, the distinct B groups are 5, 6, 9.
        let (b, end) = t.group_at(twos.0, twos.1, 1).unwrap();
        assert_eq!((b, end), (5, 3));
        let (b, _) = t.group_at(end, twos.1, 1).unwrap();
        assert_eq!(b, 6);
        // A missing value narrows to an empty range.
        let none = t.narrow(root, 0, 9);
        assert_eq!(none.0, none.1);
        assert!(t.group_at(none.0, none.1, 1).is_none());
    }

    #[test]
    fn trie_index_handles_empty_relations() {
        let r = Relation::new("T", attrs(["A", "B"]));
        let t = TrieIndex::build(&r, &attrs(["A"])).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.full_range(), (0, 0));
        assert!(t.group_at(0, 0, 0).is_none());
    }
}
