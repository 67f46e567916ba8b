//! The flat key table: fixed-arity keys → dense ids, no allocation per key.
//!
//! Every preprocessing pass groups or filters rows by the values of a
//! column subset — the semi-joins of the full reducer, the grouped row
//! indexes, distinct projection, the anchor ids of Algorithm 1. They all
//! sit on the one kernel here. A [`KeyTable`] stores its keys back to back
//! in one `Vec<Value>` slab and finds them through [`IdSlots`], an
//! open-addressing array of `u32` ids probed linearly from a position
//! taken from the top bits of [`mix_key`]. Ids are dense and handed out in
//! **first-occurrence order**, so `id × arity` addresses the slab, a plain
//! `Vec` indexed by id replaces any per-key payload map, and walking the
//! slab front to back replays the order keys were first seen in — the
//! property the deterministic (serial ≡ pooled) layouts rest on.

use crate::value::Value;

/// Slot value of an unoccupied slot (which caps ids at `u32::MAX - 1`).
const EMPTY: u32 = u32::MAX;

/// Smallest slot array; also keeps the top-bits shift below 64.
const MIN_SLOTS: usize = 8;

/// Fixed-seed multiply-rotate mix of a key. It runs once per row on every
/// preprocessing path, so it has to cost next to nothing; the final
/// multiply pushes entropy towards the high bits, which is where
/// [`IdSlots`] reads it. Keys come from the program's own
/// dictionary-encoded relations, so there is no seed to hide.
#[inline]
pub fn mix_key(key: &[Value]) -> u64 {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
    for &v in key {
        h ^= v.wrapping_mul(0xA24B_AED4_963E_E407);
        h = h.rotate_left(23).wrapping_mul(0x9FB2_1C65_1E98_DF25);
    }
    h
}

/// The columns `positions` of `tuple` as a key slice: borrowed straight
/// from the tuple for the (dominant) single-column case, staged in `buf`
/// otherwise.
#[inline]
pub fn project_key<'a>(
    tuple: &'a [Value],
    positions: &[usize],
    buf: &'a mut Vec<Value>,
) -> &'a [Value] {
    if let [p] = positions {
        return std::slice::from_ref(&tuple[*p]);
    }
    buf.clear();
    buf.extend(positions.iter().map(|&p| tuple[p]));
    buf
}

/// An open-addressing slot array that hands out dense `u32` ids.
///
/// It stores ids only; the caller keeps whatever the ids stand for (a key
/// slab, a vector of rank keys) and tells the table how to compare and
/// re-hash an id through closures. At most half the slots are occupied.
#[derive(Clone, Debug)]
pub struct IdSlots {
    /// Power-of-two length; [`EMPTY`] or an id.
    slots: Vec<u32>,
    len: usize,
}

impl Default for IdSlots {
    fn default() -> Self {
        IdSlots::new()
    }
}

impl IdSlots {
    /// An empty table.
    pub fn new() -> Self {
        IdSlots {
            slots: vec![EMPTY; MIN_SLOTS],
            len: 0,
        }
    }

    /// Ids handed out so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no id has been handed out.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Probe start of a hash: its top `log2(slots)` bits.
    #[inline]
    fn start(slots: &[u32], hash: u64) -> usize {
        (hash >> (64 - slots.len().trailing_zeros())) as usize
    }

    /// The id among those colliding with `hash` that `is_match` accepts.
    #[inline]
    pub fn find(&self, hash: u64, mut is_match: impl FnMut(u32) -> bool) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut i = Self::start(&self.slots, hash);
        loop {
            match self.slots[i] {
                EMPTY => return None,
                id if is_match(id) => return Some(id),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// [`IdSlots::find`], claiming the next dense id when nothing matches;
    /// the flag says whether the id is new. `hash_of` re-hashes an existing
    /// id when the array doubles.
    #[inline]
    pub fn find_or_insert(
        &mut self,
        hash: u64,
        mut is_match: impl FnMut(u32) -> bool,
        hash_of: impl Fn(u32) -> u64,
    ) -> (u32, bool) {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow(hash_of);
        }
        let mask = self.slots.len() - 1;
        let mut i = Self::start(&self.slots, hash);
        loop {
            match self.slots[i] {
                EMPTY => break,
                id if is_match(id) => return (id, false),
                _ => i = (i + 1) & mask,
            }
        }
        assert!(self.len < EMPTY as usize, "id space exhausted");
        let id = self.len as u32;
        self.slots[i] = id;
        self.len += 1;
        (id, true)
    }

    /// Double the array and re-place every id, in id order (a sequential
    /// walk over whatever the caller stores per id).
    #[cold]
    fn grow(&mut self, hash_of: impl Fn(u32) -> u64) {
        let mut slots = vec![EMPTY; self.slots.len() * 2];
        let mask = slots.len() - 1;
        for id in 0..self.len as u32 {
            let mut i = Self::start(&slots, hash_of(id));
            while slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            slots[i] = id;
        }
        self.slots = slots;
    }
}

/// Nominal slot bytes per id: two `u32` slots at the ≤ ½ load factor.
const SLOT_BYTES_PER_ID: usize = 2 * std::mem::size_of::<u32>();

/// A dictionary from fixed-arity keys to dense ids in first-occurrence
/// order (see the module docs).
#[derive(Clone, Debug)]
pub struct KeyTable {
    arity: usize,
    /// Key `id` occupies `keys[id * arity ..][..arity]`.
    keys: Vec<Value>,
    ids: IdSlots,
}

impl KeyTable {
    /// An empty table of `arity`-column keys.
    pub fn new(arity: usize) -> Self {
        KeyTable {
            arity,
            keys: Vec::new(),
            ids: IdSlots::new(),
        }
    }

    /// The distinct keys of `rows` at `positions`.
    pub fn of_rows<'a>(rows: impl Iterator<Item = &'a [Value]>, positions: &[usize]) -> Self {
        let mut table = KeyTable::new(positions.len());
        let mut buf = Vec::new();
        for t in rows {
            table.insert(project_key(t, positions, &mut buf));
        }
        table
    }

    /// [`KeyTable::of_rows`] that also returns each row's key id, in row
    /// order — the grouping pass of an index or a queue build.
    pub fn group_rows<'a>(
        rows: impl Iterator<Item = &'a [Value]>,
        positions: &[usize],
    ) -> (Self, Vec<u32>) {
        let mut table = KeyTable::new(positions.len());
        let mut ids = Vec::with_capacity(rows.size_hint().0);
        let mut buf = Vec::new();
        for t in rows {
            ids.push(table.insert(project_key(t, positions, &mut buf)).0);
        }
        (table, ids)
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the table holds no key.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The key behind an id.
    #[inline]
    pub fn key(&self, id: u32) -> &[Value] {
        slab_key(&self.keys, self.arity, id)
    }

    /// Every key back to back, in id (first-occurrence) order.
    pub fn flat_keys(&self) -> &[Value] {
        &self.keys
    }

    /// The id of `key`, inserting it if new; the flag says whether it was.
    #[inline]
    pub fn insert(&mut self, key: &[Value]) -> (u32, bool) {
        debug_assert_eq!(key.len(), self.arity);
        let (keys, arity) = (&self.keys, self.arity);
        let found = self.ids.find_or_insert(
            mix_key(key),
            |id| slab_key(keys, arity, id) == key,
            |id| mix_key(slab_key(keys, arity, id)),
        );
        if found.1 {
            self.keys.extend_from_slice(key);
        }
        found
    }

    /// The id of `key`, if present.
    #[inline]
    pub fn get(&self, key: &[Value]) -> Option<u32> {
        debug_assert_eq!(key.len(), self.arity);
        self.ids.find(mix_key(key), |id| self.key(id) == key)
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains(&self, key: &[Value]) -> bool {
        self.get(key).is_some()
    }

    /// Approximate bytes retained (length-based, so stable across runs):
    /// the key slab plus the nominal slot share of each key.
    pub fn bytes(&self) -> usize {
        self.keys.len() * std::mem::size_of::<Value>() + self.len() * SLOT_BYTES_PER_ID
    }
}

#[inline]
fn slab_key(keys: &[Value], arity: usize, id: u32) -> &[Value] {
    let start = id as usize * arity;
    &keys[start..start + arity]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// splitmix64: the deterministic stream behind the model tests.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Drive `table` and a `HashMap` model with the same keys; ids must be
    /// dense, in first-occurrence order, and stable across growth.
    fn check_against_model(arity: usize, keys: impl Iterator<Item = Vec<u64>>) {
        let mut table = KeyTable::new(arity);
        let mut model: HashMap<Vec<u64>, u32> = HashMap::new();
        let mut order: Vec<Vec<u64>> = Vec::new();
        for key in keys {
            assert_eq!(table.get(&key), model.get(&key).copied());
            let expect_new = !model.contains_key(&key);
            let next_id = model.len() as u32;
            let want = *model.entry(key.clone()).or_insert(next_id);
            assert_eq!(table.insert(&key), (want, expect_new));
            if expect_new {
                order.push(key.clone());
            }
            assert!(table.contains(&key));
        }
        assert_eq!(table.len(), model.len());
        assert_eq!(table.is_empty(), model.is_empty());
        for (id, key) in order.iter().enumerate() {
            assert_eq!(table.key(id as u32), key.as_slice());
            assert_eq!(table.get(key), Some(id as u32));
        }
        let flat: Vec<u64> = order.concat();
        assert_eq!(table.flat_keys(), flat.as_slice());
        assert_eq!(table.bytes(), flat.len() * 8 + order.len() * 8);
    }

    #[test]
    fn matches_a_hashmap_model_across_arities_and_resizes() {
        for arity in [1usize, 2, 4] {
            let mut s = 0xC0FFEE ^ arity as u64;
            // A small domain forces repeats; 20 000 draws cross a dozen
            // doublings from the 8-slot start.
            let keys = (0..20_000).map(|_| (0..arity).map(|_| next(&mut s) % 97).collect());
            check_against_model(arity, keys);
            let mut s = 0xBEEF ^ arity as u64;
            let keys = (0..5_000).map(|_| (0..arity).map(|_| next(&mut s)).collect());
            check_against_model(arity, keys);
        }
    }

    #[test]
    fn arity_zero_has_exactly_one_key() {
        check_against_model(0, (0..10).map(|_| Vec::new()));
        let mut t = KeyTable::new(0);
        assert_eq!(t.get(&[]), None);
        assert_eq!(t.insert(&[]), (0, true));
        assert_eq!(t.insert(&[]), (0, false));
        assert_eq!(t.len(), 1);
        assert_eq!(t.key(0), &[] as &[u64]);
    }

    #[test]
    fn keys_that_agree_in_their_low_bits_stay_distinct_and_findable() {
        // Multiples of 2^20 (and of 2^40): identical low bits, the input a
        // mask-the-hash table degenerates on.
        for shift in [20u32, 40] {
            check_against_model(1, (0..4_096u64).map(|i| vec![i << shift]));
            check_against_model(2, (0..4_096u64).map(|i| vec![i << shift, (i % 7) << shift]));
        }
        // And the probe chains stay short: a full scan would take minutes.
        let mut t = KeyTable::new(1);
        for i in 0..200_000u64 {
            t.insert(&[i << 24]);
        }
        assert_eq!(t.len(), 200_000);
        assert!((0..200_000u64).all(|i| t.get(&[i << 24]) == Some(i as u32)));
    }

    #[test]
    fn of_rows_collects_distinct_projected_keys_in_first_occurrence_order() {
        let rows: Vec<Vec<u64>> = vec![vec![1, 7, 3], vec![2, 7, 3], vec![1, 8, 3], vec![9, 7, 3]];
        let t = KeyTable::of_rows(rows.iter().map(|r| r.as_slice()), &[1]);
        assert_eq!(t.flat_keys(), &[7, 8]);
        let t = KeyTable::of_rows(rows.iter().map(|r| r.as_slice()), &[2, 1]);
        assert_eq!(t.flat_keys(), &[3, 7, 3, 8]);
        assert_eq!(t.get(&[3, 8]), Some(1));
        assert_eq!(t.get(&[8, 3]), None);
        let (g, ids) = KeyTable::group_rows(rows.iter().map(|r| r.as_slice()), &[2, 1]);
        assert_eq!(g.flat_keys(), t.flat_keys());
        assert_eq!(ids, [0, 0, 1, 0]);
    }

    #[test]
    fn id_slots_serve_a_caller_owned_store() {
        // The interner's shape: fingerprints per id, confirmation by the
        // caller; two entries may share a fingerprint.
        let mut slots = IdSlots::new();
        let mut store: Vec<(u64, &str)> = Vec::new();
        for (fp, name) in [(5, "a"), (5, "b"), (6, "c"), (5, "a")] {
            let (id, fresh) = slots.find_or_insert(
                mix_key(&[fp]),
                |id| store[id as usize] == (fp, name),
                |id| mix_key(&[store[id as usize].0]),
            );
            if fresh {
                store.push((fp, name));
            }
            assert_eq!(store[id as usize], (fp, name));
        }
        assert_eq!(slots.len(), 3);
        assert_eq!(store, vec![(5, "a"), (5, "b"), (6, "c")]);
    }
}
