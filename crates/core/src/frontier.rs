//! The shared frontier kernel: arena-backed cells, interned rank keys and
//! slim priority queues.
//!
//! The paper's delay bounds treat cells and priority-queue entries as
//! constant-size handles, but the first-cut general engine materialised an
//! owned `Tuple` per cell, cloned it again into every heap entry, and
//! cloned the rank key per entry — so frontier memory and allocator
//! traffic grew with answer arity. This module is the fixed-size-handle
//! representation the analysis assumes:
//!
//! * [`CellArena`] — one slab per join-tree node. A node's output arity
//!   and child count are constants, so a cell's output lives at
//!   `cell_id × out_stride` in one flat `Vec<Value>` and its child
//!   pointers at `cell_id × ptr_stride` in one flat `Vec<CellId>`; the
//!   per-cell metadata (`row`, `anchor`, `key`, `advance_from`, `next`)
//!   is five `u32`s. No per-cell allocations, ever.
//! * [`KeyInterner`] — each distinct rank key is stored once; entries
//!   carry a `u32` key id and compare by table lookup
//!   ([`KeyInterner::cmp`]), never by cloning key expansions.
//! * [`FrontierHeap`] — a binary min-heap of `(key_id, cell_id)` pairs
//!   (8 bytes per entry). Because the ids only order relative to their
//!   node's interner and arena, the heap takes the comparator as an
//!   argument instead of demanding `Ord` — the comparator is total
//!   (`(key, tie output, cell id)`), so pop order is independent of the
//!   heap implementation.
//!
//! Everything here is byte-accounted: the arena, interner and heap all
//! report their footprint so [`EnumStats`](crate::EnumStats) can expose
//! `frontier_bytes` / `frontier_peak_bytes` and the server can enforce
//! session memory budgets.

use crate::cell::CellId;
use re_ranking::RankKey;
use re_storage::{mix_key, IdSlots, Value};
use std::cmp::Ordering;

/// Packed `next`-pointer sentinel: not computed yet (`⊥` in the paper).
pub const NEXT_NOT_COMPUTED: u32 = u32::MAX;
/// Packed `next`-pointer sentinel: the ranked output is exhausted.
pub const NEXT_EXHAUSTED: u32 = u32::MAX - 1;

/// Per-cell metadata: five `u32`s, stored in one flat vector.
#[derive(Clone, Copy, Debug)]
struct CellMeta {
    /// Row index of the node tuple inside the node's reduced relation.
    row: u32,
    /// Anchor-queue id the cell belongs to (see the enumerator: anchor
    /// values get dense ids during preprocessing, so successor pushes and
    /// `Topdown` never rebuild or hash an anchor tuple).
    anchor: u32,
    /// Interned rank-key id of the cell's output.
    key: u32,
    /// First child pointer successors of this cell may advance (the
    /// duplicate-path breaker of Algorithm 2).
    advance_from: u32,
    /// Packed `next` chain pointer ([`NEXT_NOT_COMPUTED`] /
    /// [`NEXT_EXHAUSTED`] / a cell id).
    next: u32,
}

/// Fixed-stride cell storage for one join-tree node.
#[derive(Debug)]
pub struct CellArena {
    out_stride: usize,
    ptr_stride: usize,
    /// Cell `i`'s output occupies `outputs[i * out_stride ..][..out_stride]`.
    outputs: Vec<Value>,
    /// Cell `i`'s child pointers occupy `ptrs[i * ptr_stride ..][..ptr_stride]`.
    ptrs: Vec<CellId>,
    meta: Vec<CellMeta>,
}

impl CellArena {
    /// An empty arena for a node with the given output arity and child
    /// count.
    pub fn new(out_stride: usize, ptr_stride: usize) -> Self {
        CellArena {
            out_stride,
            ptr_stride,
            outputs: Vec::new(),
            ptrs: Vec::new(),
            meta: Vec::new(),
        }
    }

    /// Number of cells stored.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Whether the arena holds no cells.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// The output arity of every cell.
    pub fn out_stride(&self) -> usize {
        self.out_stride
    }

    /// Append a cell; `output` and `ptrs` must have exactly the arena's
    /// strides. Returns the new cell's id.
    pub fn push(
        &mut self,
        row: u32,
        anchor: u32,
        key: u32,
        advance_from: u32,
        output: &[Value],
        ptrs: &[CellId],
    ) -> CellId {
        debug_assert_eq!(output.len(), self.out_stride);
        debug_assert_eq!(ptrs.len(), self.ptr_stride);
        let id = self.meta.len() as CellId;
        self.outputs.extend_from_slice(output);
        self.ptrs.extend_from_slice(ptrs);
        self.meta.push(CellMeta {
            row,
            anchor,
            key,
            advance_from,
            next: NEXT_NOT_COMPUTED,
        });
        id
    }

    /// The cell's output over the node's subtree projection attributes.
    pub fn output(&self, cell: CellId) -> &[Value] {
        let start = cell as usize * self.out_stride;
        &self.outputs[start..start + self.out_stride]
    }

    /// The cell's child pointers, in child order.
    pub fn ptrs(&self, cell: CellId) -> &[CellId] {
        let start = cell as usize * self.ptr_stride;
        &self.ptrs[start..start + self.ptr_stride]
    }

    /// The cell's relation row.
    pub fn row(&self, cell: CellId) -> u32 {
        self.meta[cell as usize].row
    }

    /// The cell's anchor-queue id.
    pub fn anchor(&self, cell: CellId) -> u32 {
        self.meta[cell as usize].anchor
    }

    /// The cell's interned key id.
    pub fn key_id(&self, cell: CellId) -> u32 {
        self.meta[cell as usize].key
    }

    /// The cell's `advance_from` child index.
    pub fn advance_from(&self, cell: CellId) -> u32 {
        self.meta[cell as usize].advance_from
    }

    /// The packed `next` pointer.
    pub fn next(&self, cell: CellId) -> u32 {
        self.meta[cell as usize].next
    }

    /// Overwrite the packed `next` pointer.
    pub fn set_next(&mut self, cell: CellId, next: u32) {
        self.meta[cell as usize].next = next;
    }

    /// Bytes one cell occupies (slab slices plus metadata).
    pub fn bytes_per_cell(&self) -> usize {
        self.out_stride * std::mem::size_of::<Value>()
            + self.ptr_stride * std::mem::size_of::<CellId>()
            + std::mem::size_of::<CellMeta>()
    }

    /// Bytes occupied by the stored cells (length-based, so deterministic
    /// across runs).
    pub fn bytes(&self) -> usize {
        self.len() * self.bytes_per_cell()
    }
}

/// Per-id overhead of the interner's fingerprint table: the stored `u64`
/// fingerprint plus the id's nominal share of the slot array.
const INTERN_BUCKET_BYTES: usize = 16;

/// Stores each distinct rank key once and hands out dense `u32` ids.
///
/// Deduplication finds candidates by [`RankKey::fingerprint`] in one flat
/// open-addressing table ([`IdSlots`], fingerprints stored per id — no
/// bucket `Vec` per distinct key) and confirms with `Ord`. Keys that
/// compare equal through different representations may receive two ids,
/// which costs a little sharing but never correctness, because every
/// ordering decision goes through [`KeyInterner::cmp`]'s value comparison.
#[derive(Debug, Default)]
pub struct KeyInterner<K> {
    keys: Vec<K>,
    /// `fingerprints[id]` is `keys[id].fingerprint()`.
    fingerprints: Vec<u64>,
    slots: IdSlots,
    /// Heap bytes owned by the stored keys (length-based estimate).
    key_heap_bytes: usize,
}

impl<K: RankKey> KeyInterner<K> {
    /// An empty interner.
    pub fn new() -> Self {
        KeyInterner {
            keys: Vec::new(),
            fingerprints: Vec::new(),
            slots: IdSlots::new(),
            key_heap_bytes: 0,
        }
    }

    /// Intern `key`, returning its id and the bytes newly retained
    /// (`0` when the key deduplicated against an existing entry).
    pub fn intern(&mut self, key: K) -> (u32, usize) {
        let fp = key.fingerprint();
        let (keys, fingerprints) = (&self.keys, &self.fingerprints);
        let (id, fresh) = self.slots.find_or_insert(
            mix_key(&[fp]),
            |id| fingerprints[id as usize] == fp && keys[id as usize].cmp(&key) == Ordering::Equal,
            |id| mix_key(&[fingerprints[id as usize]]),
        );
        if !fresh {
            return (id, 0);
        }
        let bytes = std::mem::size_of::<K>() + key.heap_bytes() + INTERN_BUCKET_BYTES;
        self.key_heap_bytes += key.heap_bytes();
        self.keys.push(key);
        self.fingerprints.push(fp);
        (id, bytes)
    }

    /// The key behind an id.
    pub fn get(&self, id: u32) -> &K {
        &self.keys[id as usize]
    }

    /// Compare two interned keys by value. Identical ids short-circuit —
    /// the common case for rank ties, and the reason entries never clone
    /// key expansions to compare.
    pub fn cmp(&self, a: u32, b: u32) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        self.keys[a as usize].cmp(&self.keys[b as usize])
    }

    /// Number of distinct keys stored.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no key has been interned.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Bytes retained by the interner (length-based estimate).
    pub fn bytes(&self) -> usize {
        self.keys.len() * (std::mem::size_of::<K>() + INTERN_BUCKET_BYTES) + self.key_heap_bytes
    }
}

/// One pending frontier entry: an interned key id plus the cell it ranks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrontierEntry {
    /// Interned rank-key id (resolved against the node's [`KeyInterner`]).
    pub key: u32,
    /// The cell id (resolved against the node's [`CellArena`]).
    pub cell: CellId,
}

/// A binary min-heap of [`FrontierEntry`]s with an external comparator.
///
/// The comparator must be a **total** order (the enumerators use
/// `(key, tie output, cell id)`), which makes the pop sequence independent
/// of sift implementation details — the property the byte-identical
/// equivalence suites rely on.
#[derive(Debug, Default)]
pub struct FrontierHeap {
    slots: Vec<FrontierEntry>,
}

impl FrontierHeap {
    /// An empty heap.
    pub fn new() -> Self {
        FrontierHeap { slots: Vec::new() }
    }

    /// An empty heap with the capacity `entries` one-at-a-time pushes
    /// would have grown it to (doubling from four), in one allocation. The
    /// bulk build sizes each queue this way so that the capacity-based
    /// byte accounting, and the point at which a later successor push
    /// grows the queue, are those of the incremental build.
    pub fn with_pushed_capacity(entries: usize) -> Self {
        let capacity = match entries {
            0 => 0,
            n => n.next_power_of_two().max(4),
        };
        FrontierHeap {
            slots: Vec::with_capacity(capacity),
        }
    }

    /// Append an entry without restoring heap order; callers finish a run
    /// of these with [`FrontierHeap::heapify`] before reading the heap.
    pub fn push_unordered(&mut self, entry: FrontierEntry) {
        self.slots.push(entry);
    }

    /// Establish heap order over the stored entries in linear time.
    pub fn heapify(&mut self, mut cmp: impl FnMut(FrontierEntry, FrontierEntry) -> Ordering) {
        for i in (0..self.slots.len() / 2).rev() {
            self.sift_down(i, &mut cmp);
        }
    }

    fn sift_down(
        &mut self,
        mut i: usize,
        cmp: &mut impl FnMut(FrontierEntry, FrontierEntry) -> Ordering,
    ) {
        let n = self.slots.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let smallest =
                if right < n && cmp(self.slots[right], self.slots[left]) == Ordering::Less {
                    right
                } else {
                    left
                };
            if cmp(self.slots[smallest], self.slots[i]) == Ordering::Less {
                self.slots.swap(i, smallest);
                i = smallest;
            } else {
                break;
            }
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The minimum entry without removing it.
    pub fn peek(&self) -> Option<FrontierEntry> {
        self.slots.first().copied()
    }

    /// Insert an entry; returns the bytes of freshly reserved capacity
    /// (0 when a previously popped slot was reused), for retained-memory
    /// accounting.
    pub fn push(
        &mut self,
        entry: FrontierEntry,
        mut cmp: impl FnMut(FrontierEntry, FrontierEntry) -> Ordering,
    ) -> usize {
        let cap_before = self.slots.capacity();
        self.slots.push(entry);
        let grown = (self.slots.capacity() - cap_before) * std::mem::size_of::<FrontierEntry>();
        let mut i = self.slots.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if cmp(self.slots[i], self.slots[parent]) == Ordering::Less {
                self.slots.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
        grown
    }

    /// Remove and return the minimum entry.
    pub fn pop(
        &mut self,
        mut cmp: impl FnMut(FrontierEntry, FrontierEntry) -> Ordering,
    ) -> Option<FrontierEntry> {
        let n = self.slots.len();
        if n == 0 {
            return None;
        }
        self.slots.swap(0, n - 1);
        let top = self.slots.pop();
        self.sift_down(0, &mut cmp);
        top
    }

    /// Bytes of reserved entry storage (capacity-based: pops do not return
    /// memory to the allocator).
    pub fn retained_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<FrontierEntry>()
    }

    /// Bytes of live entries.
    pub fn live_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<FrontierEntry>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_ranking::{ExactSum, Weight};

    #[test]
    fn arena_stores_fixed_stride_cells() {
        let mut arena = CellArena::new(2, 3);
        let a = arena.push(7, 0, 4, 1, &[10, 20], &[0, 1, 2]);
        let b = arena.push(8, 2, 5, 0, &[30, 40], &[3, 4, 5]);
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.output(a), &[10, 20]);
        assert_eq!(arena.output(b), &[30, 40]);
        assert_eq!(arena.ptrs(b), &[3, 4, 5]);
        assert_eq!(arena.row(a), 7);
        assert_eq!(arena.anchor(b), 2);
        assert_eq!(arena.key_id(a), 4);
        assert_eq!(arena.advance_from(a), 1);
        assert_eq!(arena.next(a), NEXT_NOT_COMPUTED);
        arena.set_next(a, 1);
        assert_eq!(arena.next(a), 1);
        arena.set_next(a, NEXT_EXHAUSTED);
        assert_eq!(arena.next(a), NEXT_EXHAUSTED);
        assert_eq!(arena.bytes(), 2 * arena.bytes_per_cell());
        assert_eq!(
            arena.bytes_per_cell(),
            2 * 8 + 3 * 4 + std::mem::size_of::<CellMeta>()
        );
    }

    #[test]
    fn zero_stride_arena_for_leafless_projectionless_nodes() {
        let mut arena = CellArena::new(0, 0);
        let a = arena.push(0, 0, 0, 0, &[], &[]);
        assert_eq!(arena.output(a), &[] as &[Value]);
        assert_eq!(arena.ptrs(a), &[] as &[CellId]);
    }

    #[test]
    fn interner_dedups_and_compares_by_value() {
        let mut i: KeyInterner<ExactSum> = KeyInterner::new();
        let (a, a_bytes) = i.intern(ExactSum::of([Weight::new(1.0)]));
        let (b, b_bytes) = i.intern(ExactSum::of([Weight::new(2.0)]));
        let (a2, a2_bytes) = i.intern(ExactSum::of([Weight::new(1.0)]));
        assert_eq!(a, a2, "identical keys share one id");
        assert_ne!(a, b);
        assert!(a_bytes > 0 && b_bytes > 0);
        assert_eq!(a2_bytes, 0, "deduplicated keys retain nothing");
        assert_eq!(i.len(), 2);
        assert_eq!(i.cmp(a, b), Ordering::Less);
        assert_eq!(i.cmp(b, a), Ordering::Greater);
        assert_eq!(i.cmp(a, a2), Ordering::Equal);
        assert!(i.bytes() > 0);
    }

    #[test]
    fn interner_survives_fingerprint_collisions() {
        // Integer fingerprints are the identity, so force a collision by
        // interning keys whose fingerprints collide modulo the bucket map:
        // same bucket, different values must still get distinct ids.
        let mut i: KeyInterner<u64> = KeyInterner::new();
        let (a, _) = i.intern(5);
        let (b, _) = i.intern(5);
        assert_eq!(a, b);
        let (c, _) = i.intern(6);
        assert_ne!(a, c);
        assert_eq!(*i.get(c), 6);
    }

    #[test]
    fn heap_pops_in_comparator_order() {
        // Key ids double as the keys themselves via an identity table.
        let cmp = |a: FrontierEntry, b: FrontierEntry| {
            a.key.cmp(&b.key).then_with(|| a.cell.cmp(&b.cell))
        };
        let mut h = FrontierHeap::new();
        for (key, cell) in [(5, 0), (1, 1), (3, 2), (1, 0), (4, 4)] {
            h.push(FrontierEntry { key, cell }, cmp);
        }
        assert_eq!(h.len(), 5);
        assert_eq!(h.peek(), Some(FrontierEntry { key: 1, cell: 0 }));
        let mut popped = Vec::new();
        while let Some(e) = h.pop(cmp) {
            popped.push((e.key, e.cell));
        }
        assert_eq!(popped, vec![(1, 0), (1, 1), (3, 2), (4, 4), (5, 0)]);
        assert!(h.is_empty());
        assert!(h.retained_bytes() >= 5 * std::mem::size_of::<FrontierEntry>());
        assert_eq!(h.live_bytes(), 0);
    }

    #[test]
    fn bulk_built_heap_equals_the_pushed_one_in_capacity_and_pop_order() {
        let cmp = |a: FrontierEntry, b: FrontierEntry| {
            a.key.cmp(&b.key).then_with(|| a.cell.cmp(&b.cell))
        };
        for n in [0usize, 1, 3, 4, 5, 8, 9, 100, 1024, 1025] {
            let entries: Vec<FrontierEntry> = (0..n as u32)
                .map(|i| FrontierEntry {
                    key: i.wrapping_mul(2_654_435_761) % 17,
                    cell: i,
                })
                .collect();
            let mut pushed = FrontierHeap::new();
            let mut grown = 0;
            for &e in &entries {
                grown += pushed.push(e, cmp);
            }
            let mut bulk = FrontierHeap::with_pushed_capacity(n);
            for &e in &entries {
                bulk.push_unordered(e);
            }
            bulk.heapify(cmp);
            assert_eq!(bulk.retained_bytes(), pushed.retained_bytes(), "n = {n}");
            assert_eq!(bulk.retained_bytes(), grown, "n = {n}");
            assert_eq!(bulk.peek(), pushed.peek());
            while let Some(e) = pushed.pop(cmp) {
                assert_eq!(bulk.pop(cmp), Some(e));
            }
            assert!(bulk.pop(cmp).is_none());
        }
    }

    #[test]
    fn interner_keeps_ids_across_table_growth() {
        let mut i: KeyInterner<u64> = KeyInterner::new();
        // Far past the slot array's initial size; fingerprints of u64 keys
        // are the identity, multiples of 2^32 agree in their low bits.
        let ids: Vec<u32> = (0..5_000u64).map(|k| i.intern(k << 32).0).collect();
        assert_eq!(ids, (0..5_000).collect::<Vec<u32>>());
        for k in 0..5_000u64 {
            assert_eq!(i.intern(k << 32), (k as u32, 0));
        }
        assert_eq!(i.len(), 5_000);
        assert_eq!(i.bytes(), 5_000 * (8 + INTERN_BUCKET_BYTES));
    }

    #[test]
    fn heap_matches_std_binary_heap_on_a_mixed_sequence() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let cmp = |a: FrontierEntry, b: FrontierEntry| {
            a.key.cmp(&b.key).then_with(|| a.cell.cmp(&b.cell))
        };
        let mut ours = FrontierHeap::new();
        let mut theirs: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
        // Deterministic pseudo-random interleave of pushes and pops.
        let mut x: u64 = 0x243F6A8885A308D3;
        for step in 0..500u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if !x.is_multiple_of(3) || theirs.is_empty() {
                let key = (x >> 32) as u32 % 50;
                let e = FrontierEntry { key, cell: step };
                ours.push(e, cmp);
                theirs.push(Reverse((key, step)));
            } else {
                let a = ours.pop(cmp).map(|e| (e.key, e.cell));
                let b = theirs.pop().map(|Reverse(p)| p);
                assert_eq!(a, b);
            }
        }
        while let Some(Reverse(p)) = theirs.pop() {
            assert_eq!(ours.pop(cmp).map(|e| (e.key, e.cell)), Some(p));
        }
        assert!(ours.pop(cmp).is_none());
    }
}
