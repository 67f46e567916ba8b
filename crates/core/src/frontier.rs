//! The shared frontier kernel: arena-backed cells, rank keys that are
//! either the heap entry's own prefix or interned once, and priority queues
//! whose comparisons are decided from the heap entry.
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
//!   per-cell metadata (`row`, `anchor`, `advance_from`, `next`) is four
//!   `u32`s. No per-cell allocations, ever. A cell does not remember its
//!   rank key: the key id lives in the cell's heap entry while the cell is
//!   queued and nothing needs it after the pop.
//! * [`KeyInterner`] — each distinct rank key the entry cannot hold is
//!   stored once; entries carry a `u32` key id and compare by table lookup
//!   ([`KeyInterner::cmp`]), never by cloning key expansions. A key whose
//!   [`RankKey::prefix_is_exact`] — an integer, a [`Weight`], an
//!   [`ExactSum`] of one component: every `SUM` over integer-valued
//!   weights — is **not** stored at all: the prefix in its entry is the
//!   key, and the entry carries the reserved id [`EXACT_KEY`]
//!   ([`KeyInterner::entry`] is the one place that decides, per key).
//! * [`FrontierHeap`] — a binary min-heap of 24-byte [`FrontierEntry`]s.
//!
//! [`Weight`]: re_ranking::Weight
//! [`ExactSum`]: re_ranking::ExactSum
//!
//! # Entry layout and the comparator
//!
//! A delay of `O(log |D|)` priority-queue operations is only as good as
//! one operation, and one operation is a chain of comparisons whose
//! outcome the branch predictor cannot guess. When both operands of such
//! a comparison sit behind dependent loads (entry → key id → interned key
//! → expansion, or entry → cell → output slab), the sift stalls on every
//! level. So an entry carries, next to the ids, the two words that decide
//! almost every comparison:
//!
//! ```text
//! prefix: u64   RankKey::prefix of the key — `<` on prefixes implies `<`
//!               on keys, equal prefixes decide nothing
//! tie0:   u64   the cell's output at the first tie-break position
//! key:    u32   interned key id, or EXACT_KEY: the prefix is the key
//! cell:   u32   cell id
//! ```
//!
//! and the order of two entries is found in three steps:
//!
//! 1. the prefixes differ — they decide;
//! 2. the key **ids** are equal, so the keys are, and `tie0` differs — it
//!    decides (the first position of the output tie-break);
//! 3. otherwise [`entry_cmp`]: the keys, then the whole tie-permuted
//!    output, then the cell id.
//!
//! Step 2 must wait for key equality to be *known*. Equal prefixes do not
//! mean equal keys — every key type whose prefix is coarser than the key
//! (a lexicographic key shares its prefix with every key that agrees on
//! the first attribute; a multi-component sum with the `f64` below it; a
//! custom key with the default prefix shares it with everything) would be
//! ordered by output instead of by rank if `tie0` were consulted on equal
//! prefixes alone. Two distinct ids may still hold equal keys (see
//! [`KeyInterner`]); that pair simply takes step 3. Two [`EXACT_KEY`]
//! entries of equal prefix are the other way to know: both prefixes are
//! exact, so the keys are equal, and the id test of step 2 already reads
//! that case right — the reserved id equals itself.
//!
//! Step 3 orders the keys of a pair of equal prefixes from what the entries
//! say about them. Both ids [`EXACT_KEY`]: equal. One of them: the exact
//! key is the smaller — it is the least key of its prefix, by the contract
//! of [`RankKey::prefix_is_exact`] (for a sum: the stored key is a
//! canonical expansion whose floor is the exact key's value, and such an
//! expansion is never itself an `f64`). Neither: the interner compares the
//! stored keys by value, as it always did.
//!
//! Steps 1 and 2 are what the comparator of step 3 would have answered —
//! the same total order `(key, tie output, cell id)` as before, computed
//! from less — so the pop sequence is unchanged, and because that order is
//! total, it does not depend on how the heap arranges its slots either.
//! [`FrontierHeap`] runs steps 1 and 2 itself, as flag arithmetic on the
//! two entries, and calls the comparator only for step 3.
//!
//! Everything here is byte-accounted: the arena, interner and heap all
//! report their footprint so [`EnumStats`](crate::EnumStats) can expose
//! `frontier_bytes` / `frontier_peak_bytes` and the server can enforce
//! session memory budgets.

use re_ranking::RankKey;
use re_storage::{mix_key, IdSlots, Value};
use std::cmp::Ordering;

/// Index of a cell inside a node's arena.
pub type CellId = u32;

/// The key id of an entry whose [`FrontierEntry::prefix`] is its whole key
/// ([`RankKey::prefix_is_exact`]): nothing is stored for it. Interned ids
/// are dense from zero and there are never more of them than cells, whose
/// ids stop short of the `next` sentinels below.
pub const EXACT_KEY: u32 = u32::MAX;

/// Packed `next`-pointer sentinel: not computed yet (`⊥` in the paper).
pub const NEXT_NOT_COMPUTED: u32 = u32::MAX;
/// Packed `next`-pointer sentinel: the ranked output is exhausted.
pub const NEXT_EXHAUSTED: u32 = u32::MAX - 1;

/// Per-cell metadata: four `u32`s, stored in one flat vector.
#[derive(Clone, Copy, Debug)]
struct CellMeta {
    /// Row index of the node tuple inside the node's reduced relation.
    row: u32,
    /// Anchor-queue id the cell belongs to (see the enumerator: anchor
    /// values get dense ids during preprocessing, so successor pushes and
    /// `Topdown` never rebuild or hash an anchor tuple).
    anchor: u32,
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

/// Stores each distinct rank key that does not fit its heap entry once and
/// hands out dense `u32` ids ([`KeyInterner::entry`] keeps the keys whose
/// prefix is exact out of it).
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
        debug_assert_ne!(id, EXACT_KEY, "interned ids stay below the reserved one");
        let bytes = std::mem::size_of::<K>() + key.heap_bytes() + INTERN_BUCKET_BYTES;
        self.key_heap_bytes += key.heap_bytes();
        self.keys.push(key);
        self.fingerprints.push(fp);
        (id, bytes)
    }

    /// The heap entry of `cell`, ranked by `key`, and the bytes newly
    /// retained for it. A key whose prefix is exact is dropped here — the
    /// entry's prefix is all of it — and costs nothing; any other key is
    /// interned. This is the only place an entry gets its key id.
    pub fn entry(&mut self, key: K, tie0: Value, cell: CellId) -> (FrontierEntry, usize) {
        let prefix = key.prefix();
        let (key, bytes) = if key.prefix_is_exact() {
            (EXACT_KEY, 0)
        } else {
            self.intern(key)
        };
        let entry = FrontierEntry {
            prefix,
            tie0,
            key,
            cell,
        };
        (entry, bytes)
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

/// One pending frontier entry: the cell it ranks, its key id, and the two
/// words that decide most comparisons without following either id (see the
/// module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrontierEntry {
    /// [`RankKey::prefix`] of the entry's key.
    pub prefix: u64,
    /// The cell's output at the first tie-break position (0 for a node
    /// with no output attributes).
    pub tie0: Value,
    /// Interned rank-key id (resolved against the node's [`KeyInterner`]),
    /// or [`EXACT_KEY`] when `prefix` is the whole key.
    pub key: u32,
    /// The cell id (resolved against the node's [`CellArena`]).
    pub cell: CellId,
}

/// Whether `a` orders before `b`: steps 1 and 2 of the module docs from
/// the entries alone — as flags, so that picking the smaller of two
/// children compiles to arithmetic instead of an unpredictable branch —
/// and `cmp`, the total order itself, for what they leave undecided.
#[inline(always)]
fn less(
    a: FrontierEntry,
    b: FrontierEntry,
    cmp: &mut impl FnMut(FrontierEntry, FrontierEntry) -> Ordering,
) -> bool {
    let same_prefix = a.prefix == b.prefix;
    let decided = !same_prefix | ((a.key == b.key) & (a.tie0 != b.tie0));
    if !decided {
        return cmp(a, b) == Ordering::Less;
    }
    let inline = (a.prefix < b.prefix) | (same_prefix & (a.tie0 < b.tie0));
    debug_assert_eq!(
        inline,
        cmp(a, b) == Ordering::Less,
        "the inline fields of {a:?} and {b:?} contradict the comparator"
    );
    inline
}

/// Step 3 of the module docs, and the one definition of the frontier's
/// total order `(key, tie-permuted output, cell id)`: the keys as the
/// entries describe them, then the outputs read from `arena` in `tie_perm`
/// order, then the cell ids.
///
/// It takes the answer from the entries where they carry it, so it is also
/// right for a pair the heap would have settled in steps 1 and 2;
/// [`FrontierHeap`] runs those itself and calls this for the rest.
pub fn entry_cmp<K: RankKey>(
    keys: &KeyInterner<K>,
    arena: &CellArena,
    tie_perm: &[usize],
    a: FrontierEntry,
    b: FrontierEntry,
) -> Ordering {
    if a.prefix != b.prefix {
        debug_assert!(
            a.key == EXACT_KEY
                || b.key == EXACT_KEY
                || a.prefix.cmp(&b.prefix) == keys.cmp(a.key, b.key)
        );
        return a.prefix.cmp(&b.prefix);
    }
    if a.key != b.key {
        // An exact key is the least key of its prefix; two stored keys
        // compare by value.
        let by_key = match (a.key == EXACT_KEY, b.key == EXACT_KEY) {
            (true, _) => Ordering::Less,
            (_, true) => Ordering::Greater,
            _ => keys.cmp(a.key, b.key),
        };
        if by_key != Ordering::Equal {
            return by_key;
        }
    }
    if a.cell == b.cell {
        return Ordering::Equal;
    }
    // The keys are known equal from here on, so the outputs decide, and
    // the entries hold the first value the loop below would read.
    if a.tie0 != b.tie0 {
        return a.tie0.cmp(&b.tie0);
    }
    let oa = arena.output(a.cell);
    let ob = arena.output(b.cell);
    for &p in tie_perm {
        match oa[p].cmp(&ob[p]) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    a.cell.cmp(&b.cell)
}

/// A binary min-heap of [`FrontierEntry`]s.
///
/// Every operation takes the comparator `cmp`: a **total** order (the
/// enumerators use [`entry_cmp`]: key, tie output, cell id) that agrees
/// with the entries' inline fields wherever those decide — the heap
/// consults them first and `cmp` for the rest, and debug builds assert the
/// agreement on every comparison. Totality makes the pop sequence independent of sift
/// implementation details — the property the byte-identical equivalence
/// suites rely on.
#[derive(Debug, Default)]
pub struct FrontierHeap {
    slots: Vec<FrontierEntry>,
}

impl FrontierHeap {
    /// An empty heap.
    pub fn new() -> Self {
        FrontierHeap { slots: Vec::new() }
    }

    /// An empty heap with room for exactly `entries` entries. The bulk
    /// build knows every queue's size up front and most anchor queues
    /// never grow past it, so they reserve no more than they hold.
    pub fn with_capacity(entries: usize) -> Self {
        FrontierHeap {
            slots: Vec::with_capacity(entries),
        }
    }

    /// Append an entry without restoring heap order; callers finish a run
    /// of these with [`FrontierHeap::heapify`] before reading the heap.
    pub fn push_unordered(&mut self, entry: FrontierEntry) {
        self.slots.push(entry);
    }

    /// Establish heap order over the stored entries in linear time.
    pub fn heapify(&mut self, mut cmp: impl FnMut(FrontierEntry, FrontierEntry) -> Ordering) {
        let slots = self.slots.as_mut_slice();
        let n = slots.len();
        for start in (0..n / 2).rev() {
            // Sift `moving` down until neither child orders before it.
            let moving = slots[start];
            let mut hole = start;
            loop {
                let left = 2 * hole + 1;
                if left >= n {
                    break;
                }
                let right_first = left + 1 < n && less(slots[left + 1], slots[left], &mut cmp);
                let child = left + usize::from(right_first);
                if !less(slots[child], moving, &mut cmp) {
                    break;
                }
                slots[hole] = slots[child];
                hole = child;
            }
            slots[hole] = moving;
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

    /// The pending entries in heap-array order.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> &[FrontierEntry] {
        &self.slots
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
        let hole = self.slots.len() - 1;
        self.sift_up(hole, entry, &mut cmp);
        grown
    }

    /// Move the hole at `hole` up past every ancestor `entry` orders
    /// before, then fill it with `entry`.
    fn sift_up(
        &mut self,
        mut hole: usize,
        entry: FrontierEntry,
        cmp: &mut impl FnMut(FrontierEntry, FrontierEntry) -> Ordering,
    ) {
        let slots = self.slots.as_mut_slice();
        while hole > 0 {
            let parent = (hole - 1) / 2;
            if !less(entry, slots[parent], cmp) {
                break;
            }
            slots[hole] = slots[parent];
            hole = parent;
        }
        slots[hole] = entry;
    }

    /// Remove and return the minimum entry.
    ///
    /// The root leaves a hole that sinks to the bottom along the smaller
    /// child — one comparison per level, its outcome an index computed
    /// from the entries, not a branch — and the displaced last entry
    /// sifts up from there. It came from the bottom level, so it rarely
    /// climbs: about half the comparisons of swapping it to the root and
    /// sifting it down against both children of every level.
    pub fn pop(
        &mut self,
        mut cmp: impl FnMut(FrontierEntry, FrontierEntry) -> Ordering,
    ) -> Option<FrontierEntry> {
        let last = self.slots.pop()?;
        let slots = self.slots.as_mut_slice();
        let n = slots.len();
        if n == 0 {
            return Some(last);
        }
        let top = slots[0];
        let mut hole = 0;
        loop {
            let left = 2 * hole + 1;
            if left + 1 >= n {
                break;
            }
            let child = left + usize::from(less(slots[left + 1], slots[left], &mut cmp));
            slots[hole] = slots[child];
            hole = child;
        }
        // A last level of odd length leaves the hole above an only child.
        let only = 2 * hole + 1;
        if only < n {
            slots[hole] = slots[only];
            hole = only;
        }
        self.sift_up(hole, last, &mut cmp);
        Some(top)
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
        let a = arena.push(7, 0, 1, &[10, 20], &[0, 1, 2]);
        let b = arena.push(8, 2, 0, &[30, 40], &[3, 4, 5]);
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.output(a), &[10, 20]);
        assert_eq!(arena.output(b), &[30, 40]);
        assert_eq!(arena.ptrs(b), &[3, 4, 5]);
        assert_eq!(arena.row(a), 7);
        assert_eq!(arena.anchor(b), 2);
        assert_eq!(arena.advance_from(a), 1);
        assert_eq!(arena.next(a), NEXT_NOT_COMPUTED);
        arena.set_next(a, 1);
        assert_eq!(arena.next(a), 1);
        arena.set_next(a, NEXT_EXHAUSTED);
        assert_eq!(arena.next(a), NEXT_EXHAUSTED);
        assert_eq!(arena.bytes(), 2 * arena.bytes_per_cell());
        assert_eq!(arena.bytes_per_cell(), 2 * 8 + 3 * 4 + 4 * 4);
    }

    #[test]
    fn zero_stride_arena_for_leafless_projectionless_nodes() {
        let mut arena = CellArena::new(0, 0);
        let a = arena.push(0, 0, 0, &[], &[]);
        assert_eq!(arena.output(a), &[] as &[Value]);
        assert_eq!(arena.ptrs(a), &[] as &[CellId]);
    }

    #[test]
    fn interner_dedups_and_compares_by_value() {
        // Sums that expand — `0.1 + 0.2` carries a roundoff — are the keys
        // that still reach the interner; a one-component sum never does
        // (`a_mixed_population_pops_in_key_output_cell_order` below).
        let tenths = |a: u32, b: u32| {
            let sum = ExactSum::of([a, b].map(|v| Weight::new(0.1 * f64::from(v))));
            assert!(!sum.prefix_is_exact(), "0.{a} + 0.{b} must expand");
            sum
        };
        let mut i: KeyInterner<ExactSum> = KeyInterner::new();
        let (a, a_bytes) = i.intern(tenths(1, 2));
        let (b, b_bytes) = i.intern(tenths(2, 5));
        let (a2, a2_bytes) = i.intern(tenths(2, 1));
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
    fn an_entry_is_three_words() {
        assert_eq!(std::mem::size_of::<FrontierEntry>(), 24);
    }

    /// How much of the order the inline fields of a test entry carry. The
    /// key id doubles as the key (an identity interner), so every scheme
    /// keeps `prefix` weakly monotone in it.
    #[derive(Clone, Copy, Debug)]
    enum Inline {
        /// `prefix` is the key and `tie0` unique: no comparison reaches
        /// the comparator.
        All,
        /// Twenty keys share a prefix and four cells a `tie0`: about 40 %
        /// of the comparisons reach it.
        Some,
        /// Constant inline fields: every comparison reaches it.
        Nothing,
    }

    fn entry(inline: Inline, key: u32, cell: u32) -> FrontierEntry {
        let (prefix, tie0) = match inline {
            Inline::All => (key, cell),
            Inline::Some => (key / 20, cell % 4),
            Inline::Nothing => (0, 0),
        };
        FrontierEntry {
            prefix: u64::from(prefix),
            tie0: u64::from(tie0),
            key,
            cell,
        }
    }

    /// The total order of the test entries: `(key, tie0, cell)`.
    fn total(a: FrontierEntry, b: FrontierEntry) -> Ordering {
        (a.key, a.tie0, a.cell).cmp(&(b.key, b.tie0, b.cell))
    }

    /// [`total`], in the shape `std`'s max-heap pops smallest-first.
    #[derive(PartialEq, Eq, Debug)]
    struct ByTotal(FrontierEntry);

    impl Ord for ByTotal {
        fn cmp(&self, other: &Self) -> Ordering {
            total(other.0, self.0)
        }
    }

    impl PartialOrd for ByTotal {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// A deterministic stream of pseudo-random words.
    fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed;
        move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 32
        }
    }

    #[test]
    fn heap_pops_in_comparator_order() {
        let mut h = FrontierHeap::new();
        for (key, cell) in [(5, 0), (1, 1), (3, 2), (1, 0), (4, 4)] {
            h.push(entry(Inline::Nothing, key, cell), total);
        }
        assert_eq!(h.len(), 5);
        assert_eq!(h.peek(), Some(entry(Inline::Nothing, 1, 0)));
        let mut popped = Vec::new();
        while let Some(e) = h.pop(total) {
            popped.push((e.key, e.cell));
        }
        assert_eq!(popped, vec![(1, 0), (1, 1), (3, 2), (4, 4), (5, 0)]);
        assert!(h.is_empty());
        assert!(h.retained_bytes() >= 5 * std::mem::size_of::<FrontierEntry>());
        assert_eq!(h.live_bytes(), 0);
    }

    #[test]
    fn the_mixed_scheme_leaves_about_two_fifths_of_the_pairs_to_the_comparator() {
        let mut draw = lcg(7);
        let entries: Vec<FrontierEntry> = (0..400)
            .map(|cell| entry(Inline::Some, draw() as u32 % 50, cell))
            .collect();
        let mut undecided = 0;
        let mut cmp = total;
        for &a in &entries {
            for &b in &entries {
                assert_eq!(less(a, b, &mut cmp), total(a, b) == Ordering::Less);
                let decided = a.prefix != b.prefix || (a.key == b.key && a.tie0 != b.tie0);
                undecided += usize::from(!decided);
            }
        }
        let share = undecided as f64 / (entries.len() * entries.len()) as f64;
        assert!((0.3..0.5).contains(&share), "{share}");
    }

    /// The bulk build and one-at-a-time pushes are the same heap as far as
    /// anyone can observe — the same pop sequence, which is also `std`'s —
    /// at every size around the shape changes of a binary heap, whatever
    /// share of the comparisons the inline fields decide. Only the
    /// reservation differs: a bulk-built queue holds exactly its entries
    /// (commit of PR 15; the build used to round up to the capacity
    /// doubling from four would have reached).
    #[test]
    fn bulk_built_heap_reserves_its_length_and_pops_like_the_pushed_one_and_like_std() {
        use std::collections::BinaryHeap;
        for inline in [Inline::All, Inline::Some, Inline::Nothing] {
            for n in [0usize, 1, 2, 3, 4, 5, 8, 9, 100, 1024, 1025] {
                let mut draw = lcg(n as u64);
                let entries: Vec<FrontierEntry> = (0..n as u32)
                    .map(|cell| entry(inline, draw() as u32 % 50, cell))
                    .collect();
                let mut pushed = FrontierHeap::new();
                let mut grown = 0;
                for &e in &entries {
                    grown += pushed.push(e, total);
                }
                assert_eq!(pushed.retained_bytes(), grown, "{inline:?} n = {n}");
                let mut bulk = FrontierHeap::with_capacity(n);
                for &e in &entries {
                    bulk.push_unordered(e);
                }
                bulk.heapify(total);
                assert_eq!(bulk.retained_bytes(), n * 24, "{inline:?} n = {n}");
                assert_eq!(bulk.peek(), pushed.peek());
                let mut theirs: BinaryHeap<ByTotal> = entries.iter().map(|&e| ByTotal(e)).collect();
                while let Some(ByTotal(e)) = theirs.pop() {
                    assert_eq!(pushed.pop(total), Some(e), "{inline:?} n = {n}");
                    assert_eq!(bulk.pop(total), Some(e), "{inline:?} n = {n}");
                }
                assert!(pushed.pop(total).is_none() && bulk.pop(total).is_none());
            }
        }
    }

    #[test]
    fn heap_matches_std_binary_heap_on_a_mixed_sequence() {
        use std::collections::BinaryHeap;
        for inline in [Inline::All, Inline::Some, Inline::Nothing] {
            let mut ours = FrontierHeap::new();
            let mut theirs: BinaryHeap<ByTotal> = BinaryHeap::new();
            // Deterministic pseudo-random interleave of pushes and pops.
            let mut draw = lcg(0x243F6A8885A308D3);
            for step in 0..3_000u32 {
                let x = draw();
                if !x.is_multiple_of(3) || theirs.is_empty() {
                    let e = entry(inline, (x >> 8) as u32 % 50, step);
                    ours.push(e, total);
                    theirs.push(ByTotal(e));
                } else {
                    assert_eq!(ours.pop(total), theirs.pop().map(|ByTotal(e)| e));
                }
                assert_eq!(ours.peek(), theirs.peek().map(|ByTotal(e)| *e));
            }
            while let Some(ByTotal(e)) = theirs.pop() {
                assert_eq!(ours.pop(total), Some(e), "{inline:?}");
            }
            assert!(ours.pop(total).is_none());
        }
    }

    /// One queue, every kind of key at once: keys that are one `f64` (never
    /// stored), two-component sums whose floor *is* one of those — so an
    /// exact and a stored key meet on equal prefixes — spilled sums on the
    /// same floors, and plenty of rank ties among all of them, down to
    /// equal outputs that only the cell id separates. The pop sequence is
    /// the sort by `(key, tie-permuted output, cell)` whether the heap was
    /// pushed or bulk-built, and the interner holds the keys that expand
    /// and nothing else.
    #[test]
    fn a_mixed_population_pops_in_key_output_cell_order() {
        let (nudge, dust) = (2.0f64.powi(-60), 2.0f64.powi(-120));
        let bases = [1.0, 1.0f64.next_down(), 1.0f64.next_up(), 2.0, -1.0, 0.0];
        let mut pool: Vec<ExactSum> = Vec::new();
        for base in bases {
            pool.push(ExactSum::of([Weight::new(base)]));
            pool.push(ExactSum::of([base, nudge].map(Weight::new)));
            pool.push(ExactSum::of([base, -nudge].map(Weight::new)));
            pool.push(ExactSum::of([base, nudge, dust].map(Weight::new)));
        }
        assert!(pool.iter().any(|k| k.heap_bytes() > 0), "some sums spill");
        let floors_shared = pool
            .iter()
            .filter(|k| !k.prefix_is_exact())
            .filter(|k| {
                pool.iter()
                    .any(|e| e.prefix_is_exact() && e.prefix() == k.prefix())
            })
            .count();
        assert!(floors_shared >= 12, "{floors_shared} sums share a floor");

        let tie_perm = [1usize, 0];
        let mut draw = lcg(0x5EED);
        let mut arena = CellArena::new(2, 0);
        let mut keys: KeyInterner<ExactSum> = KeyInterner::new();
        let mut cells: Vec<(ExactSum, FrontierEntry)> = Vec::new();
        for _ in 0..2_000 {
            let key = pool[draw() as usize % pool.len()].clone();
            let output = [draw() % 3, draw() % 3];
            let cell = arena.push(0, 0, 0, &output, &[]);
            let (entry, _) = keys.entry(key.clone(), output[tie_perm[0]], cell);
            assert_eq!(entry.key == EXACT_KEY, key.prefix_is_exact());
            cells.push((key, entry));
        }
        let mut stored: Vec<&ExactSum> = pool.iter().filter(|k| !k.prefix_is_exact()).collect();
        stored.sort();
        stored.dedup();
        assert_eq!(keys.len(), stored.len());

        let mut expected: Vec<&(ExactSum, FrontierEntry)> = cells.iter().collect();
        expected.sort_by(|(ka, a), (kb, b)| {
            let permuted = |e: &FrontierEntry| tie_perm.map(|p| arena.output(e.cell)[p]);
            (ka, permuted(a), a.cell).cmp(&(kb, permuted(b), b.cell))
        });
        let cmp = |a, b| entry_cmp(&keys, &arena, &tie_perm, a, b);
        let mut pushed = FrontierHeap::new();
        let mut bulk = FrontierHeap::with_capacity(cells.len());
        for &(_, entry) in &cells {
            pushed.push(entry, cmp);
            bulk.push_unordered(entry);
        }
        bulk.heapify(cmp);
        for (_, entry) in expected {
            assert_eq!(pushed.pop(cmp), Some(*entry));
            assert_eq!(bulk.pop(cmp), Some(*entry));
        }
        assert!(pushed.is_empty() && bulk.is_empty());
    }
}
