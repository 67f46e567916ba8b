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
//! * [`CellArena`] — one node's cells, in segments that never move. A
//!   node's output arity and child count are constants, so a cell is a
//!   fixed-stride run of `Value`s (its output) and a fixed-stride run of
//!   `u32` words: three of metadata (`row`, `advance_from`, `next`) and
//!   one child pointer per child. The cells the build makes, one per
//!   reduced row, fill one block reserved for exactly that many; the cells
//!   made while enumerating fill segments of [`SEGMENT_CELLS`], after a
//!   short doubling ramp, each allocated once at its final size. No slab
//!   is ever reallocated or copied, so a cell's output keeps its address,
//!   and a node's slack is less than one segment. A cell does not
//!   remember its anchor — that is its row's, which the enumerator keeps
//!   per row — nor its rank key: the key id lives in the cell's heap entry
//!   while the cell is queued and nothing needs it after the pop.
//! * [`KeyInterner`] — each distinct rank key the entry cannot hold is
//!   stored once; entries carry a `u32` key id and compare by table lookup
//!   ([`KeyInterner::cmp`]), never by cloning key expansions. A key whose
//!   [`RankKey::prefix_is_exact`] — an integer, a [`Weight`], an
//!   [`ExactSum`] of one component: every `SUM` over integer-valued
//!   weights — is **not** stored at all: the prefix in its entry is the
//!   key, and the entry carries the reserved id [`EXACT_KEY`]
//!   ([`KeyInterner::entry`] is the one place that decides, per key).
//! * [`FrontierHeap`] — a binary min-heap of 24-byte [`FrontierEntry`]s.
//!   `Topdown` advances past the top cell of a queue with
//!   [`FrontierHeap::replace_top`] — the cell's first successor takes its
//!   slot and sinks to where it belongs, one sift instead of a pop and a
//!   push — and [`FrontierHeap::pop`]s only a cell that has no successor.
//!   Further successors of a cell with several children are
//!   [`FrontierHeap::push`]ed.
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
//! Each structure here reports the heap it holds, `heap_bytes()`, from
//! what it had the allocator hand out: the capacities of its vectors,
//! doubling slack included, and for an arena the cells its block and
//! segments were allocated for. Nothing counts bytes as cells and entries
//! come and go;
//! an enumerator sums its structures when it refreshes
//! [`EnumStats::frontier_bytes`](crate::EnumStats::frontier_bytes), the
//! figure the server's session budget evicts by.

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

/// Cells per segment once the ramp is over: the most slack a node holds
/// beyond its cells. A power of two, so a cell id splits into segment and
/// offset with a shift and a mask.
pub const SEGMENT_CELLS: usize = 4096;
/// Cells of the first segment made while enumerating; each later one
/// doubles until it reaches [`SEGMENT_CELLS`]. A frontier that grows by a
/// handful of cells reserves a handful, not a whole segment.
const FIRST_SEGMENT_CELLS: usize = 16;
/// Segments of the ramp, `FIRST_SEGMENT_CELLS` up to `SEGMENT_CELLS / 2`.
const RAMP_SEGMENTS: usize = (SEGMENT_CELLS / FIRST_SEGMENT_CELLS).ilog2() as usize;

/// A cell's words: its metadata, then one pointer per child.
const META_WORDS: usize = 3;
/// Row index of the cell's node tuple among the node's reduced rows.
const ROW: usize = 0;
/// First child pointer successors of the cell may advance (the
/// duplicate-path breaker of Algorithm 2).
const ADVANCE_FROM: usize = 1;
/// Packed `next` chain pointer ([`NEXT_NOT_COMPUTED`] / [`NEXT_EXHAUSTED`]
/// / a cell id).
const NEXT: usize = 2;

/// A run of consecutive cells, allocated at its final size: it is filled
/// up to its capacity and never grows, so its cells never move.
#[derive(Debug)]
struct Segment {
    /// Cell `i`'s output occupies `outputs[i * out_stride ..][..out_stride]`.
    outputs: Vec<Value>,
    /// Cell `i`'s metadata and child pointers occupy
    /// `words[i * word_stride ..][..word_stride]`.
    words: Vec<u32>,
}

/// The cells of one join-tree node.
///
/// Cell ids are dense from zero. The first `build_cells` of them live in
/// one block reserved for exactly that many (the enumerator builds one
/// cell per reduced row); the rest in `growth` segments of
/// `FIRST_SEGMENT_CELLS`, twice that, … up to [`SEGMENT_CELLS`], and
/// [`SEGMENT_CELLS`] from then on. Where a cell lives is a function of its
/// id alone, and a segment is allocated when its first cell is pushed.
#[derive(Debug)]
pub struct CellArena {
    out_stride: usize,
    word_stride: usize,
    build_cells: usize,
    len: usize,
    /// Cells the block and the growth segments were allocated for.
    reserved: usize,
    block: Segment,
    growth: Vec<Segment>,
}

impl CellArena {
    /// An empty arena for a node with the given output arity and child
    /// count, whose first `build_cells` cells go into one exact block.
    pub fn new(out_stride: usize, ptr_stride: usize, build_cells: usize) -> Self {
        let word_stride = META_WORDS + ptr_stride;
        CellArena {
            out_stride,
            word_stride,
            build_cells,
            len: 0,
            reserved: build_cells,
            block: Segment::with_cells(build_cells, out_stride, word_stride),
            growth: Vec::new(),
        }
    }

    /// Number of cells stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the arena holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The output arity of every cell.
    pub fn out_stride(&self) -> usize {
        self.out_stride
    }

    /// The segment `cell` lives in — `None` for the build block, else the
    /// index into `growth` — and its offset there.
    #[inline]
    fn locate(&self, cell: usize) -> (Option<usize>, usize) {
        if cell < self.build_cells {
            return (None, cell);
        }
        // Counted from the start of a virtual ramp segment of
        // `FIRST_SEGMENT_CELLS`, segment `k` of the ramp starts at the
        // power of two `FIRST_SEGMENT_CELLS << k`.
        let at = cell - self.build_cells + FIRST_SEGMENT_CELLS;
        if at < SEGMENT_CELLS {
            let top = at.ilog2() as usize;
            (
                Some(top - FIRST_SEGMENT_CELLS.ilog2() as usize),
                at - (1 << top),
            )
        } else {
            (
                Some(RAMP_SEGMENTS + at / SEGMENT_CELLS - 1),
                at % SEGMENT_CELLS,
            )
        }
    }

    /// The segment `cell` lives in and its offset there.
    #[inline]
    fn slot(&self, cell: CellId) -> (&Segment, usize) {
        match self.locate(cell as usize) {
            (None, at) => (&self.block, at),
            (Some(segment), at) => (&self.growth[segment], at),
        }
    }

    /// The cell's words: metadata, then child pointers.
    #[inline]
    fn words(&self, cell: CellId) -> &[u32] {
        let (segment, at) = self.slot(cell);
        let start = at * self.word_stride;
        &segment.words[start..start + self.word_stride]
    }

    /// Append a cell; `output` and `ptrs` must have exactly the arena's
    /// strides. Returns the new cell's id.
    pub fn push(
        &mut self,
        row: u32,
        advance_from: u32,
        output: &[Value],
        ptrs: &[CellId],
    ) -> CellId {
        debug_assert_eq!(output.len(), self.out_stride);
        debug_assert_eq!(ptrs.len() + META_WORDS, self.word_stride);
        let id = self.len;
        let segment = match self.locate(id) {
            (None, _) => &mut self.block,
            (Some(segment), _) => {
                if segment == self.growth.len() {
                    let cells = if segment < RAMP_SEGMENTS {
                        FIRST_SEGMENT_CELLS << segment
                    } else {
                        SEGMENT_CELLS
                    };
                    self.reserved += cells;
                    let fresh = Segment::with_cells(cells, self.out_stride, self.word_stride);
                    self.growth.push(fresh);
                }
                &mut self.growth[segment]
            }
        };
        debug_assert!(
            segment.words.len() < segment.words.capacity(),
            "a full segment"
        );
        segment.outputs.extend_from_slice(output);
        segment
            .words
            .extend_from_slice(&[row, advance_from, NEXT_NOT_COMPUTED]);
        segment.words.extend_from_slice(ptrs);
        self.len += 1;
        id as CellId
    }

    /// The cell's output over the node's subtree projection attributes.
    #[inline]
    pub fn output(&self, cell: CellId) -> &[Value] {
        let (segment, at) = self.slot(cell);
        let start = at * self.out_stride;
        &segment.outputs[start..start + self.out_stride]
    }

    /// The cell's child pointers, in child order.
    pub fn ptrs(&self, cell: CellId) -> &[CellId] {
        &self.words(cell)[META_WORDS..]
    }

    /// The cell's row among the node's reduced rows.
    pub fn row(&self, cell: CellId) -> u32 {
        self.words(cell)[ROW]
    }

    /// The cell's `advance_from` child index.
    pub fn advance_from(&self, cell: CellId) -> u32 {
        self.words(cell)[ADVANCE_FROM]
    }

    /// The packed `next` pointer.
    pub fn next(&self, cell: CellId) -> u32 {
        self.words(cell)[NEXT]
    }

    /// Overwrite the packed `next` pointer.
    pub fn set_next(&mut self, cell: CellId, next: u32) {
        let word_stride = self.word_stride;
        let (segment, at) = match self.locate(cell as usize) {
            (None, at) => (&mut self.block, at),
            (Some(segment), at) => (&mut self.growth[segment], at),
        };
        segment.words[at * word_stride + NEXT] = next;
    }

    /// Heap bytes of the block and the segments (what they were allocated
    /// for: each is allocated once, at its final size) and of the segment
    /// table.
    pub fn heap_bytes(&self) -> usize {
        self.reserved
            * (self.out_stride * std::mem::size_of::<Value>()
                + self.word_stride * std::mem::size_of::<u32>())
            + self.growth.capacity() * std::mem::size_of::<Segment>()
    }
}

impl Segment {
    /// A segment with room for exactly `cells` cells of the given strides.
    fn with_cells(cells: usize, out_stride: usize, word_stride: usize) -> Self {
        Segment {
            outputs: Vec::with_capacity(cells * out_stride),
            words: Vec::with_capacity(cells * word_stride),
        }
    }
}

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
    /// Heap bytes the stored keys own beyond their slots in `keys`, summed
    /// as they are stored.
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

    /// Intern `key`, returning its id.
    pub fn intern(&mut self, key: K) -> u32 {
        let fp = key.fingerprint();
        let (keys, fingerprints) = (&self.keys, &self.fingerprints);
        let (id, fresh) = self.slots.find_or_insert(
            mix_key(&[fp]),
            |id| fingerprints[id as usize] == fp && keys[id as usize].cmp(&key) == Ordering::Equal,
            |id| mix_key(&[fingerprints[id as usize]]),
        );
        if fresh {
            debug_assert_ne!(id, EXACT_KEY, "interned ids stay below the reserved one");
            self.key_heap_bytes += key.heap_bytes();
            self.keys.push(key);
            self.fingerprints.push(fp);
        }
        id
    }

    /// The heap entry of `cell`, ranked by `key`. A key whose prefix is
    /// exact is dropped here — the entry's prefix is all of it — and costs
    /// nothing; any other key is interned. This is the only place an entry
    /// gets its key id.
    pub fn entry(&mut self, key: K, tie0: Value, cell: CellId) -> FrontierEntry {
        let prefix = key.prefix();
        let key = if key.prefix_is_exact() {
            EXACT_KEY
        } else {
            self.intern(key)
        };
        FrontierEntry {
            prefix,
            tie0,
            key,
            cell,
        }
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

    /// Heap bytes of the key and fingerprint vectors and the slot array
    /// (their capacities), plus what the stored keys own themselves.
    pub fn heap_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<K>()
            + self.key_heap_bytes
            + self.fingerprints.capacity() * std::mem::size_of::<u64>()
            + self.slots.heap_bytes()
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
        for start in (0..self.slots.len() / 2).rev() {
            self.sift_down(start, self.slots[start], &mut cmp);
        }
    }

    /// Move the hole at `hole` down past every smaller child that orders
    /// before `entry`, then fill it with `entry`: two comparisons per
    /// level, and it stops where `entry` belongs.
    fn sift_down(
        &mut self,
        mut hole: usize,
        entry: FrontierEntry,
        cmp: &mut impl FnMut(FrontierEntry, FrontierEntry) -> Ordering,
    ) {
        let slots = self.slots.as_mut_slice();
        let n = slots.len();
        loop {
            let left = 2 * hole + 1;
            if left >= n {
                break;
            }
            let right_first = left + 1 < n && less(slots[left + 1], slots[left], cmp);
            let child = left + usize::from(right_first);
            if !less(slots[child], entry, cmp) {
                break;
            }
            slots[hole] = slots[child];
            hole = child;
        }
        slots[hole] = entry;
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
    /// (0 when a previously popped slot was reused), so an owner of many
    /// heaps can keep their total without visiting them.
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

    /// Remove and return the minimum entry. The enumerators pop only a cell
    /// that has no successor to take its place; the others go through
    /// [`FrontierHeap::replace_top`].
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

    /// Replace the minimum entry by `entry` and return the minimum: the
    /// pop followed by the push of `entry`, in one top-down sift.
    ///
    /// This is the step of `Topdown` that advances past a cell and queues
    /// its first successor. The successor ranks at or behind the cell it
    /// replaces, usually just behind, so it settles near the root: about
    /// two comparisons per level it sinks, where a pop sinks a hole through
    /// every level and the push then climbs most of them back.
    ///
    /// # Panics
    ///
    /// If the heap is empty.
    pub fn replace_top(
        &mut self,
        entry: FrontierEntry,
        mut cmp: impl FnMut(FrontierEntry, FrontierEntry) -> Ordering,
    ) -> FrontierEntry {
        let top = self.slots[0];
        self.sift_down(0, entry, &mut cmp);
        top
    }

    /// Heap bytes of the entry storage (its capacity: pops do not return
    /// memory to the allocator).
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<FrontierEntry>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_ranking::{ExactSum, Weight};

    #[test]
    fn arena_stores_fixed_stride_cells() {
        let mut arena = CellArena::new(2, 3, 1);
        let a = arena.push(7, 1, &[10, 20], &[0, 1, 2]);
        let b = arena.push(8, 0, &[30, 40], &[3, 4, 5]);
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.output(a), &[10, 20]);
        assert_eq!(arena.output(b), &[30, 40]);
        assert_eq!(arena.ptrs(b), &[3, 4, 5]);
        assert_eq!(arena.row(a), 7);
        assert_eq!(arena.row(b), 8);
        assert_eq!(arena.advance_from(a), 1);
        assert_eq!(arena.next(a), NEXT_NOT_COMPUTED);
        arena.set_next(a, 1);
        assert_eq!(arena.next(a), 1);
        arena.set_next(a, NEXT_EXHAUSTED);
        assert_eq!(arena.next(a), NEXT_EXHAUSTED);
        assert_eq!(arena.next(b), NEXT_NOT_COMPUTED);
        // A cell is two values and six words, 40 B. The build block holds
        // the first cell exactly; the second opened the ramp's first
        // segment of 16 cells, in a segment table of four 48-byte slots
        // (a vector's first reservation).
        assert_eq!(std::mem::size_of::<Segment>(), 48);
        assert_eq!(arena.heap_bytes(), 40 + 16 * 40 + 4 * 48);
    }

    #[test]
    fn zero_stride_arena_for_leafless_projectionless_nodes() {
        let mut arena = CellArena::new(0, 0, 0);
        let a = arena.push(0, 0, &[], &[]);
        assert_eq!(arena.output(a), &[] as &[Value]);
        assert_eq!(arena.ptrs(a), &[] as &[CellId]);
        assert_eq!(arena.heap_bytes(), 16 * 12 + 4 * 48);
    }

    /// The bytes the block and the segments were allocated with, read off
    /// the vectors themselves.
    fn allocated_bytes(arena: &CellArena) -> usize {
        std::iter::once(&arena.block)
            .chain(&arena.growth)
            .map(|s| s.outputs.capacity() * 8 + s.words.capacity() * 4)
            .sum::<usize>()
            + arena.growth.capacity() * std::mem::size_of::<Segment>()
    }

    /// Cell `i` of the arenas below: its row, `advance_from`, output and
    /// pointers, all derived from `i`.
    fn nth_cell(i: u32) -> (u32, u32, [Value; 2], [CellId; 1]) {
        (i * 3, i % 2, [u64::from(i), u64::from(i) << 32], [i ^ 0x55])
    }

    #[test]
    fn cells_read_back_across_the_block_end_and_every_segment_boundary() {
        const BUILD: u32 = 100;
        // Past the end of the ramp and three full segments after it.
        let total = BUILD + (SEGMENT_CELLS * 4) as u32;
        let mut arena = CellArena::new(2, 1, BUILD as usize);
        for i in 0..total {
            let (row, from, out, ptrs) = nth_cell(i);
            assert_eq!(arena.push(row, from, &out, &ptrs), i);
        }
        let mut boundaries = vec![BUILD];
        let mut start = BUILD as usize;
        for k in 0..RAMP_SEGMENTS + 3 {
            start += if k < RAMP_SEGMENTS {
                FIRST_SEGMENT_CELLS << k
            } else {
                SEGMENT_CELLS
            };
            boundaries.push(start as u32);
        }
        for &edge in &boundaries {
            for i in [edge - 1, edge, edge + 1]
                .into_iter()
                .filter(|&i| i < total)
            {
                let (row, from, out, ptrs) = nth_cell(i);
                assert_eq!(arena.output(i), &out, "cell {i}");
                assert_eq!(arena.ptrs(i), &ptrs, "cell {i}");
                assert_eq!(
                    (arena.row(i), arena.advance_from(i)),
                    (row, from),
                    "cell {i}"
                );
                assert_eq!(arena.next(i), NEXT_NOT_COMPUTED, "cell {i}");
                arena.set_next(i, i + 1);
                assert_eq!(arena.next(i), i + 1, "cell {i}");
                assert_eq!(arena.output(i), &out, "set_next touches only next");
            }
        }
        // Each segment is full before the next one opens.
        let (_, full) = arena.growth.split_last().expect("the arena grew");
        for (k, segment) in full.iter().enumerate() {
            assert_eq!(segment.words.len(), segment.words.capacity(), "segment {k}");
        }
    }

    #[test]
    fn a_cells_output_keeps_its_address_while_the_arena_grows() {
        let mut arena = CellArena::new(2, 1, 3);
        let (row, from, out, ptrs) = nth_cell(0);
        let built = arena.push(row, from, &out, &ptrs);
        for i in 1..5 {
            let (row, from, out, ptrs) = nth_cell(i);
            arena.push(row, from, &out, &ptrs);
        }
        let grown = 4;
        let pinned = [built, grown].map(|c| arena.output(c).as_ptr());
        for i in 5..5 + 10 * SEGMENT_CELLS as u32 {
            let (row, from, out, ptrs) = nth_cell(i);
            arena.push(row, from, &out, &ptrs);
        }
        assert_eq!([built, grown].map(|c| arena.output(c).as_ptr()), pinned);
        assert_eq!(arena.output(grown), &nth_cell(grown).2);
    }

    #[test]
    fn the_build_block_is_exact_and_growth_leaves_less_than_a_segment_of_slack() {
        const BUILD: usize = 1_000;
        const CELL_BYTES: usize = 2 * 8 + (3 + 1) * 4;
        let mut arena = CellArena::new(2, 1, BUILD);
        for i in 0..BUILD as u32 {
            let (row, from, out, ptrs) = nth_cell(i);
            arena.push(row, from, &out, &ptrs);
        }
        assert_eq!(arena.heap_bytes(), BUILD * CELL_BYTES, "exact at build");
        assert_eq!(arena.heap_bytes(), allocated_bytes(&arena));
        for i in BUILD as u32..(BUILD + 5 * SEGMENT_CELLS + 17) as u32 {
            let (row, from, out, ptrs) = nth_cell(i);
            arena.push(row, from, &out, &ptrs);
            assert_eq!(arena.heap_bytes(), allocated_bytes(&arena), "cell {i}");
            let table = arena.growth.capacity() * std::mem::size_of::<Segment>();
            let slack = arena.heap_bytes() - table - arena.len() * CELL_BYTES;
            assert!(
                slack < SEGMENT_CELLS * CELL_BYTES,
                "cell {i}: {slack} B of slack"
            );
        }
    }

    /// Random pushes and `set_next`s over random strides, against a plain
    /// vector of cells.
    #[test]
    fn arena_matches_a_vector_of_cells() {
        type Cell = (u32, u32, Vec<Value>, Vec<CellId>, u32);
        let mut draw = lcg(0xA2E4A);
        for (out_stride, ptr_stride, build) in [(0, 0, 0), (1, 0, 7), (2, 1, 0), (3, 2, 300)] {
            let mut arena = CellArena::new(out_stride, ptr_stride, build);
            let mut model: Vec<Cell> = Vec::new();
            for _ in 0..12_000 {
                if model.is_empty() || !draw().is_multiple_of(3) {
                    let out: Vec<Value> = (0..out_stride).map(|_| draw()).collect();
                    let ptrs: Vec<CellId> = (0..ptr_stride).map(|_| draw() as u32).collect();
                    let (row, from) = (draw() as u32, draw() as u32 % 4);
                    let id = arena.push(row, from, &out, &ptrs);
                    assert_eq!(id as usize, model.len());
                    model.push((row, from, out, ptrs, NEXT_NOT_COMPUTED));
                } else {
                    let cell = draw() as usize % model.len();
                    let next = draw() as u32;
                    arena.set_next(cell as CellId, next);
                    model[cell].4 = next;
                }
            }
            assert_eq!(arena.len(), model.len());
            for (id, (row, from, out, ptrs, next)) in model.iter().enumerate() {
                let c = id as CellId;
                assert_eq!(arena.output(c), &out[..], "cell {id}");
                assert_eq!(arena.ptrs(c), &ptrs[..], "cell {id}");
                assert_eq!(
                    (arena.row(c), arena.advance_from(c), arena.next(c)),
                    (*row, *from, *next),
                    "cell {id}"
                );
            }
            assert_eq!(arena.heap_bytes(), allocated_bytes(&arena));
        }
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
        let a = i.intern(tenths(1, 2));
        let b = i.intern(tenths(2, 5));
        let held = i.heap_bytes();
        let a2 = i.intern(tenths(2, 1));
        assert_eq!(a, a2, "identical keys share one id");
        assert_ne!(a, b);
        assert_eq!(i.heap_bytes(), held, "deduplicated keys retain nothing");
        assert_eq!(i.len(), 2);
        assert_eq!(i.cmp(a, b), Ordering::Less);
        assert_eq!(i.cmp(b, a), Ordering::Greater);
        assert_eq!(i.cmp(a, a2), Ordering::Equal);
    }

    #[test]
    fn interner_survives_fingerprint_collisions() {
        // Integer fingerprints are the identity, so force a collision by
        // interning keys whose fingerprints collide modulo the bucket map:
        // same bucket, different values must still get distinct ids.
        let mut i: KeyInterner<u64> = KeyInterner::new();
        let a = i.intern(5);
        let b = i.intern(5);
        assert_eq!(a, b);
        let c = i.intern(6);
        assert_ne!(a, c);
        assert_eq!(i.keys[c as usize], 6);
    }

    #[test]
    fn interner_keeps_ids_across_table_growth() {
        let mut i: KeyInterner<u64> = KeyInterner::new();
        // Far past the slot array's initial size; fingerprints of u64 keys
        // are the identity, multiples of 2^32 agree in their low bits.
        let ids: Vec<u32> = (0..5_000u64).map(|k| i.intern(k << 32)).collect();
        assert_eq!(ids, (0..5_000).collect::<Vec<u32>>());
        let held = i.heap_bytes();
        for k in 0..5_000u64 {
            assert_eq!(i.intern(k << 32), k as u32);
        }
        assert_eq!(i.len(), 5_000);
        // Keys and fingerprints doubled to 8 192 of each, the slot array
        // to 16 384 slots, the first power of two at most half full.
        assert_eq!(held, 8_192 * (8 + 8) + 16_384 * 4);
        assert_eq!(i.heap_bytes(), held);
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
        assert!(h.heap_bytes() >= 5 * std::mem::size_of::<FrontierEntry>());
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
                assert_eq!(pushed.heap_bytes(), grown, "{inline:?} n = {n}");
                let mut bulk = FrontierHeap::with_capacity(n);
                for &e in &entries {
                    bulk.push_unordered(e);
                }
                bulk.heapify(total);
                assert_eq!(bulk.heap_bytes(), n * 24, "{inline:?} n = {n}");
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

    /// Pushes, pops and replace-tops, modelled against `std` with a
    /// replace-top as a pop followed by a push. A cap on the length keeps
    /// some runs at one, two and three entries, where the sift meets a
    /// missing child at once; the uncapped run grows to hundreds.
    #[test]
    fn heap_matches_std_binary_heap_on_a_mixed_sequence() {
        use std::collections::BinaryHeap;
        for inline in [Inline::All, Inline::Some, Inline::Nothing] {
            for cap in [1usize, 2, 3, usize::MAX] {
                let mut ours = FrontierHeap::new();
                let mut theirs: BinaryHeap<ByTotal> = BinaryHeap::new();
                // Deterministic pseudo-random interleave of the three steps.
                let mut draw = lcg(0x243F6A8885A308D3);
                let mut replaced = 0;
                for step in 0..3_000u32 {
                    let x = draw();
                    let e = entry(inline, (x >> 8) as u32 % 50, step);
                    // A quarter pops, a quarter replace-tops, half pushes.
                    let op = x % 4;
                    if theirs.is_empty() || (op >= 2 && theirs.len() < cap) {
                        ours.push(e, total);
                        theirs.push(ByTotal(e));
                    } else if op == 0 {
                        assert_eq!(ours.pop(total), theirs.pop().map(|ByTotal(e)| e));
                    } else {
                        let ByTotal(top) = theirs.pop().unwrap();
                        theirs.push(ByTotal(e));
                        assert_eq!(ours.replace_top(e, total), top, "{inline:?} cap {cap}");
                        replaced += 1;
                    }
                    assert_eq!(ours.len(), theirs.len());
                    assert_eq!(ours.peek(), theirs.peek().map(|ByTotal(e)| *e));
                }
                assert!(
                    replaced > 500,
                    "{inline:?} cap {cap}: {replaced} replace-tops"
                );
                if cap == usize::MAX {
                    assert!(ours.len() > 300, "the uncapped heap grows: {}", ours.len());
                }
                while let Some(ByTotal(e)) = theirs.pop() {
                    assert_eq!(ours.pop(total), Some(e), "{inline:?} cap {cap}");
                }
                assert!(ours.pop(total).is_none());
            }
        }
    }

    /// Where every comparison reaches the comparator, a replace-top pays
    /// for the depth its entry settles at — at most two calls per level,
    /// counting the level where it stops — while a pop and a push pay for
    /// the height of the heap whatever the entry.
    #[test]
    fn replace_top_compares_by_the_depth_its_entry_settles_at() {
        const N: u32 = 1_023;
        // Keys pushed in increasing order never move: slot `i` holds key
        // `i`, the smaller child is always the left one, and the left
        // spine holds keys `2^d - 1` at depth `d`.
        let build = || {
            let mut heap = FrontierHeap::new();
            for key in 0..N {
                heap.push(entry(Inline::Nothing, key, key), total);
            }
            heap
        };
        fn counted(calls: &mut usize) -> impl FnMut(FrontierEntry, FrontierEntry) -> Ordering + '_ {
            move |a, b| {
                *calls += 1;
                total(a, b)
            }
        }
        let height = (N as f64).log2() as usize;
        for depth in 0..=height {
            // Behind the spine's key at `depth` (past it when `depth > 0`),
            // ahead of its left child's.
            let key = (2u32 << depth) - 2;
            let e = entry(Inline::Nothing, key, N + 1);
            let mut replaced = build();
            let mut calls = 0;
            replaced.replace_top(e, counted(&mut calls));
            let slot = (1usize << depth) - 1;
            assert_eq!(replaced.entries()[slot], e, "depth {depth}");
            assert!(calls <= 2 * (depth + 1), "depth {depth}: {calls} calls");

            let mut popped = build();
            let mut pop_push_calls = 0;
            popped.pop(counted(&mut pop_push_calls));
            popped.push(e, counted(&mut pop_push_calls));
            assert!(
                pop_push_calls >= height,
                "depth {depth}: {pop_push_calls} calls"
            );
            while let Some(top) = replaced.pop(total) {
                assert_eq!(popped.pop(total), Some(top));
            }
            assert!(popped.is_empty());
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
        let mut arena = CellArena::new(2, 0, 0);
        let mut keys: KeyInterner<ExactSum> = KeyInterner::new();
        let mut cells: Vec<(ExactSum, FrontierEntry)> = Vec::new();
        for _ in 0..2_000 {
            let key = pool[draw() as usize % pool.len()].clone();
            let output = [draw() % 3, draw() % 3];
            let cell = arena.push(0, 0, &output, &[]);
            let entry = keys.entry(key.clone(), output[tie_perm[0]], cell);
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
