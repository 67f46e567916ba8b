//! The general ranked-enumeration algorithm for acyclic join-project
//! queries (Algorithms 1 and 2 of the paper, Theorem 1), on the arena
//! frontier kernel.
//!
//! Each join-tree node incrementally materialises — in rank order and
//! without duplicates — the partial answers over its subtree projection
//! attributes `Aπ_i`, keyed by the node's anchor value. The materialisation
//! is driven by per-anchor priority queues whose elements are cells; the
//! `next` chain of a cell records the ranked order so that every parent
//! tuple reuses the same computation. The root is a node like any other:
//! advancing its chain with the same `Topdown` step yields the final
//! answers in rank order, and the chain of root cells *is* the ranked,
//! deduplicated answer list. `Topdown` advances past the cell on top of its
//! queue by queueing the cell's successors in its place: the first one
//! takes its slot with a single sift ([`FrontierHeap::replace_top`]), any
//! further ones are pushed, and a cell without successors is popped — the
//! counters still see one pop and one push per successor. It drops
//! duplicates by advancing past every queued cell whose output equals the
//! one it advanced past (equal outputs are adjacent because ties are
//! broken by the output tuple).
//!
//! Representation ([`crate::frontier`]): a node's cells live in its
//! [`CellArena`] — the build's in one block reserved for one cell per
//! reduced row, later ones in fixed-size segments that never move — and
//! heap entries are 24-byte [`FrontierEntry`]s ordered by `(key,
//! tie-permuted output, cell id)`. A rank key whose prefix is exact —
//! every `SUM` over integer-valued weights, hence every `ORDER BY x + y`
//! the SQL layer sends — lives in its entry's prefix and nowhere else; any
//! other key is interned once per distinct value ([`KeyInterner`]). Which of the two it is, the key says
//! itself ([`re_ranking::RankKey::prefix_is_exact`]) where its entry is
//! made, so one queue may hold both kinds and nothing selects between
//! them.
//!
//! The order is what [`entry_cmp`] computes, in three steps: the key
//! prefixes stored in the entries, when they differ; the first tie-break
//! value stored in the entries, when the keys are equal and it differs;
//! and only then the outputs in the arena and the cell ids. The first two
//! steps settle almost every comparison of a sift from the two entries
//! alone (equal key *ids* stand in for equal keys; the interner is read
//! only when equal prefixes meet two distinct stored ids). The second must
//! wait for *known* key equality, because equal prefixes do not imply it:
//! a `LexRanking` key shares its prefix with every key that agrees on the
//! first attribute, a multi-component sum with the `f64` below it, a
//! custom key that keeps the default prefix with every other key — and
//! ordering those by output would break the rank order. Both shortcuts
//! return what the full comparison would have, so the pop order — and
//! with it every emitted sequence — is that of the two-`u32` entries this
//! layout replaced.
//!
//! Anchor values arrive as dense ids: the full reducer encodes every tree
//! edge once ([`re_join::Reduction::edges`]) and hands over each row's
//! anchor id and, for each child, the id of the child queue the row joins
//! with. The per-anchor queues are therefore a plain `Vec<FrontierHeap>`,
//! and neither the cell build nor the enumeration hot path ever builds,
//! hashes or clones an anchor tuple. A node keeps each row's anchor id
//! (`row_anchor`), and of the reduced relation only its own projection
//! columns, the one thing a successor reads of its row; a cell stores its
//! row, and its anchor is its row's. Steady-state `next()`
//! performs **zero `Tuple` allocations beyond the emitted answer** — the
//! counting allocator of `tests/frontier_alloc_tripwire.rs` enforces the
//! ban. Nothing on that path counts bytes either: the enumerator sums the
//! capacities of what it holds — projected columns, row anchors, arenas,
//! interners, queues — into [`EnumStats::frontier_bytes`] once per
//! answer, and the same allocator checks the sum against the heap it
//! sees.
//!
//! Guarantees (Lemmas 1–3): `O(|D|)` preprocessing (after the full-reducer
//! pass), `O(|D| log |D|)` worst-case delay, answers emitted in
//! non-decreasing rank order without duplicates — the sequence of a
//! materialise, de-duplicate and sort by `(key, tuple)`, which is what
//! `tests/frontier_differential.rs` compares it with. For free-connex
//! queries the same code achieves `O(log |D|)` delay (Appendix E).

use crate::error::EnumError;
use crate::frontier::{
    entry_cmp, CellArena, CellId, FrontierEntry, FrontierHeap, KeyInterner, NEXT_EXHAUSTED,
    NEXT_NOT_COMPUTED,
};
use crate::plan::Algorithm;
use crate::shared::{ChainCursor, SharedFrontier};
use crate::stats::EnumStats;
use re_exec::ExecContext;
use re_join::{EdgeIds, Reduction};
use re_query::{JoinProjectQuery, JoinTree};
use re_ranking::Ranking;
use re_storage::{Attr, Database, Relation, Tuple, Value};
use std::cmp::Ordering;

/// Per-node state: what the enumerator reads of the node's reduced rows,
/// positional plans, and the node's slice of the frontier kernel (arena +
/// interner + anchor queues).
struct NodeState<R: Ranking> {
    /// The node's own projection attributes of every reduced row,
    /// row-major: all that `successor` reads of a row. Empty for a node
    /// that projects nothing of its own.
    columns: Vec<Value>,
    /// Values per row in `columns`.
    own_width: usize,
    /// The anchor-queue id of every reduced row (the reducer's dense ids:
    /// `Topdown` never rebuilds or hashes an anchor tuple). A cell's anchor
    /// is its row's — a successor keeps its parent's row — so the cell
    /// does not store it.
    row_anchor: Vec<u32>,
    /// Child node indices, in tree order.
    children: Vec<usize>,
    /// Permutation that reorders this node's subtree-order output by the
    /// *global* projection-attribute order (the user's projection order).
    /// Tie-breaking reads the permuted output out of the arena, so it is
    /// globally consistent across all nodes — the property that makes
    /// equal outputs adjacent in pop order (and, at the root, makes the
    /// emitted tie order equal to the user projection order).
    tie_perm: Vec<usize>,
    /// Ranking plan over the node's subtree-order output attributes.
    plan: <R as Ranking>::Plan,
    /// The node's cells: the build's in one exact block, later ones in
    /// fixed-size segments (outputs; metadata and child pointers — no
    /// per-cell allocations, and no cell ever moves).
    arena: CellArena,
    /// The rank keys an entry's prefix does not hold in full, interned;
    /// those entries carry ids and compare through here.
    keys: KeyInterner<R::Key>,
    /// `PQ_i[u]`: one priority queue per anchor id.
    queues: Vec<FrontierHeap>,
    /// Heap bytes of every queue in `queues`: reserved at the build, grown
    /// by what [`FrontierHeap::push`] reports.
    queue_bytes: usize,
}

impl<R: Ranking> NodeState<R> {
    /// Store the cell `key` ranks and return the cell's heap entry, with
    /// the two inline words [`entry_cmp`] reads first. Every cell, built at
    /// OPEN or pushed as a successor, is made here.
    fn new_cell(
        &mut self,
        key: R::Key,
        row: u32,
        advance_from: u32,
        output: &[Value],
        ptrs: &[CellId],
    ) -> FrontierEntry {
        let tie0 = self.tie_perm.first().map_or(0, |&p| output[p]);
        let cell = self.arena.push(row, advance_from, output, ptrs);
        self.keys.entry(key, tie0, cell)
    }

    /// The queue of `anchor`, with the node's comparator over its entries.
    fn queue(
        &mut self,
        anchor: u32,
    ) -> (
        &mut FrontierHeap,
        impl Fn(FrontierEntry, FrontierEntry) -> Ordering + '_,
    ) {
        let NodeState {
            arena,
            keys,
            queues,
            tie_perm,
            ..
        } = self;
        let (arena, keys, tie_perm) = (&*arena, &*keys, &*tie_perm);
        (&mut queues[anchor as usize], move |a, b| {
            entry_cmp(keys, arena, tie_perm, a, b)
        })
    }

    /// Push `entry` onto the queue of `anchor`.
    fn push(&mut self, anchor: u32, entry: FrontierEntry) {
        let (queue, cmp) = self.queue(anchor);
        let grown = queue.push(entry, cmp);
        self.queue_bytes += grown;
    }

    /// The node's own projection values of `row`.
    fn own_values(&self, row: u32) -> &[Value] {
        let start = row as usize * self.own_width;
        &self.columns[start..start + self.own_width]
    }

    /// The anchor-queue id of `cell`: its row's.
    fn anchor(&self, cell: CellId) -> u32 {
        self.row_anchor[self.arena.row(cell) as usize]
    }

    /// Heap bytes of the node's per-row columns and anchors.
    fn column_bytes(&self) -> usize {
        self.columns.capacity() * std::mem::size_of::<Value>()
            + self.row_anchor.capacity() * std::mem::size_of::<u32>()
    }

    /// Heap bytes of the node's queues and their table.
    fn queue_bytes(&self) -> usize {
        self.queues.capacity() * std::mem::size_of::<FrontierHeap>() + self.queue_bytes
    }

    /// Heap bytes of the node's columns, row anchors, arena, interner and
    /// queues.
    fn heap_bytes(&self) -> usize {
        self.column_bytes() + self.arena.heap_bytes() + self.keys.heap_bytes() + self.queue_bytes()
    }
}

/// Ranked enumerator for acyclic join-project queries.
///
/// ```
/// use rankedenum_core::AcyclicEnumerator;
/// use re_query::QueryBuilder;
/// use re_ranking::SumRanking;
/// use re_storage::{attr::attrs, Database, Relation};
///
/// let mut db = Database::new();
/// db.add_relation(Relation::with_tuples("AP", attrs(["aid", "pid"]),
///     vec![vec![1, 10], vec![2, 10], vec![3, 11]]).unwrap()).unwrap();
/// let q = QueryBuilder::new()
///     .atom("AP1", "AP", ["a1", "p"])
///     .atom("AP2", "AP", ["a2", "p"])
///     .project(["a1", "a2"])
///     .build().unwrap();
/// let top: Vec<_> = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum())
///     .unwrap().take(3).collect();
/// assert_eq!(top, vec![vec![1, 1], vec![1, 2], vec![2, 1]]);
/// ```
pub struct AcyclicEnumerator<R: Ranking + Clone> {
    ranking: R,
    tree: JoinTree,
    nodes: Vec<NodeState<R>>,
    /// Projection attributes in the user-requested order (the order of the
    /// emitted tuples and of rank tie-breaking).
    projection: Vec<Attr>,
    /// The root cell the first answer is read from: the start of the
    /// root's chain, `None` on an empty result.
    chain_start: Option<CellId>,
    /// The root cell the next answer is read from: the end of the root's
    /// chain, `None` once it is exhausted.
    next_root: Option<CellId>,
    /// Reusable output scratch buffer (cleared per successor, capacity
    /// kept — the reason steady-state expansion allocates nothing).
    out_buf: Tuple,
    /// Reusable child-pointer scratch buffer.
    ptr_buf: Vec<CellId>,
    stats: EnumStats,
}

impl<R: Ranking + Clone> AcyclicEnumerator<R> {
    /// Build the enumerator with a default join tree.
    pub fn new(query: &JoinProjectQuery, db: &Database, ranking: R) -> Result<Self, EnumError> {
        let tree = JoinTree::build(query)?;
        Self::with_tree(query, db, ranking, tree)
    }

    /// Build the enumerator with a default join tree, running the
    /// full-reducer preprocessing pass under `ctx` (morsel-parallel
    /// semi-joins on a pooled context). The enumerator — and therefore
    /// every emitted answer — is identical to the serial build at any
    /// thread count.
    pub fn new_ctx(
        query: &JoinProjectQuery,
        db: &Database,
        ranking: R,
        ctx: &ExecContext,
    ) -> Result<Self, EnumError> {
        let tree = JoinTree::build(query)?;
        Self::with_tree_ctx(query, db, ranking, tree, ctx)
    }

    /// Build the enumerator with an explicit join tree (any root is valid;
    /// the complexity guarantees do not depend on the choice).
    pub fn with_tree(
        query: &JoinProjectQuery,
        db: &Database,
        ranking: R,
        tree: JoinTree,
    ) -> Result<Self, EnumError> {
        Self::with_tree_ctx(query, db, ranking, tree, &ExecContext::serial())
    }

    /// Build the enumerator with an explicit join tree and execution
    /// context (see [`AcyclicEnumerator::new_ctx`]).
    pub fn with_tree_ctx(
        query: &JoinProjectQuery,
        db: &Database,
        ranking: R,
        tree: JoinTree,
        ctx: &ExecContext,
    ) -> Result<Self, EnumError> {
        query.validate_against(db)?;
        let reduction = Reduction::of_query(ctx, query, tree, db)?;
        Self::from_reduction(query.projection().to_vec(), ranking, reduction)
    }

    /// Build the enumerator from a fully reduced, pruned instance and its
    /// edge encoding — the one build path, for acyclic queries and (over
    /// bag relations) for the GHD enumerator.
    pub(crate) fn from_reduction(
        projection: Vec<Attr>,
        ranking: R,
        reduction: Reduction,
    ) -> Result<Self, EnumError> {
        let Reduction {
            tree,
            relations: reduced,
            stats: rstats,
            mut edges,
        } = reduction;
        assert_eq!(tree.len(), reduced.len());
        let mut stats = EnumStats::new();
        stats.record_reduce(rstats.passes, rstats.input_rows, rstats.output_rows);
        let empty_result = reduced.iter().any(|r| r.is_empty());

        // Global position of each projection attribute: its index in the
        // user projection order. Tie-breaking reads every node's output in
        // this global order, which keeps comparisons consistent across the
        // whole tree.
        let global_pos = |a: &Attr| -> usize {
            projection
                .iter()
                .position(|x| x == a)
                .expect("projection attribute missing from join tree output")
        };

        // Static per-node info. A node keeps its reduced relation only
        // until its cells are built, and then only its own projection
        // columns of it.
        let mut nodes: Vec<NodeState<R>> = Vec::with_capacity(tree.len());
        let mut own_pos: Vec<Vec<usize>> = Vec::with_capacity(tree.len());
        for (idx, rel) in reduced.iter().enumerate() {
            let node = tree.node(idx);
            own_pos.push(rel.positions(&node.own_proj)?);
            let mut tie_perm: Vec<usize> = (0..node.subtree_proj.len()).collect();
            tie_perm.sort_by_key(|&i| global_pos(&node.subtree_proj[i]));
            nodes.push(NodeState {
                columns: Vec::new(),
                own_width: node.own_proj.len(),
                row_anchor: Vec::new(),
                children: node.children.clone(),
                arena: CellArena::new(node.subtree_proj.len(), node.children.len(), 0),
                tie_perm,
                plan: ranking.plan(&node.subtree_proj),
                keys: KeyInterner::new(),
                queues: Vec::new(),
                queue_bytes: 0,
            });
        }
        let mut reduced: Vec<Option<Relation>> = reduced.into_iter().map(Some).collect();

        // Preprocessing (Algorithm 1): bottom-up cell construction, one
        // bulk build per node. The reducer's edge encoding says which queue
        // every row belongs to (`child_ids`, dense per distinct anchor value
        // in first-occurrence order), which the node keeps as its row
        // anchors, and which child queue it joins with (`parent_ids`),
        // which is build-time only and freed as soon as it has been read.
        if !empty_result {
            let _span = re_obs::Span::enter("preprocess.cells");
            let mut trace_span = re_obs::trace::child_span("preprocess.cells");
            let mut out_buf: Tuple = Vec::new();
            let mut ptr_buf: Vec<CellId> = Vec::new();
            for &u in &tree.post_order() {
                // Pass 1: every queue's size, so each queue is allocated
                // once, filled, and heapified; the arena's build block and
                // the columns are reserved for one cell and one row of
                // values per row.
                let mut row_anchor = std::mem::take(&mut edges[u].child_ids);
                row_anchor.shrink_to_fit();
                let rows = row_anchor.len();
                let mut queue_len = vec![0usize; edges[u].keys];
                for &aid in &row_anchor {
                    queue_len[aid as usize] += 1;
                }
                let ns = &mut nodes[u];
                ns.queues = queue_len
                    .iter()
                    .map(|&n| FrontierHeap::with_capacity(n))
                    .collect();
                ns.queue_bytes = rows * std::mem::size_of::<FrontierEntry>();
                ns.arena = CellArena::new(ns.arena.out_stride(), ns.children.len(), rows);
                ns.columns = Vec::with_capacity(rows * ns.own_width);
                ns.row_anchor = row_anchor;

                // Pass 2: one cell per row, on top of each child's best.
                let fill_span = re_obs::trace::child_span("cells.fill");
                let relation = reduced[u].take().expect("each node is built once");
                let mut cells = 0u64;
                'rows: for row in 0..rows {
                    out_buf.clear();
                    ptr_buf.clear();
                    let t = relation.tuple(row);
                    nodes[u].columns.extend(own_pos[u].iter().map(|&p| t[p]));
                    {
                        let ns = &nodes[u];
                        out_buf.extend_from_slice(ns.own_values(row as u32));
                        for &child in &ns.children {
                            let child_ns = &nodes[child];
                            let aid = edges[child].parent_ids[row];
                            let Some(top) = child_ns.queues[aid as usize].peek() else {
                                // A dangling tuple; cannot happen on a fully
                                // reduced instance but skipping it keeps the
                                // enumerator correct regardless.
                                debug_assert!(false, "dangling tuple on reduced instance");
                                continue 'rows;
                            };
                            ptr_buf.push(top.cell);
                            out_buf.extend_from_slice(child_ns.arena.output(top.cell));
                        }
                    }
                    let key = ranking.key(&nodes[u].plan, &out_buf);
                    let ns = &mut nodes[u];
                    let entry = ns.new_cell(key, row as u32, 0, &out_buf, &ptr_buf);
                    ns.queues[ns.row_anchor[row] as usize].push_unordered(entry);
                    cells += 1;
                }
                drop(relation);
                for &child in &tree.node(u).children {
                    edges[child] = EdgeIds::default();
                }
                drop(fill_span);

                let _heapify_span = re_obs::trace::child_span("cells.heapify");
                let NodeState {
                    arena,
                    keys,
                    queues,
                    tie_perm,
                    ..
                } = &mut nodes[u];
                for queue in queues.iter_mut() {
                    queue.heapify(|a, b| entry_cmp(keys, arena, tie_perm, a, b));
                }
                // Bump the raw counters, not `record_*`: preprocessing
                // work must not leak into the per-answer delay histogram.
                stats.cells_created += cells;
                stats.pq_pushes += cells;
            }
            if let Some(s) = trace_span.as_mut() {
                use re_obs::AttrValue;
                let sum = |f: fn(&NodeState<R>) -> usize| {
                    AttrValue::U64(nodes.iter().map(f).sum::<usize>() as u64)
                };
                s.set_attr("rows", sum(|n| n.row_anchor.len()));
                s.set_attr("anchors", sum(|n| n.queues.len()));
                s.set_attr("keys", sum(|n| n.keys.len()));
                s.set_attr("arena_bytes", sum(|n| n.arena.heap_bytes()));
                s.set_attr("column_bytes", sum(NodeState::column_bytes));
                s.set_attr("queue_bytes", sum(NodeState::queue_bytes));
            }
        }

        // The root's anchor is the empty tuple, so all root cells share
        // queue 0 (never built on an empty result).
        debug_assert!(tree.node(tree.root()).anchor.is_empty());
        let next_root = nodes[tree.root()]
            .queues
            .first()
            .and_then(FrontierHeap::peek)
            .map(|top| top.cell);
        let mut this = AcyclicEnumerator {
            ranking,
            tree,
            nodes,
            projection,
            chain_start: next_root,
            next_root,
            out_buf: Tuple::new(),
            ptr_buf: Vec::new(),
            stats,
        };
        this.stats.set_frontier_bytes(this.heap_bytes());
        Ok(this)
    }

    /// The projection attributes, in output order.
    pub fn output_attrs(&self) -> &[Attr] {
        &self.projection
    }

    /// Enumeration statistics collected so far.
    pub fn stats(&self) -> &EnumStats {
        &self.stats
    }

    /// Mutable statistics access for wrappers that annotate build-time
    /// facts (the cyclic enumerator records its GHD plan here).
    pub(crate) fn stats_mut(&mut self) -> &mut EnumStats {
        &mut self.stats
    }

    /// Total number of cells currently allocated — the dominant part of the
    /// enumerator's memory footprint.
    pub fn cell_count(&self) -> usize {
        self.nodes.iter().map(|n| n.arena.len()).sum()
    }

    /// Heap bytes held: every node's and the operation log's.
    fn heap_bytes(&self) -> u64 {
        let nodes: usize = self.nodes.iter().map(NodeState::heap_bytes).sum();
        let slots = self.nodes.capacity() * std::mem::size_of::<NodeState<R>>();
        (nodes + slots + self.stats.heap_bytes()) as u64
    }

    /// Distinct rank keys interned across all nodes (each stored once, no
    /// matter how many cells or queue entries reference it) — zero when
    /// every key's prefix is exact, as for `SUM` over integer-valued
    /// weights.
    pub fn interned_keys(&self) -> usize {
        self.nodes.iter().map(|n| n.keys.len()).sum()
    }

    /// Whether the outputs of two cells of `node` are equal (tie-permuted
    /// equality coincides with raw slab equality — the permutation is a
    /// bijection).
    fn outputs_equal(&self, node: usize, a: CellId, b: CellId) -> bool {
        a == b || self.nodes[node].arena.output(a) == self.nodes[node].arena.output(b)
    }

    /// Create the successor cell of `cell` at `node` that advances child
    /// `ci` to `next_child`, filling the scratch buffers in place (no
    /// allocations once their capacity has warmed up), and return its heap
    /// entry; the caller queues it.
    fn successor(
        &mut self,
        node: usize,
        cell: CellId,
        ci: usize,
        next_child: CellId,
    ) -> FrontierEntry {
        let mut out = std::mem::take(&mut self.out_buf);
        let mut ptrs = std::mem::take(&mut self.ptr_buf);
        out.clear();
        ptrs.clear();
        let row = self.nodes[node].arena.row(cell);
        {
            let ns = &self.nodes[node];
            out.extend_from_slice(ns.own_values(row));
            ptrs.extend_from_slice(ns.arena.ptrs(cell));
            ptrs[ci] = next_child;
            for (cj, &child) in ns.children.iter().enumerate() {
                out.extend_from_slice(self.nodes[child].arena.output(ptrs[cj]));
            }
        }
        let key = self.ranking.key(&self.nodes[node].plan, &out);
        let entry = self.nodes[node].new_cell(key, row, ci as u32, &out, &ptrs);
        self.stats.record_cell();
        self.out_buf = out;
        self.ptr_buf = ptrs;
        entry
    }

    /// Generate the successor cells of `cell`, the top of `node`'s queue
    /// `anchor`: advance one child pointer at a time (lines 13–16 of
    /// Algorithm 2). Only children at or after the cell's `advance_from`
    /// are advanced, so every pointer combination is generated exactly
    /// once. The first successor takes `cell`'s place on top of the queue
    /// with one sift ([`FrontierHeap::replace_top`]), the others are
    /// pushed, and a cell with no successor is popped.
    fn expand_successors(&mut self, node: usize, cell: CellId, anchor: u32) {
        let mut replaced = false;
        let advance_from = self.nodes[node].arena.advance_from(cell) as usize;
        for ci in advance_from..self.nodes[node].children.len() {
            let child = self.nodes[node].children[ci];
            let child_cell = self.nodes[node].arena.ptrs(cell)[ci];
            let Some(next_child) = self.topdown(child_cell, child) else {
                continue;
            };
            let entry = self.successor(node, cell, ci, next_child);
            if replaced {
                self.nodes[node].push(anchor, entry);
            } else {
                let (queue, cmp) = self.nodes[node].queue(anchor);
                let top = queue.replace_top(entry, cmp);
                debug_assert_eq!(top.cell, cell, "the expanded cell stays on top");
                replaced = true;
            }
            self.stats.record_push();
        }
        if !replaced {
            let (queue, cmp) = self.nodes[node].queue(anchor);
            queue.pop(cmp);
        }
    }

    /// The `Topdown` procedure of Algorithm 2: advance the ranked
    /// materialisation of `node`'s queue past the cell `cell`, returning the
    /// id of the next distinct partial answer (or `None` when exhausted).
    /// The root is driven the same way, by [`AcyclicEnumerator::advance`].
    // Inlined one level into `advance`, so the root's advance costs no
    // extra call per answer.
    #[inline]
    fn topdown(&mut self, cell: CellId, node: usize) -> Option<CellId> {
        match self.nodes[node].arena.next(cell) {
            NEXT_EXHAUSTED => return None,
            NEXT_NOT_COMPUTED => {}
            chained => return Some(chained),
        }
        // The cell's row has a dense anchor id — no anchor tuple is ever
        // rebuilt or hashed here (the old engine allocated one per call).
        let anchor = self.nodes[node].anchor(cell);
        let mut first_iteration = true;
        loop {
            let Some(top) = self.nodes[node].queues[anchor as usize].peek() else {
                self.nodes[node].arena.set_next(cell, NEXT_EXHAUSTED);
                return None;
            };
            if first_iteration {
                // When `next` is unset the cell is the current chain end and
                // therefore the top of its queue.
                debug_assert_eq!(top.cell, cell, "expanded cell must be the queue top");
                first_iteration = false;
            }
            // The top is advanced past here, and counted as popped before
            // its successors are counted as pushed; it leaves the queue
            // while they are queued (`expand_successors`).
            self.stats.record_pop();
            self.expand_successors(node, top.cell, anchor);

            // Chain to the new top; keep advancing while it duplicates the
            // output we just advanced past (lines 17–19).
            let (next_ptr, duplicate) = match self.nodes[node].queues[anchor as usize].peek() {
                None => (NEXT_EXHAUSTED, false),
                Some(e) => (e.cell, self.outputs_equal(node, e.cell, top.cell)),
            };
            self.nodes[node].arena.set_next(cell, next_ptr);
            if !duplicate {
                return match next_ptr {
                    NEXT_EXHAUSTED | NEXT_NOT_COMPUTED => None,
                    chained => Some(chained),
                };
            }
        }
    }
}

impl<R: Ranking + Clone> AcyclicEnumerator<R> {
    /// The one advance step: the answer at the root cell `at` and the root
    /// cell after it (`None` past the last answer). The step is `Topdown`
    /// on the root — past `at` and its duplicates — plus the tie-permuted
    /// read of `at`'s output. When `at` is the end of the chain the step
    /// extends it, and the answer and its operations are recorded in the
    /// enumerator's statistics; a cell the chain already continues from
    /// is a published answer, read without any work and recorded nowhere
    /// (a [`ChainCursor`](crate::ChainCursor) replaying it counts it
    /// itself). The only allocation is the answer itself.
    #[inline]
    pub(crate) fn advance(&mut self, at: CellId) -> (Tuple, Option<CellId>) {
        let root = self.tree.root();
        let extends = self.nodes[root].arena.next(at) == NEXT_NOT_COMPUTED;
        let next = self.topdown(at, root);
        if extends {
            self.stats.record_answer();
            self.stats.set_frontier_bytes(self.heap_bytes());
        }
        let ns = &self.nodes[root];
        let out = ns.arena.output(at);
        // At the root the tie permutation maps the subtree layout to the
        // user projection order.
        (ns.tie_perm.iter().map(|&p| out[p]).collect(), next)
    }

    /// The root cell the chain starts from (`None` on an empty result).
    pub(crate) fn chain_start(&self) -> Option<CellId> {
        self.chain_start
    }
}

impl<R: Ranking + Clone + 'static> AcyclicEnumerator<R> {
    /// Share this enumerator: put it behind a [`SharedFrontier`] and return
    /// the first cursor on it, charged with the build. Further cursors
    /// [attach](SharedFrontier::attach) at the start of the chain and
    /// replay what it has published.
    pub(crate) fn into_shared(self) -> ChainCursor {
        SharedFrontier::share(self, Algorithm::Acyclic, None)
    }
}

impl<R: Ranking + Clone> Iterator for AcyclicEnumerator<R> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        // The enumerator's own position is always the end of the chain, so
        // every step extends it.
        let (answer, next) = self.advance(self.next_root?);
        self.next_root = next;
        Some(answer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_query::QueryBuilder;
    use re_ranking::{LexRanking, RankKey, SumRanking, Weight, WeightAssignment};
    use re_storage::attr::attrs;
    use std::cmp::Ordering;

    /// The instance of Example 4 in the paper.
    fn paper_db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples(
                "R1",
                attrs(["A", "B"]),
                vec![vec![1, 1], vec![2, 1], vec![1, 2], vec![3, 2]],
            )
            .unwrap(),
        )
        .unwrap();
        db.add_relation(
            Relation::with_tuples("R2", attrs(["B", "C"]), vec![vec![1, 1], vec![2, 1]]).unwrap(),
        )
        .unwrap();
        db.add_relation(
            Relation::with_tuples("R3", attrs(["C", "D"]), vec![vec![1, 1], vec![1, 2]]).unwrap(),
        )
        .unwrap();
        db.add_relation(
            Relation::with_tuples("R4", attrs(["D", "E"]), vec![vec![1, 1], vec![1, 2]]).unwrap(),
        )
        .unwrap();
        db
    }

    /// The 4-path query of Example 2: `π_{A,E}(R1 ⋈ R2 ⋈ R3 ⋈ R4)`.
    fn paper_query() -> JoinProjectQuery {
        QueryBuilder::new()
            .atom("R1", "R1", ["A", "B"])
            .atom("R2", "R2", ["B", "C"])
            .atom("R3", "R3", ["C", "D"])
            .atom("R4", "R4", ["D", "E"])
            .project(["A", "E"])
            .build()
            .unwrap()
    }

    #[test]
    fn paper_running_example_sum_order() {
        let db = paper_db();
        let q = paper_query();
        let tree = JoinTree::build_rooted(&q, 2).unwrap();
        let e = AcyclicEnumerator::with_tree(&q, &db, SumRanking::value_sum(), tree).unwrap();
        let results: Vec<Tuple> = e.collect();
        // Distinct (A, E) pairs: A ∈ {1,2,3}, E ∈ {1,2}; ranked by A+E with
        // ties broken by the output tuple.
        assert_eq!(
            results,
            vec![
                vec![1, 1],
                vec![1, 2],
                vec![2, 1],
                vec![2, 2],
                vec![3, 1],
                vec![3, 2],
            ]
        );
    }

    #[test]
    fn first_answer_matches_example_5() {
        let db = paper_db();
        let q = paper_query();
        let mut e = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum()).unwrap();
        assert_eq!(e.next(), Some(vec![1, 1]));
    }

    #[test]
    fn every_root_choice_gives_the_same_answer_sequence() {
        let db = paper_db();
        let q = paper_query();
        let reference: Vec<Tuple> = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum())
            .unwrap()
            .collect();
        for root in 0..4 {
            let tree = JoinTree::build_rooted(&q, root).unwrap();
            let got: Vec<Tuple> =
                AcyclicEnumerator::with_tree(&q, &db, SumRanking::value_sum(), tree)
                    .unwrap()
                    .collect();
            assert_eq!(got, reference, "root {root} changed the output");
        }
    }

    #[test]
    fn the_root_chain_is_the_emitted_answer_list() {
        // Every root choice of Example 4 reaches some (A, E) twice, so the
        // chain skips duplicates at the root or below it.
        let (db, q) = (paper_db(), paper_query());
        for (root, k) in (0..4).flat_map(|r| (1..6).map(move |k| (r, k))) {
            let tree = JoinTree::build_rooted(&q, root).unwrap();
            let mut e =
                AcyclicEnumerator::with_tree(&q, &db, SumRanking::value_sum(), tree).unwrap();
            let first = e.next_root.expect("the instance has answers");
            let answers: Vec<Tuple> = e.by_ref().take(k).collect();
            let ns = &e.nodes[e.tree.root()];
            let mut cell = first;
            for answer in &answers {
                let out = ns.arena.output(cell);
                let permuted: Tuple = ns.tie_perm.iter().map(|&p| out[p]).collect();
                assert_eq!(&permuted, answer, "root {root}, k = {k}");
                cell = ns.arena.next(cell);
            }
            let top = ns.queues[0].peek().map(|top| top.cell);
            assert_eq!(Some(cell), top, "root {root}, k = {k}: chain end");
        }
    }

    #[test]
    fn no_duplicates_and_sorted_by_rank() {
        let db = paper_db();
        let q = paper_query();
        let e = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum()).unwrap();
        let ranking = SumRanking::value_sum();
        let results: Vec<Tuple> = e.collect();
        let mut seen = std::collections::HashSet::new();
        let mut last_key = None;
        for t in &results {
            assert!(seen.insert(t.clone()), "duplicate answer {t:?}");
            let k = ranking.key_of(&attrs(["A", "E"]), t);
            if let Some(prev) = last_key {
                assert!(k >= prev, "answers out of order");
            }
            last_key = Some(k);
        }
        assert_eq!(results.len(), 6);
    }

    #[test]
    fn two_hop_self_join() {
        // Authors 1,2 share paper 10; author 3 alone on paper 11.
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples(
                "AP",
                attrs(["aid", "pid"]),
                vec![vec![1, 10], vec![2, 10], vec![3, 11]],
            )
            .unwrap(),
        )
        .unwrap();
        let q = QueryBuilder::new()
            .atom("AP1", "AP", ["a1", "p"])
            .atom("AP2", "AP", ["a2", "p"])
            .project(["a1", "a2"])
            .build()
            .unwrap();
        let e = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum()).unwrap();
        let results: Vec<Tuple> = e.collect();
        assert_eq!(
            results,
            vec![vec![1, 1], vec![1, 2], vec![2, 1], vec![2, 2], vec![3, 3],]
        );
    }

    #[test]
    fn empty_join_yields_no_answers() {
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("R", attrs(["a", "b"]), vec![vec![1, 1]]).unwrap())
            .unwrap();
        db.add_relation(Relation::with_tuples("S", attrs(["b", "c"]), vec![vec![9, 5]]).unwrap())
            .unwrap();
        let q = QueryBuilder::new()
            .atom("R", "R", ["a", "b"])
            .atom("S", "S", ["b", "c"])
            .project(["a", "c"])
            .build()
            .unwrap();
        let mut e = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum()).unwrap();
        assert_eq!(e.next(), None);
        assert_eq!(e.next(), None);
    }

    #[test]
    fn lexicographic_ranking_through_general_algorithm() {
        let db = paper_db();
        let q = paper_query();
        let lex = LexRanking::new(["E", "A"], WeightAssignment::value_as_weight());
        let mut e = AcyclicEnumerator::new(&q, &db, lex).unwrap();
        let results: Vec<Tuple> = e.by_ref().collect();
        // A vector key's prefix is its first weight only: every key is
        // stored, as before there were keys that are not.
        assert!(e.interned_keys() > 0);
        // Ordered by E first, then A.
        assert_eq!(
            results,
            vec![
                vec![1, 1],
                vec![2, 1],
                vec![3, 1],
                vec![1, 2],
                vec![2, 2],
                vec![3, 2],
            ]
        );
    }

    /// Anchor id of every cell, queue count and interned-key count, per node.
    fn build_shape<R: Ranking + Clone>(
        e: &AcyclicEnumerator<R>,
    ) -> (Vec<Vec<u32>>, Vec<usize>, Vec<usize>) {
        let anchors = e
            .nodes
            .iter()
            .map(|n| (0..n.arena.len() as u32).map(|c| n.anchor(c)).collect())
            .collect();
        let queues = e.nodes.iter().map(|n| n.queues.len()).collect();
        let keys = e.nodes.iter().map(|n| n.keys.len()).collect();
        (anchors, queues, keys)
    }

    #[test]
    fn bulk_build_reproduces_the_incremental_builds_ids_and_stats_on_example_4() {
        // Anchor ids, queue counts and the cell / push / pop counters are
        // those of the one-push-at-a-time build this bulk build replaced
        // (commit b320aa1), default root and root R3. The bytes are the
        // capacities the enumerator holds — projected columns, row
        // anchors, arena blocks and segments, queues and the operation
        // log — summed at the build and after the last answer; they never
        // fall, so the peak is the last of them. The first growth segment
        // of a node is 16 cells and its segment table four slots, which
        // on an instance this small outweighs the bytes the build saves.
        type Case = (Option<usize>, [&'static [u32]; 4], [usize; 4], [u64; 2]);
        let cases: [Case; 2] = [
            (
                None,
                [&[0, 0, 0, 0], &[0, 1], &[0], &[0, 0]],
                [1, 2, 1, 1],
                [2_228, 4_148],
            ),
            (
                Some(2),
                [&[0, 0, 1, 1], &[0, 0], &[0], &[0, 0]],
                [2, 1, 1, 1],
                [2_192, 3_672],
            ),
        ];
        let (db, q) = (paper_db(), paper_query());
        for (root, anchors, queues, [bytes, end_bytes]) in cases {
            let tree = match root {
                None => JoinTree::build(&q).unwrap(),
                Some(r) => JoinTree::build_rooted(&q, r).unwrap(),
            };
            let mut e =
                AcyclicEnumerator::with_tree(&q, &db, SumRanking::value_sum(), tree).unwrap();
            let (got_anchors, got_queues, got_keys) = build_shape(&e);
            assert_eq!(got_anchors, anchors.map(<[u32]>::to_vec), "root {root:?}");
            assert_eq!(got_queues, queues, "root {root:?}");
            assert_eq!(got_keys, [0, 0, 0, 0], "root {root:?}");
            let s = e.stats();
            assert_eq!((s.cells_created, s.pq_pushes, s.pq_pops), (9, 9, 0));
            assert_eq!((s.frontier_bytes, s.frontier_peak_bytes), (bytes, bytes));
            assert_eq!(e.by_ref().count(), 6);
            let s = e.stats();
            assert_eq!((s.cells_created, s.pq_pushes, s.pq_pops), (16, 16, 16));
            assert_eq!(
                (s.frontier_bytes, s.frontier_peak_bytes),
                (end_bytes, end_bytes)
            );
        }
    }

    #[test]
    fn anchor_ids_are_dense_in_first_occurrence_order() {
        // R(a, b) ⋈ S(b, c): S is anchored on b. Every b of S occurs in R
        // and vice versa, so the instance is already reduced.
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut draw = |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        let s_rows: Vec<Tuple> = (0..600).map(|i| vec![draw(40) << 32, i]).collect();
        let r_rows: Vec<Tuple> = s_rows.iter().map(|t| vec![draw(9), t[0]]).collect();
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("R", attrs(["a", "b"]), r_rows).unwrap())
            .unwrap();
        db.add_relation(Relation::with_tuples("S", attrs(["b", "c"]), s_rows.clone()).unwrap())
            .unwrap();
        let q = QueryBuilder::new()
            .atom("R", "R", ["a", "b"])
            .atom("S", "S", ["b", "c"])
            .project(["a", "c"])
            .build()
            .unwrap();
        let tree = JoinTree::build_rooted(&q, 0).unwrap();
        let e = AcyclicEnumerator::with_tree(&q, &db, SumRanking::value_sum(), tree).unwrap();
        let mut model: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        let expected: Vec<u32> = s_rows
            .iter()
            .map(|t| {
                let next = model.len() as u32;
                *model.entry(t[0]).or_insert(next)
            })
            .collect();
        let (anchors, queues, _) = build_shape(&e);
        assert_eq!(anchors[1], expected);
        assert_eq!(queues, [1, model.len()]);
        assert_eq!(anchors[0], vec![0; 600]);
        // Each queue holds exactly the cells of its anchor, best on top.
        let s = &e.nodes[1];
        for (aid, queue) in s.queues.iter().enumerate() {
            let mut members: Vec<u32> = queue.entries().iter().map(|e| e.cell).collect();
            members.sort_unstable();
            let of_anchor: Vec<u32> = (0..600)
                .filter(|&c| expected[c as usize] == aid as u32)
                .collect();
            assert_eq!(members, of_anchor);
            let top = queue.peek().unwrap();
            for &other in queue.entries() {
                assert_ne!(
                    entry_cmp(&s.keys, &s.arena, &s.tie_perm, other, top),
                    Ordering::Less
                );
            }
        }
    }

    #[test]
    fn stats_are_collected() {
        let db = paper_db();
        let q = paper_query();
        let mut e = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum()).unwrap();
        assert!(e.stats().pq_pushes > 0, "preprocessing must insert cells");
        let pre_cells = e.cell_count();
        assert!(pre_cells > 0);
        let _ = e.by_ref().take(3).collect::<Vec<_>>();
        assert_eq!(e.stats().answers, 3);
        assert_eq!(e.stats().ops_per_answer.len(), 3);
        assert!(e.stats().pq_pops > 0);
    }

    /// `SUM` with `w(v) = 0.1 · v` on the two given attributes: most sums
    /// of two tenths carry a roundoff (`0.1 + 0.2`), a few do not
    /// (`0.1 + 0.1`), so one queue holds keys of both kinds.
    fn tenths(on: [&str; 2]) -> SumRanking {
        let table: std::collections::HashMap<Value, Weight> =
            (0..10).map(|v| (v, Weight::new(0.1 * v as f64))).collect();
        SumRanking::new(
            WeightAssignment::value_as_weight()
                .with_table(on[0], table.clone())
                .with_table(on[1], table),
        )
    }

    #[test]
    fn frontier_memory_is_accounted() {
        let db = paper_db();
        let q = paper_query();
        for (ranking, stores_keys) in [(SumRanking::value_sum(), false), (tenths(["A", "E"]), true)]
        {
            let mut e = AcyclicEnumerator::new(&q, &db, ranking).unwrap();
            let at_build = e.stats().frontier_bytes;
            assert!(at_build > 0, "preprocessing retains the initial frontier");
            // A key that is one `f64` lives in its entry; only a sum that
            // expands is stored.
            assert_eq!(e.interned_keys() > 0, stores_keys);
            let n = e.by_ref().count();
            assert!(n > 0);
            assert_eq!(e.interned_keys() > 0, stores_keys);
            assert!(
                e.stats().frontier_bytes >= at_build,
                "retained bytes are monotone"
            );
            // The peak of a count that never falls is its last value.
            assert_eq!(e.stats().frontier_peak_bytes, e.stats().frontier_bytes);
        }
    }

    #[test]
    fn the_cells_span_says_where_the_frontier_bytes_are() {
        use re_obs::{trace, AttrValue, TraceCtx};
        let (db, q) = (paper_db(), paper_query());
        for ranking in [SumRanking::value_sum(), tenths(["A", "E"])] {
            let tctx = TraceCtx::new("open");
            let e = {
                let _installed = trace::install(&tctx, 0);
                AcyclicEnumerator::new(&q, &db, ranking).unwrap()
            };
            let traced = tctx.finish();
            let cells = traced.spans_named("preprocess.cells").next().unwrap();
            let attr = |name: &str| match cells.attrs.iter().find(|(k, _)| k == name) {
                Some((_, AttrValue::U64(v))) => *v as usize,
                other => panic!("{name}: {other:?}"),
            };
            let sum = |f: fn(&NodeState<SumRanking>) -> usize| e.nodes.iter().map(f).sum::<usize>();
            assert_eq!(attr("arena_bytes"), sum(|n| n.arena.heap_bytes()));
            assert_eq!(attr("column_bytes"), sum(NodeState::column_bytes));
            assert_eq!(attr("queue_bytes"), sum(NodeState::queue_bytes));
            // The three, the interned keys, the node table and the
            // operation log are all the enumerator holds.
            let rest = sum(|n| n.keys.heap_bytes())
                + e.nodes.capacity() * std::mem::size_of::<NodeState<SumRanking>>()
                + e.stats.heap_bytes();
            let parts = attr("arena_bytes") + attr("column_bytes") + attr("queue_bytes");
            assert_eq!((parts + rest) as u64, e.stats().frontier_bytes);
            // Example 4 projects A at R1 and E at R4 only: two of the four
            // nodes keep a column, one value per row.
            let columns: Vec<usize> = e.nodes.iter().map(|n| n.columns.len()).collect();
            let rows: Vec<usize> = e.nodes.iter().map(|n| n.row_anchor.len()).collect();
            let own: Vec<usize> = e.nodes.iter().map(|n| n.own_width).collect();
            for ((c, r), w) in columns.iter().zip(&rows).zip(&own) {
                assert_eq!(*c, r * w);
            }
            assert_eq!(own.iter().filter(|&&w| w > 0).count(), 2);
        }
    }

    #[test]
    fn equal_rank_keys_are_interned_once() {
        // Every co-author pair (a1, a2) and its mirror (a2, a1) share the
        // rank key 0.1·a1 + 0.1·a2 — the interner must store each distinct
        // sum that expands once, not once per cell, and no other key.
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples(
                "AP",
                attrs(["aid", "pid"]),
                vec![vec![1, 10], vec![2, 10], vec![3, 10], vec![4, 10]],
            )
            .unwrap(),
        )
        .unwrap();
        let q = QueryBuilder::new()
            .atom("AP1", "AP", ["a1", "p"])
            .atom("AP2", "AP", ["a2", "p"])
            .project(["a1", "a2"])
            .build()
            .unwrap();
        let mut e = AcyclicEnumerator::new(&q, &db, tenths(["a1", "a2"])).unwrap();
        let answers: Vec<Tuple> = e.by_ref().collect();
        assert_eq!(answers.len(), 16);
        let mut expanding: Vec<_> = answers
            .iter()
            .map(|t| e.ranking.key_of(&e.projection, t))
            .filter(|k| !k.prefix_is_exact())
            .collect();
        let cells_ranked_by_them = expanding.len();
        expanding.sort();
        expanding.dedup();
        assert!(
            !expanding.is_empty() && expanding.len() < cells_ranked_by_them,
            "the instance must tie on sums that expand"
        );
        assert_eq!(e.interned_keys(), expanding.len());
    }

    #[test]
    fn single_atom_query_projects_and_dedups() {
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples(
                "R",
                attrs(["a", "b"]),
                vec![vec![2, 7], vec![1, 8], vec![2, 9]],
            )
            .unwrap(),
        )
        .unwrap();
        let q = QueryBuilder::new()
            .atom("R", "R", ["a", "b"])
            .project(["a"])
            .build()
            .unwrap();
        let e = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum()).unwrap();
        let results: Vec<Tuple> = e.collect();
        assert_eq!(results, vec![vec![1], vec![2]]);
    }

    #[test]
    fn cartesian_product_enumeration() {
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("R", attrs(["a"]), vec![vec![1], vec![3]]).unwrap())
            .unwrap();
        db.add_relation(Relation::with_tuples("S", attrs(["b"]), vec![vec![2], vec![4]]).unwrap())
            .unwrap();
        let q = QueryBuilder::new()
            .atom("R", "R", ["a"])
            .atom("S", "S", ["b"])
            .project(["a", "b"])
            .build()
            .unwrap();
        let e = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum()).unwrap();
        let results: Vec<Tuple> = e.collect();
        assert_eq!(results.len(), 4);
        assert_eq!(results[0], vec![1, 2]);
        assert_eq!(results[3], vec![3, 4]);
    }

    #[test]
    fn projection_order_is_respected_in_output() {
        let db = paper_db();
        // Same query but projecting (E, A) — outputs must come in that order.
        let q = QueryBuilder::new()
            .atom("R1", "R1", ["A", "B"])
            .atom("R2", "R2", ["B", "C"])
            .atom("R3", "R3", ["C", "D"])
            .atom("R4", "R4", ["D", "E"])
            .project(["E", "A"])
            .build()
            .unwrap();
        let e = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum()).unwrap();
        let first = e.take(1).next().unwrap();
        assert_eq!(first, vec![1, 1]);
        assert_eq!(
            AcyclicEnumerator::new(&q, &db, SumRanking::value_sum())
                .unwrap()
                .output_attrs(),
            &[Attr::new("E"), Attr::new("A")]
        );
    }
}
