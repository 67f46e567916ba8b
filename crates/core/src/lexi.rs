//! The specialised algorithm for lexicographic orders (Algorithm 3,
//! Section 3.2 / Lemma 4), index-backed.
//!
//! Lexicographic orders have more structure than SUM: the global order is
//! determined attribute by attribute, so the enumerator can *fix* the
//! best remaining value of the first attribute, recurse on the next
//! attribute, and backtrack — avoiding priority queues altogether.
//!
//! The work happens in two phases:
//!
//! * **Preprocessing** — one full-reducer pass over the join tree (the
//!   only reducer invocation this enumerator ever makes). For every
//!   level of the lexicographic order the constructor also derives a
//!   *level plan*: which join-tree nodes can constrain the level's
//!   candidate values once the earlier attributes are bound, and the
//!   bottom-up semi-join schedule (over row-id lists, never relations)
//!   that computes them. The [`SortedIndex`] grouped-adjacency
//!   structures those schedules probe are **not** built here: each is
//!   built lazily, on demand, once its level is actually touched — a
//!   `LIMIT 10` client no longer pays for index builds that a deep
//!   enumeration would need. The first two probes (`LAZY_BUILD_TOUCHES`)
//!   of an unbuilt index are answered by an `O(|rel|)` scan — a key
//!   comparison per row, where the build hashes every row into a flat
//!   `KeyTable` and then holds the index's bytes; the build happens only
//!   when the touch count shows the index will amortise. Scan and index
//!   answers are set-identical and every candidate list is totally
//!   re-sorted by `(weight, value)`, so the emitted sequence is
//!   byte-identical either way.
//!
//! * **Enumeration** — depth-first search over the attribute levels. A
//!   frame holds a cursor into a weight-sorted *candidate list* (the
//!   paper's "cell"): the distinct values of the level's attribute that
//!   extend the currently bound prefix to at least one answer. Cells are
//!   memoized per *dependency sub-prefix* — the minimal subset of bound
//!   attributes that actually constrains the level, derived from the
//!   residual hypergraph — so two prefixes that agree on the dependency
//!   attributes share one cell ([`EnumStats::cells_reused`] counts the
//!   hits). In steady state `next()` is a cursor bump; a fresh cell costs
//!   a handful of hash probes and row-id merges proportional to the
//!   prefix's *neighbourhood*, not to `|D|`.
//!
//! Why the per-level cells are *exact* (no false candidates, none
//! missing): fix the bound prefix `A_1 = v_1, …, A_k = v_k` and consider
//! the residual hypergraph in which bound attributes are deleted from
//! every atom (acyclicity is preserved — the join tree stays a join
//! tree). The selection `σ_prefix(⋈)` factorises over the residual
//! connected components, so the candidate set of `A_{k+1}` is the
//! projection of its own component's join — provided every other
//! component is non-empty, which the DFS invariant guarantees (every
//! prefix on the stack extends to a full answer; level-0 candidates are
//! exact on a fully reduced instance). Within the component, subtrees
//! that contain no bound attribute are full-reduced and therefore filter
//! nothing, so the schedule keeps only the paths from the level's node to
//! the bound atoms and sweeps them bottom-up — classic Yannakakis over
//! row-id lists.

use crate::error::EnumError;
use crate::stats::EnumStats;
use re_exec::ExecContext;
use re_join::{reduce_then_prune_ctx, sorted_index};
use re_query::{JoinProjectQuery, JoinTree};
use re_ranking::{Direction, LexRanking, Weight, WeightAssignment};
use re_storage::{Attr, Database, Relation, SortedIndex, Tuple, Value};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Probes an unbuilt [`LazyIndex`] answers by scanning before the build
/// triggers. A scan is one `O(|rel|)` filter pass, a key comparison per
/// row. A build is one flat grouping pass as well — every row hashed into
/// a [`re_storage::KeyTable`], no allocation per key, about 15 ns per row
/// (`storage.sorted_index_ns_per_row` in `BENCHMARK.json`) — and the built
/// index then counts against the session's frontier bytes. So small-`k`
/// enumerations that touch an index once or twice come out ahead never
/// building it, while deep enumerations build on the third touch and
/// amortise from there.
const LAZY_BUILD_TOUCHES: u32 = 2;

/// A grouped-adjacency index built on demand (see the module docs): the
/// spec is derived at plan time, the build happens at the
/// [`LAZY_BUILD_TOUCHES`]`+ 1`-th probe.
struct LazyIndex {
    /// Key attributes of the index.
    key_attrs: Vec<Attr>,
    /// Positions of the key attributes in the node's relation (validated
    /// at plan time, which is what makes the lazy build infallible).
    key_pos: Vec<usize>,
    /// Probes served so far (scans + index lookups).
    touches: u32,
    built: Option<SortedIndex>,
}

impl LazyIndex {
    /// Count a probe; build once the scan warm-up is exhausted (one flat
    /// grouping pass, see [`SortedIndex`]). Returns the built index if
    /// available.
    fn touch<'a>(
        idx: &'a mut LazyIndex,
        rel: &Relation,
        stats: &mut EnumStats,
    ) -> Option<&'a SortedIndex> {
        idx.touches += 1;
        if idx.built.is_none() && idx.touches > LAZY_BUILD_TOUCHES {
            let built = sorted_index(rel, &idx.key_attrs)
                .expect("index key attributes were validated at plan time");
            let bytes = built.bytes() as u64;
            stats.frontier_alloc(bytes, bytes);
            idx.built = Some(built);
        }
        idx.built.as_ref()
    }

    /// Rows matching `key`, in ascending storage order — from the index
    /// when built, by scan otherwise (identical results: the index groups
    /// rows ascending per key).
    fn rows_for(&mut self, rel: &Relation, key: &[Value], stats: &mut EnumStats) -> Vec<u32> {
        if let Some(index) = Self::touch(self, rel, stats) {
            return index.rows(key).to_vec();
        }
        let pos = &self.key_pos;
        let mut out = Vec::new();
        for (i, t) in rel.iter().enumerate() {
            if pos.iter().zip(key).all(|(&p, &v)| t[p] == v) {
                out.push(i as u32);
            }
        }
        out
    }

    /// Rows matching *any* key of `key_set` (`key_list` is the same key
    /// set in first-occurrence order). Index path: concatenated per-key
    /// groups (disjoint, hence duplicate-free). Scan path: one ascending
    /// filter pass. The row orders differ but the sets are equal, and
    /// every downstream consumer is order-insensitive (semi-join
    /// membership, distinct-value collection, total `(weight, value)`
    /// candidate sort).
    fn union_rows(
        &mut self,
        rel: &Relation,
        key_list: &[Tuple],
        key_set: &HashSet<Tuple>,
        stats: &mut EnumStats,
    ) -> Vec<u32> {
        if let Some(index) = Self::touch(self, rel, stats) {
            let mut merged: Vec<u32> = Vec::new();
            for k in key_list {
                merged.extend_from_slice(index.rows(k));
            }
            return merged;
        }
        let pos = &self.key_pos;
        let mut buf: Tuple = Vec::with_capacity(pos.len());
        let mut out = Vec::new();
        for (i, t) in rel.iter().enumerate() {
            buf.clear();
            buf.extend(pos.iter().map(|&p| t[p]));
            if key_set.contains(buf.as_slice()) {
                out.push(i as u32);
            }
        }
        out
    }
}

/// Filter on a schedule step: restrict the step's live rows to those whose
/// shared-attribute key appears among an already-processed child's live
/// rows (the bottom-up semi-join, over row ids).
struct ChildLink {
    /// Schedule slot of the child (always earlier in the schedule).
    child_slot: usize,
    /// Positions (in the child's relation) of the shared unbound attrs.
    child_key_pos: Vec<usize>,
    /// Grouped-adjacency index over *this* step's relation, keyed on the
    /// shared unbound attrs — the union path when no row list exists yet.
    index: usize,
    /// Positions (in this step's relation) of the shared unbound attrs —
    /// the retain path when a row list already exists.
    node_key_pos: Vec<usize>,
}

/// One node of a level's bottom-up schedule.
struct StepPlan {
    /// Join-tree node index.
    node: usize,
    /// Index over `node`'s relation keyed on its bound attributes, plus
    /// the levels whose prefix values form the probe key.
    bound: Option<(usize, Vec<usize>)>,
    /// Semi-join filters from already-processed children.
    children: Vec<ChildLink>,
}

/// Everything needed to produce the candidate list of one level given a
/// bound prefix. Derived once at construction.
struct LevelPlan {
    /// Sort direction of the level's attribute.
    dir: Direction,
    /// Levels whose prefix values the candidate list depends on — the
    /// memo key. A strict subset of the prefix is what makes cells
    /// shareable between prefixes.
    dep: Vec<usize>,
    /// Bottom-up schedule; the last step is the node owning the level's
    /// attribute.
    steps: Vec<StepPlan>,
    /// Position of the level's attribute in the last step's relation.
    attr_pos: usize,
}

/// One backtracking frame: a cursor into a memoized candidate list.
struct Frame {
    level: usize,
    cell: u32,
    next: usize,
}

/// Ranked enumerator for lexicographic orders based on preprocessing-time
/// grouped-adjacency indexes and memoized candidate cells (Algorithm 3).
pub struct LexiEnumerator {
    /// Projection attributes in the user-requested (output) order.
    projection: Vec<Attr>,
    /// Projection attributes in lexicographic priority order, with their
    /// sort direction.
    attr_order: Vec<(Attr, Direction)>,
    /// Permutation from `attr_order` positions to the user projection order.
    output_perm: Vec<usize>,
    /// The reduced per-node relations — owned, and never cloned again.
    relations: Vec<Relation>,
    /// Lazily built grouped-adjacency indexes shared by all level plans.
    indexes: Vec<LazyIndex>,
    levels: Vec<LevelPlan>,
    weights: WeightAssignment,
    /// Cell arena: weight-sorted candidate lists.
    cells: Vec<Vec<Value>>,
    /// Per level: dependency sub-prefix → cell id.
    memo: Vec<HashMap<Tuple, u32>>,
    /// Values chosen for levels `0..top_frame.level`.
    prefix: Vec<Value>,
    stack: Vec<Frame>,
    stats: EnumStats,
}

/// The lexicographic attribute order actually enumerated: the ranking's
/// declared order restricted to the projection (first occurrence wins),
/// with projection attributes missing from the declaration appended
/// (ascending) in projection order.
fn lex_attr_order(query: &JoinProjectQuery, ranking: &LexRanking) -> Vec<(Attr, Direction)> {
    let mut order: Vec<(Attr, Direction)> = Vec::with_capacity(query.projection().len());
    for (a, d) in ranking.order() {
        if query.is_projected(a) && !order.iter().any(|(x, _)| x == a) {
            order.push((a.clone(), *d));
        }
    }
    for p in query.projection() {
        if !order.iter().any(|(a, _)| a == p) {
            order.push((p.clone(), Direction::Asc));
        }
    }
    order
}

/// Decorate-sort-undecorate: order candidate values by weight under the
/// level's direction, ties broken by value (ascending) for determinism.
/// The bulk [`WeightAssignment::weights_of`] lookup resolves the attribute
/// once — no attribute hash lookup per comparison, no value lookup beyond
/// the decorate pass.
fn sort_candidates(
    weights: &WeightAssignment,
    attr: &Attr,
    dir: Direction,
    values: &mut Vec<Value>,
) {
    let mut decorated: Vec<(Weight, Value)> = weights
        .weights_of(attr, values)
        .into_iter()
        .zip(values.iter().copied())
        .collect();
    match dir {
        Direction::Asc => decorated.sort_unstable(),
        Direction::Desc => {
            decorated.sort_unstable_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)))
        }
    }
    values.clear();
    values.extend(decorated.into_iter().map(|(_, v)| v));
}

/// Distinct keys (projected onto `pos`) of an iterator of tuples: the
/// first-occurrence-ordered list plus the membership set. Only distinct
/// keys allocate.
fn collect_keys<'a>(
    tuples: impl Iterator<Item = &'a [Value]>,
    pos: &[usize],
) -> (Vec<Tuple>, HashSet<Tuple>) {
    let mut list: Vec<Tuple> = Vec::new();
    let mut set: HashSet<Tuple> = HashSet::new();
    let mut buf: Tuple = Vec::with_capacity(pos.len());
    for t in tuples {
        buf.clear();
        buf.extend(pos.iter().map(|&p| t[p]));
        if !set.contains(buf.as_slice()) {
            set.insert(buf.clone());
            list.push(buf.clone());
        }
    }
    (list, set)
}

/// Post-order over the kept part of the component tree (children before
/// parents, root last) — the schedule order.
fn kept_post_order(children: &[Vec<usize>], keep: &[bool], u: usize, out: &mut Vec<usize>) {
    for &c in &children[u] {
        if keep[c] {
            kept_post_order(children, keep, c, out);
        }
    }
    out.push(u);
}

/// Whether the subtree rooted at `u` contains a marked node; fills `keep`.
fn mark_keep(children: &[Vec<usize>], marked: &[bool], keep: &mut [bool], u: usize) -> bool {
    let mut k = marked[u];
    for &c in &children[u] {
        if mark_keep(children, marked, keep, c) {
            k = true;
        }
    }
    keep[u] = k;
    k
}

impl LexiEnumerator {
    /// Build the enumerator for an acyclic query under a lexicographic
    /// ranking. Attributes of the ranking that are not projected are
    /// ignored; projected attributes missing from the ranking order are
    /// appended (ascending) after the declared ones.
    pub fn new(
        query: &JoinProjectQuery,
        db: &Database,
        ranking: &LexRanking,
    ) -> Result<Self, EnumError> {
        Self::new_ctx(query, db, ranking, &ExecContext::serial())
    }

    /// [`LexiEnumerator::new`] with the preprocessing pass — the full
    /// reducer — running under `ctx`. The enumerator, and therefore every
    /// emitted answer, is identical to the serial build at any thread
    /// count.
    pub fn new_ctx(
        query: &JoinProjectQuery,
        db: &Database,
        ranking: &LexRanking,
        ctx: &ExecContext,
    ) -> Result<Self, EnumError> {
        Self::with_tree_ctx(query, db, ranking, JoinTree::build(query)?, ctx)
    }

    /// [`LexiEnumerator::new_ctx`] over an explicit join tree of `query`
    /// (any root is valid), for callers that already hold one.
    pub fn with_tree_ctx(
        query: &JoinProjectQuery,
        db: &Database,
        ranking: &LexRanking,
        tree: JoinTree,
        ctx: &ExecContext,
    ) -> Result<Self, EnumError> {
        query.validate_against(db)?;
        let (tree, relations, rstats) = reduce_then_prune_ctx(ctx, query, tree, db)?;
        let attr_order = lex_attr_order(query, ranking);
        let output_perm = query
            .projection()
            .iter()
            .map(|p| {
                attr_order
                    .iter()
                    .position(|(a, _)| a == p)
                    .expect("projection attribute present in order")
            })
            .collect();

        let mut this = LexiEnumerator {
            projection: query.projection().to_vec(),
            attr_order,
            output_perm,
            relations,
            indexes: Vec::new(),
            levels: Vec::new(),
            weights: ranking.weights().clone(),
            cells: Vec::new(),
            memo: Vec::new(),
            prefix: Vec::new(),
            stack: Vec::new(),
            stats: EnumStats::new(),
        };
        this.stats
            .record_reduce(rstats.passes, rstats.input_rows, rstats.output_rows);
        if this.relations.iter().any(|r| r.is_empty()) {
            return Ok(this); // empty join: nothing to index, nothing to emit
        }
        this.build_plans(&tree)?;
        this.memo = (0..this.attr_order.len()).map(|_| HashMap::new()).collect();
        let cell = this.cell_for(0);
        this.stack.push(Frame {
            level: 0,
            cell,
            next: 0,
        });
        Ok(this)
    }

    /// Derive the per-level plans and the specs of the indexes they probe
    /// (the indexes themselves are built lazily, on first sustained use).
    fn build_plans(&mut self, tree: &JoinTree) -> Result<(), EnumError> {
        let n = tree.len();
        // Undirected tree adjacency (parent + children per node).
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, node) in tree.nodes().iter().enumerate() {
            if let Some(p) = node.parent {
                adj[i].push(p);
            }
            adj[i].extend(node.children.iter().copied());
        }
        // Index arena, deduplicated across levels by (node, key attrs).
        let mut index_ids: HashMap<(usize, Vec<Attr>), usize> = HashMap::new();
        let mut index_specs: Vec<(usize, Vec<Attr>)> = Vec::new();
        let mut intern = |node: usize, key: Vec<Attr>| -> usize {
            *index_ids.entry((node, key.clone())).or_insert_with(|| {
                index_specs.push((node, key));
                index_specs.len() - 1
            })
        };

        let mut levels: Vec<LevelPlan> = Vec::with_capacity(self.attr_order.len());
        for (k, (attr, dir)) in self.attr_order.iter().enumerate() {
            let bound_set: BTreeSet<&Attr> = self.attr_order[..k].iter().map(|(a, _)| a).collect();
            let root = (0..n)
                .position(|i| self.relations[i].attrs().contains(attr))
                .expect("projection attribute must appear in the pruned tree");
            // Component of `attr` in the residual hypergraph: flood the
            // tree over edges whose shared attributes are not all bound.
            let mut bfs_children: Vec<Vec<usize>> = vec![Vec::new(); n];
            let mut visited = vec![false; n];
            visited[root] = true;
            let mut queue = vec![root];
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head];
                head += 1;
                for &v in &adj[u] {
                    if visited[v] {
                        continue;
                    }
                    let traversable = self.relations[u]
                        .attrs()
                        .iter()
                        .any(|a| !bound_set.contains(a) && self.relations[v].attrs().contains(a));
                    if traversable {
                        visited[v] = true;
                        bfs_children[u].push(v);
                        queue.push(v);
                    }
                }
            }
            // Keep only the paths from the root to nodes carrying a bound
            // attribute: unconstrained subtrees are fully reduced and
            // filter nothing.
            let marked: Vec<bool> = (0..n)
                .map(|i| {
                    visited[i]
                        && self.relations[i]
                            .attrs()
                            .iter()
                            .any(|a| bound_set.contains(a))
                })
                .collect();
            let mut keep = vec![false; n];
            mark_keep(&bfs_children, &marked, &mut keep, root);
            keep[root] = true;
            let mut order = Vec::new();
            kept_post_order(&bfs_children, &keep, root, &mut order);

            let mut dep: Vec<usize> = Vec::new();
            let mut slot_of: HashMap<usize, usize> = HashMap::new();
            let mut steps: Vec<StepPlan> = Vec::with_capacity(order.len());
            for &u in &order {
                let rel = &self.relations[u];
                let bound_levels: Vec<usize> = (0..k)
                    .filter(|&l| rel.attrs().contains(&self.attr_order[l].0))
                    .collect();
                let bound = if bound_levels.is_empty() {
                    None
                } else {
                    for &l in &bound_levels {
                        if !dep.contains(&l) {
                            dep.push(l);
                        }
                    }
                    let key: Vec<Attr> = bound_levels
                        .iter()
                        .map(|&l| self.attr_order[l].0.clone())
                        .collect();
                    Some((intern(u, key), bound_levels))
                };
                let mut children = Vec::new();
                for &c in &bfs_children[u] {
                    if !keep[c] {
                        continue;
                    }
                    let shared: Vec<Attr> = self.relations[c]
                        .attrs()
                        .iter()
                        .filter(|a| !bound_set.contains(a) && rel.attrs().contains(a))
                        .cloned()
                        .collect();
                    children.push(ChildLink {
                        child_slot: slot_of[&c],
                        child_key_pos: self.relations[c].positions(&shared)?,
                        index: intern(u, shared.clone()),
                        node_key_pos: rel.positions(&shared)?,
                    });
                }
                slot_of.insert(u, steps.len());
                steps.push(StepPlan {
                    node: u,
                    bound,
                    children,
                });
            }
            dep.sort_unstable();
            let attr_pos = self.relations[root]
                .position(attr)
                .expect("attribute exists in its node");
            levels.push(LevelPlan {
                dir: *dir,
                dep,
                steps,
                attr_pos,
            });
        }
        // Register the interned index specs; the builds are deferred to
        // first sustained use (see [`LazyIndex`]). Positions are resolved
        // here so the lazy path cannot fail.
        self.indexes = index_specs
            .into_iter()
            .map(|(node, key)| {
                let key_pos = self.relations[node].positions(&key)?;
                Ok(LazyIndex {
                    key_attrs: key,
                    key_pos,
                    touches: 0,
                    built: None,
                })
            })
            .collect::<Result<Vec<_>, EnumError>>()?;
        self.levels = levels;
        Ok(())
    }

    /// The memoized cell for `level` under the current prefix, building
    /// (and counting) it on first use.
    fn cell_for(&mut self, level: usize) -> u32 {
        let key: Tuple = self.levels[level]
            .dep
            .iter()
            .map(|&l| self.prefix[l])
            .collect();
        if let Some(&id) = self.memo[level].get(&key) {
            self.stats.record_cell_reuse();
            return id;
        }
        let list = self.compute_candidates(level);
        let id = self.cells.len() as u32;
        // The memoized cell and its memo entry are retained for the
        // enumerator's lifetime — account them like the general engine's
        // frontier.
        let bytes = ((list.len() + key.len()) * std::mem::size_of::<Value>()
            + std::mem::size_of::<Vec<Value>>()
            + std::mem::size_of::<u32>()) as u64;
        self.stats.frontier_alloc(bytes, bytes);
        self.cells.push(list);
        self.memo[level].insert(key, id);
        self.stats.record_cell();
        id
    }

    /// Run the level's bottom-up schedule over row-id lists and return the
    /// weight-sorted candidate values. Pure probes and list merges — no
    /// relation is copied, no reducer runs; unbuilt indexes answer by scan
    /// until their lazy build triggers (see [`LazyIndex`]).
    fn compute_candidates(&mut self, level: usize) -> Vec<Value> {
        // Split borrows: the plan is read from `levels` while the lazy
        // indexes mutate (touch counters, deferred builds).
        let LexiEnumerator {
            levels,
            relations,
            indexes,
            weights,
            attr_order,
            prefix,
            stats,
            ..
        } = self;
        let plan = &levels[level];
        // `None` = all rows of the step's relation are live.
        let mut live: Vec<Option<Vec<u32>>> = Vec::with_capacity(plan.steps.len());
        let mut key: Tuple = Vec::new();
        for step in &plan.steps {
            let rel = &relations[step.node];
            let mut rows: Option<Vec<u32>> = match &step.bound {
                Some((idx, bound_levels)) => {
                    key.clear();
                    key.extend(bound_levels.iter().map(|&l| prefix[l]));
                    Some(indexes[*idx].rows_for(rel, &key, stats))
                }
                None => None,
            };
            for link in &step.children {
                let child_rel = &relations[plan.steps[link.child_slot].node];
                // Invariant: a child step always resolved to a concrete row
                // list — it is either marked (bound probe) or was itself
                // filtered through one of its children. Only the schedule
                // root, which no link ever references, can stay `None`.
                let child_rows = live[link.child_slot]
                    .as_deref()
                    .expect("non-root steps always resolve a row list");
                let (key_list, key_set) = collect_keys(
                    child_rows.iter().map(|&r| child_rel.tuple(r as usize)),
                    &link.child_key_pos,
                );
                match rows {
                    None => {
                        rows =
                            Some(indexes[link.index].union_rows(rel, &key_list, &key_set, stats));
                    }
                    Some(ref mut r) => {
                        let pos = &link.node_key_pos;
                        let mut buf: Tuple = Vec::with_capacity(pos.len());
                        r.retain(|&row| {
                            let t = rel.tuple(row as usize);
                            buf.clear();
                            buf.extend(pos.iter().map(|&p| t[p]));
                            key_set.contains(buf.as_slice())
                        });
                    }
                }
                if matches!(rows.as_deref(), Some([])) {
                    return Vec::new();
                }
            }
            live.push(rows);
        }
        // Distinct values of the level's attribute among the root's rows.
        let root = plan.steps.last().expect("schedule contains the root");
        let rel = &relations[root.node];
        let p = plan.attr_pos;
        let mut seen: HashSet<Value> = HashSet::new();
        let mut values: Vec<Value> = Vec::new();
        match live.last().expect("one live entry per step") {
            Some(rows) => {
                for &row in rows {
                    let v = rel.tuple(row as usize)[p];
                    if seen.insert(v) {
                        values.push(v);
                    }
                }
            }
            None => {
                for t in rel.iter() {
                    let v = t[p];
                    if seen.insert(v) {
                        values.push(v);
                    }
                }
            }
        }
        sort_candidates(weights, &attr_order[level].0, plan.dir, &mut values);
        values
    }

    fn emit(&self, last: Value) -> Tuple {
        let m = self.attr_order.len();
        self.output_perm
            .iter()
            .map(|&p| if p + 1 == m { last } else { self.prefix[p] })
            .collect()
    }

    /// The lexicographic attribute order actually used (projection
    /// attributes only).
    pub fn attr_order(&self) -> &[(Attr, Direction)] {
        &self.attr_order
    }

    /// The projection attributes, in output order.
    pub fn output_attrs(&self) -> &[Attr] {
        &self.projection
    }

    /// Enumeration statistics.
    pub fn stats(&self) -> &EnumStats {
        &self.stats
    }

    /// Number of memoized candidate cells currently held — the enumerator's
    /// dominant memory cost beyond the reduced relations and indexes.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Grouped-adjacency indexes registered by the level plans (an upper
    /// bound on what enumeration may ever build).
    pub fn indexes_planned(&self) -> usize {
        self.indexes.len()
    }

    /// Indexes actually built so far. Lazy construction means a shallow
    /// (`LIMIT k` with small `k`) enumeration typically builds none — the
    /// first two probes per index are served by scans.
    pub fn indexes_built(&self) -> usize {
        self.indexes.iter().filter(|i| i.built.is_some()).count()
    }
}

impl Iterator for LexiEnumerator {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        let m = self.attr_order.len();
        loop {
            let (level, cell, cursor) = match self.stack.last() {
                None => return None,
                Some(f) => (f.level, f.cell as usize, f.next),
            };
            if cursor >= self.cells[cell].len() {
                self.stack.pop();
                if level > 0 {
                    self.prefix.pop();
                }
                continue;
            }
            self.stack.last_mut().expect("frame just read").next += 1;
            let value = self.cells[cell][cursor];
            if level + 1 == m {
                self.stats.record_answer();
                return Some(self.emit(value));
            }
            self.prefix.push(value);
            let cell = self.cell_for(level + 1);
            self.stack.push(Frame {
                level: level + 1,
                cell,
                next: 0,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acyclic::AcyclicEnumerator;
    use re_query::QueryBuilder;
    use re_storage::attr::attrs;

    fn db() -> Database {
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

    fn query() -> JoinProjectQuery {
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
    fn lexicographic_order_a_then_e() {
        let lex = LexRanking::new(["A", "E"], WeightAssignment::value_as_weight());
        let e = LexiEnumerator::new(&query(), &db(), &lex).unwrap();
        let results: Vec<Tuple> = e.collect();
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
    fn matches_general_algorithm_with_lex_ranking() {
        for order in [["A", "E"], ["E", "A"]] {
            let lex = LexRanking::new(order, WeightAssignment::value_as_weight());
            let via_lexi: Vec<Tuple> = LexiEnumerator::new(&query(), &db(), &lex)
                .unwrap()
                .collect();
            let via_general: Vec<Tuple> = AcyclicEnumerator::new(&query(), &db(), lex)
                .unwrap()
                .collect();
            assert_eq!(via_lexi, via_general, "order {order:?}");
        }
    }

    #[test]
    fn cells_are_reused_across_prefixes_sharing_the_dependency() {
        // π_{a,b,c}(R(a,b) ⋈ S(b,c)) ordered (a, b, c): the c-candidates
        // depend only on b, so the two a-values sharing b = 1 reuse one
        // memoized cell.
        let mut d = Database::new();
        d.add_relation(
            Relation::with_tuples(
                "R",
                attrs(["a", "b"]),
                vec![vec![1, 1], vec![2, 1], vec![3, 2]],
            )
            .unwrap(),
        )
        .unwrap();
        d.add_relation(
            Relation::with_tuples(
                "S",
                attrs(["b", "c"]),
                vec![vec![1, 10], vec![1, 11], vec![2, 12]],
            )
            .unwrap(),
        )
        .unwrap();
        let q = QueryBuilder::new()
            .atom("R", "R", ["a", "b"])
            .atom("S", "S", ["b", "c"])
            .project(["a", "b", "c"])
            .build()
            .unwrap();
        let lex = LexRanking::new(["a", "b", "c"], WeightAssignment::value_as_weight());
        let mut e = LexiEnumerator::new(&q, &d, &lex).unwrap();
        let results: Vec<Tuple> = e.by_ref().collect();
        assert_eq!(
            results,
            vec![
                vec![1, 1, 10],
                vec![1, 1, 11],
                vec![2, 1, 10],
                vec![2, 1, 11],
                vec![3, 2, 12],
            ]
        );
        assert!(e.stats().cells_created > 0);
        assert!(
            e.stats().cells_reused > 0,
            "a = 2 must reuse the b = 1 cell built for a = 1"
        );
        // And the sequence still matches the general algorithm.
        let via_general: Vec<Tuple> = AcyclicEnumerator::new(&q, &d, lex).unwrap().collect();
        assert_eq!(results, via_general);
    }

    #[test]
    fn indexes_build_lazily_on_sustained_touch() {
        let lex = LexRanking::new(["A", "E"], WeightAssignment::value_as_weight());
        // A fresh enumerator has plans but no built indexes.
        let mut e = LexiEnumerator::new(&query(), &db(), &lex).unwrap();
        assert!(e.indexes_planned() > 0, "the E level needs bound probes");
        assert_eq!(e.indexes_built(), 0, "construction builds nothing");
        // One answer touches the E level once — still within the scan
        // warm-up, so nothing is built.
        assert_eq!(e.next(), Some(vec![1, 1]));
        assert_eq!(e.indexes_built(), 0, "a single touch stays on scans");
        // Draining the enumeration probes the E level once per A value
        // (3 > LAZY_BUILD_TOUCHES), which must trigger the builds — and
        // account their bytes.
        let rest = e.by_ref().count();
        assert_eq!(rest, 5);
        assert!(e.indexes_built() > 0, "sustained touches build the index");
        assert!(e.stats().frontier_bytes > 0);
    }

    #[test]
    fn descending_direction() {
        let lex = LexRanking::with_directions(
            [("A", Direction::Desc), ("E", Direction::Asc)],
            WeightAssignment::value_as_weight(),
        );
        let results: Vec<Tuple> = LexiEnumerator::new(&query(), &db(), &lex)
            .unwrap()
            .collect();
        assert_eq!(results[0], vec![3, 1]);
        assert_eq!(results[1], vec![3, 2]);
        assert_eq!(results.last().unwrap(), &vec![1, 2]);
        assert_eq!(results.len(), 6);
    }

    #[test]
    fn empty_result() {
        let mut d = Database::new();
        d.add_relation(Relation::with_tuples("R1", attrs(["A", "B"]), vec![vec![1, 5]]).unwrap())
            .unwrap();
        d.add_relation(Relation::with_tuples("R2", attrs(["B", "C"]), vec![vec![7, 1]]).unwrap())
            .unwrap();
        d.add_relation(Relation::with_tuples("R3", attrs(["C", "D"]), vec![vec![1, 1]]).unwrap())
            .unwrap();
        d.add_relation(Relation::with_tuples("R4", attrs(["D", "E"]), vec![vec![1, 1]]).unwrap())
            .unwrap();
        let lex = LexRanking::new(["A", "E"], WeightAssignment::value_as_weight());
        let mut e = LexiEnumerator::new(&query(), &d, &lex).unwrap();
        assert_eq!(e.next(), None);
    }

    #[test]
    fn single_attribute_projection() {
        let q = QueryBuilder::new()
            .atom("R1", "R1", ["A", "B"])
            .atom("R2", "R2", ["B", "C"])
            .project(["A"])
            .build()
            .unwrap();
        let lex = LexRanking::new(["A"], WeightAssignment::value_as_weight());
        let results: Vec<Tuple> = LexiEnumerator::new(&q, &db(), &lex).unwrap().collect();
        assert_eq!(results, vec![vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn weights_override_value_order() {
        // Give A=3 the smallest weight so it sorts first.
        let table = [(3u64, re_ranking::Weight::new(-10.0))]
            .into_iter()
            .collect();
        let w = WeightAssignment::value_as_weight().with_table("A", table);
        let lex = LexRanking::new(["A", "E"], w);
        let results: Vec<Tuple> = LexiEnumerator::new(&query(), &db(), &lex)
            .unwrap()
            .collect();
        assert_eq!(results[0], vec![3, 1]);
    }

    #[test]
    fn pruned_subtrees_still_filter_dangling_tuples() {
        // π_a(R(a,b) ⋈ S(b,c)) with no joining tuples: S owns no projection
        // attribute, so it is pruned from the join tree — but its semi-join
        // filter must still apply (the full reducer has to run *before*
        // pruning). A prune-first implementation wrongly emits [1].
        let mut d = Database::new();
        d.add_relation(Relation::with_tuples("R", attrs(["a", "b"]), vec![vec![1, 9]]).unwrap())
            .unwrap();
        d.add_relation(Relation::with_tuples("S", attrs(["b", "c"]), vec![vec![5, 5]]).unwrap())
            .unwrap();
        let q = QueryBuilder::new()
            .atom("R", "R", ["a", "b"])
            .atom("S", "S", ["b", "c"])
            .project(["a"])
            .build()
            .unwrap();
        let lex = LexRanking::new(["a"], WeightAssignment::value_as_weight());
        let results: Vec<Tuple> = LexiEnumerator::new(&q, &d, &lex).unwrap().collect();
        assert_eq!(results, Vec::<Tuple>::new());
    }

    #[test]
    fn cartesian_product_levels_are_independent() {
        let mut d = Database::new();
        d.add_relation(Relation::with_tuples("R", attrs(["a"]), vec![vec![2], vec![1]]).unwrap())
            .unwrap();
        d.add_relation(Relation::with_tuples("S", attrs(["b"]), vec![vec![4], vec![3]]).unwrap())
            .unwrap();
        let q = QueryBuilder::new()
            .atom("R", "R", ["a"])
            .atom("S", "S", ["b"])
            .project(["a", "b"])
            .build()
            .unwrap();
        let lex = LexRanking::new(["a", "b"], WeightAssignment::value_as_weight());
        let mut e = LexiEnumerator::new(&q, &d, &lex).unwrap();
        let results: Vec<Tuple> = e.by_ref().collect();
        assert_eq!(
            results,
            vec![vec![1, 3], vec![1, 4], vec![2, 3], vec![2, 4]]
        );
        // The b-level has no dependency on a, so its single cell is built
        // once and reused for the second a-value.
        assert_eq!(e.stats().cells_reused, 1);
    }

    #[test]
    fn three_hop_shape_matches_general() {
        // π_{a,p2}(M1(a,p1) ⋈ M2(a2,p1) ⋈ M3(a2,p2)) — the DBLP 3-hop
        // shape, where the p2 candidates need two propagation steps.
        let mut d = Database::new();
        let edges = vec![
            vec![1, 10],
            vec![2, 10],
            vec![2, 11],
            vec![3, 11],
            vec![3, 12],
            vec![4, 13],
        ];
        d.add_relation(Relation::with_tuples("M", attrs(["e", "c"]), edges).unwrap())
            .unwrap();
        let q = QueryBuilder::new()
            .atom("M1", "M", ["a", "p1"])
            .atom("M2", "M", ["a2", "p1"])
            .atom("M3", "M", ["a2", "p2"])
            .project(["a", "p2"])
            .build()
            .unwrap();
        let lex = LexRanking::new(["a", "p2"], WeightAssignment::value_as_weight());
        let via_new: Vec<Tuple> = LexiEnumerator::new(&q, &d, &lex).unwrap().collect();
        let via_general: Vec<Tuple> = AcyclicEnumerator::new(&q, &d, lex).unwrap().collect();
        assert_eq!(via_new, via_general);
    }
}
