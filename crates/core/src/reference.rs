//! The pre-arena general engine, retained as a test oracle.
//!
//! [`ReferenceAcyclic`] is the Algorithm 1–2 implementation the arena-backed
//! [`AcyclicEnumerator`](crate::AcyclicEnumerator) replaced: it
//! materialises an owned `Tuple` per cell, clones it again (tie-permuted)
//! into every heap entry, clones the rank key per entry, and keys its
//! per-anchor queues on owned anchor `Tuple`s. Functionally correct and
//! byte-identical in output to the kernel engine — which is exactly why it
//! survives: it is the **differential-testing oracle** that
//! `tests/frontier_differential.rs` pits the kernel engine against.
//!
//! Its allocation habits are deliberately preserved — every hot-path tuple
//! it builds ticks [`EnumStats::tuple_allocs`], proving that tripwire
//! actually fires (the kernel engine's tests assert the counter stays
//! zero), and [`ReferenceAcyclic::frontier_bytes`] walks the owned
//! structures so the differential suite can compare real footprints.

use crate::cell::{Cell, CellId, HeapEntry, NextPtr};
use crate::error::EnumError;
use crate::stats::EnumStats;
use re_exec::ExecContext;
use re_join::{materialize_bags, reduce_then_prune_ctx};
use re_query::{Atom, GhdPlan, JoinProjectQuery, JoinTree, QueryError};
use re_ranking::{RankKey, Ranking};
use re_storage::{Attr, Database, Relation, Tuple};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Per-node state of the reference engine (owned tuples throughout).
struct NodeState<R: Ranking> {
    relation: Relation,
    anchor_pos: Vec<usize>,
    own_proj_pos: Vec<usize>,
    children: Vec<usize>,
    child_anchor_pos: Vec<Vec<usize>>,
    tie_perm: Vec<usize>,
    plan: <R as Ranking>::Plan,
    cells: Vec<Cell<R::Key>>,
    queues: HashMap<Tuple, BinaryHeap<Reverse<HeapEntry<R::Key>>>>,
}

/// The pre-arena ranked enumerator for acyclic join-project queries.
pub struct ReferenceAcyclic<R: Ranking + Clone> {
    ranking: R,
    tree: JoinTree,
    nodes: Vec<NodeState<R>>,
    projection: Vec<Attr>,
    last_emitted: Option<Tuple>,
    stats: EnumStats,
    exhausted: bool,
}

impl<R: Ranking + Clone> ReferenceAcyclic<R> {
    /// Build the enumerator with a default join tree.
    pub fn new(query: &JoinProjectQuery, db: &Database, ranking: R) -> Result<Self, EnumError> {
        let tree = JoinTree::build(query)?;
        Self::with_tree(query, db, ranking, tree)
    }

    /// Build the enumerator with an explicit join tree.
    pub fn with_tree(
        query: &JoinProjectQuery,
        db: &Database,
        ranking: R,
        tree: JoinTree,
    ) -> Result<Self, EnumError> {
        query.validate_against(db)?;
        let (pruned, reduced, _) = reduce_then_prune_ctx(&ExecContext::serial(), query, tree, db)?;
        Self::from_reduced(query.projection().to_vec(), ranking, pruned, reduced)
    }

    /// Reference twin of `CyclicEnumerator`: materialise the GHD bags
    /// serially, then run the reference engine on the residual acyclic
    /// query — the old cyclic path for old-vs-new comparisons.
    pub fn for_cyclic(
        query: &JoinProjectQuery,
        db: &Database,
        ranking: R,
        plan: &GhdPlan,
    ) -> Result<Self, EnumError> {
        query.validate_against(db)?;
        let ctx = ExecContext::serial();
        let mut bag_db = Database::new();
        let mut atoms = Vec::with_capacity(plan.len());
        let rels = materialize_bags(query, db, plan.bags(), &ctx)?;
        for (bag, rel) in plan.bags().iter().zip(rels) {
            atoms.push(Atom::new(
                bag.name.clone(),
                bag.name.clone(),
                bag.attrs.clone(),
            ));
            bag_db.set_relation(rel);
        }
        let residual = JoinProjectQuery::new(atoms, query.projection().to_vec())?;
        let tree = match JoinTree::build(&residual) {
            Ok(t) => t,
            Err(QueryError::NotAcyclic) => return Err(EnumError::ResidualCyclic),
            Err(e) => return Err(EnumError::Query(e)),
        };
        Self::with_tree(&residual, &bag_db, ranking, tree)
    }

    /// Build the enumerator from fully reduced per-node relations.
    pub fn from_reduced(
        projection: Vec<Attr>,
        ranking: R,
        tree: JoinTree,
        reduced: Vec<Relation>,
    ) -> Result<Self, EnumError> {
        assert_eq!(tree.len(), reduced.len());
        let mut stats = EnumStats::new();
        let empty_result = reduced.iter().any(|r| r.is_empty());

        let global_pos = |a: &Attr| -> usize {
            projection
                .iter()
                .position(|x| x == a)
                .expect("projection attribute missing from join tree output")
        };

        let mut nodes: Vec<NodeState<R>> = Vec::with_capacity(tree.len());
        for (idx, rel) in reduced.into_iter().enumerate() {
            let node = tree.node(idx);
            let anchor_pos = rel.positions(&node.anchor)?;
            let own_proj_pos = rel.positions(&node.own_proj)?;
            let child_anchor_pos = node
                .children
                .iter()
                .map(|&c| rel.positions(&tree.node(c).anchor))
                .collect::<Result<Vec<_>, _>>()?;
            let mut tie_perm: Vec<usize> = (0..node.subtree_proj.len()).collect();
            tie_perm.sort_by_key(|&i| global_pos(&node.subtree_proj[i]));
            nodes.push(NodeState {
                anchor_pos,
                own_proj_pos,
                children: node.children.clone(),
                child_anchor_pos,
                tie_perm,
                plan: ranking.plan(&node.subtree_proj),
                relation: rel,
                cells: Vec::new(),
                queues: HashMap::new(),
            });
        }

        // Preprocessing (Algorithm 1): bottom-up cell construction.
        if !empty_result {
            for &u in &tree.post_order() {
                let mut new_cells: Vec<Cell<R::Key>> = Vec::with_capacity(nodes[u].relation.len());
                let mut inserts: Vec<(Tuple, HeapEntry<R::Key>)> =
                    Vec::with_capacity(nodes[u].relation.len());
                {
                    let ns = &nodes[u];
                    'rows: for (row, t) in ns.relation.iter().enumerate() {
                        let mut child_ptrs: Vec<CellId> = Vec::with_capacity(ns.children.len());
                        let mut output: Tuple = ns.own_proj_pos.iter().map(|&p| t[p]).collect();
                        for (ci, &child) in ns.children.iter().enumerate() {
                            let key: Tuple =
                                ns.child_anchor_pos[ci].iter().map(|&p| t[p]).collect();
                            let Some(top) = nodes[child].queues.get(&key).and_then(|q| q.peek())
                            else {
                                debug_assert!(false, "dangling tuple on reduced instance");
                                continue 'rows;
                            };
                            let top_cell = top.0.cell;
                            child_ptrs.push(top_cell);
                            output.extend(
                                nodes[child].cells[top_cell as usize].output.iter().copied(),
                            );
                        }
                        let key = ranking.key(&ns.plan, &output);
                        let tie: Tuple = ns.tie_perm.iter().map(|&p| output[p]).collect();
                        let anchor_key: Tuple = ns.anchor_pos.iter().map(|&p| t[p]).collect();
                        let cell_id = new_cells.len() as CellId;
                        new_cells.push(Cell {
                            row: row as u32,
                            child_ptrs,
                            advance_from: 0,
                            next: NextPtr::NotComputed,
                            output,
                            key: key.clone(),
                        });
                        inserts.push((
                            anchor_key,
                            HeapEntry {
                                key,
                                output: tie,
                                cell: cell_id,
                            },
                        ));
                    }
                }
                stats.cells_created += new_cells.len() as u64;
                stats.pq_pushes += inserts.len() as u64;
                let ns = &mut nodes[u];
                ns.cells = new_cells;
                for (anchor_key, entry) in inserts {
                    ns.queues
                        .entry(anchor_key)
                        .or_default()
                        .push(Reverse(entry));
                }
            }
        }

        let mut this = ReferenceAcyclic {
            ranking,
            tree,
            nodes,
            projection,
            last_emitted: None,
            stats,
            exhausted: empty_result,
        };
        let bytes = this.frontier_bytes();
        this.stats.frontier_alloc(bytes, bytes);
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

    /// Total number of cells currently allocated.
    pub fn cell_count(&self) -> usize {
        self.nodes.iter().map(|n| n.cells.len()).sum()
    }

    /// The engine's frontier footprint, measured by walking the owned
    /// structures: per-cell `Tuple`s, pointer vectors and keys, plus the
    /// per-anchor queues with their cloned tie tuples and keys. This is
    /// what the arena kernel's `frontier_bytes` accounting is benchmarked
    /// against.
    pub fn frontier_bytes(&self) -> u64 {
        let mut bytes = 0usize;
        for ns in &self.nodes {
            for cell in &ns.cells {
                bytes += std::mem::size_of::<Cell<R::Key>>()
                    + cell.output.len() * std::mem::size_of::<re_storage::Value>()
                    + cell.child_ptrs.len() * std::mem::size_of::<CellId>()
                    + cell.key.heap_bytes();
            }
            for (anchor, queue) in &ns.queues {
                bytes += anchor.len() * std::mem::size_of::<re_storage::Value>()
                    + std::mem::size_of::<Tuple>()
                    + std::mem::size_of::<BinaryHeap<Reverse<HeapEntry<R::Key>>>>();
                for Reverse(entry) in queue.iter() {
                    bytes += std::mem::size_of::<HeapEntry<R::Key>>()
                        + entry.output.len() * std::mem::size_of::<re_storage::Value>()
                        + entry.key.heap_bytes();
                }
            }
        }
        bytes as u64
    }

    /// Compute the output tuple and key of a (row, child-pointer)
    /// combination at `node`. Allocates the output tuple — a hot-path sin
    /// the tripwire records.
    fn make_output(&mut self, node: usize, row: u32, ptrs: &[CellId]) -> (Tuple, R::Key) {
        let ns = &self.nodes[node];
        let t = ns.relation.tuple(row as usize);
        let mut out: Tuple = ns.own_proj_pos.iter().map(|&p| t[p]).collect();
        for (ci, &child) in ns.children.iter().enumerate() {
            out.extend(
                self.nodes[child].cells[ptrs[ci] as usize]
                    .output
                    .iter()
                    .copied(),
            );
        }
        let key = self.ranking.key(&self.nodes[node].plan, &out);
        self.stats.record_tuple_allocs(1);
        (out, key)
    }

    /// Insert a freshly created cell into `node`'s arena and queue.
    #[allow(clippy::too_many_arguments)] // mirrors the fields of `Cell`
    fn push_cell(
        &mut self,
        node: usize,
        row: u32,
        ptrs: Vec<CellId>,
        advance_from: u32,
        output: Tuple,
        key: R::Key,
        anchor_key: &Tuple,
    ) -> CellId {
        let ns = &mut self.nodes[node];
        let id = ns.cells.len() as CellId;
        let tie: Tuple = ns.tie_perm.iter().map(|&p| output[p]).collect();
        self.stats.record_tuple_allocs(1);
        ns.cells.push(Cell {
            row,
            child_ptrs: ptrs,
            advance_from,
            next: NextPtr::NotComputed,
            output,
            key: key.clone(),
        });
        let entry = Reverse(HeapEntry {
            key,
            output: tie,
            cell: id,
        });
        match ns.queues.get_mut(anchor_key) {
            Some(q) => q.push(entry),
            None => {
                ns.queues
                    .insert(anchor_key.clone(), BinaryHeap::from(vec![entry]));
            }
        }
        self.stats.record_cell();
        self.stats.record_push();
        id
    }

    /// Generate the successor cells of `cell` at `node`.
    fn expand_successors(&mut self, node: usize, cell: CellId, anchor_key: &Tuple) {
        let advance_from = self.nodes[node].cells[cell as usize].advance_from as usize;
        for ci in advance_from..self.nodes[node].children.len() {
            let child = self.nodes[node].children[ci];
            let child_cell = self.nodes[node].cells[cell as usize].child_ptrs[ci];
            if let Some(next_child) = self.topdown(child_cell, child) {
                let row = self.nodes[node].cells[cell as usize].row;
                let mut ptrs = self.nodes[node].cells[cell as usize].child_ptrs.clone();
                ptrs[ci] = next_child;
                let (output, key) = self.make_output(node, row, &ptrs);
                self.push_cell(node, row, ptrs, ci as u32, output, key, anchor_key);
            }
        }
    }

    /// The `Topdown` procedure of Algorithm 2.
    fn topdown(&mut self, cell: CellId, node: usize) -> Option<CellId> {
        match self.nodes[node].cells[cell as usize].next {
            NextPtr::Cell(c) => return Some(c),
            NextPtr::Exhausted => return None,
            NextPtr::NotComputed => {}
        }
        debug_assert_ne!(node, self.tree.root(), "topdown never drives the root");
        let anchor_key: Tuple = {
            let ns = &self.nodes[node];
            let t = ns.relation.tuple(ns.cells[cell as usize].row as usize);
            ns.anchor_pos.iter().map(|&p| t[p]).collect()
        };
        self.stats.record_tuple_allocs(1);
        let mut first_iteration = true;
        loop {
            let popped = {
                let ns = &mut self.nodes[node];
                ns.queues
                    .get_mut(&anchor_key)
                    .and_then(|q| q.pop())
                    .map(|Reverse(e)| e)
            };
            let Some(popped) = popped else {
                self.nodes[node].cells[cell as usize].next = NextPtr::Exhausted;
                return None;
            };
            self.stats.record_pop();
            if first_iteration {
                debug_assert_eq!(popped.cell, cell, "expanded cell must be the queue top");
                first_iteration = false;
            }

            self.expand_successors(node, popped.cell, &anchor_key);

            let (next_ptr, duplicate) = {
                let ns = &self.nodes[node];
                match ns.queues.get(&anchor_key).and_then(|q| q.peek()) {
                    None => (NextPtr::Exhausted, false),
                    Some(Reverse(e)) => (NextPtr::Cell(e.cell), e.output == popped.output),
                }
            };
            self.nodes[node].cells[cell as usize].next = next_ptr;
            if !duplicate {
                return match next_ptr {
                    NextPtr::Cell(c) => Some(c),
                    NextPtr::Exhausted | NextPtr::NotComputed => None,
                };
            }
        }
    }
}

impl<R: Ranking + Clone> Iterator for ReferenceAcyclic<R> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        if self.exhausted {
            return None;
        }
        let root = self.tree.root();
        let root_key: Tuple = Vec::new();
        loop {
            let popped = self.nodes[root]
                .queues
                .get_mut(&root_key)
                .and_then(|q| q.pop())
                .map(|Reverse(e)| e);
            let Some(top) = popped else {
                self.exhausted = true;
                return None;
            };
            self.stats.record_pop();
            self.expand_successors(root, top.cell, &root_key);
            loop {
                let dup = {
                    let ns = &self.nodes[root];
                    match ns.queues.get(&root_key).and_then(|q| q.peek()) {
                        Some(Reverse(e)) if e.output == top.output => Some(e.cell),
                        _ => None,
                    }
                };
                let Some(cell) = dup else { break };
                self.nodes[root]
                    .queues
                    .get_mut(&root_key)
                    .and_then(|q| q.pop());
                self.stats.record_pop();
                self.expand_successors(root, cell, &root_key);
            }
            if self.last_emitted.as_ref() != Some(&top.output) {
                // The surviving dedup clone of the old engine.
                self.last_emitted = Some(top.output.clone());
                self.stats.record_tuple_allocs(1);
                self.stats.record_answer();
                return Some(top.output);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_query::QueryBuilder;
    use re_ranking::SumRanking;
    use re_storage::attr::attrs;

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
    fn reference_engine_reproduces_the_paper_sequence() {
        let results: Vec<Tuple> =
            ReferenceAcyclic::new(&paper_query(), &paper_db(), SumRanking::value_sum())
                .unwrap()
                .collect();
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
    fn reference_engine_ticks_the_tuple_alloc_tripwire() {
        let mut e =
            ReferenceAcyclic::new(&paper_query(), &paper_db(), SumRanking::value_sum()).unwrap();
        let n = e.by_ref().count();
        assert!(n > 0);
        assert!(
            e.stats().tuple_allocs > 0,
            "the pre-arena engine allocates tuples in the hot path — the \
             tripwire must fire on it"
        );
    }

    #[test]
    fn frontier_bytes_walk_the_owned_structures() {
        let mut e =
            ReferenceAcyclic::new(&paper_query(), &paper_db(), SumRanking::value_sum()).unwrap();
        let at_build = e.frontier_bytes();
        assert!(at_build > 0);
        let _ = e.by_ref().count();
        assert!(
            e.frontier_bytes() >= at_build,
            "cells only accumulate while enumerating"
        );
    }
}
