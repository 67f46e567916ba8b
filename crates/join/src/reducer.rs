//! Semi-joins and the Yannakakis full reducer.
//!
//! The preprocessing phase of every enumerator in the paper assumes the
//! instance contains no *dangling* tuples — tuples that cannot contribute to
//! any join result. The classical Yannakakis full reducer removes them with
//! two sweeps of semi-joins over a join tree: a bottom-up pass
//! (`parent ⋉ child`) followed by a top-down pass (`child ⋉ parent`).
//!
//! Both passes of a tree edge compare the same thing — the child's anchor
//! value against the same columns of the parent — and Algorithm 1 groups by
//! it a third time when it assigns every child row its per-anchor queue.
//! The reducer here therefore **encodes each edge once**: the bottom-up
//! pass builds one [`KeyTable`] over the child's live rows (each child
//! row's dense anchor id) and probes the parent's live rows against it
//! (each parent row's id, or none — the pass's keep flag). The top-down
//! pass of that edge never hashes: the ids of the parent's surviving rows
//! mark which anchor ids are still present, and a child row lives iff its
//! id is. Rows are only *flagged* during the sweeps; every relation is
//! compacted once at the end, and the id vectors with it, renumbered so
//! that they are exactly what [`KeyTable::group_rows`] over the reduced
//! child would assign. They leave the reducer as [`Reduction::edges`] and
//! are what the cell build of `rankedenum_core::acyclic` indexes its queues
//! by. [`semi_join`] stays the standalone single-pass kernel.

use crate::bind::bind_atoms_of;
use crate::error::JoinError;
use crate::parallel::par_semi_join;
use re_exec::ExecContext;
use re_query::{JoinProjectQuery, JoinTree};
use re_storage::{project_key, Attr, Database, KeyTable, Relation};
use std::collections::BTreeSet;

/// Keep only the tuples of `left` whose shared-attribute values appear in
/// `right` (`left ⋉ right`). If the relations share no attributes this is a
/// no-op when `right` is non-empty and empties `left` otherwise (standard
/// semi-join semantics under natural join).
pub fn semi_join(left: &mut Relation, right: &Relation) -> Result<(), JoinError> {
    par_semi_join(&ExecContext::serial(), left, right)
}

/// Per-operator counters of one full-reducer run: every semi-join pass
/// contributes its filtered relation's row count before and after, so
/// `input_rows - output_rows` is exactly the dangling tuples removed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReduceStats {
    /// Semi-join passes executed (bottom-up plus top-down).
    pub passes: u64,
    /// Rows entering the filtered side of each pass, summed.
    pub input_rows: u64,
    /// Rows surviving each pass, summed.
    pub output_rows: u64,
    /// Rows inserted into or probed against a key table: per tree edge, the
    /// child's and the parent's live rows at the bottom-up pass. The
    /// top-down passes add nothing — they read ids.
    pub hashed_rows: u64,
}

impl ReduceStats {
    /// Rows the reducer removed, summed over all passes.
    pub fn filtered_rows(&self) -> u64 {
        self.input_rows.saturating_sub(self.output_rows)
    }

    /// Fold another run's counters into this one (composite enumerators
    /// reduce once per branch).
    pub fn merge(&mut self, other: &ReduceStats) {
        self.passes += other.passes;
        self.input_rows += other.input_rows;
        self.output_rows += other.output_rows;
        self.hashed_rows += other.hashed_rows;
    }
}

/// The join-key encoding of one tree edge — a node and its parent — over
/// the **reduced** relations. Ids are dense and in first-occurrence order
/// of the node's rows, i.e. those of [`KeyTable::group_rows`] over the
/// reduced node relation at its anchor positions. An empty anchor (the
/// root's; a cartesian child's) is one key of arity zero: the single id 0.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeIds {
    /// Anchor id of every row of the node, in row order.
    pub child_ids: Vec<u32>,
    /// For every row of the node's *parent*, in row order, the anchor id it
    /// joins with. Empty for the root.
    pub parent_ids: Vec<u32>,
    /// Number of distinct anchor ids.
    pub keys: usize,
}

/// A fully reduced, pruned instance together with its join-key encoding.
#[derive(Clone, Debug)]
pub struct Reduction {
    /// The join tree, non-projecting subtrees pruned.
    pub tree: JoinTree,
    /// `relations[i]`: the dangling-free relation of `tree` node `i`.
    pub relations: Vec<Relation>,
    /// Counters of the reducer run (over the unpruned tree).
    pub stats: ReduceStats,
    /// `edges[i]`: the encoding of the edge between node `i` and its parent.
    pub edges: Vec<EdgeIds>,
}

impl Reduction {
    /// Bind the atoms of an acyclic query, full-reduce over the
    /// **unpruned** tree, then prune non-projecting subtrees.
    ///
    /// The order matters: subtrees that own no projection attribute still
    /// act as semi-join filters, so dropping them is only answer-preserving
    /// on a dangling-free instance. Every enumerator that wants a pruned
    /// tree must go through this (or repeat the same dance) — pruning first
    /// silently readmits dangling tuples. Each node's atom is bound — its
    /// rows copied from the base table — exactly once, straight into node
    /// order.
    pub fn of_query(
        ctx: &ExecContext,
        query: &JoinProjectQuery,
        tree: JoinTree,
        db: &Database,
    ) -> Result<Self, JoinError> {
        let relations = bind_atoms_of(query, db, tree.nodes().iter().map(|n| n.atom_index))?;
        Self::of_relations(ctx, tree, relations)
    }

    /// [`Reduction::of_query`] over relations the caller already owns:
    /// `relations[i]` is the bound relation of node `i` of the unpruned
    /// `tree` (the GHD enumerator hands its freshly materialised bags over
    /// this way, with no detour through a database).
    pub fn of_relations(
        ctx: &ExecContext,
        tree: JoinTree,
        mut relations: Vec<Relation>,
    ) -> Result<Self, JoinError> {
        let (stats, edges) = reduce_encoded(ctx, &tree, &mut relations)?;
        // Prune the non-projecting subtrees, keeping what belongs to the
        // surviving nodes (node-aligned with the pruned tree).
        let atom_slots = tree.nodes().iter().map(|n| n.atom_index + 1).max();
        let mut by_atom: Vec<Option<(Relation, EdgeIds)>> = Vec::new();
        by_atom.resize_with(atom_slots.unwrap_or(0), || None);
        for (node, kept) in tree.nodes().iter().zip(relations.into_iter().zip(edges)) {
            by_atom[node.atom_index] = Some(kept);
        }
        let tree = tree.prune_non_projecting();
        let (relations, edges) = tree
            .nodes()
            .iter()
            .map(|n| by_atom[n.atom_index].take().expect("kept node was reduced"))
            .unzip();
        Ok(Reduction {
            tree,
            relations,
            stats,
            edges,
        })
    }
}

/// Id of a row that is not live, or whose key the child does not hold —
/// the value [`KeyTable`] reserves and never hands out.
const NO_ID: u32 = u32::MAX;

/// Which rows of each relation are still live, with the running counts the
/// pass counters read. The sweeps only clear flags; the rows move once, in
/// [`reduce_encoded`]'s final compaction.
struct Liveness {
    live: Vec<Vec<bool>>,
    count: Vec<usize>,
}

impl Liveness {
    fn of(relations: &[Relation]) -> Self {
        Liveness {
            live: relations.iter().map(|r| vec![true; r.len()]).collect(),
            count: relations.iter().map(Relation::len).collect(),
        }
    }

    fn kill(&mut self, node: usize, row: usize) {
        self.live[node][row] = false;
        self.count[node] -= 1;
    }
}

/// The pass boundary every semi-join pass crosses, whichever way it
/// filters: the cancellation poll point of the reducer sweeps, the
/// `reduce.pass` failpoint, and (when a request trace is installed) the
/// start of the pass's `reduce.pass` trace span.
fn enter_pass(ctx: &ExecContext) -> Result<Option<re_obs::trace::SpanGuard>, JoinError> {
    ctx.check_cancelled()?;
    re_fault::fire("reduce.pass")?;
    Ok(re_obs::trace::child_span("reduce.pass"))
}

/// Count a finished pass `left ⋉ right` into `stats` and complete its trace
/// span with the pair and the row movement.
fn leave_pass(
    mut span: Option<re_obs::trace::SpanGuard>,
    (left, right, direction): (&Relation, &Relation, &str),
    (input, output): (usize, usize),
    stats: &mut ReduceStats,
) {
    let (input, output) = (input as u64, output as u64);
    stats.passes += 1;
    stats.input_rows += input;
    stats.output_rows += output;
    if let Some(s) = span.as_mut() {
        use re_obs::AttrValue;
        s.set_attr("left", AttrValue::Str(left.name().to_string()));
        s.set_attr("right", AttrValue::Str(right.name().to_string()));
        s.set_attr("direction", AttrValue::Str(direction.to_string()));
        s.set_attr("input_rows", AttrValue::U64(input));
        s.set_attr("output_rows", AttrValue::U64(output));
        s.set_attr("filtered_rows", AttrValue::U64(input - output));
    }
}

/// The bottom-up pass `parent ⋉ child` of one edge, which is also the
/// edge's encoding: one table over the child's live rows at its anchor
/// (built on the calling thread — first-occurrence ids are inherently
/// sequential), then one probe per live parent row. Large parents are
/// probed one morsel per task and the per-morsel ids concatenated in morsel
/// order, so flags and ids are the serial ones at any thread count.
/// Parent rows without a partner are cleared in `alive`; the returned
/// vectors are indexed by *unreduced* row and hold [`NO_ID`] for rows that
/// are not live. An empty anchor needs no special case: the one key of
/// arity zero is present iff the child has a live row.
fn encode_edge(
    ctx: &ExecContext,
    relations: &[Relation],
    anchor: &[Attr],
    (p, u): (usize, usize),
    alive: &mut Liveness,
    stats: &mut ReduceStats,
) -> Result<EdgeIds, JoinError> {
    let (parent, child) = (&relations[p], &relations[u]);
    let child_pos = child.positions(anchor)?;
    let parent_pos = parent.positions(anchor)?;
    stats.hashed_rows += (alive.count[u] + alive.count[p]) as u64;

    let mut table = KeyTable::new(anchor.len());
    let mut key = Vec::new();
    let child_ids: Vec<u32> = child
        .iter()
        .zip(&alive.live[u])
        .map(|(t, &live)| {
            if live {
                table.insert(project_key(t, &child_pos, &mut key)).0
            } else {
                NO_ID
            }
        })
        .collect();

    let probe = |t: &[_], live: bool, key: &mut Vec<_>| {
        if live {
            table.get(project_key(t, &parent_pos, key)).unwrap_or(NO_ID)
        } else {
            NO_ID
        }
    };
    let parent_live = &alive.live[p];
    let parent_ids: Vec<u32> = if ctx.should_parallelise(alive.count[p]) {
        let chunks = parent.chunks(ctx.morsel_rows());
        let pieces: Vec<Vec<u32>> = ctx.map(chunks.len(), |c| {
            let mut key = Vec::new();
            chunks[c]
                .global_rows()
                .map(|(j, t)| probe(t, parent_live[j], &mut key))
                .collect()
        });
        pieces.concat()
    } else {
        parent
            .iter()
            .zip(parent_live)
            .map(|(t, &live)| probe(t, live, &mut key))
            .collect()
    };
    for (j, &id) in parent_ids.iter().enumerate() {
        if id == NO_ID && alive.live[p][j] {
            alive.kill(p, j);
        }
    }
    Ok(EdgeIds {
        child_ids,
        parent_ids,
        keys: table.len(),
    })
}

/// The top-down pass `child ⋉ parent` of an encoded edge — flag arithmetic
/// over the ids, no table and no hashing — after which both sides of the
/// edge are final, so the id vectors are compacted to the surviving rows
/// and renumbered in the same sweep. An anchor value loses all of its
/// child rows or none, so first occurrences keep their relative order and
/// the new id of a surviving anchor is its rank among the survivors.
fn settle_edge(edge: &mut EdgeIds, (p, u): (usize, usize), alive: &mut Liveness) {
    // Mark the anchor ids the parent's surviving rows reference, then turn
    // the marks into ranks.
    let mut renumber = vec![NO_ID; edge.keys];
    for (&id, &live) in edge.parent_ids.iter().zip(&alive.live[p]) {
        if live {
            renumber[id as usize] = 0;
        }
    }
    edge.keys = 0;
    for slot in renumber.iter_mut().filter(|slot| **slot != NO_ID) {
        *slot = edge.keys as u32;
        edge.keys += 1;
    }
    for (id, &live) in edge.parent_ids.iter_mut().zip(&alive.live[p]) {
        *id = if live { renumber[*id as usize] } else { NO_ID };
    }
    edge.parent_ids.retain(|&id| id != NO_ID);
    // A child row was live coming in iff the bottom-up pass gave it an id.
    for (row, id) in edge.child_ids.iter_mut().enumerate() {
        if *id != NO_ID {
            *id = renumber[*id as usize];
            if *id == NO_ID {
                alive.kill(u, row);
            }
        }
    }
    edge.child_ids.retain(|&id| id != NO_ID);
}

/// The one full-reducer implementation: both sweeps over already-bound
/// per-node relations, returning the counters and the per-node edge
/// encoding (see the module docs), node-aligned with the unpruned `tree`.
fn reduce_encoded(
    ctx: &ExecContext,
    tree: &JoinTree,
    relations: &mut [Relation],
) -> Result<(ReduceStats, Vec<EdgeIds>), JoinError> {
    assert_eq!(tree.len(), relations.len());
    let _span = re_obs::Span::enter("preprocess.reduce");
    let mut trace_span = re_obs::trace::child_span("preprocess.reduce");
    let mut stats = ReduceStats::default();
    let mut alive = Liveness::of(relations);
    let mut edges = vec![EdgeIds::default(); tree.len()];
    let post = tree.post_order();
    // Bottom-up: parent ⋉ child. In post-order a node has been filtered by
    // all of its children before it filters its parent.
    for &u in &post {
        let node = tree.node(u);
        let Some(p) = node.parent else { continue };
        let span = enter_pass(ctx)?;
        let input = alive.count[p];
        edges[u] = encode_edge(ctx, relations, &node.anchor, (p, u), &mut alive, &mut stats)?;
        leave_pass(
            span,
            (&relations[p], &relations[u], "bottom-up"),
            (input, alive.count[p]),
            &mut stats,
        );
    }
    // Top-down: child ⋉ parent (reverse post-order visits parents first,
    // so the parent's flags are final when its children read them).
    for &p in post.iter().rev() {
        for &u in &tree.node(p).children {
            let span = enter_pass(ctx)?;
            let input = alive.count[u];
            settle_edge(&mut edges[u], (p, u), &mut alive);
            leave_pass(
                span,
                (&relations[u], &relations[p], "top-down"),
                (input, alive.count[u]),
                &mut stats,
            );
        }
    }
    // Every row moves at most once.
    for (u, rel) in relations.iter_mut().enumerate() {
        if alive.count[u] < rel.len() {
            let mut live = alive.live[u].iter();
            rel.retain(|_| live.next().copied().unwrap_or(false));
        }
    }
    // The root has no edge; its rows share the empty anchor.
    let root_rows = alive.count[tree.root()];
    edges[tree.root()] = EdgeIds {
        child_ids: vec![0; root_rows],
        parent_ids: Vec::new(),
        keys: root_rows.min(1),
    };
    if let Some(s) = trace_span.as_mut() {
        use re_obs::AttrValue;
        s.set_attr("passes", AttrValue::U64(stats.passes));
        s.set_attr("input_rows", AttrValue::U64(stats.input_rows));
        s.set_attr("output_rows", AttrValue::U64(stats.output_rows));
        s.set_attr("hashed_rows", AttrValue::U64(stats.hashed_rows));
    }
    Ok((stats, edges))
}

/// Run the full reducer over already-bound per-node relations.
///
/// `relations[i]` must be the relation of join-tree node `i` (attribute
/// names are query variables). After the call every relation contains
/// exactly its non-dangling tuples. The semi-join sweeps follow the tree
/// order (they are data-dependent along the tree), but under a pooled
/// `ctx` each bottom-up pass probes its morsels in parallel on large
/// relations. The reduced relations are identical to the serial reducer's
/// at any thread count.
pub fn full_reduce_relations_ctx(
    ctx: &ExecContext,
    tree: &JoinTree,
    relations: &mut [Relation],
) -> Result<ReduceStats, JoinError> {
    Ok(reduce_encoded(ctx, tree, relations)?.0)
}

/// Bind the atoms of an acyclic query and run the full reducer, returning
/// one dangling-free relation per join-tree node (indexed like the tree's
/// nodes).
pub fn full_reduce(
    query: &JoinProjectQuery,
    tree: &JoinTree,
    db: &Database,
) -> Result<(Vec<Relation>, ReduceStats), JoinError> {
    full_reduce_ctx(&ExecContext::serial(), query, tree, db)
}

/// [`full_reduce`] under an execution context (see
/// [`full_reduce_relations_ctx`]). Each node's atom is bound — its rows
/// copied from the base table — exactly once, straight into node order.
pub fn full_reduce_ctx(
    ctx: &ExecContext,
    query: &JoinProjectQuery,
    tree: &JoinTree,
    db: &Database,
) -> Result<(Vec<Relation>, ReduceStats), JoinError> {
    let mut relations = bind_atoms_of(query, db, tree.nodes().iter().map(|n| n.atom_index))?;
    let stats = full_reduce_relations_ctx(ctx, tree, &mut relations)?;
    Ok((relations, stats))
}

/// [`Reduction::of_query`] without the edge encoding: the pruned tree
/// together with its node-aligned reduced relations.
pub fn reduce_then_prune_ctx(
    ctx: &ExecContext,
    query: &JoinProjectQuery,
    tree: JoinTree,
    db: &Database,
) -> Result<(JoinTree, Vec<Relation>, ReduceStats), JoinError> {
    let r = Reduction::of_query(ctx, query, tree, db)?;
    Ok((r.tree, r.relations, r.stats))
}

/// Sanity check used by tests and debug assertions: a reduced instance is
/// *globally consistent* for a join tree if every parent/child pair agrees
/// on the shared attributes in both directions.
pub fn is_fully_reduced(tree: &JoinTree, relations: &[Relation]) -> Result<bool, JoinError> {
    for (i, node) in tree.nodes().iter().enumerate() {
        if let Some(p) = node.parent {
            if !semi_join_would_keep_all(&relations[i], &relations[p])?
                || !semi_join_would_keep_all(&relations[p], &relations[i])?
            {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

fn semi_join_would_keep_all(left: &Relation, right: &Relation) -> Result<bool, JoinError> {
    let shared: Vec<Attr> = left
        .attrs()
        .iter()
        .filter(|a| right.attrs().contains(a))
        .cloned()
        .collect();
    if shared.is_empty() {
        // The semi-join keeps everything iff the right side is non-empty or
        // there is nothing to remove on the left.
        return Ok(!right.is_empty() || left.is_empty());
    }
    let left_pos = left.positions(&shared)?;
    let keys = KeyTable::of_rows(right.iter(), &right.positions(&shared)?);
    let mut key = Vec::new();
    Ok(left
        .iter()
        .all(|t| keys.contains(project_key(t, &left_pos, &mut key))))
}

/// The set of attributes shared by two relations (helper reused by joins).
pub fn shared_attrs(a: &Relation, b: &Relation) -> Vec<Attr> {
    let bset: BTreeSet<&Attr> = b.attrs().iter().collect();
    a.attrs()
        .iter()
        .filter(|x| bset.contains(*x))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_query::QueryBuilder;
    use re_storage::attr::attrs;

    fn path_db() -> Database {
        // R1(A,B), R2(B,C), R3(C,D) with some dangling tuples.
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples(
                "R1",
                attrs(["A", "B"]),
                vec![vec![1, 1], vec![2, 1], vec![3, 9]], // (3,9) dangles
            )
            .unwrap(),
        )
        .unwrap();
        db.add_relation(
            Relation::with_tuples("R2", attrs(["B", "C"]), vec![vec![1, 5], vec![7, 6]]).unwrap(),
        )
        .unwrap();
        db.add_relation(
            Relation::with_tuples("R3", attrs(["C", "D"]), vec![vec![5, 2], vec![5, 3]]).unwrap(),
        )
        .unwrap();
        db
    }

    fn path_query() -> JoinProjectQuery {
        QueryBuilder::new()
            .atom("R1", "R1", ["A", "B"])
            .atom("R2", "R2", ["B", "C"])
            .atom("R3", "R3", ["C", "D"])
            .project(["A", "D"])
            .build()
            .unwrap()
    }

    #[test]
    fn semi_join_filters_left() {
        let mut l =
            Relation::with_tuples("L", attrs(["A", "B"]), vec![vec![1, 1], vec![2, 9]]).unwrap();
        let r = Relation::with_tuples("R", attrs(["B", "C"]), vec![vec![1, 4]]).unwrap();
        semi_join(&mut l, &r).unwrap();
        assert_eq!(l.len(), 1);
        assert_eq!(l.tuple(0), &[1, 1]);
    }

    #[test]
    fn semi_join_disjoint_attrs_keeps_all_when_right_nonempty() {
        let mut l = Relation::with_tuples("L", attrs(["A"]), vec![vec![1], vec![2]]).unwrap();
        let r = Relation::with_tuples("R", attrs(["B"]), vec![vec![9]]).unwrap();
        semi_join(&mut l, &r).unwrap();
        assert_eq!(l.len(), 2);
        let empty = Relation::new("E", attrs(["B"]));
        semi_join(&mut l, &empty).unwrap();
        assert_eq!(l.len(), 0);
    }

    #[test]
    fn semi_join_equals_its_definition_on_generated_relations() {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut draw = |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        // (left schema, right schema): one, two and zero shared attributes.
        let shapes: [(&[&str], &[&str]); 3] = [
            (&["A", "B"], &["B", "C"]),
            (&["A", "B", "C"], &["C", "D", "B"]),
            (&["A", "B"], &["C", "D"]),
        ];
        for (la, ra) in shapes {
            for (l_rows, r_rows, domain) in
                [(200, 150, 40), (300, 0, 40), (0, 50, 40), (500, 500, 7)]
            {
                let gen = |n: usize, arity: usize, draw: &mut dyn FnMut(u64) -> u64| {
                    (0..n)
                        .map(|_| (0..arity).map(|_| draw(domain) << 33).collect())
                        .collect::<Vec<Vec<u64>>>()
                };
                let left = Relation::with_tuples(
                    "L",
                    attrs(la.iter().copied()),
                    gen(l_rows, la.len(), &mut draw),
                )
                .unwrap();
                let right = Relation::with_tuples(
                    "R",
                    attrs(ra.iter().copied()),
                    gen(r_rows, ra.len(), &mut draw),
                )
                .unwrap();
                // The definition: keep t ∈ L iff some s ∈ R agrees with it
                // on every shared attribute, in L's storage order.
                let shared = shared_attrs(&left, &right);
                let (lp, rp) = (
                    left.positions(&shared).unwrap(),
                    right.positions(&shared).unwrap(),
                );
                let expected: Vec<Vec<u64>> = left
                    .iter()
                    .filter(|t| {
                        right
                            .iter()
                            .any(|s| lp.iter().zip(&rp).all(|(&a, &b)| t[a] == s[b]))
                    })
                    .map(|t| t.to_vec())
                    .collect();
                let mut got = left.clone();
                semi_join(&mut got, &right).unwrap();
                let got: Vec<Vec<u64>> = got.iter().map(|t| t.to_vec()).collect();
                assert_eq!(got, expected, "{la:?} ⋉ {ra:?}, {l_rows}×{r_rows}");
                if shared.is_empty() {
                    assert_eq!(got.len(), if r_rows == 0 { 0 } else { l_rows });
                }
            }
        }
    }

    /// Check one instance against the definitions the encoded reducer
    /// replaces: the relations are those of two sweeps of the standalone
    /// [`semi_join`] over the unpruned tree (rows and row order), the
    /// counters those of that run, and every surviving edge's ids those of
    /// [`KeyTable::group_rows`] over the reduced child with the parent's
    /// rows looked up in it. Returns the reduction for further asserts.
    fn assert_encoding_matches_definition(
        ctx: &ExecContext,
        q: &JoinProjectQuery,
        tree: &JoinTree,
        db: &Database,
    ) -> Reduction {
        let rows_of = |r: &Relation| r.iter().map(<[u64]>::to_vec).collect::<Vec<_>>();
        let mut expected = bind_atoms_of(q, db, tree.nodes().iter().map(|n| n.atom_index)).unwrap();
        let mut stats = ReduceStats::default();
        let mut pass = |rels: &mut Vec<Relation>, left: usize, right: usize, hashes: bool| {
            let filter = rels[right].clone();
            let input = rels[left].len();
            if hashes {
                stats.hashed_rows += (input + filter.len()) as u64;
            }
            semi_join(&mut rels[left], &filter).unwrap();
            stats.passes += 1;
            stats.input_rows += input as u64;
            stats.output_rows += rels[left].len() as u64;
        };
        let post = tree.post_order();
        for &u in &post {
            if let Some(p) = tree.node(u).parent {
                pass(&mut expected, p, u, true);
            }
        }
        for &p in post.iter().rev() {
            for &u in &tree.node(p).children {
                pass(&mut expected, u, p, false);
            }
        }

        let got = Reduction::of_query(ctx, q, tree.clone(), db).unwrap();
        assert_eq!(got.stats, stats);
        assert_eq!(got.tree.len(), tree.prune_non_projecting().len());
        assert!(is_fully_reduced(&got.tree, &got.relations).unwrap());
        for (u, node) in got.tree.nodes().iter().enumerate() {
            let (rel, edge) = (&got.relations[u], &got.edges[u]);
            assert_eq!(rel.name(), node.atom_name);
            assert_eq!(rows_of(rel), rows_of(&expected[node.atom_index]));
            let anchor_pos = rel.positions(&node.anchor).unwrap();
            let (table, ids) = KeyTable::group_rows(rel.iter(), &anchor_pos);
            assert_eq!(edge.child_ids, ids, "child ids of {}", rel.name());
            assert_eq!(edge.keys, table.len());
            let Some(p) = node.parent else {
                assert!(edge.parent_ids.is_empty());
                continue;
            };
            let parent = &got.relations[p];
            let parent_pos = parent.positions(&node.anchor).unwrap();
            let mut key = Vec::new();
            let looked_up: Vec<u32> = parent
                .iter()
                .map(|t| table.get(project_key(t, &parent_pos, &mut key)).unwrap())
                .collect();
            assert_eq!(edge.parent_ids, looked_up, "parent ids of {}", rel.name());
        }
        got
    }

    #[test]
    fn encoded_reducer_equals_its_definition_on_generated_trees() {
        let mut x: u64 = 0xD1B5_4A32_D192_ED03;
        let mut draw = |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        let ctxs = [
            ExecContext::serial(),
            ExecContext::with_threads(2)
                .with_min_par_rows(1)
                .with_morsel_rows(5),
        ];
        for case in 0..60 {
            // A random tree over 2–5 atoms: atom `i` owns `x{i}` and shares
            // `e{i}` (every third edge also `f{i}`) with a random earlier
            // atom, so the hypergraph is acyclic and only tree neighbours
            // join. Rows are drawn from a domain small enough to join and
            // large enough that every level has dangling rows.
            let n = 2 + draw(4) as usize;
            let mut schemas: Vec<Vec<String>> = (0..n).map(|i| vec![format!("x{i}")]).collect();
            for i in 1..n {
                let p = draw(i as u64) as usize;
                for name in ["e", "f"].iter().take(1 + usize::from(i % 3 == 0)) {
                    schemas[i].push(format!("{name}{i}"));
                    schemas[p].insert(0, format!("{name}{i}"));
                }
            }
            let domain = 4 + draw(12);
            let mut db = Database::new();
            let mut builder = QueryBuilder::new();
            for (i, schema) in schemas.iter().enumerate() {
                let rows = draw(60) as usize;
                let tuples: Vec<Vec<u64>> = (0..rows)
                    .map(|_| schema.iter().map(|_| draw(domain) << 33).collect())
                    .collect();
                let name = format!("R{i}");
                let schema = attrs(schema.iter().map(String::as_str));
                db.add_relation(Relation::with_tuples(&name, schema.clone(), tuples).unwrap())
                    .unwrap();
                builder = builder.atom(&name, &name, schema);
            }
            // Project a random non-empty subset of the owned attributes, so
            // some cases prune subtrees that still filtered.
            let mut projection: Vec<String> = (0..n)
                .filter(|_| draw(2) == 0)
                .map(|i| format!("x{i}"))
                .collect();
            if projection.is_empty() {
                projection.push(format!("x{}", draw(n as u64)));
            }
            let q = builder.project(projection).build().unwrap();
            let tree = JoinTree::build_rooted(&q, draw(n as u64) as usize).unwrap();
            let serial = assert_encoding_matches_definition(&ctxs[0], &q, &tree, &db);
            let pooled = assert_encoding_matches_definition(&ctxs[case % 2], &q, &tree, &db);
            assert_eq!(serial.edges, pooled.edges);
        }
    }

    #[test]
    fn multi_attribute_anchors_are_encoded_in_the_childs_column_order() {
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples(
                "R",
                attrs(["a", "b", "c"]),
                vec![vec![1, 7, 3], vec![2, 7, 4], vec![3, 8, 3], vec![4, 9, 9]],
            )
            .unwrap(),
        )
        .unwrap();
        db.add_relation(
            Relation::with_tuples(
                "S",
                attrs(["c", "d", "b"]),
                vec![vec![3, 0, 8], vec![5, 0, 5], vec![3, 1, 7], vec![3, 2, 8]],
            )
            .unwrap(),
        )
        .unwrap();
        let q = QueryBuilder::new()
            .atom("R", "R", ["a", "b", "c"])
            .atom("S", "S", ["c", "d", "b"])
            .project(["a", "d"])
            .build()
            .unwrap();
        let tree = JoinTree::build_rooted(&q, 0).unwrap();
        assert_eq!(tree.node(1).anchor, attrs(["c", "b"]));
        let r = assert_encoding_matches_definition(&ExecContext::serial(), &q, &tree, &db);
        // (3,8) is S's first surviving anchor, (3,7) its second; R's rows
        // (1,7,3) and (3,8,3) survive and point at them.
        assert_eq!(r.edges[1].child_ids, [0, 1, 0]);
        assert_eq!(r.edges[1].parent_ids, [1, 0]);
        assert_eq!(r.edges[1].keys, 2);
        assert_eq!(r.stats.hashed_rows, 8);
    }

    #[test]
    fn an_empty_anchor_is_the_single_id_zero_and_an_empty_side_empties_the_other() {
        let q = QueryBuilder::new()
            .atom("R", "R", ["a"])
            .atom("S", "S", ["b"])
            .project(["a", "b"])
            .build()
            .unwrap();
        let tree = JoinTree::build_rooted(&q, 0).unwrap();
        let r_rows = Relation::with_tuples("R", attrs(["a"]), vec![vec![1], vec![3], vec![5]]);
        for s_rows in [vec![vec![2], vec![4]], vec![]] {
            let mut db = Database::new();
            db.add_relation(r_rows.clone().unwrap()).unwrap();
            db.add_relation(Relation::with_tuples("S", attrs(["b"]), s_rows.clone()).unwrap())
                .unwrap();
            let r = assert_encoding_matches_definition(&ExecContext::serial(), &q, &tree, &db);
            assert_eq!(r.stats.hashed_rows, (3 + s_rows.len()) as u64);
            if s_rows.is_empty() {
                assert!(r.relations.iter().all(Relation::is_empty));
            } else {
                assert_eq!(r.edges[1].child_ids, [0, 0]);
                assert_eq!(r.edges[1].parent_ids, [0, 0, 0]);
            }
        }
    }

    #[test]
    fn a_pruned_subtree_still_filters_and_an_empty_result_empties_every_node() {
        // Only A is projected: R2 and R3 are pruned after the reduction,
        // but (3,9) and R2's (7,6) must be gone all the same.
        let q = QueryBuilder::new()
            .atom("R1", "R1", ["A", "B"])
            .atom("R2", "R2", ["B", "C"])
            .atom("R3", "R3", ["C", "D"])
            .project(["A"])
            .build()
            .unwrap();
        let tree = JoinTree::build_rooted(&q, 0).unwrap();
        let mut db = path_db();
        let r = assert_encoding_matches_definition(&ExecContext::serial(), &q, &tree, &db);
        assert_eq!(r.tree.len(), 1);
        assert_eq!(r.relations[0].len(), 2);
        assert_eq!(r.stats.passes, 4);
        assert_eq!(r.edges[0].child_ids, [0, 0]);

        db.set_relation(Relation::with_tuples("R3", attrs(["C", "D"]), vec![vec![99, 2]]).unwrap());
        let r =
            assert_encoding_matches_definition(&ExecContext::serial(), &path_query(), &tree, &db);
        assert!(r.relations.iter().all(Relation::is_empty));
        assert!(r.edges.iter().all(|e| e.child_ids.is_empty()));
    }

    #[test]
    fn reducers_bind_each_tree_node_once_and_agree() {
        let q = path_query();
        let db = path_db();
        let tree = JoinTree::build_rooted(&q, 1).unwrap();
        let (reduced, stats) = full_reduce(&q, &tree, &db).unwrap();
        // Handing over already-bound relations gives the same reduction
        // (here nothing is pruned: A and D sit at the two ends).
        let bound = bind_atoms_of(&q, &db, tree.nodes().iter().map(|n| n.atom_index)).unwrap();
        let r = Reduction::of_relations(&ExecContext::serial(), tree.clone(), bound).unwrap();
        assert_eq!(r.tree.len(), tree.len());
        assert_eq!(stats, r.stats);
        for (a, b) in reduced.iter().zip(&r.relations) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.attrs(), b.attrs());
            assert!(a.iter().eq(b.iter()));
        }
    }

    #[test]
    fn full_reducer_removes_dangling_tuples() {
        let q = path_query();
        let tree = JoinTree::build_rooted(&q, 1).unwrap();
        let db = path_db();
        let (reduced, stats) = full_reduce(&q, &tree, &db).unwrap();
        // node order == atom order for unpruned trees
        assert_eq!(reduced[0].len(), 2); // (1,1), (2,1)
        assert_eq!(reduced[1].len(), 1); // (1,5)
        assert_eq!(reduced[2].len(), 2); // (5,2), (5,3)
        assert!(is_fully_reduced(&tree, &reduced).unwrap());
        // 3 nodes, root 1: two bottom-up passes plus two top-down passes,
        // and exactly the dangling (3,9) plus R2's (7,6) were filtered.
        assert_eq!(stats.passes, 4);
        assert_eq!(stats.filtered_rows(), 2);
        assert_eq!(stats.input_rows - 2, stats.output_rows);
    }

    #[test]
    fn full_reducer_handles_empty_join() {
        let q = path_query();
        let tree = JoinTree::build(&q).unwrap();
        let mut db = path_db();
        // Make R3 share no C values with R2.
        db.set_relation(Relation::with_tuples("R3", attrs(["C", "D"]), vec![vec![99, 2]]).unwrap());
        let (reduced, _) = full_reduce(&q, &tree, &db).unwrap();
        assert!(reduced.iter().all(|r| r.is_empty()));
    }

    #[test]
    fn reduction_is_idempotent() {
        let q = path_query();
        let tree = JoinTree::build(&q).unwrap();
        let db = path_db();
        let (reduced, _) = full_reduce(&q, &tree, &db).unwrap();
        let mut again = reduced.clone();
        let stats = full_reduce_relations_ctx(&ExecContext::serial(), &tree, &mut again).unwrap();
        for (a, b) in reduced.iter().zip(&again) {
            assert_eq!(a.len(), b.len());
        }
        // An already-reduced instance loses nothing on the second run.
        assert_eq!(stats.filtered_rows(), 0);
    }

    #[test]
    fn reduce_passes_land_in_an_installed_trace() {
        let q = path_query();
        let tree = JoinTree::build(&q).unwrap();
        let db = path_db();
        let tctx = re_obs::TraceCtx::new("reduce");
        {
            let _g = re_obs::trace::install(&tctx, 0);
            full_reduce(&q, &tree, &db).unwrap();
        }
        let trace = tctx.finish();
        let parent = trace.spans_named("preprocess.reduce").next().unwrap();
        let passes: Vec<_> = trace.spans_named("reduce.pass").collect();
        assert_eq!(passes.len(), 4);
        for p in &passes {
            assert_eq!(p.parent, parent.id);
            assert!(p
                .attrs
                .iter()
                .any(|(k, v)| k == "input_rows" && matches!(v, re_obs::AttrValue::U64(_))));
        }
    }
}
