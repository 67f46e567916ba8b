//! Morsel-driven parallel counterparts of the join kernels.
//!
//! Every kernel here obeys one hard contract: **its output is byte-identical
//! to the serial kernel it shadows, at any thread count.** What a kernel
//! *builds* — the key set a semi-join probes, the grouped index a hash join
//! probes — is one flat [`KeyTable`]-based structure built once on the
//! calling thread: a single hashing pass with no allocation per key, and
//! first-occurrence ids are inherently sequential. What it *probes with*
//! is split into contiguous morsels
//! ([`re_storage::Relation::chunks`]), one task per morsel on the
//! [`ExecContext`]'s pool, and the per-task results are merged *by task
//! index*, never by completion order. Scheduling therefore never leaks
//! into the output, and enumeration order downstream cannot depend on
//! the pool's size.
//!
//! The full reducer ([`crate::reducer`]) is held to the same contract but
//! does not call [`par_semi_join`]: per tree edge it builds one table over
//! the child's anchor — once, on the calling thread, for both of the
//! edge's passes and for Algorithm 1's queue assignment — and probes the
//! parent's rows against it per morsel, concatenating the per-morsel ids
//! in morsel order; its top-down passes read those ids and probe nothing.
//! [`par_semi_join`] remains the standalone single-pass kernel, behind
//! [`crate::semi_join`] and the cascade bag kernel.
//!
//! Inputs below [`ExecContext::should_parallelise`]'s threshold take the
//! serial kernel directly: the contract then holds trivially and small
//! relations skip the task bookkeeping.

use crate::error::JoinError;
use crate::hashjoin::{hash_join, project_distinct};
use crate::reducer::shared_attrs;
use re_exec::ExecContext;
use re_storage::{project_key, Attr, HashIndex, KeyTable, Relation, SortedIndex, Value};

/// Build a [`SortedIndex`] over `relation` as a preprocessing phase: timed
/// as `preprocess.sorted_index` and, under a request trace, recorded as an
/// `index.sorted_build` span carrying the index's keys, rows and bytes.
pub fn sorted_index(relation: &Relation, key_attrs: &[Attr]) -> Result<SortedIndex, JoinError> {
    let _span = re_obs::Span::enter("preprocess.sorted_index");
    let mut trace_span = re_obs::trace::child_span("index.sorted_build");
    let index = SortedIndex::build(relation, key_attrs)?;
    if let Some(s) = trace_span.as_mut() {
        use re_obs::AttrValue;
        s.set_attr("relation", AttrValue::Str(relation.name().to_string()));
        s.set_attr("keys", AttrValue::U64(index.distinct_keys() as u64));
        s.set_attr("rows", AttrValue::U64(index.len() as u64));
        s.set_attr("bytes", AttrValue::U64(index.bytes() as u64));
    }
    Ok(index)
}

/// Parallel natural hash join: one grouped index over `right`,
/// morsel-parallel probe over `left`, per-morsel outputs concatenated in
/// morsel order. Output identical to [`hash_join`].
pub fn par_hash_join(
    ctx: &ExecContext,
    left: &Relation,
    right: &Relation,
    out_name: &str,
) -> Result<Relation, JoinError> {
    if !ctx.should_parallelise(left.len().max(right.len())) {
        return hash_join(left, right, out_name);
    }
    let shared = shared_attrs(left, right);
    let right_extra: Vec<Attr> = right
        .attrs()
        .iter()
        .filter(|a| !shared.contains(a))
        .cloned()
        .collect();
    let mut out_attrs: Vec<Attr> = left.attrs().to_vec();
    out_attrs.extend(right_extra.iter().cloned());

    let index = HashIndex::build(right, &shared)?;
    let left_shared_pos = left.positions(&shared)?;
    let right_extra_pos = right.positions(&right_extra)?;

    let chunks = left.chunks(ctx.morsel_rows());
    let pieces: Vec<Vec<Value>> = ctx.map(chunks.len(), |c| {
        let mut out: Vec<Value> = Vec::new();
        let mut key = Vec::new();
        for lt in chunks[c].iter() {
            for &rid in index.rows(project_key(lt, &left_shared_pos, &mut key)) {
                let rt = right.tuple(rid as usize);
                out.extend_from_slice(lt);
                out.extend(right_extra_pos.iter().map(|&p| rt[p]));
            }
        }
        out
    });

    let mut out = Relation::new(out_name, out_attrs);
    let total_values: usize = pieces.iter().map(Vec::len).sum();
    out.reserve_rows(total_values / out.arity().max(1));
    for piece in &pieces {
        out.append_rows(piece);
    }
    Ok(out)
}

/// Semi-join `left ⋉ right` under an execution context: keep the tuples of
/// `left` whose shared-attribute values appear in `right`. The key set of
/// `right` carries no row ids — a semi-join never reads them. Large left
/// sides are probed one morsel per task, the keep flags merged in morsel
/// order, so the retain order is the serial one at any thread count.
pub fn par_semi_join(
    ctx: &ExecContext,
    left: &mut Relation,
    right: &Relation,
) -> Result<(), JoinError> {
    let shared = shared_attrs(left, right);
    if shared.is_empty() {
        if right.is_empty() {
            left.retain(|_| false);
        }
        return Ok(());
    }
    let left_pos = left.positions(&shared)?;
    let keys = KeyTable::of_rows(right.iter(), &right.positions(&shared)?);
    if !ctx.should_parallelise(left.len()) {
        let mut key = Vec::new();
        left.retain(|t| keys.contains(project_key(t, &left_pos, &mut key)));
        return Ok(());
    }
    let keeps: Vec<Vec<bool>> = {
        let chunks = left.chunks(ctx.morsel_rows());
        ctx.map(chunks.len(), |c| {
            let mut key = Vec::new();
            chunks[c]
                .iter()
                .map(|t| keys.contains(project_key(t, &left_pos, &mut key)))
                .collect()
        })
    };
    let mut flags = keeps.into_iter().flatten();
    left.retain(|_| flags.next().unwrap_or(false));
    Ok(())
}

/// The distinct keys of `rel` at `positions`, in first-occurrence order:
/// one task per morsel collects the morsel's distinct keys, then the
/// per-morsel tables are folded into the first *in morsel order* — a key's
/// first morsel is the one holding its first row, and within a morsel the
/// table already is in first-occurrence order. The fold touches each
/// morsel's distinct keys, not its rows.
fn distinct_keys(ctx: &ExecContext, rel: &Relation, positions: &[usize]) -> KeyTable {
    let chunks = rel.chunks(ctx.morsel_rows());
    let locals = ctx.map(chunks.len(), |c| {
        KeyTable::of_rows(chunks[c].iter(), positions)
    });
    let mut locals = locals.into_iter();
    let mut merged = locals
        .next()
        .unwrap_or_else(|| KeyTable::new(positions.len()));
    for local in locals {
        for id in 0..local.len() as u32 {
            merged.insert(local.key(id));
        }
    }
    merged
}

/// Parallel `SELECT DISTINCT` projection. Output identical to
/// [`project_distinct`]: distinct keys in first-occurrence order.
pub fn par_project_distinct(
    ctx: &ExecContext,
    rel: &Relation,
    attrs: &[Attr],
) -> Result<Relation, JoinError> {
    if !ctx.should_parallelise(rel.len()) || attrs.is_empty() {
        return project_distinct(rel, attrs);
    }
    let keys = distinct_keys(ctx, rel, &rel.positions(attrs)?);
    let mut out = Relation::new(format!("πd({})", rel.name()), attrs.to_vec());
    out.append_rows(keys.flat_keys());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reducer::semi_join;
    use re_storage::attr::attrs;

    /// A context that forces every kernel onto its parallel path, even on
    /// tiny inputs, with morsels small enough to produce several tasks.
    fn tiny_parallel_ctx(threads: usize) -> ExecContext {
        ExecContext::with_threads(threads)
            .with_min_par_rows(1)
            .with_morsel_rows(3)
    }

    fn assert_identical(a: &Relation, b: &Relation) {
        assert_eq!(a.name(), b.name());
        assert_eq!(a.attrs(), b.attrs());
        assert_eq!(a.len(), b.len());
        let ta: Vec<Vec<Value>> = a.iter().map(|t| t.to_vec()).collect();
        let tb: Vec<Vec<Value>> = b.iter().map(|t| t.to_vec()).collect();
        assert_eq!(ta, tb);
    }

    fn left_rel() -> Relation {
        Relation::with_tuples(
            "L",
            attrs(["A", "B"]),
            (0..40u64).map(|i| vec![i, i % 7]).collect::<Vec<_>>(),
        )
        .unwrap()
    }

    fn right_rel() -> Relation {
        Relation::with_tuples(
            "R",
            attrs(["B", "C"]),
            (0..30u64).map(|i| vec![i % 7, 100 + i]).collect::<Vec<_>>(),
        )
        .unwrap()
    }

    #[test]
    fn par_hash_join_matches_serial_at_several_thread_counts() {
        let (l, r) = (left_rel(), right_rel());
        let serial = hash_join(&l, &r, "out").unwrap();
        for threads in [1, 2, 4] {
            let ctx = tiny_parallel_ctx(threads);
            let par = par_hash_join(&ctx, &l, &r, "out").unwrap();
            assert_identical(&par, &serial);
        }
    }

    #[test]
    fn par_hash_join_cartesian_matches_serial() {
        let a = Relation::with_tuples("A", attrs(["X"]), (0..9u64).map(|i| vec![i])).unwrap();
        let b = Relation::with_tuples("B", attrs(["Y"]), (0..5u64).map(|i| vec![i])).unwrap();
        let ctx = tiny_parallel_ctx(2);
        assert_identical(
            &par_hash_join(&ctx, &a, &b, "AB").unwrap(),
            &hash_join(&a, &b, "AB").unwrap(),
        );
    }

    #[test]
    fn par_semi_join_matches_serial() {
        let r = right_rel();
        for threads in [1, 2, 4] {
            let mut serial = left_rel();
            semi_join(&mut serial, &r).unwrap();
            let mut par = left_rel();
            par_semi_join(&tiny_parallel_ctx(threads), &mut par, &r).unwrap();
            assert_identical(&par, &serial);
        }
    }

    #[test]
    fn par_semi_join_disjoint_attrs_semantics() {
        let ctx = tiny_parallel_ctx(2);
        let mut l = Relation::with_tuples("L", attrs(["A"]), (0..8u64).map(|i| vec![i])).unwrap();
        let nonempty = Relation::with_tuples("R", attrs(["Z"]), vec![vec![1u64]]).unwrap();
        par_semi_join(&ctx, &mut l, &nonempty).unwrap();
        assert_eq!(l.len(), 8);
        let empty = Relation::new("E", attrs(["Z"]));
        par_semi_join(&ctx, &mut l, &empty).unwrap();
        assert!(l.is_empty());
    }

    #[test]
    fn par_project_distinct_matches_serial_first_occurrence_order() {
        let joined = hash_join(&left_rel(), &right_rel(), "J").unwrap();
        let proj = attrs(["B", "C"]);
        let serial = project_distinct(&joined, &proj).unwrap();
        for threads in [1, 2, 4] {
            let par = par_project_distinct(&tiny_parallel_ctx(threads), &joined, &proj).unwrap();
            assert_identical(&par, &serial);
        }
    }

    #[test]
    fn sorted_index_keeps_the_layout_contract_and_lands_in_the_trace() {
        let j = hash_join(&left_rel(), &right_rel(), "J").unwrap();
        let tctx = re_obs::TraceCtx::new("index");
        for key in [attrs(["B"]), attrs(["B", "C"])] {
            let index = {
                let _g = re_obs::trace::install(&tctx, 0);
                sorted_index(&j, &key).unwrap()
            };
            let pos = j.positions(&key).unwrap();
            // Groups in first-occurrence order, row ids ascending, every
            // row in exactly the group of its key.
            let mut first_rows = Vec::new();
            let mut seen = 0;
            for (k, rows) in index.iter() {
                assert!(rows.windows(2).all(|w| w[0] < w[1]));
                for &r in rows {
                    let t = j.tuple(r as usize);
                    assert!(pos.iter().zip(k).all(|(&p, &v)| t[p] == v));
                }
                assert_eq!(index.rows(k), rows);
                first_rows.push(rows[0]);
                seen += rows.len();
            }
            assert!(first_rows.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(seen, j.len());
        }
        let trace = tctx.finish();
        assert_eq!(trace.spans_named("index.sorted_build").count(), 2);
    }

    #[test]
    fn pooled_kernels_equal_serial_ones_on_skewed_and_distinct_keys() {
        // One hot key plus a long tail of distinct ones, over enough rows
        // for several morsels per task.
        let l = Relation::with_tuples(
            "L",
            attrs(["A", "B"]),
            (0..500u64).map(|i| vec![i, if i % 3 == 0 { 0 } else { i }]),
        )
        .unwrap();
        let r = Relation::with_tuples(
            "R",
            attrs(["B", "C"]),
            (0..300u64).map(|i| vec![(i * 7) % 400, i % 5]),
        )
        .unwrap();
        let join = hash_join(&l, &r, "J").unwrap();
        let mut semi = l.clone();
        semi_join(&mut semi, &r).unwrap();
        let proj = project_distinct(&join, &attrs(["C", "B"])).unwrap();
        for threads in [1, 2, 4] {
            let ctx = tiny_parallel_ctx(threads).with_morsel_rows(37);
            assert_identical(&par_hash_join(&ctx, &l, &r, "J").unwrap(), &join);
            let mut s = l.clone();
            par_semi_join(&ctx, &mut s, &r).unwrap();
            assert_identical(&s, &semi);
            let p = par_project_distinct(&ctx, &join, &attrs(["C", "B"])).unwrap();
            assert_identical(&p, &proj);
        }
    }

    #[test]
    fn below_threshold_falls_back_to_serial_without_pool_work() {
        let ctx = ExecContext::with_threads(2); // default 4096-row threshold
        let l = left_rel();
        let r = right_rel();
        let before = ctx.pool_stats().tasks_executed;
        let out = par_hash_join(&ctx, &l, &r, "out").unwrap();
        assert_eq!(ctx.pool_stats().tasks_executed, before);
        assert_identical(&out, &hash_join(&l, &r, "out").unwrap());
    }
}
