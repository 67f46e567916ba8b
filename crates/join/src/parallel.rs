//! Morsel-driven parallel join kernels.
//!
//! Every kernel here obeys one hard contract: **its output is byte-identical
//! to the serial kernel it shadows, at any thread count.** What a kernel
//! *builds* — the key set a semi-join probes — is one flat [`KeyTable`]
//! built once on the calling thread: a single hashing pass with no
//! allocation per key, and first-occurrence ids are inherently sequential.
//! What it *probes with* is split into contiguous morsels
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
//! [`crate::semi_join`] and the generic-join bag kernel's semi-join sweep
//! ([`crate::bag`]).
//!
//! Inputs below [`ExecContext::should_parallelise`]'s threshold take the
//! serial path directly: the contract then holds trivially and small
//! relations skip the task bookkeeping.

use crate::error::JoinError;
use crate::reducer::shared_attrs;
use re_exec::ExecContext;
use re_storage::{project_key, Attr, KeyTable, Relation, SortedIndex};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashjoin::hash_join;
    use crate::reducer::semi_join;
    use re_storage::attr::attrs;
    use re_storage::Value;

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
    fn pooled_semi_join_equals_serial_on_skewed_and_distinct_keys() {
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
        let mut semi = l.clone();
        semi_join(&mut semi, &r).unwrap();
        for threads in [1, 2, 4] {
            let ctx = tiny_parallel_ctx(threads).with_morsel_rows(37);
            let mut s = l.clone();
            par_semi_join(&ctx, &mut s, &r).unwrap();
            assert_identical(&s, &semi);
        }
    }

    #[test]
    fn below_threshold_falls_back_to_serial_without_pool_work() {
        let ctx = ExecContext::with_threads(2); // default 4096-row threshold
        let r = right_rel();
        let before = ctx.pool_stats().tasks_executed;
        let mut out = left_rel();
        par_semi_join(&ctx, &mut out, &r).unwrap();
        assert_eq!(ctx.pool_stats().tasks_executed, before);
        let mut serial = left_rel();
        semi_join(&mut serial, &r).unwrap();
        assert_identical(&out, &serial);
    }
}
