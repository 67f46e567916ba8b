//! GHD bag materialisation (Theorem 3).
//!
//! For a cyclic query, each bag of a [`re_query::GhdPlan`] is materialised
//! as the join of the atoms assigned to the bag, projected (with
//! de-duplication) onto the bag's *interface* — the bag attributes that
//! leave it: those the query projects and those another bag shares
//! ([`bag_interface`]). An attribute outside the interface occurs in this
//! bag only and is not projected, so it is existential, and eliminating it
//! inside the bag leaves the residual query's answers unchanged. The
//! resulting bag relations form an acyclic residual query which the
//! acyclic enumerator then processes.
//!
//! One kernel produces a bag: after a semi-join sweep over the bag's
//! atoms, the generic-join kernel of [`crate::wcoj`], whose cost is bounded
//! by the bag's AGM bound instead of the largest pairwise intermediate. It
//! walks the full bag and emits the *canonical* bag representation — rows
//! lexicographically sorted and distinct over the interface — which the
//! `wcoj_differential` suite checks against the definition (hash-join the
//! bag's atoms, project with de-duplication onto the interface, sort).

use crate::bind::bind_atoms_of;
use crate::error::JoinError;
use crate::parallel::par_semi_join;
use crate::wcoj::wcoj_materialize_reported;
use re_exec::ExecContext;
use re_query::{Bag, JoinProjectQuery};
use re_storage::{Attr, Database, Relation};
use std::collections::BTreeSet;

/// Vestige of the retired kernel choice, kept because the frozen
/// `stackbench/` names it; it goes with ROADMAP item 2.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BagKernel {
    /// Attribute-at-a-time generic join (worst-case optimal).
    #[default]
    Wcoj,
}

/// Per-operator report of one bag materialisation: what EXPLAIN ANALYZE
/// prints next to the bag's AGM estimate.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BagBuildInfo {
    /// The bag's name.
    pub name: String,
    /// Atoms joined into the bag.
    pub atoms: u64,
    /// The attribute order the kernel bound (generic join's global order).
    pub attr_order: Vec<Attr>,
    /// The columns the bag keeps: its [`bag_interface`], in bag order.
    pub interface: Vec<Attr>,
    /// Rows the walk produced before de-duplicating them on the interface
    /// (at most the full-width bag's rows).
    pub walked_rows: u64,
    /// Rows actually materialised (distinct rows over the interface).
    pub rows: u64,
    /// Trie intersection steps of the generic-join walk.
    pub intersections: u64,
}

/// The interface of `bags[i]`: its attributes, in bag order, that the
/// query projects or another bag shares. A bag that projects nothing and
/// shares nothing keeps its full schema instead: it still decides whether
/// the query has an answer at all, and a zero-width relation cannot hold
/// a row to say so.
pub fn bag_interface(query: &JoinProjectQuery, bags: &[Bag], i: usize) -> Vec<Attr> {
    let bag = &bags[i];
    let leaves = |a: &Attr| {
        query.projection().contains(a)
            || bags
                .iter()
                .enumerate()
                .any(|(j, other)| j != i && other.attrs.contains(a))
    };
    let interface: Vec<Attr> = bag.attrs.iter().filter(|a| leaves(a)).cloned().collect();
    if interface.is_empty() {
        bag.attrs.clone()
    } else {
        interface
    }
}

/// Materialise one GHD bag — `π_{interface}(⋈_{i ∈ bag.atoms} atom_i)`,
/// de-duplicated, named `bag.name` — returning the per-operator
/// [`BagBuildInfo`] alongside the relation. The semi-join sweep and the
/// generic join run through the context's (possibly pooled) primitives;
/// output is canonical (sorted, distinct) either way.
///
/// Only the bag's own atoms are bound — binding clones the base relation
/// per atom, so binding the whole query per bag (as earlier revisions did)
/// multiplied that copy cost by the bag count for nothing.
///
/// When a request trace is installed on the calling thread the build is
/// recorded as a `bag.materialize` span carrying the same counters and
/// stamped with the pool worker lane that ran it — under the parallel
/// per-bag fan-out of [`materialize_bags_reported`] this is what makes the
/// fan-out visible in the exported trace.
fn materialize_bag_reported(
    query: &JoinProjectQuery,
    db: &Database,
    bag: &Bag,
    interface: &[Attr],
    ctx: &ExecContext,
) -> Result<(Relation, BagBuildInfo), JoinError> {
    // Bag boundary: the cancellation poll point of the per-bag fan-out,
    // and the `bags.materialize` failpoint.
    ctx.check_cancelled()?;
    re_fault::fire("bags.materialize")?;
    let mut span = re_obs::trace::child_span("bag.materialize");
    let mut rels = bind_atoms_of(query, db, bag.atoms.iter().copied())?;

    semi_join_sweep(ctx, &mut rels)?;

    let (out, report) = wcoj_materialize_reported(bag, interface, &rels, ctx)?;
    let info = BagBuildInfo {
        name: bag.name.clone(),
        atoms: bag.atoms.len() as u64,
        attr_order: report.attr_order,
        interface: out.attrs().to_vec(),
        walked_rows: report.walked_rows,
        rows: out.len() as u64,
        intersections: report.intersections,
    };
    if let Some(s) = span.as_mut() {
        use re_obs::AttrValue;
        s.set_attr("bag", AttrValue::Str(info.name.clone()));
        s.set_attr("atoms", AttrValue::U64(info.atoms));
        let interface: Vec<&str> = info.interface.iter().map(Attr::as_str).collect();
        s.set_attr("interface", AttrValue::Str(interface.join(",")));
        s.set_attr("walked_rows", AttrValue::U64(info.walked_rows));
        s.set_attr("rows", AttrValue::U64(info.rows));
        s.set_attr("intersections", AttrValue::U64(info.intersections));
        if let Some(worker) = re_exec::current_worker() {
            s.set_lane(worker as u32);
        }
    }
    Ok((out, info))
}

/// Reduce every atom against *all* attribute-sharing partners (forward then
/// backward pass), skipping attribute-disjoint pairs outright. The earlier
/// sweep only paired list-adjacent atoms, which on the 6-cycle middle bags
/// (adjacent atoms disjoint) was a pure no-op doing wasted passes.
fn semi_join_sweep(ctx: &ExecContext, rels: &mut [Relation]) -> Result<(), JoinError> {
    let n = rels.len();
    let shares = |a: &Relation, b: &Relation| {
        let av: BTreeSet<_> = a.attrs().iter().collect();
        b.attrs().iter().any(|x| av.contains(x))
    };
    for i in 1..n {
        for j in 0..i {
            if shares(&rels[i], &rels[j]) {
                ctx.check_cancelled()?;
                let (a, b) = rels.split_at_mut(i);
                par_semi_join(ctx, &mut b[0], &a[j])?;
            }
        }
    }
    for i in (0..n.saturating_sub(1)).rev() {
        for j in i + 1..n {
            if shares(&rels[i], &rels[j]) {
                ctx.check_cancelled()?;
                let (a, b) = rels.split_at_mut(j);
                par_semi_join(ctx, &mut a[i], &b[0])?;
            }
        }
    }
    Ok(())
}

/// Materialise every bag of a GHD plan onto its [`bag_interface`], each
/// with its [`BagBuildInfo`]. Under a pooled context each bag is one pool
/// task (they are independent sub-joins), and the intra-bag kernels fan
/// out further on the same pool — the two levels compose because the pool
/// supports nested submission.
/// Results come back in bag order regardless of scheduling. The fifth
/// parameter is ignored: a vestige that goes with ROADMAP item 2.
pub fn materialize_bags_reported(
    query: &JoinProjectQuery,
    db: &Database,
    bags: &[Bag],
    ctx: &ExecContext,
    _kernel: BagKernel,
) -> Result<Vec<(Relation, BagBuildInfo)>, JoinError> {
    let _span = re_obs::Span::enter("preprocess.bags");
    let mut trace_span = re_obs::trace::child_span("preprocess.bags");
    if let Some(s) = trace_span.as_mut() {
        s.set_attr("bags", re_obs::AttrValue::U64(bags.len() as u64));
    }
    let build = |i: usize| {
        let interface = bag_interface(query, bags, i);
        materialize_bag_reported(query, db, &bags[i], &interface, ctx)
    };
    if !ctx.is_parallel() {
        return (0..bags.len()).map(build).collect();
    }
    ctx.map(bags.len(), build).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashjoin::{hash_join, project_distinct};
    use re_query::{GhdPlan, QueryBuilder};
    use re_storage::attr::attrs;

    /// Bag `i` of `plan`, serially, on its interface, relation only.
    fn one_bag(q: &JoinProjectQuery, db: &Database, plan: &GhdPlan, i: usize) -> Relation {
        let interface = bag_interface(q, plan.bags(), i);
        materialize_bag_reported(q, db, &plan.bags()[i], &interface, &ExecContext::serial())
            .unwrap()
            .0
    }

    /// A small directed graph stored as an edge relation.
    fn edge_db(edges: &[(u64, u64)]) -> Database {
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples(
                "E",
                attrs(["src", "dst"]),
                edges.iter().map(|&(a, b)| vec![a, b]),
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn four_cycle_bags_materialise_correct_triples() {
        // Square 1-2-3-4-1 plus a dangling edge.
        let db = edge_db(&[(1, 2), (2, 3), (3, 4), (4, 1), (9, 8)]);
        let q = QueryBuilder::new()
            .atom("R1", "E", ["a1", "a2"])
            .atom("R2", "E", ["a2", "a3"])
            .atom("R3", "E", ["a3", "a4"])
            .atom("R4", "E", ["a4", "a1"])
            .project(["a1", "a3"])
            .build()
            .unwrap();
        let plan = GhdPlan::for_cycle(&q).unwrap();
        assert_eq!(plan.len(), 2);
        let bag0 = one_bag(&q, &db, &plan, 0);
        // bag over {a1,a2,a3} covered by R1, R2 and R4: pairs (a1,a3)
        // where a1->a2->a3 is a path for some a2 and a1 has an incoming
        // edge. a2 leaves neither bag, so the bag drops it.
        assert_eq!(bag0.attrs(), &attrs(["a1", "a3"])[..]);
        assert!(!bag0.is_empty());
        // The residual join of both bags must produce exactly the square.
        let bag1 = one_bag(&q, &db, &plan, 1);
        let joined = hash_join(&bag0, &bag1, "res").unwrap();
        let out = project_distinct(&joined, &attrs(["a1", "a3"])).unwrap();
        let mut rows: Vec<Vec<u64>> = out.iter().map(|t| t.to_vec()).collect();
        rows.sort();
        assert_eq!(rows, vec![vec![1, 3], vec![2, 4], vec![3, 1], vec![4, 2]]);
    }

    #[test]
    fn pooled_bag_materialisation_is_identical_to_serial() {
        let db = edge_db(&[
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 1),
            (2, 5),
            (5, 4),
            (9, 8),
            (8, 9),
        ]);
        let q = QueryBuilder::new()
            .atom("R1", "E", ["a1", "a2"])
            .atom("R2", "E", ["a2", "a3"])
            .atom("R3", "E", ["a3", "a4"])
            .atom("R4", "E", ["a4", "a1"])
            .project(["a1", "a3"])
            .build()
            .unwrap();
        let plan = GhdPlan::for_cycle(&q).unwrap();
        let serial: Vec<Relation> = (0..plan.len())
            .map(|i| one_bag(&q, &db, &plan, i))
            .collect();
        for threads in [1, 2, 4] {
            let ctx = ExecContext::with_threads(threads)
                .with_min_par_rows(1)
                .with_morsel_rows(2);
            let pooled =
                materialize_bags_reported(&q, &db, plan.bags(), &ctx, BagKernel::default())
                    .unwrap();
            assert_eq!(pooled.len(), serial.len());
            for ((p, _), s) in pooled.iter().zip(&serial) {
                assert_eq!(p.name(), s.name());
                assert_eq!(p.attrs(), s.attrs());
                let pt: Vec<Vec<u64>> = p.iter().map(|t| t.to_vec()).collect();
                let st: Vec<Vec<u64>> = s.iter().map(|t| t.to_vec()).collect();
                assert_eq!(pt, st, "bag {} diverged at {threads} threads", p.name());
            }
        }
    }

    #[test]
    fn single_bag_plan_is_the_full_join() {
        let db = edge_db(&[(1, 2), (2, 3), (3, 1)]);
        let q = QueryBuilder::new()
            .atom("R1", "E", ["x", "y"])
            .atom("R2", "E", ["y", "z"])
            .atom("R3", "E", ["z", "x"])
            .project(["x", "z"])
            .build()
            .unwrap();
        let plan = GhdPlan::single_bag(&q);
        let bag = one_bag(&q, &db, &plan, 0);
        // The triangle 1->2->3->1 yields 3 (x,y,z) rotations; the only
        // bag's interface is the projection.
        assert_eq!(bag.len(), 3);
        assert_eq!(bag.attrs(), &attrs(["x", "z"])[..]);
    }

    #[test]
    fn bags_equal_their_definition_byte_for_byte() {
        let db = edge_db(&[
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 1),
            (2, 5),
            (5, 4),
            (1, 4),
            (4, 3),
            (9, 8),
        ]);
        let q = QueryBuilder::new()
            .atom("R1", "E", ["a1", "a2"])
            .atom("R2", "E", ["a2", "a3"])
            .atom("R3", "E", ["a3", "a4"])
            .atom("R4", "E", ["a4", "a1"])
            .project(["a1", "a3"])
            .build()
            .unwrap();
        for plan in [GhdPlan::for_cycle(&q).unwrap(), GhdPlan::single_bag(&q)] {
            for (i, bag) in plan.bags().iter().enumerate() {
                let got = one_bag(&q, &db, &plan, i);
                // The definition: join the bag's atoms, project with
                // de-duplication onto the interface, sort.
                let joined = bind_atoms_of(&q, &db, bag.atoms.iter().copied())
                    .unwrap()
                    .into_iter()
                    .reduce(|acc, next| hash_join(&acc, &next, "join").unwrap())
                    .unwrap();
                let want = project_distinct(&joined, &bag_interface(&q, plan.bags(), i)).unwrap();
                assert_eq!(got.attrs(), want.attrs(), "{}", bag.name);
                let g: Vec<Vec<u64>> = got.iter().map(|t| t.to_vec()).collect();
                let mut w: Vec<Vec<u64>> = want.iter().map(|t| t.to_vec()).collect();
                w.sort();
                assert_eq!(g, w, "bag {} differs from its definition", bag.name);
                assert!(!g.is_empty(), "bag {} must not be vacuous", bag.name);
            }
        }
    }

    #[test]
    fn a_bag_that_nothing_leaves_keeps_its_full_schema() {
        // Two components: the second bag shares nothing and projects
        // nothing, yet an empty `S` must still empty the answer.
        let mut db = edge_db(&[(1, 2), (2, 3)]);
        db.add_relation(
            Relation::with_tuples("F", attrs(["src", "dst"]), [vec![7, 8], vec![8, 9]]).unwrap(),
        )
        .unwrap();
        let q = QueryBuilder::new()
            .atom("R", "E", ["x", "y"])
            .atom("S", "F", ["u", "v"])
            .project(["x"])
            .build()
            .unwrap();
        let bag = |name: &str, attrs_: [&str; 2], atom| Bag {
            name: name.to_string(),
            attrs: attrs(attrs_),
            atoms: vec![atom],
        };
        let plan =
            GhdPlan::new(&q, vec![bag("b0", ["x", "y"], 0), bag("b1", ["u", "v"], 1)]).unwrap();
        assert_eq!(bag_interface(&q, plan.bags(), 0), attrs(["x"]));
        assert_eq!(bag_interface(&q, plan.bags(), 1), attrs(["u", "v"]));
        let built = materialize_bags_reported(
            &q,
            &db,
            plan.bags(),
            &ExecContext::serial(),
            BagKernel::Wcoj,
        )
        .unwrap();
        let (b1, info) = &built[1];
        assert_eq!(b1.attrs(), &attrs(["u", "v"])[..]);
        assert_eq!(b1.len(), 2, "the full bag, not an empty zero-width one");
        assert_eq!((info.walked_rows, info.rows), (2, 2));
        assert_eq!(built[0].0.len(), 2);
    }
}
