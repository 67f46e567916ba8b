//! Differential suite for the worst-case-optimal bag kernel.
//!
//! Hard contract of the PR that introduced `re_join::wcoj`: the
//! generic-join kernel ([`BagKernel::Wcoj`]) and the retained pairwise
//! hash-join cascade ([`BagKernel::Cascade`]) produce **byte-identical**
//! canonical bag relations — same attribute schema, same lex-sorted
//! distinct rows — and therefore byte-identical enumeration sequences
//! through [`CyclicEnumerator`]. This suite pits the kernels against each
//! other on the paper's cyclic workloads (4-cycle, 6-cycle, bowtie) and on
//! proptest-random cyclic instances, serial and under a one- and a
//! four-worker pool ([`common::contexts`]).

mod common;

use common::{assert_ran_on_its_pool, contexts};
use proptest::prelude::*;
use rankedenum::prelude::*;
use rankedenum::workloads::membership::WeightScheme;
use rankedenum::workloads::DblpWorkload;

/// A relation's full content as comparable data: name, schema, rows.
fn rows_of(rel: &Relation) -> (String, Vec<Attr>, Vec<Tuple>) {
    (
        rel.name().to_string(),
        rel.attrs().to_vec(),
        rel.iter().map(<[Value]>::to_vec).collect(),
    )
}

/// Materialise the plan's bags under both kernels and assert the relations
/// are byte-identical; returns the bag sizes for context assertions.
fn assert_kernels_agree(
    query: &JoinProjectQuery,
    db: &Database,
    plan: &GhdPlan,
    ctx: &ExecContext,
    what: &str,
) -> Vec<usize> {
    let wcoj = materialize_bags_with(query, db, plan.bags(), ctx, BagKernel::Wcoj).unwrap();
    let cascade = materialize_bags_with(query, db, plan.bags(), ctx, BagKernel::Cascade).unwrap();
    assert_eq!(wcoj.len(), cascade.len(), "{what}: bag count diverged");
    for (w, c) in wcoj.iter().zip(&cascade) {
        assert_eq!(rows_of(w), rows_of(c), "{what}: bag relation diverged");
    }
    wcoj.iter().map(Relation::len).collect()
}

/// Enumerate through both kernels and assert identical answer sequences.
fn assert_enumerations_agree(
    query: &JoinProjectQuery,
    db: &Database,
    ranking: SumRanking,
    plan: &GhdPlan,
    ctx: &ExecContext,
    k: usize,
    what: &str,
) {
    let wcoj: Vec<Tuple> = CyclicEnumerator::new_ctx_with_kernel(
        query,
        db,
        ranking.clone(),
        plan,
        ctx,
        BagKernel::Wcoj,
    )
    .unwrap()
    .take(k)
    .collect();
    let cascade: Vec<Tuple> =
        CyclicEnumerator::new_ctx_with_kernel(query, db, ranking, plan, ctx, BagKernel::Cascade)
            .unwrap()
            .take(k)
            .collect();
    assert_eq!(wcoj, cascade, "{what}: enumeration sequence diverged");
}

#[test]
fn cycle_workloads_agree_under_both_kernels() {
    let dblp = DblpWorkload::generate(350, 21, WeightScheme::Random);
    for k in [2usize, 3] {
        let (spec, plan) = dblp.cycle(k);
        for ctx in contexts() {
            let sizes = assert_kernels_agree(&spec.query, dblp.db(), &plan, &ctx, &spec.name);
            assert!(
                sizes.iter().any(|&s| s > 0),
                "{}: the instance must produce non-empty bags",
                spec.name
            );
            assert_enumerations_agree(
                &spec.query,
                dblp.db(),
                spec.sum_ranking(),
                &plan,
                &ctx,
                300,
                &spec.name,
            );
            assert_ran_on_its_pool(&ctx, &spec.name);
        }
    }
}

#[test]
fn bowtie_workload_agrees_under_both_kernels() {
    let dblp = DblpWorkload::generate(250, 33, WeightScheme::LogDegree);
    let (spec, plan) = dblp.bowtie();
    for ctx in contexts() {
        assert_kernels_agree(&spec.query, dblp.db(), &plan, &ctx, &spec.name);
        assert_enumerations_agree(
            &spec.query,
            dblp.db(),
            spec.sum_ranking(),
            &plan,
            &ctx,
            300,
            &spec.name,
        );
    }
}

#[test]
fn cost_based_plans_agree_under_both_kernels() {
    // The kernels must also agree on whatever plan the cost model picks
    // (two-arc splits with shared-variable bags, not just Figure 2).
    let dblp = DblpWorkload::generate(300, 7, WeightScheme::Random);
    for k in [2usize, 3] {
        let (spec, _) = dblp.cycle(k);
        let sel = GhdPlan::cost_based(&spec.query, dblp.db()).unwrap();
        assert!(
            sel.plan.shape().starts_with("cycle-"),
            "{}: expected a cycle-shaped winner, got {}",
            spec.name,
            sel.plan.shape()
        );
        for ctx in contexts() {
            assert_kernels_agree(&spec.query, dblp.db(), &sel.plan, &ctx, &spec.name);
            assert_enumerations_agree(
                &spec.query,
                dblp.db(),
                spec.sum_ranking(),
                &sel.plan,
                &ctx,
                300,
                &spec.name,
            );
        }
    }
}

/// Build a relation from generated edges (shifted away from 0 and
/// de-duplicated, like the instances the reducers see).
fn edge_relation(name: &str, cols: [&str; 2], edges: &[(u64, u64)]) -> Relation {
    let mut rel = Relation::new(name, attrs(cols));
    let mut seen = std::collections::HashSet::new();
    for &(a, b) in edges {
        if seen.insert((a, b)) {
            rel.push(&[a + 1, b + 1]).unwrap();
        }
    }
    rel
}

fn edges(max_node: u64, max_len: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0..max_node, 0..max_node), 1..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random 4-cycle instances: identical bags and enumeration sequences
    /// under both kernels, on both the Figure-2 template and whatever plan
    /// the cost model selects, serial and pooled.
    #[test]
    fn kernels_agree_on_random_cyclic_instances(
        e in edges(7, 70),
        f in edges(7, 70),
    ) {
        let mut db = Database::new();
        db.add_relation(edge_relation("E", ["s", "t"], &e)).unwrap();
        db.add_relation(edge_relation("F", ["s", "t"], &f)).unwrap();
        let query = QueryBuilder::new()
            .atom("E1", "E", ["a1", "a2"])
            .atom("F1", "F", ["a2", "a3"])
            .atom("E2", "E", ["a3", "a4"])
            .atom("F2", "F", ["a4", "a1"])
            .project(["a1", "a3"])
            .build()
            .unwrap();
        let figure2 = GhdPlan::for_cycle(&query).unwrap();
        let chosen = GhdPlan::cost_based(&query, &db).unwrap().plan;
        for plan in [&figure2, &chosen] {
            for ctx in contexts() {
                let wcoj =
                    materialize_bags_with(&query, &db, plan.bags(), &ctx, BagKernel::Wcoj)
                        .unwrap();
                let cascade =
                    materialize_bags_with(&query, &db, plan.bags(), &ctx, BagKernel::Cascade)
                        .unwrap();
                prop_assert_eq!(wcoj.len(), cascade.len());
                for (w, c) in wcoj.iter().zip(&cascade) {
                    prop_assert_eq!(rows_of(w), rows_of(c));
                }
                let a: Vec<Tuple> = CyclicEnumerator::new_ctx_with_kernel(
                    &query, &db, SumRanking::value_sum(), plan, &ctx, BagKernel::Wcoj,
                ).unwrap().collect();
                let b: Vec<Tuple> = CyclicEnumerator::new_ctx_with_kernel(
                    &query, &db, SumRanking::value_sum(), plan, &ctx, BagKernel::Cascade,
                ).unwrap().collect();
                prop_assert_eq!(a, b);
            }
        }
    }
}
