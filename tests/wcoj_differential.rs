//! Differential suite for the worst-case-optimal bag kernel.
//!
//! `re_join`'s generic join is the only kernel that materialises GHD bags,
//! so it is checked against the *definition* of what it computes, not
//! against a second implementation: every bag must be byte-identical —
//! name, attribute schema, lex-sorted distinct rows — to
//! [`common::reference_bag`] (hash-join the bag's atoms, project with
//! de-duplication, sort), and every [`CyclicEnumerator`] sequence built on
//! those bags must equal [`common::reference_answers`] (materialise the
//! whole query, project, sort by `(key, tuple)`). Workloads are the paper's
//! cyclic ones (4-cycle, 6-cycle, bowtie) and proptest-random cyclic
//! instances, serial and under a one- and a four-worker pool
//! ([`common::contexts`]).

mod common;

use common::{assert_ran_on_its_pool, contexts, reference_answers, reference_bag};
use proptest::prelude::*;
use rankedenum::join::{materialize_bags_reported, BagKernel};
use rankedenum::prelude::*;
use rankedenum::workloads::membership::WeightScheme;
use rankedenum::workloads::DblpWorkload;

/// A relation's full content as comparable data: name, schema, rows.
type Rows = (String, Vec<Attr>, Vec<Tuple>);

fn rows_of(rel: &Relation) -> Rows {
    (
        rel.name().to_string(),
        rel.attrs().to_vec(),
        rel.iter().map(<[Value]>::to_vec).collect(),
    )
}

/// The plan's bags as generic join materialises them under `ctx`.
fn built_bags(
    query: &JoinProjectQuery,
    db: &Database,
    plan: &GhdPlan,
    ctx: &ExecContext,
) -> Vec<Rows> {
    materialize_bags_reported(query, db, plan.bags(), ctx, BagKernel::default())
        .unwrap()
        .iter()
        .map(|(rel, _)| rows_of(rel))
        .collect()
}

/// The plan's bags as their definition has them.
fn oracle_bags(query: &JoinProjectQuery, db: &Database, plan: &GhdPlan) -> Vec<Rows> {
    plan.bags()
        .iter()
        .map(|bag| rows_of(&reference_bag(query, db, bag)))
        .collect()
}

/// Under every context: each bag equals its definition, the first `k`
/// answers over the bags are the first `k` of materialise-and-sort, and a
/// pooled build ran on its pool. Returns the bag sizes.
fn assert_plan_matches_the_oracles(
    query: &JoinProjectQuery,
    db: &Database,
    ranking: SumRanking,
    plan: &GhdPlan,
    k: usize,
    what: &str,
) -> Vec<usize> {
    let want_bags = oracle_bags(query, db, plan);
    let mut want = reference_answers(query, db, &ranking);
    want.truncate(k);
    for ctx in contexts() {
        let threads = ctx.threads();
        assert_eq!(
            built_bags(query, db, plan, &ctx),
            want_bags,
            "{what}: a bag differs from its definition, {threads}-thread build"
        );
        let got: Vec<Tuple> = CyclicEnumerator::new_ctx(query, db, ranking.clone(), plan, &ctx)
            .unwrap()
            .take(k)
            .collect();
        assert_eq!(
            got, want,
            "{what}: enumeration sequence diverged, {threads}-thread build"
        );
        assert_ran_on_its_pool(&ctx, what);
    }
    want_bags.iter().map(|(_, _, rows)| rows.len()).collect()
}

#[test]
fn cycle_workloads_match_the_bag_and_answer_oracles() {
    let dblp = DblpWorkload::generate(350, 21, WeightScheme::Random);
    for k in [2usize, 3] {
        let (spec, plan) = dblp.cycle(k);
        let sizes = assert_plan_matches_the_oracles(
            &spec.query,
            dblp.db(),
            spec.sum_ranking(),
            &plan,
            300,
            &spec.name,
        );
        assert!(
            sizes.iter().any(|&s| s > 0),
            "{}: the instance must produce non-empty bags",
            spec.name
        );
    }
}

#[test]
fn bowtie_workload_matches_the_bag_and_answer_oracles() {
    let dblp = DblpWorkload::generate(250, 33, WeightScheme::LogDegree);
    let (spec, plan) = dblp.bowtie();
    assert_plan_matches_the_oracles(
        &spec.query,
        dblp.db(),
        spec.sum_ranking(),
        &plan,
        300,
        &spec.name,
    );
}

#[test]
fn cost_based_plans_match_the_bag_and_answer_oracles() {
    // The oracles must also hold on whatever plan the cost model picks
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
        assert_plan_matches_the_oracles(
            &spec.query,
            dblp.db(),
            spec.sum_ranking(),
            &sel.plan,
            300,
            &spec.name,
        );
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

    /// Random 4-cycle instances: bags equal to their definition and the
    /// full enumeration equal to materialise-and-sort, on both the Figure-2
    /// template and whatever plan the cost model selects, serial and pooled.
    #[test]
    fn random_cyclic_instances_match_the_bag_and_answer_oracles(
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
        let want = reference_answers(&query, &db, &SumRanking::value_sum());
        for plan in [&figure2, &chosen] {
            let want_bags = oracle_bags(&query, &db, plan);
            for ctx in contexts() {
                prop_assert_eq!(&built_bags(&query, &db, plan, &ctx), &want_bags);
                let got: Vec<Tuple> = CyclicEnumerator::new_ctx(
                    &query, &db, SumRanking::value_sum(), plan, &ctx,
                ).unwrap().collect();
                prop_assert_eq!(&got, &want);
            }
        }
    }
}
