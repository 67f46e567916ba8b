//! Differential suite for the arena frontier kernel.
//!
//! Hard contract of the PR that introduced `re_core::frontier`: the
//! arena-backed enumerators ([`AcyclicEnumerator`], [`CyclicEnumerator`]
//! through its bag-wrapped acyclic core, [`StarEnumerator`],
//! [`UnionEnumerator`]) emit answer sequences **byte-identical** to the
//! pre-refactor owned-tuple engine, retained as [`ReferenceAcyclic`]. This
//! suite pits the engines against each other on every `re_workloads` query
//! and on proptest-random acyclic and cyclic instances — serial, under a
//! pooled context, and under the env-sized context `ci.sh` forces to
//! `RE_EXEC_THREADS=1` and `=4`.
//!
//! It also enforces the kernel's representation guarantees: steady-state
//! `next()` performs zero `Tuple` allocations beyond the emitted answer
//! ([`EnumStats::tuple_allocs`] stays 0 — while the reference engine,
//! which allocates per cell and per queue entry, must trip the counter),
//! and the accounted frontier footprint of the arena engine undercuts the
//! reference engine's walked footprint.

use proptest::prelude::*;
use rankedenum::prelude::*;
use rankedenum::workloads::membership::WeightScheme;
use rankedenum::workloads::{DblpWorkload, ImdbWorkload, LdbcWorkload};

/// The env-sized context `ci.sh` pins to RE_EXEC_THREADS=1 and =4, with
/// tiny morsels so small instances still split.
fn env_ctx() -> ExecContext {
    ExecContext::from_env()
        .with_min_par_rows(1)
        .with_morsel_rows(7)
}

/// Drain up to `k` answers and return them with the final stats.
fn drain<E: Iterator<Item = Tuple>>(mut e: E, k: usize) -> Vec<Tuple> {
    e.by_ref().take(k).collect()
}

#[test]
fn acyclic_workloads_match_the_reference_engine() {
    let dblp = DblpWorkload::generate(700, 11, WeightScheme::Random);
    let imdb = ImdbWorkload::generate(500, 12, WeightScheme::LogDegree);
    let specs = [
        (dblp.two_hop(), dblp.db()),
        (dblp.three_hop(), dblp.db()),
        (dblp.four_hop(), dblp.db()),
        (dblp.three_star(), dblp.db()),
        (imdb.two_hop(), imdb.db()),
        (imdb.three_star(), imdb.db()),
    ];
    for (spec, db) in specs {
        let mut reference = ReferenceAcyclic::new(&spec.query, db, spec.sum_ranking()).unwrap();
        let expected: Vec<Tuple> = reference.by_ref().take(500).collect();
        assert!(
            reference.stats().tuple_allocs > 0,
            "{}: the reference engine must trip the tuple-alloc tripwire",
            spec.name
        );

        let mut arena = AcyclicEnumerator::new(&spec.query, db, spec.sum_ranking()).unwrap();
        let got: Vec<Tuple> = arena.by_ref().take(500).collect();
        assert_eq!(got, expected, "{}: arena engine diverged", spec.name);
        assert_eq!(
            arena.stats().tuple_allocs,
            0,
            "{}: arena next() allocated a tuple beyond the answer",
            spec.name
        );
        assert!(
            arena.frontier_bytes() < reference.frontier_bytes(),
            "{}: arena frontier ({}) must undercut the owned-tuple frontier ({})",
            spec.name,
            arena.frontier_bytes(),
            reference.frontier_bytes()
        );

        let via_env: Vec<Tuple> = drain(
            AcyclicEnumerator::new_ctx(&spec.query, db, spec.sum_ranking(), &env_ctx()).unwrap(),
            500,
        );
        assert_eq!(via_env, expected, "{}: env-ctx build diverged", spec.name);
    }
}

/// The bulk preprocessing build (flat key tables, queues sized and
/// heapified once) must do the same *work* as the one-cell-at-a-time build
/// it replaced: these are the `EnumStats` of commit b320aa1 on the same
/// inputs, right after the build and after 500 answers.
#[test]
fn bulk_build_keeps_the_incremental_builds_counters_on_dblp() {
    let dblp = DblpWorkload::generate(700, 11, WeightScheme::Random);
    // (cells, pushes, pops, frontier_bytes, frontier_peak_bytes)
    type Counters = (u64, u64, u64, u64, u64);
    let cases: [(_, Counters, Counters); 3] = [
        (
            dblp.two_hop(),
            (1400, 1400, 0, 100_200, 92_936),
            (2106, 2106, 1063, 136_936, 126_816),
        ),
        (
            dblp.three_hop(),
            (2100, 2100, 0, 135_896, 125_016),
            (4155, 4155, 2186, 237_608, 225_680),
        ),
        (
            dblp.four_hop(),
            (2800, 2800, 0, 163_752, 148_200),
            (7327, 7327, 4767, 335_296, 317_824),
        ),
    ];
    let counters = |s: &EnumStats| {
        (
            s.cells_created,
            s.pq_pushes,
            s.pq_pops,
            s.frontier_bytes,
            s.frontier_peak_bytes,
        )
    };
    for (spec, at_build, after_500) in cases {
        for ctx in [ExecContext::serial(), env_ctx()] {
            let mut e =
                AcyclicEnumerator::new_ctx(&spec.query, dblp.db(), spec.sum_ranking(), &ctx)
                    .unwrap();
            assert_eq!(counters(e.stats()), at_build, "{} at build", spec.name);
            assert_eq!(e.by_ref().take(500).count(), 500);
            assert_eq!(counters(e.stats()), after_500, "{} after 500", spec.name);
        }
    }
    let dblp = DblpWorkload::generate(350, 21, WeightScheme::Random);
    let (spec, plan) = dblp.cycle(3);
    let mut e = CyclicEnumerator::new(&spec.query, dblp.db(), spec.sum_ranking(), &plan).unwrap();
    let built = (15_262, 15_262, 0, 717_768, 708_792);
    assert_eq!(counters(e.stats()), built, "6-cycle at build");
    assert_eq!(e.by_ref().take(300).count(), 300);
    let after = (15_262, 15_262, 4043, 717_768, 708_792);
    assert_eq!(counters(e.stats()), after, "6-cycle after 300");
}

#[test]
fn cyclic_workloads_match_the_reference_engine() {
    let dblp = DblpWorkload::generate(350, 21, WeightScheme::Random);
    for k in [2usize, 3] {
        let (spec, plan) = dblp.cycle(k);
        let expected: Vec<Tuple> = drain(
            ReferenceAcyclic::for_cyclic(&spec.query, dblp.db(), spec.sum_ranking(), &plan)
                .unwrap(),
            300,
        );
        let mut arena =
            CyclicEnumerator::new(&spec.query, dblp.db(), spec.sum_ranking(), &plan).unwrap();
        let got: Vec<Tuple> = arena.by_ref().take(300).collect();
        assert_eq!(got, expected, "{}: cyclic arena diverged", spec.name);
        assert_eq!(arena.stats().tuple_allocs, 0, "{}: tuple alloc", spec.name);
        assert!(arena.stats().frontier_bytes > 0);

        let via_env: Vec<Tuple> = drain(
            CyclicEnumerator::new_ctx(
                &spec.query,
                dblp.db(),
                spec.sum_ranking(),
                &plan,
                &env_ctx(),
            )
            .unwrap(),
            300,
        );
        assert_eq!(via_env, expected, "{}: env-ctx cyclic diverged", spec.name);
    }
}

#[test]
fn union_workloads_match_reference_branch_merges() {
    // The union engine merges whatever sorted branch streams it is given;
    // feeding it reference-engine branches reproduces the pre-refactor
    // output, which the arena-backed build must equal exactly.
    let ldbc = LdbcWorkload::generate(2, 31);
    for spec in [ldbc.q3(), ldbc.q10(), ldbc.q11()] {
        let ranking = spec.sum_ranking();
        let branches: Vec<Box<dyn Iterator<Item = Tuple> + Send>> = spec
            .query
            .branches()
            .iter()
            .map(|q| -> Box<dyn Iterator<Item = Tuple> + Send> {
                if Hypergraph::of_query(q).is_acyclic() {
                    Box::new(ReferenceAcyclic::new(q, ldbc.db(), ranking.clone()).unwrap())
                } else {
                    let plan = GhdPlan::for_cycle(q).unwrap_or_else(|_| GhdPlan::single_bag(q));
                    Box::new(
                        ReferenceAcyclic::for_cyclic(q, ldbc.db(), ranking.clone(), &plan).unwrap(),
                    )
                }
            })
            .collect();
        let expected: Vec<Tuple> = drain(
            UnionEnumerator::from_streams(
                spec.query.projection().to_vec(),
                ranking.clone(),
                branches,
            ),
            400,
        );
        let arena = UnionEnumerator::new(&spec.query, ldbc.db(), ranking.clone()).unwrap();
        let got: Vec<Tuple> = drain(arena, 400);
        assert_eq!(got, expected, "{}: union arena diverged", spec.name);
    }
}

#[test]
fn star_enumerator_accounts_branch_frontiers() {
    let dblp = DblpWorkload::generate(300, 51, WeightScheme::Random);
    let spec = dblp.three_star();
    let reference: Vec<Tuple> = drain(
        ReferenceAcyclic::new(&spec.query, dblp.db(), spec.sum_ranking()).unwrap(),
        300,
    );
    for delta in [1usize, 8, 1000] {
        let mut star =
            StarEnumerator::new(&spec.query, dblp.db(), spec.sum_ranking(), delta).unwrap();
        let got: Vec<Tuple> = star.by_ref().take(300).collect();
        assert_eq!(got, reference, "δ = {delta}: star diverged");
        let snapshot = star.stats_snapshot();
        assert!(
            snapshot.frontier_bytes > 0,
            "δ = {delta}: the tradeoff's memory side must be visible"
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

    /// Random acyclic instances: the arena engine equals the reference
    /// engine under SUM — serial and under the env-sized context — and
    /// keeps the zero-allocation contract.
    #[test]
    fn arena_matches_reference_on_random_acyclic_instances(
        r in edges(6, 60),
        s in edges(6, 60),
        t in edges(6, 60),
    ) {
        let mut db = Database::new();
        db.add_relation(edge_relation("R", ["a", "b"], &r)).unwrap();
        db.add_relation(edge_relation("S", ["b", "c"], &s)).unwrap();
        db.add_relation(edge_relation("T", ["c", "d"], &t)).unwrap();
        let query = QueryBuilder::new()
            .atom("R", "R", ["a", "b"])
            .atom("S", "S", ["b", "c"])
            .atom("T", "T", ["c", "d"])
            .project(["a", "c", "d"])
            .build()
            .unwrap();
        let expected: Vec<Tuple> = ReferenceAcyclic::new(&query, &db, SumRanking::value_sum())
            .unwrap()
            .collect();
        let mut arena = AcyclicEnumerator::new(&query, &db, SumRanking::value_sum()).unwrap();
        let got: Vec<Tuple> = arena.by_ref().collect();
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(arena.stats().tuple_allocs, 0);
        let via_env: Vec<Tuple> =
            AcyclicEnumerator::new_ctx(&query, &db, SumRanking::value_sum(), &env_ctx())
                .unwrap()
                .collect();
        prop_assert_eq!(&via_env, &expected);
    }

    /// Random 4-cycle instances: the GHD-backed cyclic engine equals the
    /// reference engine run on the same plan's materialised bags.
    #[test]
    fn arena_matches_reference_on_random_cyclic_instances(
        e in edges(7, 70),
    ) {
        let mut db = Database::new();
        db.add_relation(edge_relation("E", ["s", "t"], &e)).unwrap();
        let query = QueryBuilder::new()
            .atom("E1", "E", ["a1", "a2"])
            .atom("E2", "E", ["a2", "a3"])
            .atom("E3", "E", ["a3", "a4"])
            .atom("E4", "E", ["a4", "a1"])
            .project(["a1", "a3"])
            .build()
            .unwrap();
        let plan = GhdPlan::for_cycle(&query).unwrap();
        let expected: Vec<Tuple> =
            ReferenceAcyclic::for_cyclic(&query, &db, SumRanking::value_sum(), &plan)
                .unwrap()
                .collect();
        let got: Vec<Tuple> =
            CyclicEnumerator::new(&query, &db, SumRanking::value_sum(), &plan)
                .unwrap()
                .collect();
        prop_assert_eq!(&got, &expected);
        let via_env: Vec<Tuple> =
            CyclicEnumerator::new_ctx(&query, &db, SumRanking::value_sum(), &plan, &env_ctx())
                .unwrap()
                .collect();
        prop_assert_eq!(&via_env, &expected);
    }
}
