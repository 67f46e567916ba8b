//! The parallel-preprocessing determinism suite.
//!
//! Hard contract of the `re_exec` engine: every parallel kernel produces
//! output **byte-identical** to its serial counterpart, so enumeration
//! order never depends on the thread count. This suite drives the contract
//! end to end over the `re_workloads` queries — acyclic (full reducer),
//! cyclic (GHD bag materialisation) and UCQ (per-branch preprocessing) —
//! at pool sizes 1, 2, 4 and "the machine". Morsels are forced tiny so the
//! small test instances still split into many parallel tasks.
//!
//! A property test over random edge relations additionally hammers the
//! standalone parallel semi-join against its serial twin.

mod common;

use common::ctx_at;
use proptest::prelude::*;
use rankedenum::join::{par_semi_join, semi_join, Reduction};
use rankedenum::prelude::*;
use rankedenum::workloads::membership::WeightScheme;
use rankedenum::workloads::{DblpWorkload, ImdbWorkload, LdbcWorkload};

/// Pool sizes every workload is checked at: 1, 2, 4 and the machine
/// (deduplicated).
fn pool_sizes() -> Vec<usize> {
    let mut sizes = vec![1, 2, 4, rankedenum::exec::machine_threads()];
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

fn assert_same_rows(name: &str, threads: usize, serial: &[Tuple], parallel: &[Tuple]) {
    assert_eq!(
        serial, parallel,
        "{name}: enumeration diverged at {threads} threads"
    );
}

#[test]
fn acyclic_workloads_are_thread_count_invariant() {
    let dblp = DblpWorkload::generate(700, 11, WeightScheme::Random);
    let imdb = ImdbWorkload::generate(500, 12, WeightScheme::LogDegree);
    let specs = [
        dblp.two_hop(),
        dblp.three_hop(),
        dblp.four_hop(),
        dblp.three_star(),
        imdb.two_hop(),
        imdb.three_star(),
    ];
    for (spec, db) in specs.iter().zip([
        dblp.db(),
        dblp.db(),
        dblp.db(),
        dblp.db(),
        imdb.db(),
        imdb.db(),
    ]) {
        let serial: Vec<Tuple> = AcyclicEnumerator::new(&spec.query, db, spec.sum_ranking())
            .unwrap()
            .take(500)
            .collect();
        for threads in pool_sizes() {
            let parallel: Vec<Tuple> =
                AcyclicEnumerator::new_ctx(&spec.query, db, spec.sum_ranking(), &ctx_at(threads))
                    .unwrap()
                    .take(500)
                    .collect();
            assert_same_rows(&spec.name, threads, &serial, &parallel);
        }
    }
}

#[test]
fn the_encoded_reducer_is_thread_count_invariant() {
    // The reducer's whole product — reduced relations (row order
    // included), edge ids and counters — at a serial, a one-worker and a
    // four-worker context, with morsels of three rows so every bottom-up
    // probe of these instances splits into hundreds of tasks.
    let dblp = DblpWorkload::generate(700, 11, WeightScheme::Random);
    let imdb = ImdbWorkload::generate(500, 12, WeightScheme::LogDegree);
    let specs = [
        (dblp.two_hop(), dblp.db()),
        (dblp.four_hop(), dblp.db()),
        (dblp.three_star(), dblp.db()),
        (imdb.three_star(), imdb.db()),
    ];
    for (spec, db) in &specs {
        let reduce = |ctx: &ExecContext| {
            let tree = JoinTree::build(&spec.query).unwrap();
            let r = Reduction::of_query(ctx, &spec.query, tree, db).unwrap();
            let rows: Vec<Vec<Tuple>> = r
                .relations
                .iter()
                .map(|rel| rel.iter().map(<[Value]>::to_vec).collect())
                .collect();
            (rows, r.edges, r.stats)
        };
        let serial = reduce(&ExecContext::serial());
        assert!(serial.2.hashed_rows > 0);
        for threads in [1, 4] {
            let ctx = ctx_at(threads).with_morsel_rows(3);
            assert_eq!(reduce(&ctx), serial, "{} at {threads} workers", spec.name);
            common::assert_ran_on_its_pool(&ctx, &spec.name);
        }
    }
}

#[test]
fn lexi_index_builds_are_thread_count_invariant() {
    // The index-backed LexiEnumerator builds its grouped-adjacency indexes
    // through the execution context; at any pool size the enumeration must
    // be byte-identical to the serial build — and to the general algorithm
    // under the same lexicographic ranking. Random weights keep the
    // weights injective: on exact weight ties the two engines emit valid
    // but *different* tie orders (lexi breaks ties per level by value, the
    // general algorithm globally by output tuple), so LogDegree weights —
    // which collide en masse — are out of scope for the equality leg.
    let dblp = DblpWorkload::generate(700, 11, WeightScheme::Random);
    let imdb = ImdbWorkload::generate(500, 12, WeightScheme::Random);
    let specs = [
        dblp.two_hop(),
        dblp.three_hop(),
        dblp.three_star(),
        imdb.two_hop(),
    ];
    for (spec, db) in specs
        .iter()
        .zip([dblp.db(), dblp.db(), dblp.db(), imdb.db()])
    {
        let lex = spec.lex_ranking();
        let serial: Vec<Tuple> = LexiEnumerator::new(&spec.query, db, &lex)
            .unwrap()
            .take(500)
            .collect();
        let general: Vec<Tuple> = AcyclicEnumerator::new(&spec.query, db, lex.clone())
            .unwrap()
            .take(500)
            .collect();
        assert_eq!(serial, general, "{}: lexi != general", spec.name);
        for threads in pool_sizes() {
            let parallel: Vec<Tuple> =
                LexiEnumerator::new_ctx(&spec.query, db, &lex, &ctx_at(threads))
                    .unwrap()
                    .take(500)
                    .collect();
            assert_same_rows(&spec.name, threads, &serial, &parallel);
        }
    }
}

#[test]
fn cyclic_workloads_match_serial_tuples_order_and_bag_sizes() {
    let dblp = DblpWorkload::generate(350, 21, WeightScheme::Random);
    for k in [2usize, 3] {
        let (spec, plan) = dblp.cycle(k);
        let serial_enum =
            CyclicEnumerator::new(&spec.query, dblp.db(), spec.sum_ranking(), &plan).unwrap();
        let serial_bags = serial_enum.bag_sizes().to_vec();
        let serial: Vec<Tuple> = serial_enum.take(300).collect();
        for threads in pool_sizes() {
            let par_enum = CyclicEnumerator::new_ctx(
                &spec.query,
                dblp.db(),
                spec.sum_ranking(),
                &plan,
                &ctx_at(threads),
            )
            .unwrap();
            assert_eq!(
                par_enum.bag_sizes(),
                serial_bags.as_slice(),
                "{}: bag sizes diverged at {threads} threads",
                spec.name
            );
            let parallel: Vec<Tuple> = par_enum.take(300).collect();
            assert_same_rows(&spec.name, threads, &serial, &parallel);
        }
    }

    let (spec, plan) = dblp.bowtie();
    let serial_enum =
        CyclicEnumerator::new(&spec.query, dblp.db(), spec.sum_ranking(), &plan).unwrap();
    let serial_bags = serial_enum.bag_sizes().to_vec();
    let serial: Vec<Tuple> = serial_enum.take(300).collect();
    for threads in pool_sizes() {
        let par_enum = CyclicEnumerator::new_ctx(
            &spec.query,
            dblp.db(),
            spec.sum_ranking(),
            &plan,
            &ctx_at(threads),
        )
        .unwrap();
        assert_eq!(par_enum.bag_sizes(), serial_bags.as_slice());
        let parallel: Vec<Tuple> = par_enum.take(300).collect();
        assert_same_rows(&spec.name, threads, &serial, &parallel);
    }
}

#[test]
fn star_heavy_output_is_thread_count_invariant() {
    // δ = 1 forces the all-heavy output: the O_H join + distinct of
    // Algorithm 4 runs entirely through the parallel kernels.
    let dblp = DblpWorkload::generate(300, 51, WeightScheme::Random);
    let spec = dblp.three_star();
    for delta in [1usize, 8] {
        let serial: Vec<Tuple> =
            StarEnumerator::new(&spec.query, dblp.db(), spec.sum_ranking(), delta)
                .unwrap()
                .take(300)
                .collect();
        for threads in pool_sizes() {
            let parallel: Vec<Tuple> = StarEnumerator::new_ctx(
                &spec.query,
                dblp.db(),
                spec.sum_ranking(),
                delta,
                &ctx_at(threads),
            )
            .unwrap()
            .take(300)
            .collect();
            assert_same_rows(&spec.name, threads, &serial, &parallel);
        }
    }
}

#[test]
fn union_workloads_are_thread_count_invariant() {
    let ldbc = LdbcWorkload::generate(2, 31);
    for spec in [ldbc.q3(), ldbc.q10(), ldbc.q11()] {
        let serial: Vec<Tuple> = UnionEnumerator::new(&spec.query, ldbc.db(), spec.sum_ranking())
            .unwrap()
            .take(400)
            .collect();
        for threads in pool_sizes() {
            let parallel: Vec<Tuple> = UnionEnumerator::new_ctx(
                &spec.query,
                ldbc.db(),
                spec.sum_ranking(),
                &ctx_at(threads),
            )
            .unwrap()
            .take(400)
            .collect();
            assert_same_rows(&spec.name, threads, &serial, &parallel);
        }
    }
}

#[test]
fn full_drain_is_thread_count_invariant() {
    // The workload tests above compare prefixes; this one drains the 2-hop,
    // through the contexts `ExecContext::with_threads` hands a caller (a
    // serial one at 1, a fresh pool at 4).
    let dblp = DblpWorkload::generate(400, 41, WeightScheme::Random);
    let spec = dblp.two_hop();
    // One plan, opened three times: the path a cached statement takes.
    let plan = BranchPlan::of(&spec.query, None).unwrap();
    let serial: Vec<Tuple> = plan
        .open(
            &spec.query,
            dblp.db(),
            spec.sum_ranking(),
            &ExecContext::serial(),
        )
        .unwrap()
        .collect();
    for threads in [1, 4] {
        let ctx = ExecContext::with_threads(threads)
            .with_min_par_rows(1)
            .with_morsel_rows(5);
        let parallel: Vec<Tuple> = plan
            .open(&spec.query, dblp.db(), spec.sum_ranking(), &ctx)
            .unwrap()
            .collect();
        assert_same_rows(&spec.name, threads, &serial, &parallel);
        common::assert_ran_on_its_pool(&ctx, &spec.name);
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

fn rows_of(rel: &Relation) -> Vec<Tuple> {
    rel.iter().map(|t| t.to_vec()).collect()
}

fn edges(max_node: u64, max_len: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0..max_node, 0..max_node), 1..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The LexiEnumerator emits the identical sequence as the general
    /// AcyclicEnumerator under a lexicographic ranking on random acyclic
    /// instances — serial and at every pool size — and both equal the
    /// materialise → distinct → sort oracle, which is neither engine
    /// (value-as-weight LEX over the whole projection is a total order, so
    /// the sorted sequence is unique). The last two legs run lexi under
    /// weights that several values share.
    #[test]
    fn lexi_matches_general_on_random_acyclic_instances(
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
        for order in [["a", "c", "d"], ["d", "a", "c"], ["c", "d", "a"]] {
            let lex = LexRanking::new(order, WeightAssignment::value_as_weight());
            let via_lexi: Vec<Tuple> = LexiEnumerator::new(&query, &db, &lex).unwrap().collect();
            let via_general: Vec<Tuple> = AcyclicEnumerator::new(&query, &db, lex.clone())
                .unwrap()
                .collect();
            prop_assert_eq!(&via_lexi, &via_general);
            let oracle = common::reference_answers(&query, &db, &lex);
            prop_assert_eq!(&via_lexi, &oracle);
            for threads in [3, 4] {
                let via_pooled: Vec<Tuple> =
                    LexiEnumerator::new_ctx(&query, &db, &lex, &ctx_at(threads))
                        .unwrap()
                        .collect();
                prop_assert_eq!(&via_lexi, &via_pooled);
            }

            // Tie-heavy: values 2k and 2k+1 share weight k. Tied on the
            // last level only, the per-level (weight, value) order lexi
            // enumerates in is non-decreasing in the ranking's key.
            let halved = |w: WeightAssignment, attr: &&str| {
                w.with_table(*attr, (1..=6).map(|v| (v, Weight::new((v / 2) as f64))).collect())
            };
            let tied_last =
                LexRanking::new(order, halved(WeightAssignment::value_as_weight(), &order[2]));
            let via_tied: Vec<Tuple> =
                LexiEnumerator::new(&query, &db, &tied_last).unwrap().collect();
            common::assert_valid_ranked_output(&via_tied, &oracle, &query, &tied_last);
            // Tied on every level, that order is *not* non-decreasing in
            // `LexRanking::key` (a weight vector): (2, 5, _) precedes
            // (3, 1, _) although [1, 2, _] > [1, 0, _] — ROADMAP item 1.
            // What holds is each answer exactly once, ordered per level by
            // (weight, value).
            let tied_all = LexRanking::new(
                order,
                order.iter().fold(WeightAssignment::value_as_weight(), halved),
            );
            let via_tied: Vec<Tuple> =
                LexiEnumerator::new(&query, &db, &tied_all).unwrap().collect();
            let projected = |a| query.projection().iter().position(|p| p.as_str() == a);
            let pos = order.map(|a| projected(a).unwrap());
            let mut expected = oracle.clone();
            expected.sort_by_key(|t| pos.map(|p| (t[p] / 2, t[p])));
            prop_assert_eq!(&via_tied, &expected);
        }
    }

    #[test]
    fn par_kernels_match_serial_on_random_edge_relations(
        r in edges(9, 80),
        s in edges(9, 80),
    ) {
        let left = edge_relation("R", ["a", "b"], &r);
        let right = edge_relation("S", ["b", "c"], &s);
        let ctx = ctx_at(3);

        let mut serial_semi = left.clone();
        semi_join(&mut serial_semi, &right).unwrap();
        let mut par_semi = left.clone();
        par_semi_join(&ctx, &mut par_semi, &right).unwrap();
        prop_assert_eq!(rows_of(&par_semi), rows_of(&serial_semi));
    }
}
