//! Differential suite for the arena frontier kernel.
//!
//! The arena-backed enumerators ([`AcyclicEnumerator`], [`CyclicEnumerator`]
//! through its bag-wrapped acyclic core, [`StarEnumerator`],
//! [`UnionEnumerator`]) must emit exactly the sequence of the one oracle
//! that shares no code with them: materialise the join, project with
//! de-duplication, sort by `(key, tuple)` ([`common::reference_answers`]).
//! This suite holds them to it on every `re_workloads` query and on
//! proptest-random acyclic and cyclic instances, built serially and under
//! a one- and a four-worker pool ([`common::contexts`]).
//!
//! It also pins the kernel's representation: the cell, queue-operation and
//! byte counters of the bulk build, and the comparator's behaviour where
//! the inline words of a heap entry decide nothing.

mod common;

use common::{assert_ran_on_its_pool, contexts, reference_answers, reference_union_answers};
use proptest::prelude::*;
use rankedenum::prelude::*;
use rankedenum::ranking::RankKey;
use rankedenum::workloads::membership::WeightScheme;
use rankedenum::workloads::{DblpWorkload, ImdbWorkload, LdbcWorkload};

/// The first `k` answers of the materialise-and-sort oracle.
fn oracle_prefix<R: Ranking>(
    query: &JoinProjectQuery,
    db: &Database,
    ranking: &R,
    k: usize,
) -> Vec<Tuple> {
    let mut answers = reference_answers(query, db, ranking);
    answers.truncate(k);
    answers
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
        let ranking = spec.sum_ranking();
        let expected = oracle_prefix(&spec.query, db, &ranking, 500);
        for ctx in contexts() {
            let got: Vec<Tuple> =
                AcyclicEnumerator::new_ctx(&spec.query, db, ranking.clone(), &ctx)
                    .unwrap()
                    .take(500)
                    .collect();
            let threads = ctx.threads();
            assert_eq!(
                got, expected,
                "{}: diverged, {threads}-thread build",
                spec.name
            );
            assert_ran_on_its_pool(&ctx, &spec.name);
        }
    }
}

/// The bulk preprocessing build (flat key tables, queues sized and
/// heapified once) must do the same *work* as the one-cell-at-a-time build
/// it replaced: the cell, push and pop counts are the `EnumStats` of commit
/// b320aa1 on the same inputs, right after the build and after 500
/// answers. The two byte columns are those of PR 15's commit, whose heap
/// entries carry a key prefix and the first tie value (24 bytes, up from
/// 8), whose cells drop their key id (16 bytes of metadata, down from
/// 20), whose one- and two-component keys own no heap block, and whose
/// built queues reserve exactly their length — so retained and live bytes
/// coincide until a successor push grows a queue — less, since PR 24, the
/// keys that are no longer stored: a sum of one component lives in its
/// heap entry's prefix, and only a sum that expands (these workloads'
/// weights are fractions, so a few do) is interned, at 40 accounted bytes
/// each. Parent's interned keys → this commit's, and the bytes that fall:
///
/// ```text
/// 2-hop   at build   705 →  37   103 800 −   668·40 =  77 080 (retained and peak)
///         after 500  882 →  37   136 296 −   845·40 = 102 496   127 728 − 845·40 =  93 928
/// 3-hop   at build   794 →  13   143 760 −   781·40 = 112 520
///         after 500 1342 →  13   232 868 − 1 329·40 = 179 708   229 724 − 1 329·40 = 176 564
/// 4-hop   at build   695 →   5   176 200 −   690·40 = 148 600
///         after 500  991 →   5   327 268 −   986·40 = 287 828   321 508 −   986·40 = 282 068
/// 6-cycle at build   750 → 158   884 672 −   592·40 = 860 992 (no cell is added in 300 answers)
/// ```
///
/// Every peak above was reached with the key count of its row, so it falls
/// by the same product. The counts next to them did not move: a
/// priority-queue operation got cheaper, not rarer.
#[test]
fn bulk_build_keeps_the_incremental_builds_counters_on_dblp() {
    let dblp = DblpWorkload::generate(700, 11, WeightScheme::Random);
    // (cells, pushes, pops, frontier_bytes, frontier_peak_bytes)
    type Counters = (u64, u64, u64, u64, u64);
    let cases: [(_, Counters, Counters); 3] = [
        (
            dblp.two_hop(),
            (1400, 1400, 0, 77_080, 77_080),
            (2106, 2106, 1063, 102_496, 93_928),
        ),
        (
            dblp.three_hop(),
            (2100, 2100, 0, 112_520, 112_520),
            (4155, 4155, 2186, 179_708, 176_564),
        ),
        (
            dblp.four_hop(),
            (2800, 2800, 0, 148_600, 148_600),
            (7327, 7327, 4767, 287_828, 282_068),
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
        for ctx in contexts() {
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
    let built = (15_262, 15_262, 0, 860_992, 860_992);
    assert_eq!(counters(e.stats()), built, "6-cycle at build");
    assert_eq!(e.by_ref().take(300).count(), 300);
    let after = (15_262, 15_262, 4043, 860_992, 860_992);
    assert_eq!(counters(e.stats()), after, "6-cycle after 300");
}

#[test]
fn cyclic_workloads_match_the_reference_engine() {
    let dblp = DblpWorkload::generate(350, 21, WeightScheme::Random);
    for k in [2usize, 3] {
        let (spec, plan) = dblp.cycle(k);
        let ranking = spec.sum_ranking();
        let expected = oracle_prefix(&spec.query, dblp.db(), &ranking, 300);
        for ctx in contexts() {
            let mut arena =
                CyclicEnumerator::new_ctx(&spec.query, dblp.db(), ranking.clone(), &plan, &ctx)
                    .unwrap();
            let got: Vec<Tuple> = arena.by_ref().take(300).collect();
            let threads = ctx.threads();
            assert_eq!(
                got, expected,
                "{}: diverged, {threads}-thread build",
                spec.name
            );
            assert!(arena.stats().frontier_bytes > 0);
        }
    }
}

#[test]
fn union_workloads_match_reference_branch_merges() {
    // The union's answers are the branches' oracle sequences merged by
    // `(key, tuple)`, an answer that several branches produce kept once.
    let ldbc = LdbcWorkload::generate(2, 31);
    for spec in [ldbc.q3(), ldbc.q10(), ldbc.q11()] {
        let ranking = spec.sum_ranking();
        let mut expected = reference_union_answers(&spec.query, ldbc.db(), &ranking);
        expected.truncate(400);
        let got: Vec<Tuple> = UnionEnumerator::new(&spec.query, ldbc.db(), ranking)
            .unwrap()
            .take(400)
            .collect();
        assert_eq!(got, expected, "{}: union diverged", spec.name);
    }
}

#[test]
fn star_enumerator_accounts_branch_frontiers() {
    let dblp = DblpWorkload::generate(300, 51, WeightScheme::Random);
    let spec = dblp.three_star();
    let expected = oracle_prefix(&spec.query, dblp.db(), &spec.sum_ranking(), 300);
    for delta in [1usize, 8, 1000] {
        let mut star =
            StarEnumerator::new(&spec.query, dblp.db(), spec.sum_ranking(), delta).unwrap();
        let got: Vec<Tuple> = star.by_ref().take(300).collect();
        assert_eq!(got, expected, "δ = {delta}: star diverged");
        let snapshot = star.stats_snapshot();
        assert!(
            snapshot.frontier_bytes > 0,
            "δ = {delta}: the tradeoff's memory side must be visible"
        );
    }
}

/// A ranking whose keys keep the default [`RankKey::prefix`]: every heap
/// entry of every node carries the same prefix, so the entries' inline
/// words say nothing about the rank order.
#[derive(Clone)]
struct NoPrefix<R>(R);

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Opaque<K>(K);

impl<K: RankKey> RankKey for Opaque<K> {
    fn fingerprint(&self) -> u64 {
        self.0.fingerprint()
    }
}

impl<R: Ranking> Ranking for NoPrefix<R> {
    type Key = Opaque<R::Key>;
    type Plan = R::Plan;

    fn plan(&self, attrs: &[Attr]) -> Self::Plan {
        self.0.plan(attrs)
    }

    fn key(&self, plan: &Self::Plan, values: &[Value]) -> Self::Key {
        Opaque(self.0.key(plan, values))
    }
}

/// `M(x, c) ⋈ M(y, c)` over `groups` groups of `members` members each,
/// every member also in the next group so that outputs repeat across
/// groups.
fn overlapping_groups(groups: u64, members: u64) -> (Database, JoinProjectQuery) {
    let mut rel = Relation::new("M", attrs(["e", "c"]));
    for c in 0..groups {
        for e in 0..members {
            rel.push(&[c * (members - 1) + e + 1, c + 1]).unwrap();
        }
    }
    let mut db = Database::new();
    db.add_relation(rel).unwrap();
    let query = QueryBuilder::new()
        .atom("M1", "M", ["x", "c"])
        .atom("M2", "M", ["y", "c"])
        .project(["x", "y"])
        .build()
        .unwrap();
    (db, query)
}

fn assert_matches_materialise_and_sort<R: Ranking + Clone>(
    query: &JoinProjectQuery,
    db: &Database,
    ranking: R,
    what: &str,
) {
    let expected = reference_answers(query, db, &ranking);
    assert!(
        expected.len() > 50,
        "{what}: the instance must be non-trivial"
    );
    for root in 0..query.atoms().len() {
        let tree = JoinTree::build_rooted(query, root).unwrap();
        let got: Vec<Tuple> = AcyclicEnumerator::with_tree(query, db, ranking.clone(), tree)
            .unwrap()
            .collect();
        assert_eq!(got.len(), expected.len(), "{what}, root {root}: count");
        assert_eq!(got, expected, "{what}, root {root}");
    }
}

/// The ordering trap of inline tie values: an entry's `tie0` is the first
/// output value, and it may break a tie only between keys that are *known*
/// equal. On these instances every prefix is equal (the first lexicographic
/// weight is constant; or the key type has no prefix at all) while the rank
/// order runs *against* the output order, so a comparator that consulted
/// `tie0` on equal prefixes would emit by ascending `x` instead of by rank.
#[test]
fn equal_prefixes_never_let_the_first_output_value_outrank_the_key() {
    let (db, query) = overlapping_groups(6, 5);
    let descending = |attr: &str| -> WeightAssignment {
        let table = (0..64u64).map(|v| (v, Weight::new(-(v as f64)))).collect();
        WeightAssignment::value_as_weight().with_table(attr, table)
    };
    // LEX on (x, y) where every x weighs the same and y runs backwards.
    let flat_x = (0..64u64).map(|v| (v, Weight::new(1.0))).collect();
    let lex = LexRanking::new(["x", "y"], descending("y").with_table("x", flat_x));
    assert_matches_materialise_and_sort(&query, &db, lex.clone(), "lex");
    assert_matches_materialise_and_sort(&query, &db, NoPrefix(lex), "lex, no prefix");
    // MIN, MAX and SUM decided by x alone, larger x first. (y weighs the
    // same everywhere: MIN and MAX are only weakly monotone, and where two
    // attributes tie on the extreme the general algorithm promises rank
    // order but not the tie order of a sort.)
    let by_x =
        |y: f64| descending("x").with_table("y", (0..64).map(|v| (v, Weight::new(y))).collect());
    let min = MinRanking::new(by_x(1e3));
    assert_matches_materialise_and_sort(&query, &db, min.clone(), "min");
    assert_matches_materialise_and_sort(&query, &db, NoPrefix(min), "min, no prefix");
    let max = MaxRanking::new(by_x(-1e3));
    assert_matches_materialise_and_sort(&query, &db, NoPrefix(max), "max, no prefix");
    let sum = SumRanking::new(by_x(0.0));
    assert_matches_materialise_and_sort(&query, &db, NoPrefix(sum), "sum, no prefix");
}

/// ROADMAP item 1's instance. With `−value` on both attributes MIN and MAX
/// tie between a cell and its successor (they are only weakly monotone), an
/// equal output reached through a second anchor then pops later, and the
/// last-answer check misses it: 150 answers for 145 distinct ones. Fixing
/// item 1 means removing the `#[ignore]`.
#[test]
#[ignore = "ROADMAP item 1: weakly monotone rankings emit duplicates"]
fn min_and_max_emit_each_projected_answer_once() {
    let (db, query) = overlapping_groups(6, 5);
    let negated = || (0..64u64).map(|v| (v, Weight::new(-(v as f64)))).collect();
    let weights = WeightAssignment::value_as_weight()
        .with_table("x", negated())
        .with_table("y", negated());
    assert_matches_materialise_and_sort(&query, &db, MinRanking::new(weights.clone()), "min");
    assert_matches_materialise_and_sort(&query, &db, MaxRanking::new(weights), "max");
}

/// Sums that share their dominant component: every `x` weighs `2^53`, where
/// an ulp is 2, and every `y` a random fraction below 1, so all keys are
/// two-component expansions `[fraction, 2^53]` with one prefix, distinct
/// values and distinct key ids — and the fractions run against the output
/// order half of the time. Only the interned keys can order them.
#[test]
fn sums_sharing_a_dominant_component_are_ordered_by_their_tails() {
    let (db, query) = overlapping_groups(6, 5);
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let fractions = (0..64u64)
        .map(|v| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (v, Weight::new((x >> 11) as f64 / (1u64 << 53) as f64))
        })
        .collect();
    let top = (1u64 << 53) as f64;
    let weights = WeightAssignment::value_as_weight()
        .with_table("x", (0..64).map(|v| (v, Weight::new(top))).collect())
        .with_table("y", fractions);
    let ranking = SumRanking::new(weights);
    let keys: Vec<_> = reference_answers(&query, &db, &ranking)
        .iter()
        .map(|t| ranking.key_of(query.projection(), t))
        .collect();
    assert!(keys.iter().all(|k| k.prefix() == keys[0].prefix()));
    assert!(keys.windows(2).any(|w| w[0] < w[1]));
    assert_matches_materialise_and_sort(&query, &db, ranking, "shared dominant component");
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

    /// Random acyclic instances: under SUM the arena engine emits the
    /// oracle's sequence, whichever context built it.
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
        let expected = reference_answers(&query, &db, &SumRanking::value_sum());
        for ctx in contexts() {
            let got: Vec<Tuple> =
                AcyclicEnumerator::new_ctx(&query, &db, SumRanking::value_sum(), &ctx)
                    .unwrap()
                    .collect();
            prop_assert_eq!(&got, &expected);
        }
    }

    /// Random 4-cycle instances: the GHD-backed cyclic engine emits the
    /// oracle's sequence, whichever context materialised its bags.
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
        let expected = reference_answers(&query, &db, &SumRanking::value_sum());
        for ctx in contexts() {
            let got: Vec<Tuple> =
                CyclicEnumerator::new_ctx(&query, &db, SumRanking::value_sum(), &plan, &ctx)
                    .unwrap()
                    .collect();
            prop_assert_eq!(&got, &expected);
        }
    }
}
