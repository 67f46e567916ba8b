//! Property-based tests: on randomly generated instances, every enumeration
//! strategy must produce exactly the distinct projected answers, without
//! duplicates, in non-decreasing rank order, and the theoretically
//! equivalent strategies must agree with each other.

mod common;

use common::{assert_valid_ranked_output, reference_answers};
use proptest::prelude::*;
use rankedenum::datagen::log_degree_weights;
use rankedenum::prelude::*;

/// A binary relation from generated edges, shifted away from 0 and
/// de-duplicated.
fn edge_relation(name: &str, cols: [&str; 2], edges: &[(u64, u64)]) -> Relation {
    let mut rel = Relation::new(name, attrs(cols));
    let mut seen = std::collections::HashSet::new();
    for &(a, b) in edges {
        if seen.insert((a, b)) {
            rel.push_unchecked(&[a + 1, b + 1]);
        }
    }
    rel
}

/// Build a database with a single binary membership relation from generated
/// edges over small domains (small domains force heavy duplication, which is
/// where deduplication bugs would hide).
fn membership_db(edges: &[(u64, u64)]) -> Database {
    let mut db = Database::new();
    db.set_relation(edge_relation("M", ["e", "c"], edges));
    db
}

/// Build a database with two binary relations (for path-shaped queries).
fn two_relation_db(r: &[(u64, u64)], s: &[(u64, u64)]) -> Database {
    let mut db = Database::new();
    db.set_relation(edge_relation("R", ["a", "b"], r));
    db.set_relation(edge_relation("S", ["b", "c"], s));
    db
}

fn edges(max_node: u64, max_len: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0..max_node, 0..max_node), 0..max_len)
}

fn two_hop_query() -> JoinProjectQuery {
    QueryBuilder::new()
        .atom("M1", "M", ["x", "c"])
        .atom("M2", "M", ["y", "c"])
        .project(["x", "y"])
        .build()
        .unwrap()
}

fn three_star_query() -> JoinProjectQuery {
    QueryBuilder::new()
        .atom("M1", "M", ["x", "c"])
        .atom("M2", "M", ["y", "c"])
        .atom("M3", "M", ["z", "c"])
        .project(["x", "y", "z"])
        .build()
        .unwrap()
}

fn path_query() -> JoinProjectQuery {
    QueryBuilder::new()
        .atom("R", "R", ["a", "b"])
        .atom("S", "S", ["b", "c"])
        .project(["a", "c"])
        .build()
        .unwrap()
}

/// A random acyclic instance for the LEX oracle: the path
/// `R(a,b) ⋈ S(b,c) ⋈ T(c,d)` projected on all four attributes or on
/// `(a, c, d)`, or the 3-star `M(x,c) ⋈ M(y,c) ⋈ M(z,c)` on `(x, y, z)`.
fn lex_instance(
    shape: u8,
    r: &[(u64, u64)],
    s: &[(u64, u64)],
    t: &[(u64, u64)],
) -> (Database, JoinProjectQuery) {
    if shape == 2 {
        return (membership_db(r), three_star_query());
    }
    let mut db = two_relation_db(r, s);
    db.set_relation(edge_relation("T", ["c", "d"], t));
    let projection: &[&str] = if shape == 0 {
        &["a", "b", "c", "d"]
    } else {
        &["a", "c", "d"]
    };
    let query = QueryBuilder::new()
        .atom("R", "R", ["a", "b"])
        .atom("S", "S", ["b", "c"])
        .atom("T", "T", ["c", "d"])
        .project(projection.iter().copied())
        .build()
        .unwrap();
    (db, query)
}

/// Two tie-heavy weight assignments over the projection of `query`: the
/// halving table (values `2k` and `2k + 1` weigh `k`) on every attribute,
/// and the log-degree weights of the first relation's first column on
/// every attribute (`0` for a value it does not hold).
fn tied_weights(db: &Database, query: &JoinProjectQuery) -> [WeightAssignment; 2] {
    let atom = &query.atoms()[0];
    let rel = db.relation(&atom.relation).unwrap();
    let degrees = log_degree_weights(rel, &rel.attrs()[0]);
    let mut halved = WeightAssignment::value_as_weight();
    let mut by_degree = WeightAssignment::zero();
    for a in query.projection() {
        let halving = (0..16u64)
            .map(|v| (v, Weight::new((v / 2) as f64)))
            .collect();
        halved = halved.with_table(a.clone(), halving);
        by_degree = by_degree.with_table(a.clone(), degrees.clone());
    }
    [halved, by_degree]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The one definition of LEX (`LexRanking`'s docs), checked by sequence
    /// equality: Algorithm 3, the general engine and the materialise-and-sort
    /// oracle agree under tied weights, with zero, one or two projection
    /// attributes left out of the declared order, in either direction.
    #[test]
    fn lexi_general_and_oracle_emit_one_lex_order(
        shape in 0u8..3,
        r in edges(7, 30),
        s in edges(7, 30),
        t in edges(7, 30),
        shuffle in any::<u64>(),
        descending in any::<u64>(),
    ) {
        let (db, query) = lex_instance(shape, &r, &s, &t);
        let mut order: Vec<(Attr, Direction)> = query
            .projection()
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let desc = descending >> i & 1 == 1;
                (a.clone(), if desc { Direction::Desc } else { Direction::Asc })
            })
            .collect();
        let n = order.len();
        for i in (1..n).rev() {
            order.swap(i, (shuffle >> (8 * i)) as usize % (i + 1));
        }
        for weights in tied_weights(&db, &query) {
            for undeclared in 0..=2 {
                let declared = &order[..n - undeclared];
                let lex = LexRanking::with_directions(declared.iter().cloned(), weights.clone());
                let via_lexi: Vec<Tuple> = LexiEnumerator::new(&query, &db, &lex).unwrap().collect();
                let via_general: Vec<Tuple> =
                    AcyclicEnumerator::new(&query, &db, lex.clone()).unwrap().collect();
                let oracle = reference_answers(&query, &db, &lex);
                prop_assert!(via_lexi == oracle, "lexi, {declared:?}: {via_lexi:?} != {oracle:?}");
                prop_assert!(
                    via_general == oracle,
                    "general, {declared:?}: {via_general:?} != {oracle:?}"
                );
            }
        }
    }

    #[test]
    fn two_hop_enumeration_is_correct(e in edges(8, 60)) {
        let db = membership_db(&e);
        let query = two_hop_query();
        let ranking = SumRanking::value_sum();
        let reference = reference_answers(&query, &db, &ranking);
        let answers: Vec<Tuple> = AcyclicEnumerator::new(&query, &db, ranking.clone())
            .unwrap()
            .collect();
        assert_valid_ranked_output(&answers, &reference, &query, &ranking);
        prop_assert_eq!(answers, reference); // exact: ties broken on the tuple
    }

    #[test]
    fn three_star_strategies_agree(e in edges(6, 40)) {
        let db = membership_db(&e);
        let query = three_star_query();
        let ranking = SumRanking::value_sum();
        let reference = reference_answers(&query, &db, &ranking);
        let acyclic: Vec<Tuple> = AcyclicEnumerator::new(&query, &db, ranking.clone())
            .unwrap()
            .collect();
        assert_valid_ranked_output(&acyclic, &reference, &query, &ranking);
        for threshold in [1usize, 3, 1000] {
            let star: Vec<Tuple> = StarEnumerator::new(&query, &db, ranking.clone(), threshold)
                .unwrap()
                .collect();
            assert_valid_ranked_output(&star, &reference, &query, &ranking);
        }
    }

    #[test]
    fn path_query_lexicographic_agrees_with_general(r in edges(7, 40), s in edges(7, 40)) {
        let db = two_relation_db(&r, &s);
        let query = path_query();
        let lex = LexRanking::new(["a", "c"], WeightAssignment::value_as_weight());
        let via_lexi: Vec<Tuple> = LexiEnumerator::new(&query, &db, &lex).unwrap().collect();
        let via_general: Vec<Tuple> =
            AcyclicEnumerator::new(&query, &db, lex.clone()).unwrap().collect();
        prop_assert_eq!(&via_lexi, &via_general);
        let reference = reference_answers(&query, &db, &lex);
        assert_valid_ranked_output(&via_lexi, &reference, &query, &lex);
    }

    #[test]
    fn full_anyk_baseline_is_equivalent(e in edges(6, 40)) {
        let db = membership_db(&e);
        let query = two_hop_query();
        let ranking = SumRanking::value_sum();
        let reference = reference_answers(&query, &db, &ranking);
        let answers: Vec<Tuple> = FullAnyKEngine::new(&query, &db, ranking.clone())
            .unwrap()
            .collect();
        assert_valid_ranked_output(&answers, &reference, &query, &ranking);
    }

    #[test]
    fn min_and_max_rankings_enumerate_in_order(e in edges(8, 50)) {
        let db = membership_db(&e);
        let query = two_hop_query();
        let w = WeightAssignment::value_as_weight();
        // MIN ranking
        let ranking = MinRanking::new(w.clone());
        let answers: Vec<Tuple> = AcyclicEnumerator::new(&query, &db, ranking.clone())
            .unwrap()
            .collect();
        let reference = reference_answers(&query, &db, &ranking);
        assert_valid_ranked_output(&answers, &reference, &query, &ranking);
        // MAX ranking
        let ranking = MaxRanking::new(w);
        let answers: Vec<Tuple> = AcyclicEnumerator::new(&query, &db, ranking.clone())
            .unwrap()
            .collect();
        let reference = reference_answers(&query, &db, &ranking);
        assert_valid_ranked_output(&answers, &reference, &query, &ranking);
    }

    #[test]
    fn triangle_query_via_ghd_is_correct(e in edges(8, 40)) {
        let mut db = Database::new();
        db.set_relation(edge_relation("E", ["s", "t"], &e));
        let query = QueryBuilder::new()
            .atom("E1", "E", ["x", "y"])
            .atom("E2", "E", ["y", "z"])
            .atom("E3", "E", ["z", "x"])
            .project(["x", "z"])
            .build()
            .unwrap();
        let ranking = SumRanking::value_sum();
        let reference = reference_answers(&query, &db, &ranking);
        let answers: Vec<Tuple> = CyclicEnumerator::new_auto(&query, &db, ranking.clone())
            .unwrap()
            .collect();
        assert_valid_ranked_output(&answers, &reference, &query, &ranking);
    }

    #[test]
    fn weight_total_order_is_consistent(a in any::<f64>(), b in any::<f64>()) {
        prop_assume!(a.is_finite() && b.is_finite());
        let wa = Weight::new(a);
        let wb = Weight::new(b);
        // antisymmetry + totality
        prop_assert_eq!(wa.cmp(&wb), wb.cmp(&wa).reverse());
        if a < b {
            prop_assert!(wa < wb);
        }
        if a == b {
            prop_assert_eq!(wa, wb);
        }
    }

    #[test]
    fn sum_ranking_is_monotone_in_each_position(
        x in 0u64..1000, y in 0u64..1000, bump in 0u64..1000
    ) {
        let ranking = SumRanking::value_sum();
        let a = attrs(["p", "q"]);
        let base = ranking.key_of(&a, &[x, y]);
        let bumped = ranking.key_of(&a, &[x, y + bump]);
        prop_assert!(bumped >= base);
    }

    #[test]
    fn lex_ranking_is_monotone_on_suffix_replacement(
        x in 0u64..50, y in 0u64..50, y2 in 0u64..50, z in 0u64..50, z2 in 0u64..50
    ) {
        let ranking = LexRanking::new(["p", "q", "r"], WeightAssignment::value_as_weight());
        let a = attrs(["p", "q", "r"]);
        let base = ranking.key_of(&a, &[x, y, z]);
        let other = ranking.key_of(&a, &[x, y2, z2]);
        // monotone: if the (q, r) sub-tuple key grows, the full key grows
        let sub = LexRanking::new(["q", "r"], WeightAssignment::value_as_weight());
        let sub_a = attrs(["q", "r"]);
        if sub.key_of(&sub_a, &[y2, z2]) >= sub.key_of(&sub_a, &[y, z]) {
            prop_assert!(other >= base);
        }
    }
}
