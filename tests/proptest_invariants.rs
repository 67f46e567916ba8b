//! Property-based tests: on randomly generated instances, every enumeration
//! strategy must produce exactly the distinct projected answers, without
//! duplicates, in non-decreasing rank order, and the theoretically
//! equivalent strategies must agree with each other. The generated oracle
//! holds every engine to the exact `(key, tuple)` sequence of the
//! materialise-and-sort reference under every shipped ranking, and the
//! ordering contract that makes that possible is checked at the key.

mod common;

use common::{assert_valid_ranked_output, reference_answers, reference_union_answers};
use proptest::prelude::*;
use rankedenum::core::AnswerGate;
use rankedenum::datagen::log_degree_weights;
use rankedenum::prelude::*;
use std::any::type_name;
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Instant;

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
    (db, three_path_query(projection))
}

/// The path `R(a,b) ⋈ S(b,c) ⋈ T(c,d)` projected on `projection`.
fn three_path_query(projection: &[&str]) -> JoinProjectQuery {
    QueryBuilder::new()
        .atom("R", "R", ["a", "b"])
        .atom("S", "S", ["b", "c"])
        .atom("T", "T", ["c", "d"])
        .project(projection.iter().copied())
        .build()
        .unwrap()
}

/// The tie-heavy weight schemes, each on every attribute of `attrs`: the
/// halving table (values `2k` and `2k + 1` weigh `k`), the log-degree
/// weights `degrees` (`0` for a value they do not hold), the negated values
/// (at [`NEGATED`]), and zero on parity (the `i`-th attribute weighs 0 on
/// values of `i`'s parity, its value otherwise).
fn tie_heavy_weights(attrs: &[Attr], degrees: &HashMap<Value, Weight>) -> [WeightAssignment; 4] {
    let table = |f: &dyn Fn(u64) -> f64| (0..16u64).map(|v| (v, Weight::new(f(v)))).collect();
    let mut schemes = [
        WeightAssignment::value_as_weight(),
        WeightAssignment::zero(),
        WeightAssignment::value_as_weight(),
        WeightAssignment::value_as_weight(),
    ];
    for (i, a) in attrs.iter().enumerate() {
        let [halved, by_degree, negated, parity] = schemes;
        schemes = [
            halved.with_table(a.clone(), table(&|v| (v / 2) as f64)),
            by_degree.with_table(a.clone(), degrees.clone()),
            negated.with_table(a.clone(), table(&|v| -(v as f64))),
            parity.with_table(
                a.clone(),
                table(&|v| if v % 2 == i as u64 % 2 { 0.0 } else { v as f64 }),
            ),
        ];
    }
    schemes
}

/// The index of the negated scheme in [`tie_heavy_weights`]: the one that
/// `ProductRanking`, which requires non-negative weights, skips.
const NEGATED: usize = 2;

/// The log-degree weights of `rel`'s first column.
fn first_column_degrees(rel: &Relation) -> HashMap<Value, Weight> {
    log_degree_weights(rel, &rel.attrs()[0])
}

/// A shape of the generated oracle, with the engines that run it.
enum Shape {
    /// A star (2-hop, 3-star): the acyclic engine, and the star engine at
    /// δ ∈ {1, 4, 1000}.
    Star(JoinProjectQuery),
    /// An acyclic non-star query: the acyclic engine.
    Path(JoinProjectQuery),
    /// A cyclic query: the GHD-backed engine.
    Cyclic(JoinProjectQuery),
    /// A union: the union engine.
    Union(UnionQuery),
}

impl Shape {
    fn projection(&self) -> &[Attr] {
        match self {
            Shape::Union(union) => union.projection(),
            Shape::Star(q) | Shape::Path(q) | Shape::Cyclic(q) => q.projection(),
        }
    }
}

/// The shape `which` of the generated oracle over a database of `M(e, c)`
/// and `E(s, t)` from `r`, and `R(a, b)`, `S(b, c)`, `T(c, d)`: the 2-hop
/// and 3-star over `M`, the path `R ⋈ S ⋈ T` on `(a, c, d)`, the triangle
/// over `E` on `(x, z)`, and the union of the 2-hop with `R ⋈ S` on
/// `(x, y)`.
fn oracle_shape(
    which: u8,
    r: &[(u64, u64)],
    s: &[(u64, u64)],
    t: &[(u64, u64)],
) -> (Database, Shape) {
    let mut db = two_relation_db(r, s);
    db.set_relation(edge_relation("M", ["e", "c"], r));
    db.set_relation(edge_relation("E", ["s", "t"], r));
    db.set_relation(edge_relation("T", ["c", "d"], t));
    let shape = match which {
        0 => Shape::Star(two_hop_query()),
        1 => Shape::Star(three_star_query()),
        2 => Shape::Path(three_path_query(&["a", "c", "d"])),
        3 => Shape::Cyclic(
            QueryBuilder::new()
                .atom("E1", "E", ["x", "y"])
                .atom("E2", "E", ["y", "z"])
                .atom("E3", "E", ["z", "x"])
                .project(["x", "z"])
                .build()
                .unwrap(),
        ),
        _ => {
            let path = QueryBuilder::new()
                .atom("R", "R", ["x", "b"])
                .atom("S", "S", ["b", "y"])
                .project(["x", "y"])
                .build()
                .unwrap();
            Shape::Union(UnionQuery::new(vec![two_hop_query(), path]).unwrap())
        }
    };
    (db, shape)
}

/// Every engine of `shape` emits the reference sequence under `ranking`
/// over weight scheme `scheme`.
fn assert_engines_emit_the_oracle<R: Ranking + Clone + 'static>(
    shape: &Shape,
    db: &Database,
    ranking: R,
    scheme: usize,
) -> Result<(), TestCaseError> {
    let what = format!("{}, weight scheme {scheme}", type_name::<R>());
    let (query, got): (_, Vec<Tuple>) = match shape {
        Shape::Union(union) => {
            let oracle = reference_union_answers(union, db, &ranking);
            let got: Vec<Tuple> = UnionEnumerator::new(union, db, ranking).unwrap().collect();
            prop_assert!(got == oracle, "union, {what}: {got:?} != {oracle:?}");
            return Ok(());
        }
        Shape::Cyclic(q) => (
            q,
            CyclicEnumerator::new_auto(q, db, ranking.clone())
                .unwrap()
                .collect(),
        ),
        Shape::Star(q) | Shape::Path(q) => (
            q,
            AcyclicEnumerator::new(q, db, ranking.clone())
                .unwrap()
                .collect(),
        ),
    };
    let oracle = reference_answers(query, db, &ranking);
    prop_assert!(got == oracle, "{what}: {got:?} != {oracle:?}");
    if let Shape::Star(_) = shape {
        for delta in [1usize, 4, 1000] {
            let got: Vec<Tuple> = StarEnumerator::new(query, db, ranking.clone(), delta)
                .unwrap()
                .collect();
            prop_assert!(
                got == oracle,
                "star, δ = {delta}, {what}: {got:?} != {oracle:?}"
            );
        }
    }
    Ok(())
}

/// A context with a 4-thread pool, shared by every case.
fn pooled() -> &'static ExecContext {
    static POOLED: OnceLock<ExecContext> = OnceLock::new();
    POOLED.get_or_init(|| ExecContext::pooled(WorkerPool::new(4)))
}

/// SplitMix64 over `state`: a seeded draw from `0..n`.
fn draw(state: &mut u64, n: usize) -> usize {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % n as u64) as usize
}

/// Sessions of one statement share one enumerator: `cursors` cursors on
/// one `SharedFrontier` of an acyclic or GHD shape, attached at seeded
/// moments and paged by seeded sizes in a seeded interleaving, each read
/// exactly the private enumerator's sequence, which is
/// `MaterializeSortEngine`'s.
fn assert_sharers_emit_the_oracle<R: Ranking + Clone + 'static>(
    shape: &Shape,
    db: &Database,
    ranking: R,
    ctx: &ExecContext,
    cursors: usize,
    mut seed: u64,
) -> Result<(), TestCaseError> {
    let what = format!(
        "{}, {cursors} cursors, {} threads, seed {seed}",
        type_name::<R>(),
        ctx.threads()
    );
    let (query, private): (_, Vec<Tuple>) = match shape {
        Shape::Cyclic(q) => {
            let e = CyclicEnumerator::new_auto_ctx(q, db, ranking.clone(), ctx).unwrap();
            (q, e.collect())
        }
        Shape::Star(q) | Shape::Path(q) => {
            let e = AcyclicEnumerator::new_ctx(q, db, ranking.clone(), ctx).unwrap();
            (q, e.collect())
        }
        Shape::Union(_) => unreachable!("no cursor attaches to a union's branches"),
    };
    // Algorithm 1 even under LEX: the plan is made as for a non-lexicographic
    // order, so `open` puts the general enumerator behind a frontier.
    let first = BranchPlan::of(query, false)
        .unwrap()
        .open(query, db, ranking.clone(), ctx)
        .unwrap();
    let (oracle, _) = MaterializeSortEngine::new()
        .top_k(query, db, &ranking, usize::MAX)
        .unwrap();
    prop_assert!(
        private == oracle,
        "private, {what}: {private:?} != {oracle:?}"
    );
    // Each cursor with its gate, its pages so far, and whether a short
    // page ended it.
    let gate = || AnswerGate::new(Instant::now());
    let mut live = vec![(first, gate(), Vec::new(), false)];
    loop {
        let open: Vec<usize> = (0..live.len()).filter(|&i| !live[i].3).collect();
        let may_attach = live.len() < cursors;
        if open.is_empty() && !may_attach {
            break;
        }
        let pick = draw(&mut seed, open.len() + usize::from(may_attach));
        let Some(&i) = open.get(pick) else {
            let frontier = live[0].0.shared_frontier().unwrap();
            let (cursor, published) = frontier.attach().unwrap();
            prop_assert!(published as usize <= oracle.len(), "{what}");
            live.push((Box::new(cursor), gate(), Vec::new(), false));
            continue;
        };
        let k = 1 + draw(&mut seed, 6);
        let (cursor, gate, got, done) = &mut live[i];
        let before = got.len();
        cursor.next_page(k, got, gate);
        *done = got.len() - before < k;
    }
    for (i, (_, _, got, _)) in live.iter().enumerate() {
        prop_assert!(got == &oracle, "cursor {i}, {what}: {got:?} != {oracle:?}");
    }
    Ok(())
}

/// The ordering contract at the key: over `all`, change the values of the
/// part `mask` selects from `a`'s to `b`'s. The whole key must compare as
/// the part's key does — strictly larger, equal or strictly smaller.
fn assert_strictly_monotone<R: Ranking>(
    ranking: &R,
    scheme: usize,
    all: &[Attr],
    mask: u8,
    a: &[Value],
    b: &[Value],
) -> Result<(), TestCaseError> {
    let in_part = |i: &usize| mask >> i & 1 == 1;
    let part: Vec<Attr> = (0..all.len())
        .filter(in_part)
        .map(|i| all[i].clone())
        .collect();
    let of_part = |t: &[Value]| {
        (0..all.len())
            .filter(in_part)
            .map(|i| t[i])
            .collect::<Vec<_>>()
    };
    let moved: Vec<Value> = (0..all.len())
        .map(|i| if in_part(&i) { b[i] } else { a[i] })
        .collect();
    let by_part = ranking
        .key_of(&part, &of_part(a))
        .cmp(&ranking.key_of(&part, &of_part(b)));
    let by_whole = ranking.key_of(all, a).cmp(&ranking.key_of(all, &moved));
    prop_assert!(
        by_part == by_whole,
        "{}, weight scheme {scheme}: part {part:?} {a:?} → {b:?} compares {by_part:?}, \
         the whole {by_whole:?}",
        type_name::<R>()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The one definition of LEX (`LexRanking`'s docs), checked by sequence
    /// equality: Algorithm 3, the general engine and the materialise-and-sort
    /// oracle agree under every tie-heavy weight scheme, with zero, one or
    /// two projection attributes left out of the declared order, in either
    /// direction.
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
        let degrees = first_column_degrees(db.relation(&query.atoms()[0].relation).unwrap());
        for weights in tie_heavy_weights(query.projection(), &degrees) {
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
        // The 4-cycle: its two-bag decomposition races the single bag.
        let four = QueryBuilder::new()
            .atom("E1", "E", ["a", "b"])
            .atom("E2", "E", ["b", "c"])
            .atom("E3", "E", ["c", "d"])
            .atom("E4", "E", ["d", "a"])
            .project(["a", "c"])
            .build()
            .unwrap();
        let reference = reference_answers(&four, &db, &ranking);
        let e = CyclicEnumerator::new_auto(&four, &db, ranking.clone()).unwrap();
        prop_assert!(e.plan_report().race_loser.is_some());
        let answers: Vec<Tuple> = e.collect();
        assert_valid_ranked_output(&answers, &reference, &four, &ranking);
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

    /// `Ranking`'s ordering contract, at the key, for every shipped ranking
    /// under every tie-heavy weight scheme (PRODUCT's weights non-negative).
    #[test]
    fn every_ranking_key_is_strictly_monotone_in_each_part(
        e in edges(7, 20),
        mask in 1u8..15,
        a in prop::collection::vec(0u64..9, 4..5),
        b in prop::collection::vec(0u64..9, 4..5),
        c in 0u32..4,
    ) {
        let all = attrs(["p", "q", "r", "s"]);
        let degrees = first_column_degrees(&edge_relation("M", ["e", "c"], &e));
        for (i, w) in tie_heavy_weights(&all, &degrees).into_iter().enumerate() {
            let weighted = WeightedSumRanking::new([("q", f64::from(c))], 1.0, w.clone());
            let lex = LexRanking::new(["s", "p", "r", "q"], w.clone());
            assert_strictly_monotone(&SumRanking::new(w.clone()), i, &all, mask, &a, &b)?;
            assert_strictly_monotone(&weighted, i, &all, mask, &a, &b)?;
            assert_strictly_monotone(&lex, i, &all, mask, &a, &b)?;
            assert_strictly_monotone(&MinRanking::new(w.clone()), i, &all, mask, &a, &b)?;
            assert_strictly_monotone(&MaxRanking::new(w.clone()), i, &all, mask, &a, &b)?;
            if i != NEGATED {
                assert_strictly_monotone(&ProductRanking::new(w), i, &all, mask, &a, &b)?;
            }
        }
    }

    /// The generated oracle: on the 2-hop, the path, the 3-star, the
    /// triangle and a 2-branch union, every engine that runs the shape
    /// emits exactly the reference `(key, tuple)` sequence under every
    /// shipped ranking and every tie-heavy weight scheme.
    #[test]
    fn every_engine_emits_the_oracle_sequence_under_every_ranking(
        which in 0u8..5,
        r in edges(7, 30),
        s in edges(7, 30),
        t in edges(7, 30),
        c in 0u32..4,
    ) {
        let (db, shape) = oracle_shape(which, &r, &s, &t);
        let projection = shape.projection();
        let degrees = first_column_degrees(db.relation("M").unwrap());
        for (i, w) in tie_heavy_weights(projection, &degrees).into_iter().enumerate() {
            let weighted =
                WeightedSumRanking::new([(projection[0].clone(), f64::from(c))], 1.0, w.clone());
            let lex = LexRanking::new(projection.iter().rev().cloned(), w.clone());
            assert_engines_emit_the_oracle(&shape, &db, SumRanking::new(w.clone()), i)?;
            assert_engines_emit_the_oracle(&shape, &db, weighted, i)?;
            assert_engines_emit_the_oracle(&shape, &db, lex, i)?;
            assert_engines_emit_the_oracle(&shape, &db, MinRanking::new(w.clone()), i)?;
            assert_engines_emit_the_oracle(&shape, &db, MaxRanking::new(w.clone()), i)?;
            if i != NEGATED {
                assert_engines_emit_the_oracle(&shape, &db, ProductRanking::new(w), i)?;
            }
        }
    }

    /// Sharing is invisible in the answers: on the acyclic and GHD shapes
    /// of the generated oracle, under every shipped ranking and weight
    /// scheme, 2 or 4 cursors of one shared frontier, built serially or on
    /// 4 threads, each emit the oracle sequence.
    #[test]
    fn sharers_of_one_frontier_each_emit_the_oracle_sequence(
        which in 0u8..4,
        r in edges(7, 30),
        s in edges(7, 30),
        t in edges(7, 30),
        c in 0u32..4,
        seed in any::<u64>(),
    ) {
        let (db, shape) = oracle_shape(which, &r, &s, &t);
        let projection = shape.projection();
        let degrees = first_column_degrees(db.relation("M").unwrap());
        let serial = ExecContext::serial();
        for (i, w) in tie_heavy_weights(projection, &degrees).into_iter().enumerate() {
            let seed = seed.wrapping_add(i as u64);
            let ctx = if seed & 1 == 0 { &serial } else { pooled() };
            let n = if seed & 2 == 0 { 2 } else { 4 };
            let weighted =
                WeightedSumRanking::new([(projection[0].clone(), f64::from(c))], 1.0, w.clone());
            let lex = LexRanking::new(projection.iter().rev().cloned(), w.clone());
            assert_sharers_emit_the_oracle(&shape, &db, SumRanking::new(w.clone()), ctx, n, seed)?;
            assert_sharers_emit_the_oracle(&shape, &db, weighted, ctx, n, seed)?;
            assert_sharers_emit_the_oracle(&shape, &db, lex, ctx, n, seed)?;
            assert_sharers_emit_the_oracle(&shape, &db, MinRanking::new(w.clone()), ctx, n, seed)?;
            assert_sharers_emit_the_oracle(&shape, &db, MaxRanking::new(w.clone()), ctx, n, seed)?;
            if i != NEGATED {
                assert_sharers_emit_the_oracle(&shape, &db, ProductRanking::new(w), ctx, n, seed)?;
            }
        }
    }
}
