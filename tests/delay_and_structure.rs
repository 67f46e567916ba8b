//! Tests of the structural guarantees the paper proves: delay bounds (in
//! priority-queue operations), free-connex behaviour, the star tradeoff, and
//! the Appendix-B blow-up.

mod common;

use rankedenum::prelude::*;
use rankedenum::workloads::membership::WeightScheme;
use rankedenum::workloads::DblpWorkload;

#[test]
fn per_answer_pq_operations_respect_the_linear_delay_bound() {
    // Lemma 1: between two consecutive answers the algorithm performs
    // O(|D|) priority-queue operations (constants depend on the query size).
    let w = DblpWorkload::generate(600, 3, WeightScheme::Random);
    let spec = w.two_hop();
    let mut e = AcyclicEnumerator::new(&spec.query, w.db(), spec.sum_ranking()).unwrap();
    let n = w.db().size() as u64 * spec.query.atoms().len() as u64;
    let _all: Vec<Tuple> = e.by_ref().collect();
    let stats = e.stats();
    assert!(stats.answers > 0);
    assert!(
        stats.max_ops_per_answer() <= 8 * n,
        "observed delay {} PQ ops exceeds the O(|D|) bound for |D| = {n}",
        stats.max_ops_per_answer()
    );
    // The histogram of Figure 14a: most answers need very few operations.
    assert!(stats.cdf_at(stats.max_ops_per_answer()) == 1.0);
    assert!(stats.cdf_at(64) > 0.5, "most answers should be cheap");
}

#[test]
fn free_connex_queries_have_constant_pq_work_per_answer() {
    // π_{a,b}(R(a,b) ⋈ S(b,c)) is free-connex: after pruning, the join tree
    // contains only projection attributes, so every answer costs O(log |D|)
    // — in particular the number of PQ operations per answer is bounded by a
    // small constant independent of |D| (Appendix E).
    use rankedenum::query::free_connex::is_free_connex;
    let mut db = Database::new();
    let mut r = Relation::new("R", attrs(["a", "b"]));
    let mut s = Relation::new("S", attrs(["b", "c"]));
    for i in 0..400u64 {
        r.push_unchecked(&[i, i % 20]);
        s.push_unchecked(&[i % 20, i]);
    }
    db.set_relation(r);
    db.set_relation(s);
    let q = QueryBuilder::new()
        .atom("R", "R", ["a", "b"])
        .atom("S", "S", ["b", "c"])
        .project(["a", "b"])
        .build()
        .unwrap();
    assert!(is_free_connex(&q));
    let mut e = AcyclicEnumerator::new(&q, &db, SumRanking::value_sum()).unwrap();
    let all: Vec<Tuple> = e.by_ref().collect();
    assert_eq!(all.len(), 400);
    assert!(
        e.stats().max_ops_per_answer() <= 8,
        "free-connex delay should not depend on |D| (got {} ops)",
        e.stats().max_ops_per_answer()
    );
}

#[test]
fn non_free_connex_two_hop_is_detected() {
    use rankedenum::query::free_connex::is_free_connex;
    let w = DblpWorkload::generate(100, 9, WeightScheme::Random);
    assert!(!is_free_connex(&w.two_hop().query));
    assert!(!is_free_connex(&w.three_star().query));
}

#[test]
fn star_tradeoff_moves_work_from_enumeration_to_preprocessing() {
    let w = DblpWorkload::generate(2_000, 13, WeightScheme::Random);
    let spec = w.three_star();
    let ranking = spec.sum_ranking();
    // δ = 1: everything is heavy, the entire output is materialised.
    let eager = StarEnumerator::new(&spec.query, w.db(), ranking.clone(), 1).unwrap();
    // δ = ∞: nothing is heavy, everything happens at enumeration time.
    let lazy = StarEnumerator::new(&spec.query, w.db(), ranking.clone(), usize::MAX).unwrap();
    assert!(eager.heavy_output_size() > 0);
    assert_eq!(lazy.heavy_output_size(), 0);
    let total = eager.heavy_output_size();
    // Both must enumerate the same number of answers.
    assert_eq!(lazy.count(), total);
    // Intermediate thresholds materialise monotonically fewer heavy answers.
    let mut previous = usize::MAX;
    for delta in [1usize, 8, 64, 512, 4096] {
        let e = StarEnumerator::new(&spec.query, w.db(), ranking.clone(), delta).unwrap();
        assert!(
            e.heavy_output_size() <= previous,
            "heavy output must shrink as δ grows"
        );
        previous = e.heavy_output_size();
    }
}

/// Enumerate `e` to the end, checking after the build and after every
/// answer that no counter set `stats` reads has popped more than it pushed.
fn assert_pops_never_outrun_pushes<E: Iterator<Item = Tuple>>(
    what: &str,
    mut e: E,
    stats: impl Fn(&E) -> Vec<StatsSnapshot>,
) {
    let mut answers = 0;
    loop {
        for s in stats(&e) {
            assert!(
                s.pq_pops <= s.pq_pushes,
                "{what}, after {answers} answers: {} pops, {} pushes",
                s.pq_pops,
                s.pq_pushes
            );
        }
        if e.next().is_none() {
            break;
        }
        answers += 1;
    }
    assert!(answers > 0, "{what}: the instance has answers");
}

#[test]
fn no_enumerator_pops_more_than_it_pushed() {
    // A small random graph: 2-hop and 3-hop paths share many endpoints, and
    // it has 4-cycles.
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut edges = Relation::new("E", attrs(["src", "dst"]));
    for _ in 0..40 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        edges.push_unchecked(&[x % 12, (x >> 32) % 12]);
    }
    let mut db = Database::new();
    db.set_relation(edges);
    let path = |hops: usize| {
        let mut vars: Vec<String> = (0..hops).map(|i| format!("v{i}")).collect();
        vars.push("end".into());
        let mut b = QueryBuilder::new();
        for i in 0..hops {
            b = b.atom(
                format!("E{i}"),
                "E",
                [vars[i].as_str(), vars[i + 1].as_str()],
            );
        }
        b.project(["v0", "end"]).build().unwrap()
    };
    let four_cycle = QueryBuilder::new()
        .atom("E1", "E", ["a1", "a2"])
        .atom("E2", "E", ["a2", "a3"])
        .atom("E3", "E", ["a3", "a4"])
        .atom("E4", "E", ["a4", "a1"])
        .project(["a1", "a3"])
        .build()
        .unwrap();
    let two_star = QueryBuilder::new()
        .atom("E1", "E", ["a1", "p"])
        .atom("E2", "E", ["a2", "p"])
        .project(["a1", "a2"])
        .build()
        .unwrap();
    let sum = SumRanking::value_sum;

    let acyclic = AcyclicEnumerator::new(&path(2), &db, sum()).unwrap();
    assert_pops_never_outrun_pushes("acyclic", acyclic, |e| vec![e.stats().snapshot()]);
    let cyclic = CyclicEnumerator::new_auto(&four_cycle, &db, sum()).unwrap();
    assert_pops_never_outrun_pushes("cyclic", cyclic, |e| vec![e.stats().snapshot()]);
    let union = UnionQuery::new(vec![path(2), path(3)]).unwrap();
    let union = UnionEnumerator::new(&union, &db, sum()).unwrap();
    assert_pops_never_outrun_pushes("union", union, |e| {
        vec![e.stats().snapshot(), e.stats_snapshot()]
    });
    for delta in [1, 2, 1_000] {
        let star = StarEnumerator::new(&two_star, &db, sum(), delta).unwrap();
        assert_pops_never_outrun_pushes(&format!("star, δ = {delta}"), star, |e| {
            vec![e.stats().snapshot(), e.stats_snapshot()]
        });
    }
}

#[test]
fn appendix_b_baseline_pays_the_blowup() {
    // Worst-case instance: n answers, n^2 full-join tuples for 2 arms... use
    // 3 arms so the gap is n^2 per the lower bound argument.
    use rankedenum::datagen::worst_case_path_instance;
    let n = 40usize;
    let db = worst_case_path_instance(3, n);
    let query = QueryBuilder::new()
        .atom("A1", "R1", ["x1", "y"])
        .atom("A2", "R2", ["x2", "y"])
        .atom("A3", "R3", ["x3", "y"])
        .project(["x1"])
        .build()
        .unwrap();
    let ranking = SumRanking::value_sum();

    let ours: Vec<Tuple> = AcyclicEnumerator::new(&query, &db, ranking.clone())
        .unwrap()
        .collect();
    assert_eq!(ours.len(), n);

    let mut baseline = FullAnyKEngine::new(&query, &db, ranking).unwrap();
    let theirs: Vec<Tuple> = baseline.by_ref().collect();
    assert_eq!(theirs.len(), n);
    // The baseline walked all n^3 full answers to produce n projected ones.
    assert_eq!(baseline.full_answers_enumerated(), (n * n * n) as u64);
}

#[test]
fn preprocessing_is_linear_in_the_instance() {
    // Lemma 2: preprocessing creates O(|D|) cells (one per non-dangling
    // tuple per node).
    let w = DblpWorkload::generate(3_000, 17, WeightScheme::Random);
    let spec = w.four_hop();
    let e = AcyclicEnumerator::new(&spec.query, w.db(), spec.sum_ranking()).unwrap();
    let bound = w.db().size() * spec.query.atoms().len();
    assert!(
        e.cell_count() <= bound,
        "preprocessing created {} cells for |D| × atoms = {bound}",
        e.cell_count()
    );
}

#[test]
fn preprocessing_hashes_each_join_key_once() {
    // The 5 000-edge DBLP 2-hop has one tree edge with 5 000 live rows on
    // either side: the reducer's bottom-up pass inserts the child's and
    // probes the parent's, and nothing after it hashes a row again (three
    // passes used to, 30 000 in all).
    use rankedenum::join::Reduction;
    use rankedenum::obs::{trace, AttrValue, TraceCtx};
    let w = DblpWorkload::generate(5_000, 42, WeightScheme::Random);
    let spec = w.two_hop();
    let tree = JoinTree::build(&spec.query).unwrap();
    let reduction = Reduction::of_query(&ExecContext::serial(), &spec.query, tree, w.db()).unwrap();
    assert_eq!(reduction.stats.hashed_rows, 10_000);
    assert_eq!(reduction.stats.passes, 2);

    // The count an operator sees: on the `preprocess.reduce` span of a
    // traced build, whose `preprocess.cells` span has the same parent.
    let tctx = TraceCtx::new("open");
    {
        let _installed = trace::install(&tctx, 0);
        AcyclicEnumerator::new(&spec.query, w.db(), spec.sum_ranking()).unwrap();
    }
    let traced = tctx.finish();
    let reduce = traced.spans_named("preprocess.reduce").next().unwrap();
    let hashed = reduce.attrs.iter().find(|(k, _)| k == "hashed_rows");
    assert!(matches!(hashed, Some((_, AttrValue::U64(10_000)))));
    assert_eq!(traced.spans_named("preprocess.cells").count(), 1);

    // And the cell build cannot add to it: it has no key table to use.
    let cell_build = include_str!("../crates/core/src/acyclic.rs");
    for banned in ["KeyTable", "group_rows", "project_key"] {
        assert!(!cell_build.contains(banned), "acyclic.rs mentions {banned}");
    }
}

#[test]
fn integer_valued_sums_intern_no_key() {
    // `ORDER BY a1 + a2` over raw values — what the SQL layer sends — has
    // keys of one `f64`, and such a key is its heap entry's prefix: the
    // 5 000-edge DBLP 2-hop and 3-hop store none at the build (the count
    // an operator sees is the `keys` attribute of `preprocess.cells`) and
    // none while a thousand answers push their successors.
    use rankedenum::obs::{trace, AttrValue, TraceCtx};
    let w = DblpWorkload::generate(5_000, 42, WeightScheme::Random);
    for spec in [w.two_hop(), w.three_hop()] {
        let tctx = TraceCtx::new("open");
        let mut e = {
            let _installed = trace::install(&tctx, 0);
            AcyclicEnumerator::new(&spec.query, w.db(), SumRanking::value_sum()).unwrap()
        };
        let traced = tctx.finish();
        let cells = traced.spans_named("preprocess.cells").next().unwrap();
        let keys = cells.attrs.iter().find(|(k, _)| k == "keys");
        assert!(
            matches!(keys, Some((_, AttrValue::U64(0)))),
            "{}: {keys:?}",
            spec.name
        );
        assert_eq!(e.interned_keys(), 0, "{} at build", spec.name);
        assert_eq!(e.by_ref().take(1_000).count(), 1_000);
        assert_eq!(e.interned_keys(), 0, "{} after 1 000", spec.name);
        // The same statement under the workload's fractional weights
        // expands some of its sums, and those are still stored.
        let fractional = AcyclicEnumerator::new(&spec.query, w.db(), spec.sum_ranking()).unwrap();
        assert!(fractional.interned_keys() > 0, "{}", spec.name);
    }
}

#[test]
fn any_join_tree_root_gives_identical_results() {
    let w = DblpWorkload::generate(300, 23, WeightScheme::Random);
    let spec = w.four_hop();
    let ranking = spec.sum_ranking();
    let reference: Vec<Tuple> = AcyclicEnumerator::new(&spec.query, w.db(), ranking.clone())
        .unwrap()
        .collect();
    for root in 0..spec.query.atoms().len() {
        let tree = JoinTree::build_rooted(&spec.query, root).unwrap();
        let got: Vec<Tuple> =
            AcyclicEnumerator::with_tree(&spec.query, w.db(), ranking.clone(), tree)
                .unwrap()
                .collect();
        assert_eq!(got, reference, "root {root} changed the output");
    }
}
