//! Cross-checks between every enumeration strategy and the reference
//! (materialise + dedup + sort) evaluation, on the paper's workloads.

mod common;

use common::{assert_valid_ranked_output, reference_answers, reference_union_answers};
use rankedenum::prelude::*;
use rankedenum::workloads::membership::WeightScheme;
use rankedenum::workloads::{DblpWorkload, ImdbWorkload, LdbcWorkload};

#[test]
fn acyclic_enumerator_matches_reference_on_dblp_queries() {
    let w = DblpWorkload::generate(800, 11, WeightScheme::Random);
    for spec in [w.two_hop(), w.three_hop(), w.four_hop(), w.three_star()] {
        let ranking = spec.sum_ranking();
        let reference = reference_answers(&spec.query, w.db(), &ranking);
        let answers: Vec<Tuple> = AcyclicEnumerator::new(&spec.query, w.db(), ranking.clone())
            .unwrap()
            .collect();
        assert_valid_ranked_output(&answers, &reference, &spec.query, &ranking);
        assert_eq!(answers, reference, "{}: exact order expected", spec.name);
    }
}

#[test]
fn acyclic_enumerator_matches_reference_on_imdb_queries_with_log_weights() {
    let w = ImdbWorkload::generate(700, 5, WeightScheme::LogDegree);
    for spec in [w.two_hop(), w.three_hop(), w.three_star()] {
        let ranking = spec.sum_ranking();
        let reference = reference_answers(&spec.query, w.db(), &ranking);
        let answers: Vec<Tuple> = AcyclicEnumerator::new(&spec.query, w.db(), ranking.clone())
            .unwrap()
            .collect();
        assert_valid_ranked_output(&answers, &reference, &spec.query, &ranking);
    }
}

#[test]
fn lexicographic_enumerator_matches_general_algorithm() {
    let w = DblpWorkload::generate(600, 21, WeightScheme::Random);
    for spec in [w.two_hop(), w.three_hop()] {
        let lex = spec.lex_ranking();
        let via_lexi: Vec<Tuple> = LexiEnumerator::new(&spec.query, w.db(), &lex)
            .unwrap()
            .collect();
        let via_general: Vec<Tuple> = AcyclicEnumerator::new(&spec.query, w.db(), lex.clone())
            .unwrap()
            .collect();
        assert_eq!(via_lexi, via_general, "{}", spec.name);
    }
}

#[test]
fn star_enumerator_matches_acyclic_for_every_threshold() {
    let w = DblpWorkload::generate(500, 31, WeightScheme::Random);
    let spec = w.three_star();
    let ranking = spec.sum_ranking();
    let reference: Vec<Tuple> = AcyclicEnumerator::new(&spec.query, w.db(), ranking.clone())
        .unwrap()
        .collect();
    for threshold in [1usize, 4, 32, 100_000] {
        let answers: Vec<Tuple> =
            StarEnumerator::new(&spec.query, w.db(), ranking.clone(), threshold)
                .unwrap()
                .collect();
        assert_valid_ranked_output(&answers, &reference, &spec.query, &ranking);
    }
}

#[test]
fn baselines_agree_with_the_enumerator() {
    let w = DblpWorkload::generate(400, 41, WeightScheme::Random);
    let spec = w.two_hop();
    let ranking = spec.sum_ranking();
    let ours: Vec<Tuple> = AcyclicEnumerator::new(&spec.query, w.db(), ranking.clone())
        .unwrap()
        .collect();

    let (mat, report) = MaterializeSortEngine::new()
        .top_k(&spec.query, w.db(), &ranking, usize::MAX)
        .unwrap();
    assert_eq!(mat, ours);
    assert_eq!(report.distinct_size, ours.len());
    assert!(report.full_join_size >= report.distinct_size);

    let (bfs, distinct) = BfsSortEngine::new()
        .top_k(&spec.query, w.db(), &ranking, usize::MAX)
        .unwrap();
    assert_eq!(bfs, ours);
    assert_eq!(distinct, ours.len());

    let anyk: Vec<Tuple> = FullAnyKEngine::new(&spec.query, w.db(), ranking.clone())
        .unwrap()
        .collect();
    assert_valid_ranked_output(&anyk, &ours, &spec.query, &ranking);
}

#[test]
fn cyclic_queries_match_reference() {
    let w = DblpWorkload::generate(220, 51, WeightScheme::Random);
    let (spec, plan) = w.cycle(2);
    let ranking = spec.sum_ranking();
    let reference = reference_answers(&spec.query, w.db(), &ranking);
    let answers: Vec<Tuple> = CyclicEnumerator::new(&spec.query, w.db(), ranking.clone(), &plan)
        .unwrap()
        .collect();
    assert_valid_ranked_output(&answers, &reference, &spec.query, &ranking);

    let (bowtie, bowtie_plan) = w.bowtie();
    let ranking = bowtie.sum_ranking();
    let reference = reference_answers(&bowtie.query, w.db(), &ranking);
    let answers: Vec<Tuple> =
        CyclicEnumerator::new(&bowtie.query, w.db(), ranking.clone(), &bowtie_plan)
            .unwrap()
            .collect();
    assert_valid_ranked_output(&answers, &reference, &bowtie.query, &ranking);
}

#[test]
fn union_queries_match_reference_union() {
    let w = LdbcWorkload::generate(1, 61);
    for spec in [w.q3(), w.q10(), w.q11()] {
        let ranking = spec.sum_ranking();
        let reference = reference_union_answers(&spec.query, w.db(), &ranking);
        let plan = ranking.plan(spec.query.projection());

        let answers: Vec<Tuple> = UnionEnumerator::new(&spec.query, w.db(), ranking.clone())
            .unwrap()
            .collect();
        assert_eq!(answers.len(), reference.len(), "{}", spec.name);
        let got: std::collections::HashSet<_> = answers.iter().cloned().collect();
        let want: std::collections::HashSet<_> = reference.iter().cloned().collect();
        assert_eq!(got, want, "{}", spec.name);
        let keys: Vec<_> = answers.iter().map(|t| ranking.key(&plan, t)).collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "{}", spec.name);
    }
}

#[test]
fn top_k_is_a_prefix_of_the_full_enumeration() {
    let w = ImdbWorkload::generate(500, 71, WeightScheme::Random);
    let spec = w.two_hop();
    let ranking = spec.sum_ranking();
    let all: Vec<Tuple> = AcyclicEnumerator::new(&spec.query, w.db(), ranking.clone())
        .unwrap()
        .collect();
    for k in [1usize, 10, 100] {
        let prefix = top_k(&spec.query, w.db(), ranking.clone(), k).unwrap();
        assert_eq!(prefix.len(), k.min(all.len()));
        assert_eq!(&all[..prefix.len()], &prefix[..]);
    }
}
