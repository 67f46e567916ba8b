//! The bag race of a cyclic OPEN, and the walk order it relies on.
//!
//! `CyclicEnumerator::new_auto` builds the cost-based decomposition in
//! lockstep with the single bag and keeps whichever walks all of its bags
//! first. On the DBLP-like instance of 350 edges the single bag wins the
//! membership 4- and 6-cycle and the decomposition wins the bowtie. Each
//! case checks the winner, the oracle answer sequence, the race's bound on
//! wasted work, and that the report is the same at 1, 2 and 4 threads.
//!
//! The single bag serves only when it wins, so its walk must not depend on
//! how the query was spelled: the membership 4-cycle opened under all 24
//! orders of its atoms gives the oracle sequence every time, and its
//! single-bag walk stays within 2× of the declaration-order walk.
//!
//! A plan races once: the first OPEN of one `BranchPlan` records the
//! winner, and every later OPEN of it builds the winner alone, with no
//! selection phase, walking exactly the winner's own intersections and
//! emitting the oracle sequence. An OPEN that is cancelled records nothing.

mod common;

use common::{ctx_at, reference_answers};
use rankedenum::core::CancelToken;
use rankedenum::prelude::*;
use rankedenum::workloads::membership::WeightScheme;
use rankedenum::workloads::DblpWorkload;

fn dblp350() -> DblpWorkload {
    DblpWorkload::generate(350, 21, WeightScheme::Random)
}

/// Open `query` through the race serially and on pools of two and four
/// workers. Every build must emit the oracle sequence and produce the same
/// report; the report's winner must be `winner`, and the loser's waste at
/// most the winner's intersections plus the loser's last step. Returns
/// the report.
fn assert_race(query: &JoinProjectQuery, db: &Database, winner: &str) -> GhdReport {
    let ranking = SumRanking::value_sum();
    let want = reference_answers(query, db, &ranking);
    let mut reports = Vec::new();
    for ctx in [ExecContext::serial(), ctx_at(2), ctx_at(4)] {
        let threads = ctx.threads();
        let e = CyclicEnumerator::new_auto_ctx(query, db, ranking.clone(), &ctx).unwrap();
        let report = e.plan_report().clone();
        let got: Vec<Tuple> = e.collect();
        assert_eq!(got, want, "{winner}: answers diverged at {threads} threads");
        reports.push(report);
    }
    for other in &reports[1..] {
        assert_eq!(other, &reports[0], "the race is decided by counts alone");
    }
    let report = reports.swap_remove(0);
    assert_eq!(report.shape, winner, "{report:?}");
    assert_eq!(report.fallback, None, "a race winner is not a fallback");
    let loser = report.race_loser.as_ref().expect("a decomposition raced");
    assert_ne!(loser.shape, report.shape);
    assert!(loser.wasted_intersections > 0, "both contenders walked");
    assert!(
        loser.wasted_intersections <= report.intersections() + loser.last_step_intersections,
        "wasted {} against the winner's {} plus one step of {}",
        loser.wasted_intersections,
        report.intersections(),
        loser.last_step_intersections
    );
    // The winner walked exactly what it walks alone.
    let plan = if winner == "single-bag" {
        GhdPlan::single_bag(query)
    } else {
        GhdPlan::cost_based(query, db).unwrap().plan
    };
    let alone = CyclicEnumerator::new(query, db, ranking, &plan).unwrap();
    assert_eq!(alone.plan_report().intersections(), report.intersections());
    report
}

#[test]
fn the_single_bag_wins_the_membership_four_and_six_cycle() {
    let dblp = dblp350();
    for k in [2usize, 3] {
        let (spec, _) = dblp.cycle(k);
        let report = assert_race(&spec.query, dblp.db(), "single-bag");
        let loser = report.race_loser.as_ref().unwrap();
        assert!(loser.shape.starts_with("cycle-split"), "{}", loser.shape);
        assert_eq!((report.bags, loser.bags), (1, 2));
        assert_eq!(
            report.estimated_rows, None,
            "the single bag has no estimate"
        );
        assert!(report.candidates > 1, "selection still compared plans");
    }
}

#[test]
fn the_decomposition_wins_the_bowtie() {
    let dblp = dblp350();
    let (spec, _) = dblp.bowtie();
    let report = assert_race(&spec.query, dblp.db(), "cycle-split(0,4)");
    assert_eq!(report.race_loser.as_ref().unwrap().shape, "single-bag");
    assert!(report.estimated_rows.is_some());
    // The single bag alone walks many times what the race let it waste.
    let single = GhdPlan::single_bag(&spec.query);
    let alone = CyclicEnumerator::new(&spec.query, dblp.db(), SumRanking::value_sum(), &single)
        .unwrap()
        .plan_report()
        .intersections();
    assert!(alone > 4 * report.intersections(), "{alone}");
}

/// All orders of `items`, by Heap's algorithm.
fn permutations<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
    fn heap<T: Clone>(k: usize, items: &mut Vec<T>, out: &mut Vec<Vec<T>>) {
        if k <= 1 {
            out.push(items.clone());
            return;
        }
        for i in 0..k {
            heap(k - 1, items, out);
            let j = if k.is_multiple_of(2) { i } else { 0 };
            items.swap(j, k - 1);
        }
    }
    let mut out = Vec::new();
    heap(items.len(), &mut items.to_vec(), &mut out);
    out
}

#[test]
fn every_atom_order_of_the_four_cycle_serves_the_oracle_and_walks_alike() {
    let dblp = dblp350();
    let (spec, _) = dblp.cycle(2);
    let ranking = SumRanking::value_sum();
    let want = reference_answers(&spec.query, dblp.db(), &ranking);
    let single_walk = |q: &JoinProjectQuery| {
        let plan = GhdPlan::single_bag(q);
        CyclicEnumerator::new(q, dblp.db(), ranking.clone(), &plan)
            .unwrap()
            .plan_report()
            .intersections()
    };
    let declared = single_walk(&spec.query);
    let orders = permutations(spec.query.atoms());
    assert_eq!(orders.len(), 24);
    for atoms in orders {
        let names: Vec<&str> = atoms.iter().map(|a| a.name.as_str()).collect();
        let q = JoinProjectQuery::new(atoms.clone(), spec.query.projection().to_vec()).unwrap();
        let got: Vec<Tuple> = CyclicEnumerator::new_auto(&q, dblp.db(), ranking.clone())
            .unwrap()
            .collect();
        assert_eq!(got, want, "atom order {names:?}");
        let walk = single_walk(&q);
        assert!(
            walk <= 2 * declared && declared <= 2 * walk,
            "atom order {names:?}: single-bag walk {walk} against {declared} declared"
        );
    }
}

/// The plan `winner` names, built on its own.
fn winner_plan(query: &JoinProjectQuery, db: &Database, winner: &str) -> GhdPlan {
    if winner == "single-bag" {
        GhdPlan::single_bag(query)
    } else {
        GhdPlan::cost_based(query, db).unwrap().plan
    }
}

/// Open `plan` once under `ctx`: its report, its counters, whether
/// selection ran (the `preprocess.ghd_select` phase), and its answers.
fn open_once(
    plan: &BranchPlan,
    query: &JoinProjectQuery,
    db: &Database,
    ctx: &ExecContext,
) -> (GhdReport, StatsSnapshot, bool, Vec<Tuple>) {
    let (stream, phases) = rankedenum::obs::capture_phases(|| {
        plan.open(query, db, SumRanking::value_sum(), ctx).unwrap()
    });
    let selected = phases
        .iter()
        .any(|(name, _)| name == "preprocess.ghd_select");
    let report = stream.ghd_report().expect("a cyclic plan reports its GHD");
    let stats = stream.stats_snapshot();
    (report, stats, selected, stream.collect())
}

/// The recorded verdict of a cyclic `plan`, if an OPEN recorded one.
fn recorded(plan: &BranchPlan) -> Option<&GhdReport> {
    match plan {
        BranchPlan::Cyclic(verdict) => verdict.recorded(),
        other => panic!("not a cyclic plan: {:?}", other.algorithm()),
    }
}

/// Plan `query` once and open that one plan three times, serially and on
/// pools of two and four workers. The first OPEN races and `winner` wins;
/// the second and third serve the recorded verdict: no selection, no race,
/// exactly the intersections of `winner` built alone, the same report but
/// for its `recorded` flag, and the oracle sequence every time.
fn assert_verdict(query: &JoinProjectQuery, db: &Database, winner: &str) {
    let ranking = SumRanking::value_sum();
    let want = reference_answers(query, db, &ranking);
    let alone = CyclicEnumerator::new(query, db, ranking, &winner_plan(query, db, winner))
        .unwrap()
        .plan_report()
        .intersections();
    for ctx in [ExecContext::serial(), ctx_at(2), ctx_at(4)] {
        let threads = ctx.threads();
        let plan = BranchPlan::of(query, false).unwrap();
        assert_eq!(recorded(&plan), None, "a new plan has decided nothing");

        let (raced, stats, selected, got) = open_once(&plan, query, db, &ctx);
        assert_eq!(got, want, "{winner}, open 1, {threads} threads");
        assert_eq!(raced.shape, winner, "{raced:?}");
        assert!(!raced.recorded, "the first OPEN decides");
        assert!(selected, "the first OPEN runs selection");
        let loser = raced.race_loser.clone().expect("the first OPEN races");
        assert_eq!((stats.ghd_races, stats.ghd_verdict_hits), (1, 0));
        let verdict = recorded(&plan).expect("a successful OPEN records its winner");
        assert_eq!(verdict.shape, winner);
        assert_eq!(verdict.race_loser.as_ref(), Some(&loser));

        for open in [2, 3] {
            let (report, stats, selected, got) = open_once(&plan, query, db, &ctx);
            let what = format!("{winner}, open {open}, {threads} threads");
            assert_eq!(got, want, "{what}");
            assert!(!selected, "{what}: a recorded verdict skips selection");
            assert_eq!(
                report,
                GhdReport {
                    recorded: true,
                    ..raced.clone()
                },
                "{what}: the recorded plan builds as it did in the race"
            );
            assert_eq!(
                report.intersections(),
                alone,
                "{what}: the winner's walk alone"
            );
            assert_eq!((stats.ghd_races, stats.ghd_verdict_hits), (0, 1), "{what}");
        }
    }
}

#[test]
fn later_opens_of_a_plan_build_the_recorded_winner_alone() {
    let dblp = dblp350();
    for k in [2usize, 3] {
        assert_verdict(&dblp.cycle(k).0.query, dblp.db(), "single-bag");
    }
    assert_verdict(&dblp.bowtie().0.query, dblp.db(), "cycle-split(0,4)");
}

#[test]
fn the_annotated_shape_tells_a_race_from_a_recorded_verdict() {
    let dblp = dblp350();
    let (spec, _) = dblp.cycle(3);
    let plan = BranchPlan::of(&spec.query, false).unwrap();
    let ctx = ExecContext::serial();
    let shape = || {
        plan.open(&spec.query, dblp.db(), SumRanking::value_sum(), &ctx)
            .unwrap()
            .plan_shape()
            .unwrap()
    };
    let first = shape();
    let loser = first
        .strip_prefix("single-bag [raced ")
        .and_then(|rest| rest.strip_suffix(']'))
        .unwrap_or_else(|| panic!("{first}"));
    assert_eq!(shape(), format!("single-bag [recorded over {loser}]"));
}

#[test]
fn a_cancelled_first_open_records_nothing_and_the_next_open_races() {
    let dblp = dblp350();
    let (spec, _) = dblp.cycle(2);
    let plan = BranchPlan::of(&spec.query, false).unwrap();
    let token = CancelToken::unbounded();
    token.cancel();
    let cancelled = ExecContext::serial().with_cancel_token(token);
    let err = plan
        .open(&spec.query, dblp.db(), SumRanking::value_sum(), &cancelled)
        .err()
        .expect("a tripped token fails the OPEN");
    assert!(matches!(err, EnumError::Cancelled(_)), "{err:?}");
    assert_eq!(recorded(&plan), None, "a cancelled OPEN records nothing");

    let (report, stats, selected, _) =
        open_once(&plan, &spec.query, dblp.db(), &ExecContext::serial());
    assert!(selected && !report.recorded, "the next OPEN decides");
    assert_eq!((stats.ghd_races, stats.ghd_verdict_hits), (1, 0));
    assert!(recorded(&plan).is_some());
}
