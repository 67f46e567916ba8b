//! Ranked enumeration for cyclic queries via GHDs (Theorem 3).
//!
//! A cyclic join-project query is evaluated by materialising each bag of a
//! [`GhdPlan`] (a sub-join of width ≤ fhw) onto its interface — the bag
//! attributes the query projects or another bag shares
//! ([`re_join::bag_interface`]) — after which the residual query over the
//! bag relations is acyclic and is handed to the [`AcyclicEnumerator`].
//! The preprocessing cost grows to `O(|D|^{fhw} log |D|)` — the price the
//! paper shows is unavoidable under standard hardness conjectures
//! (Appendix F).

use crate::acyclic::AcyclicEnumerator;
use crate::error::EnumError;
use crate::plan::Algorithm;
use crate::shared::{ChainCursor, SharedFrontier};
use crate::stats::EnumStats;
use re_exec::ExecContext;
use re_join::{materialize_bags_reported, race_bags, BagBuildInfo, BagKernel, Reduction};
use re_query::{Atom, GhdPlan, JoinProjectQuery, JoinTree, QueryError};
use re_ranking::Ranking;
use re_storage::{Attr, Database, Relation, Tuple};
use std::sync::OnceLock;

/// How the GHD plan behind a [`CyclicEnumerator`] was chosen — surfaced all
/// the way to the server `stats` endpoint so a silent degradation to full
/// materialisation is visible, not swallowed.
#[derive(Clone, Debug, PartialEq)]
pub struct GhdReport {
    /// The plan shape (`"cycle-figure2"`, `"cycle-split(s,t)"`,
    /// `"single-bag"`, `"explicit"`): the race's winner when one ran.
    pub shape: String,
    /// Number of bags in the plan.
    pub bags: usize,
    /// Rounded AGM estimate from cost-based selection, when it ran.
    pub estimated_rows: Option<u64>,
    /// Why selection fell back to single-bag full materialisation, when
    /// it did.
    pub fallback: Option<String>,
    /// Candidate plans compared by cost-based selection (0 when the plan
    /// was supplied explicitly).
    pub candidates: usize,
    /// Per-bag build facts, in plan bag order.
    pub bag_details: Vec<BagDetail>,
    /// The contender the build raced and abandoned, when the selected
    /// decomposition raced the single bag. A recorded plan keeps the loser
    /// of the race that decided it.
    pub race_loser: Option<RaceLoser>,
    /// Whether the plan came from a [`CyclicVerdict`] an earlier OPEN of
    /// the same plan recorded: then neither selection nor the race ran
    /// for this build, and `shape`, `estimated_rows`, `fallback`,
    /// `candidates` and `race_loser` are the deciding OPEN's.
    pub recorded: bool,
}

impl GhdReport {
    /// The plan shape, annotated with the fallback reason when selection
    /// had to degrade to full materialisation, or with the plan it beat
    /// when a race ran, and with whether this build decided that or read
    /// it from a recorded verdict: `single-bag [raced cycle-split(0,3)]`
    /// against `single-bag [recorded over cycle-split(0,3)]`.
    pub(crate) fn annotated_shape(&self) -> String {
        let recorded = if self.recorded { "recorded " } else { "" };
        match (&self.fallback, &self.race_loser) {
            (Some(reason), _) => format!("{} [{recorded}fallback: {reason}]", self.shape),
            (None, Some(loser)) if self.recorded => {
                format!("{} [recorded over {}]", self.shape, loser.shape)
            }
            (None, Some(loser)) => format!("{} [raced {}]", self.shape, loser.shape),
            (None, None) if self.recorded => format!("{} [recorded]", self.shape),
            (None, None) => self.shape.clone(),
        }
    }

    /// Intersections the winning plan's bag walks took.
    pub fn intersections(&self) -> u64 {
        self.bag_details.iter().map(|d| d.intersections).sum()
    }
}

/// The losing side of a bag race: what [`CyclicEnumerator::new_auto_ctx`]
/// walked and dropped.
#[derive(Clone, Debug, PartialEq)]
pub struct RaceLoser {
    /// The abandoned plan's shape.
    pub shape: String,
    /// Its bag count.
    pub bags: usize,
    /// Intersections it walked before it was abandoned: the race's waste.
    pub wasted_intersections: u64,
    /// Intersections of its last step. It took that step while it had
    /// spent no more than the winner, so the waste is at most the
    /// winner's intersections plus this.
    pub last_step_intersections: u64,
}

/// Per-bag materialisation facts: what EXPLAIN ANALYZE prints as the
/// estimate-vs-actual line for each bag of the GHD.
#[derive(Clone, Debug, PartialEq)]
pub struct BagDetail {
    /// Bag (and bag relation) name.
    pub name: String,
    /// Atoms joined inside the bag.
    pub atoms: u64,
    /// Attribute order the bag kernel bound, as strings.
    pub attr_order: Vec<String>,
    /// The columns the bag keeps (its interface: projected or shared with
    /// another bag), as strings, in walk order.
    pub interface: Vec<String>,
    /// Rows the walk produced before de-duplicating them on the interface
    /// (at most the full-width bag's rows).
    pub walked_rows: u64,
    /// Rounded per-bag AGM estimate, when cost-based selection produced
    /// one.
    pub estimated_rows: Option<u64>,
    /// Rows actually materialised: distinct over the interface.
    pub actual_rows: u64,
    /// Trie intersections the generic-join walker performed.
    pub intersections: u64,
}

/// Ranked enumerator for (possibly) cyclic queries, driven by a GHD plan.
///
/// Each bag is materialised sorted and distinct over its interface, not
/// its full schema: an attribute that leaves no bag is existential, so the
/// residual atoms take the narrowed schemas, and Algorithm 1 never ranks
/// rows that differ only in a value no answer shows. On a 1 200-edge
/// membership 6-cycle that takes the queue operations of the costliest of
/// the first 200 answers from 8 100 to 90.
/// [`CyclicEnumerator::bag_sizes`] and the [`BagDetail`]s count narrowed
/// rows; `walked_rows` counts the rows the kernel walked.
pub struct CyclicEnumerator<R: Ranking + Clone> {
    inner: AcyclicEnumerator<R>,
    bag_sizes: Vec<usize>,
    report: GhdReport,
}

impl GhdReport {
    /// The report of `plan` before its bags are built.
    fn of_plan(plan: &GhdPlan, fallback: Option<String>, candidates: usize) -> Self {
        GhdReport {
            shape: plan.shape().to_string(),
            bags: plan.len(),
            estimated_rows: plan.estimated_rows().map(|e| e.round() as u64),
            fallback,
            candidates,
            bag_details: Vec::with_capacity(plan.len()),
            race_loser: None,
            recorded: false,
        }
    }
}

/// The decision a cyclic plan's first successful OPEN made — the GHD that
/// served it, chosen by selection and, for a decomposition of two or more
/// bags, by the race against the single bag — written once and read by
/// every later OPEN of the same plan (`BranchPlan::Cyclic` holds one).
///
/// The verdict depends on the query and the database only: the race is
/// decided by intersection counts, which are the same at any thread count.
/// So a plan that is opened on the database it was planned for, such as
/// one in the server's plan cache (keyed by the catalog generation),
/// decides once and serves every later OPEN from the recorded plan alone.
/// Any valid decomposition yields the same answers, so a verdict can cost
/// speed on other data, never change an answer. An OPEN that fails, is
/// cancelled or panics records nothing; two first OPENs that run at once
/// both decide, and the second record is dropped.
#[derive(Clone, Debug, Default)]
pub struct CyclicVerdict {
    slot: OnceLock<Box<Verdict>>,
}

/// The recorded plan, and the report every build from it starts from.
#[derive(Clone, Debug)]
struct Verdict {
    plan: GhdPlan,
    /// The deciding build's report without its bag details.
    report: GhdReport,
}

impl CyclicVerdict {
    /// The report of the build that decided, without its bag details, once
    /// an OPEN has recorded a verdict.
    pub fn recorded(&self) -> Option<&GhdReport> {
        self.slot.get().map(|v| &v.report)
    }
}

impl<R: Ranking + Clone> CyclicEnumerator<R> {
    /// Build the enumerator from an explicit GHD plan.
    pub fn new(
        query: &JoinProjectQuery,
        db: &Database,
        ranking: R,
        plan: &GhdPlan,
    ) -> Result<Self, EnumError> {
        Self::new_ctx(query, db, ranking, plan, &ExecContext::serial())
    }

    /// Build the enumerator from an explicit GHD plan under an execution
    /// context. On a pooled context the bags are prepared (bound, swept,
    /// compiled) as parallel pool tasks (they are independent sub-joins)
    /// and each bag's walk fans out over morsels of the same pool. The bags
    /// then go straight to the residual reducer and Algorithm 1 — no copy,
    /// no database in between — which cost about as much again as
    /// materialising them.
    ///
    /// Determinism contract: the bag relations, `bag_sizes()` and the full
    /// enumeration order are identical to the serial build at any thread
    /// count.
    pub fn new_ctx(
        query: &JoinProjectQuery,
        db: &Database,
        ranking: R,
        plan: &GhdPlan,
        ctx: &ExecContext,
    ) -> Result<Self, EnumError> {
        let report = GhdReport::of_plan(plan, None, 0);
        Self::build_alone(query, db, ranking, plan, report, ctx)
    }

    /// Build `plan`, and no other, reporting it as `report`.
    fn build_alone(
        query: &JoinProjectQuery,
        db: &Database,
        ranking: R,
        plan: &GhdPlan,
        report: GhdReport,
        ctx: &ExecContext,
    ) -> Result<Self, EnumError> {
        query.validate_against(db)?;
        let built = materialize_bags_reported(query, db, plan.bags(), ctx, BagKernel::default())?;
        Self::build(query, ranking, plan, built, report, ctx)
    }

    /// The shared build path: the bags of `plan`, built, go to the
    /// residual reducer and Algorithm 1. `report` lacks the bag details,
    /// which come from `built`.
    fn build(
        query: &JoinProjectQuery,
        ranking: R,
        plan: &GhdPlan,
        built: Vec<(Relation, BagBuildInfo)>,
        mut report: GhdReport,
        ctx: &ExecContext,
    ) -> Result<Self, EnumError> {
        let mut atoms = Vec::with_capacity(plan.len());
        let mut bag_rels = Vec::with_capacity(plan.len());
        let mut bag_sizes = Vec::with_capacity(plan.len());
        for (i, (bag, (rel, info))) in plan.bags().iter().zip(built).enumerate() {
            bag_sizes.push(rel.len());
            report.bag_details.push(BagDetail {
                name: info.name,
                atoms: info.atoms,
                attr_order: info.attr_order.iter().map(|a| a.to_string()).collect(),
                interface: info.interface.iter().map(|a| a.to_string()).collect(),
                walked_rows: info.walked_rows,
                estimated_rows: plan
                    .bag_estimates()
                    .and_then(|ests| ests.get(i))
                    .map(|e| e.round() as u64),
                actual_rows: info.rows,
                intersections: info.intersections,
            });
            atoms.push(Atom::new(
                bag.name.clone(),
                bag.name.clone(),
                rel.attrs().to_vec(),
            ));
            bag_rels.push(Some(rel));
        }
        let residual = JoinProjectQuery::new(atoms, query.projection().to_vec())?;
        let tree = match JoinTree::build(&residual) {
            Ok(t) => t,
            Err(QueryError::NotAcyclic) => return Err(EnumError::ResidualCyclic),
            Err(e) => return Err(EnumError::Query(e)),
        };
        // The bag relations are already named and keyed like the residual
        // atoms, so they go to the reducer as they are, in node order.
        let relations = tree
            .nodes()
            .iter()
            .map(|n| bag_rels[n.atom_index].take().expect("one node per bag"))
            .collect();
        let reduction = Reduction::of_relations(ctx, tree, relations)?;
        let mut inner =
            AcyclicEnumerator::from_reduction(query.projection().to_vec(), ranking, reduction)?;
        let stats = inner.stats_mut();
        stats.ghd_bags = report.bags as u64;
        stats.ghd_estimated_rows = report.estimated_rows.unwrap_or(0);
        // Selection and the race are counted where they ran; a build from
        // a recorded verdict counts as a hit instead.
        let decided = !report.recorded;
        stats.ghd_fallbacks = u64::from(decided && report.fallback.is_some());
        stats.ghd_races = u64::from(decided && report.race_loser.is_some());
        stats.ghd_verdict_hits = u64::from(report.recorded);
        Ok(CyclicEnumerator {
            inner,
            bag_sizes,
            report,
        })
    }

    /// Build the enumerator choosing a plan automatically.
    ///
    /// Cost-based GHD selection ([`GhdPlan::cost_based`]) picks the
    /// candidate decomposition with the smallest AGM bag-size estimate;
    /// only when no decomposition applies does the single-bag fallback
    /// run, and then the reason is recorded in
    /// [`CyclicEnumerator::plan_report`] instead of being swallowed.
    ///
    /// A selected decomposition of two or more bags then races the single
    /// bag ([`race_bags`]): both are walked in lockstep, the one that has
    /// spent fewer intersections taking the next step, and whichever walks
    /// all of its bags first is kept. Onto the projection the single bag
    /// leaves a one-relation residual and often builds several times
    /// faster, but it has no bound below the full query's; the race keeps
    /// the decomposition's Theorem 3 bound within a factor of two plus one
    /// step. The report names the winner and the loser's wasted work
    /// ([`GhdReport::race_loser`]).
    pub fn new_auto(
        query: &JoinProjectQuery,
        db: &Database,
        ranking: R,
    ) -> Result<Self, EnumError> {
        Self::new_auto_ctx(query, db, ranking, &ExecContext::serial())
    }

    /// [`CyclicEnumerator::new_auto`] under an execution context. The
    /// race's winner depends on per-step intersection counts only, which
    /// are the same at any thread count, so the plan, the report and the
    /// enumeration are too.
    pub fn new_auto_ctx(
        query: &JoinProjectQuery,
        db: &Database,
        ranking: R,
        ctx: &ExecContext,
    ) -> Result<Self, EnumError> {
        Self::decide(query, db, ranking, ctx).map(|(e, _)| e)
    }

    /// Build the enumerator through `verdict`: the recorded plan alone
    /// when an earlier OPEN recorded one (the [`CyclicEnumerator::new_ctx`]
    /// path, no selection and no race), otherwise selection and the race
    /// as [`CyclicEnumerator::new_auto_ctx`] runs them, recording the plan
    /// that served once the build has succeeded. The first build therefore
    /// walks at most twice the better plan's intersections plus one step,
    /// and every later one exactly the recorded plan's.
    pub(crate) fn with_verdict_ctx(
        query: &JoinProjectQuery,
        db: &Database,
        ranking: R,
        verdict: &CyclicVerdict,
        ctx: &ExecContext,
    ) -> Result<Self, EnumError> {
        if let Some(v) = verdict.slot.get() {
            let report = GhdReport {
                recorded: true,
                bag_details: Vec::with_capacity(v.plan.len()),
                ..v.report.clone()
            };
            return Self::build_alone(query, db, ranking, &v.plan, report, ctx);
        }
        let (e, plan) = Self::decide(query, db, ranking, ctx)?;
        let report = GhdReport {
            bag_details: Vec::new(),
            ..e.report.clone()
        };
        // A concurrent first OPEN may have recorded first; its verdict is
        // the same, so this one is dropped.
        let _ = verdict.slot.set(Box::new(Verdict { plan, report }));
        Ok(e)
    }

    /// Selection, then the race when selection picked two or more bags:
    /// the enumerator over the plan that served, and that plan.
    fn decide(
        query: &JoinProjectQuery,
        db: &Database,
        ranking: R,
        ctx: &ExecContext,
    ) -> Result<(Self, GhdPlan), EnumError> {
        // Selection reads relation sizes: reject a query `db` cannot
        // serve before the cost model trips over it.
        query.validate_against(db)?;
        let ghd_span = re_obs::Span::enter("preprocess.ghd_select");
        let sel = GhdPlan::cost_based(query, db)?;
        drop(ghd_span);
        let report = GhdReport::of_plan(
            &sel.plan,
            sel.fallback().map(str::to_string),
            sel.considered,
        );
        if sel.plan.len() < 2 {
            let built =
                materialize_bags_reported(query, db, sel.plan.bags(), ctx, BagKernel::default())?;
            let e = Self::build(query, ranking, &sel.plan, built, report, ctx)?;
            return Ok((e, sel.plan));
        }
        // The single bag goes first: ties go to it.
        let contenders = [GhdPlan::single_bag(query), sel.plan];
        let race = race_bags(
            query,
            db,
            &[contenders[0].bags(), contenders[1].bags()],
            ctx,
        )?;
        let [single, selected] = contenders;
        let (mut report, plan, loser) = if race.winner == 1 {
            (report, selected, single)
        } else {
            let report = GhdReport {
                candidates: report.candidates,
                ..GhdReport::of_plan(&single, None, 0)
            };
            (report, single, selected)
        };
        let lost = 1 - race.winner;
        report.race_loser = Some(RaceLoser {
            shape: loser.shape().to_string(),
            bags: loser.len(),
            wasted_intersections: race.intersections[lost],
            last_step_intersections: race.last_step[lost],
        });
        let e = Self::build(query, ranking, &plan, race.bags, report, ctx)?;
        Ok((e, plan))
    }

    /// Sizes of the materialised bag relations, narrowed to their
    /// interfaces (preprocessing cost proxy).
    pub fn bag_sizes(&self) -> &[usize] {
        &self.bag_sizes
    }

    /// How the GHD plan was chosen (shape, bag count, estimate, fallback
    /// reason when full materialisation had to run).
    pub fn plan_report(&self) -> &GhdReport {
        &self.report
    }

    /// The projection attributes, in output order.
    pub fn output_attrs(&self) -> &[Attr] {
        self.inner.output_attrs()
    }

    /// Statistics of the residual acyclic enumeration.
    pub fn stats(&self) -> &EnumStats {
        self.inner.stats()
    }
}

impl<R: Ranking + Clone + 'static> CyclicEnumerator<R> {
    /// Share this enumerator the way [`AcyclicEnumerator::into_shared`]
    /// does: the residual acyclic enumerator goes behind the lock, and
    /// every cursor reports this plan's shape and GHD report.
    pub(crate) fn into_shared(self) -> ChainCursor {
        SharedFrontier::share(self.inner, Algorithm::CyclicGhd, Some(self.report))
    }
}

impl<R: Ranking + Clone> Iterator for CyclicEnumerator<R> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        self.inner.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_query::QueryBuilder;
    use re_ranking::{Ranking, SumRanking};
    use re_storage::attr::attrs;
    use re_storage::Relation;

    fn edge_db(edges: &[(u64, u64)]) -> Database {
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples(
                "E",
                attrs(["src", "dst"]),
                edges.iter().map(|&(a, b)| vec![a, b]),
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    fn four_cycle_query() -> JoinProjectQuery {
        QueryBuilder::new()
            .atom("R1", "E", ["a1", "a2"])
            .atom("R2", "E", ["a2", "a3"])
            .atom("R3", "E", ["a3", "a4"])
            .atom("R4", "E", ["a4", "a1"])
            .project(["a1", "a3"])
            .build()
            .unwrap()
    }

    #[test]
    fn four_cycle_enumeration_in_rank_order() {
        // Two squares: 1-2-3-4 and 5-6-7-8, plus noise edges.
        let db = edge_db(&[
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 1),
            (5, 6),
            (6, 7),
            (7, 8),
            (8, 5),
            (1, 9),
            (9, 3),
        ]);
        let q = four_cycle_query();
        let plan = GhdPlan::for_cycle(&q).unwrap();
        let e = CyclicEnumerator::new(&q, &db, SumRanking::value_sum(), &plan).unwrap();
        let results: Vec<Tuple> = e.collect();
        // Expected distinct (a1, a3) pairs of 4-cycles: from square 1:
        // (1,3),(2,4),(3,1),(4,2); via the 1-9-3 chord with 3-4-1 we get a
        // 4-cycle 1-9-3-4? edges 1→9, 9→3, 3→4, 4→1: yes → (1,3) again and
        // (9,4)? that cycle's (a1,a3) rotations: a1=1,a3=3 and a1=9,a3=1 ...
        // Instead of enumerating by hand, just check ordering & distinctness.
        assert!(!results.is_empty());
        let ranking = SumRanking::value_sum();
        let mut last = None;
        let mut seen = std::collections::HashSet::new();
        for t in &results {
            assert!(seen.insert(t.clone()), "duplicate {t:?}");
            let k = ranking.key_of(&attrs(["a1", "a3"]), t);
            if let Some(prev) = last {
                assert!(k >= prev);
            }
            last = Some(k);
        }
        assert!(results.contains(&vec![1, 3]));
        assert!(results.contains(&vec![2, 4]));
    }

    #[test]
    fn cycle_plan_and_single_bag_agree() {
        let db = edge_db(&[(1, 2), (2, 3), (3, 4), (4, 1), (2, 5), (5, 4), (7, 7)]);
        let q = four_cycle_query();
        let via_cycle: Vec<Tuple> = CyclicEnumerator::new(
            &q,
            &db,
            SumRanking::value_sum(),
            &GhdPlan::for_cycle(&q).unwrap(),
        )
        .unwrap()
        .collect();
        let via_single: Vec<Tuple> =
            CyclicEnumerator::new(&q, &db, SumRanking::value_sum(), &GhdPlan::single_bag(&q))
                .unwrap()
                .collect();
        assert_eq!(via_cycle, via_single);
        // A self-loop vertex forms a 4-cycle with itself.
        assert!(via_cycle.contains(&vec![7, 7]));
    }

    #[test]
    fn triangle_via_single_bag() {
        let db = edge_db(&[(1, 2), (2, 3), (3, 1), (4, 5)]);
        let q = QueryBuilder::new()
            .atom("R1", "E", ["x", "y"])
            .atom("R2", "E", ["y", "z"])
            .atom("R3", "E", ["z", "x"])
            .project(["x", "z"])
            .build()
            .unwrap();
        let e = CyclicEnumerator::new_auto(&q, &db, SumRanking::value_sum()).unwrap();
        let results: Vec<Tuple> = e.collect();
        // (x,z) projections of the triangle's rotations, ranked by x+z.
        assert_eq!(results, vec![vec![2, 1], vec![1, 3], vec![3, 2]]);
    }

    #[test]
    fn bag_sizes_are_reported() {
        let db = edge_db(&[(1, 2), (2, 3), (3, 4), (4, 1)]);
        let q = four_cycle_query();
        let plan = GhdPlan::cost_based(&q, &db).unwrap().plan;
        let e = CyclicEnumerator::new(&q, &db, SumRanking::value_sum(), &plan).unwrap();
        assert_eq!(e.bag_sizes().len(), 2);
        assert!(e.bag_sizes().iter().all(|&s| s > 0));
    }

    #[test]
    fn empty_cyclic_result() {
        let db = edge_db(&[(1, 2), (3, 4)]);
        let q = four_cycle_query();
        let mut e = CyclicEnumerator::new_auto(&q, &db, SumRanking::value_sum()).unwrap();
        assert_eq!(e.next(), None);
    }

    #[test]
    fn auto_plans_are_reported_and_fallbacks_carry_a_reason() {
        let db = edge_db(&[(1, 2), (2, 3), (3, 4), (4, 1)]);
        let q = four_cycle_query();
        // Selection picks a two-bag split, which races the single bag. On
        // a square each walk fits in one step, and ties go to the single
        // bag: it finishes before the split takes a step.
        let selected = GhdPlan::cost_based(&q, &db).unwrap().plan;
        assert!(
            selected.shape().starts_with("cycle-"),
            "{}",
            selected.shape()
        );
        assert_eq!(selected.len(), 2);
        let e = CyclicEnumerator::new_auto(&q, &db, SumRanking::value_sum()).unwrap();
        let report = e.plan_report();
        assert_eq!(report.shape, "single-bag");
        assert_eq!(report.bags, 1);
        assert_eq!(report.estimated_rows, None);
        assert!(report.fallback.is_none(), "a race winner is no fallback");
        assert!(report.candidates > 1, "cost-based selection compared plans");
        assert_eq!(report.bag_details.len(), 1);
        let loser = report.race_loser.as_ref().expect("the split raced");
        assert_eq!(loser.shape, selected.shape());
        assert_eq!(loser.bags, 2);
        assert_eq!(loser.wasted_intersections, 0);
        assert!(report.intersections() > 0);
        assert_eq!(
            e.plan_report().annotated_shape(),
            format!("single-bag [raced {}]", selected.shape())
        );
        for (detail, &size) in report.bag_details.iter().zip(e.bag_sizes()) {
            assert_eq!(detail.actual_rows, size as u64);
            assert!(detail.atoms > 0);
            assert!(!detail.attr_order.is_empty());
        }
        assert_eq!(e.stats().ghd_bags, 1);
        assert_eq!(e.stats().ghd_fallbacks, 0);
        assert_eq!(e.stats().ghd_estimated_rows, 0);

        // The selected split, built on its own, reports its estimates.
        let e = CyclicEnumerator::new(&q, &db, SumRanking::value_sum(), &selected).unwrap();
        let report = e.plan_report();
        assert_eq!((report.bags, report.bag_details.len()), (2, 2));
        assert!(report.estimated_rows.is_some());
        assert!(report.race_loser.is_none());
        for (detail, &size) in report.bag_details.iter().zip(e.bag_sizes()) {
            assert_eq!(detail.actual_rows, size as u64);
            assert!(detail.estimated_rows.is_some());
        }
        assert!(e.stats().ghd_estimated_rows > 0);

        // A chorded declaration order is not a cycle: selection must fall
        // back to full materialisation and say why. Nothing races it.
        let chorded = QueryBuilder::new()
            .atom("R1", "E", ["a", "b"])
            .atom("R2", "E", ["c", "d"])
            .atom("R3", "E", ["b", "c"])
            .atom("R4", "E", ["d", "a"])
            .project(["a", "c"])
            .build()
            .unwrap();
        let e = CyclicEnumerator::new_auto(&chorded, &db, SumRanking::value_sum()).unwrap();
        let report = e.plan_report();
        assert_eq!(report.shape, "single-bag");
        let reason = report
            .fallback
            .as_deref()
            .expect("fallback reason recorded");
        assert!(reason.contains("share no variable"), "{reason}");
        assert!(report.race_loser.is_none());
        assert_eq!(e.stats().ghd_fallbacks, 1);
    }
}
