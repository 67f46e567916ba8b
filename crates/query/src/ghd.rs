//! Generalized hypertree decompositions (GHDs) for cyclic queries.
//!
//! Theorem 3 of the paper evaluates a cyclic join-project query by
//! materialising, for every bag of a GHD, the join of the atoms assigned to
//! that bag projected onto the bag's attributes; the residual query over the
//! bag relations is acyclic and is handed to the acyclic enumerator.
//!
//! This module provides:
//! * [`GhdPlan::single_bag`] — the always-correct fallback (one bag holding
//!   the whole query, i.e. full materialisation),
//! * [`GhdPlan::for_cycle`] — the width-2 decomposition of an `n`-cycle from
//!   Figure 2 of the paper (bags `{A_1, A_i, A_{i+1}}`),
//! * [`GhdPlan::for_cycle_split`] — the two-bag decomposition that cuts a
//!   declaration-order cycle into two contiguous arcs,
//! * [`GhdPlan::cost_based`] — selection among all of the above by the
//!   AGM / fractional-edge-cover bound over the instance's relation
//!   cardinalities, picking the plan with the smallest total bag estimate,
//! * [`GhdPlan::new`] — explicit construction for hand-crafted plans such as
//!   the bowtie query, with validation of the GHD properties that matter
//!   for correctness (every atom covered by some bag it is contained in).
//!
//! Cost-based selection matters because syntactic width is a poor proxy for
//! bag size: on the membership 6-cycle, the Figure-2 plan's middle bags are
//! *intrinsically* cartesian products of two projections (~|M|² tuples at
//! equal cardinalities), while the balanced two-arc split keeps every bag at
//! the size of a 2-path — the AGM sum (2·N² vs 4·N²) prefers the split.

use crate::error::QueryError;
use crate::query::JoinProjectQuery;
use re_storage::{Attr, Database};
use std::collections::BTreeSet;

/// One bag of a GHD: its attribute set and the atoms (by index into the
/// query's atom list) joined to materialise it. The atom list must include
/// every atom whose variables are fully contained in the bag that was
/// *assigned* to this bag, plus enough atoms to cover all bag attributes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bag {
    /// A name for the materialised bag relation.
    pub name: String,
    /// The bag attributes `B_t`, in output order of the materialised relation.
    pub attrs: Vec<Attr>,
    /// Indices of the query atoms joined to produce this bag.
    pub atoms: Vec<usize>,
}

/// A GHD-based evaluation plan for a (possibly cyclic) join-project query.
#[derive(Clone, Debug)]
pub struct GhdPlan {
    bags: Vec<Bag>,
    /// How the plan was derived — `"explicit"`, `"single-bag"`,
    /// `"cycle-figure2"` or `"cycle-split(s,t)"`.
    shape: String,
    /// Total AGM bag-size estimate from cost-based selection, when one ran.
    estimated_rows: Option<f64>,
    /// Per-bag AGM estimates (same order as `bags`), when cost-based
    /// selection ran. Summing them gives `estimated_rows`.
    bag_estimates: Option<Vec<f64>>,
}

/// The outcome of [`GhdPlan::cost_based`]: the winning plan together with
/// how many candidates competed and whether the Figure-2 cycle template was
/// rejected on the way (the reason is preserved instead of swallowed).
#[derive(Clone, Debug)]
pub struct PlanSelection {
    /// The minimum-estimate plan.
    pub plan: GhdPlan,
    /// Number of valid candidate plans compared.
    pub considered: usize,
    /// Why [`GhdPlan::for_cycle`] was not a candidate, if it failed.
    pub cycle_error: Option<String>,
}

impl PlanSelection {
    /// Why selection degraded to full materialisation, when it did: the
    /// single-bag plan wins only when no decomposition validates, and the
    /// reason is why the cycle template was rejected. `None` for a real
    /// decomposition. The one classification the enumerator's report, the
    /// `ghd_fallbacks` counter and `EXPLAIN` all print.
    pub fn fallback(&self) -> Option<&str> {
        (self.plan.shape() == "single-bag").then(|| {
            self.cycle_error
                .as_deref()
                .unwrap_or("no cycle decomposition applicable")
        })
    }
}

impl GhdPlan {
    /// Build and validate a plan from explicit bags.
    ///
    /// Validation checks the two properties Theorem 3 needs:
    /// 1. every query atom is contained in (covered by) at least one bag
    ///    that also joins it, so the bag join is a superset-free refinement
    ///    of the original join;
    /// 2. every bag attribute is covered by at least one of the bag's atoms.
    pub fn new(query: &JoinProjectQuery, bags: Vec<Bag>) -> Result<Self, QueryError> {
        if bags.is_empty() {
            return Err(QueryError::InvalidGhd("no bags".into()));
        }
        for bag in &bags {
            let bag_attrs: BTreeSet<&Attr> = bag.attrs.iter().collect();
            if bag.atoms.is_empty() {
                return Err(QueryError::InvalidGhd(format!(
                    "bag '{}' joins no atoms",
                    bag.name
                )));
            }
            for &ai in &bag.atoms {
                if ai >= query.atoms().len() {
                    return Err(QueryError::InvalidGhd(format!(
                        "bag '{}' references atom index {ai} out of range",
                        bag.name
                    )));
                }
            }
            let covered: BTreeSet<&Attr> = bag
                .atoms
                .iter()
                .flat_map(|&ai| query.atoms()[ai].vars.iter())
                .collect();
            for a in &bag.attrs {
                if !covered.contains(a) {
                    return Err(QueryError::InvalidGhd(format!(
                        "bag '{}' attribute '{a}' is not covered by its atoms",
                        bag.name
                    )));
                }
            }
            // bag attrs must not repeat
            if bag_attrs.len() != bag.attrs.len() {
                return Err(QueryError::InvalidGhd(format!(
                    "bag '{}' repeats an attribute",
                    bag.name
                )));
            }
        }
        // every atom must be contained in some bag that joins it
        for (ai, atom) in query.atoms().iter().enumerate() {
            let ok = bags.iter().any(|bag| {
                bag.atoms.contains(&ai) && atom.vars.iter().all(|v| bag.attrs.contains(v))
            });
            if !ok {
                return Err(QueryError::InvalidGhd(format!(
                    "atom '{}' is not contained in any bag that joins it",
                    atom.name
                )));
            }
        }
        // every projection attribute must appear in some bag
        for p in query.projection() {
            if !bags.iter().any(|bag| bag.attrs.contains(p)) {
                return Err(QueryError::InvalidGhd(format!(
                    "projection attribute '{p}' does not appear in any bag"
                )));
            }
        }
        Ok(GhdPlan {
            bags,
            shape: "explicit".to_string(),
            estimated_rows: None,
            bag_estimates: None,
        })
    }

    /// Re-label the plan with the template it came from.
    fn with_shape(mut self, shape: impl Into<String>) -> Self {
        self.shape = shape.into();
        self
    }

    /// The trivial single-bag plan: materialise the entire join. Always
    /// correct; width equals the number of atoms.
    pub fn single_bag(query: &JoinProjectQuery) -> Self {
        let attrs: Vec<Attr> = {
            let mut seen = BTreeSet::new();
            let mut out = Vec::new();
            for atom in query.atoms() {
                for v in &atom.vars {
                    if seen.insert(v.clone()) {
                        out.push(v.clone());
                    }
                }
            }
            out
        };
        GhdPlan {
            bags: vec![Bag {
                name: "bag0".to_string(),
                attrs,
                atoms: (0..query.atoms().len()).collect(),
            }],
            shape: "single-bag".to_string(),
            estimated_rows: None,
            bag_estimates: None,
        }
    }

    /// The width-2 GHD of an `n`-cycle query
    /// `R_1(A_1,A_2) ⋈ R_2(A_2,A_3) ⋈ ... ⋈ R_n(A_n,A_1)` where atom `i`
    /// (0-based) joins variables `vars[i]` and `vars[(i+1) % n]`.
    ///
    /// Bags follow Figure 2 (leftmost) of the paper: `{A_1, A_i, A_{i+1}}`
    /// for `i = 2..n-1`, each covered by the consecutive edge `R_i` together
    /// with `R_n(A_n, A_1)` (which supplies `A_1`); `R_1` is assigned to the
    /// first bag and `R_n` to the last.
    pub fn for_cycle(query: &JoinProjectQuery) -> Result<Self, QueryError> {
        let n = query.atoms().len();
        if n < 3 {
            return Err(QueryError::InvalidGhd(
                "a cycle needs at least three atoms".into(),
            ));
        }
        // Infer the cycle variable order from the atoms: atom i = (v_i, v_{i+1}).
        for i in 0..n {
            let next = (i + 1) % n;
            let shared: BTreeSet<Attr> = query.atoms()[i]
                .var_set()
                .intersection(&query.atoms()[next].var_set())
                .cloned()
                .collect();
            if shared.is_empty() {
                return Err(QueryError::InvalidGhd(format!(
                    "atoms {i} and {next} share no variable; not a cycle in declaration order"
                )));
            }
        }
        let first_var = |i: usize| -> Attr {
            // the variable shared with the previous atom
            let prev = (i + n - 1) % n;
            let prev_vars = query.atoms()[prev].var_set();
            query.atoms()[i]
                .vars
                .iter()
                .find(|v| prev_vars.contains(*v))
                .cloned()
                .expect("checked above")
        };
        let a1 = first_var(0);
        let mut bags = Vec::new();
        for i in 1..n - 1 {
            // bag over {A_1, A_i, A_{i+1}} = {a1} ∪ vars(atom i)
            let mut attrs: Vec<Attr> = vec![a1.clone()];
            for v in &query.atoms()[i].vars {
                if *v != a1 && !attrs.contains(v) {
                    attrs.push(v.clone());
                }
            }
            let mut atoms = vec![i, n - 1];
            if i == 1 {
                atoms.push(0); // assign R_1 to the first bag
            }
            atoms.sort_unstable();
            atoms.dedup();
            bags.push(Bag {
                name: format!("cycle_bag_{i}"),
                attrs,
                atoms,
            });
        }
        GhdPlan::new(query, bags).map(|p| p.with_shape("cycle-figure2"))
    }

    /// Cut a declaration-order cycle into two contiguous arcs at atom
    /// indices `s < t`: one bag joins atoms `s..t`, the other `t..n` plus
    /// `0..s`. Each bag's attributes are the union of its atoms' variables
    /// in first-appearance order, so every atom is contained in its bag and
    /// the two-bag residual is trivially acyclic. Requires the same
    /// consecutive-sharing property as [`GhdPlan::for_cycle`].
    pub fn for_cycle_split(
        query: &JoinProjectQuery,
        s: usize,
        t: usize,
    ) -> Result<Self, QueryError> {
        let n = query.atoms().len();
        if n < 3 {
            return Err(QueryError::InvalidGhd(
                "a cycle needs at least three atoms".into(),
            ));
        }
        if s >= t || t > n || t - s >= n {
            return Err(QueryError::InvalidGhd(format!(
                "invalid cycle split ({s}, {t}) for {n} atoms"
            )));
        }
        for i in 0..n {
            let next = (i + 1) % n;
            if query.atoms()[i]
                .var_set()
                .intersection(&query.atoms()[next].var_set())
                .next()
                .is_none()
            {
                return Err(QueryError::InvalidGhd(format!(
                    "atoms {i} and {next} share no variable; not a cycle in declaration order"
                )));
            }
        }
        let arc_bag = |name: String, atoms: Vec<usize>| -> Bag {
            let mut seen = BTreeSet::new();
            let mut attrs = Vec::new();
            for &ai in &atoms {
                for v in &query.atoms()[ai].vars {
                    if seen.insert(v.clone()) {
                        attrs.push(v.clone());
                    }
                }
            }
            Bag { name, attrs, atoms }
        };
        let first: Vec<usize> = (s..t).collect();
        let second: Vec<usize> = (t..n).chain(0..s).collect();
        let bags = vec![
            arc_bag(format!("arc_bag_{s}_{t}"), first),
            arc_bag(format!("arc_bag_{t}_{s}"), second),
        ];
        GhdPlan::new(query, bags).map(|p| p.with_shape(format!("cycle-split({s},{t})")))
    }

    /// Pick the candidate plan minimising the summed AGM bag-size estimate
    /// over the instance's relation cardinalities.
    ///
    /// Candidates are the Figure-2 cycle template and every contiguous
    /// two-arc split of the declaration-order cycle; candidates whose
    /// construction or validation fails are dropped (and the Figure-2
    /// failure reason is reported, not swallowed). The single-bag plan is
    /// deliberately *not* a candidate — its AGM bound equals the output
    /// bound and would degenerately win on short cycles while forcing full
    /// materialisation — it is only the fallback when no decomposition
    /// validates. Ties break towards fewer bags, then towards the earlier
    /// candidate, so the selection is deterministic. The winner carries its
    /// estimate in [`GhdPlan::estimated_rows`].
    pub fn cost_based(
        query: &JoinProjectQuery,
        db: &Database,
    ) -> Result<PlanSelection, QueryError> {
        let n = query.atoms().len();
        if n == 0 {
            return Err(QueryError::NoAtoms);
        }
        let cards: Vec<f64> = query
            .atoms()
            .iter()
            .map(|atom| {
                db.relation(&atom.relation)
                    .map(|r| r.len().max(1) as f64)
                    .map_err(|e| QueryError::InvalidGhd(format!("cost model: {e}")))
            })
            .collect::<Result<_, _>>()?;
        let mut candidates: Vec<GhdPlan> = Vec::new();
        let mut cycle_error = None;
        match GhdPlan::for_cycle(query) {
            Ok(p) => candidates.push(p),
            Err(e) => cycle_error = Some(e.to_string()),
        }
        // Every unordered pair of cut points yields one two-arc partition.
        for s in 0..n {
            for t in s + 1..n {
                if let Ok(p) = GhdPlan::for_cycle_split(query, s, t) {
                    candidates.push(p);
                }
            }
        }
        if candidates.is_empty() {
            // Not a declaration-order cycle: full materialisation is the
            // only plan we can build without a general GHD search.
            return Ok(PlanSelection {
                plan: GhdPlan::single_bag(query),
                considered: 1,
                cycle_error,
            });
        }
        let considered = candidates.len();
        let mut best: Option<(f64, usize, usize)> = None; // (cost, bags, index)
        for (i, plan) in candidates.iter().enumerate() {
            let cost: f64 = plan
                .bags
                .iter()
                .map(|bag| agm_estimate(query, &cards, bag))
                .sum();
            let key = (cost, plan.len(), i);
            let better = match &best {
                None => true,
                Some((bc, bb, _)) => cost < *bc || (cost == *bc && plan.len() < *bb),
            };
            if better {
                best = Some(key);
            }
        }
        let (cost, _, idx) = best.expect("candidates checked non-empty");
        let mut plan = candidates.swap_remove(idx);
        plan.estimated_rows = Some(cost);
        plan.bag_estimates = Some(
            plan.bags
                .iter()
                .map(|bag| agm_estimate(query, &cards, bag))
                .collect(),
        );
        Ok(PlanSelection {
            plan,
            considered,
            cycle_error,
        })
    }

    /// The bags of the plan.
    pub fn bags(&self) -> &[Bag] {
        &self.bags
    }

    /// How the plan was derived (`"explicit"`, `"single-bag"`,
    /// `"cycle-figure2"`, `"cycle-split(s,t)"`).
    pub fn shape(&self) -> &str {
        &self.shape
    }

    /// The summed AGM bag-size estimate, when the plan came out of
    /// [`GhdPlan::cost_based`].
    pub fn estimated_rows(&self) -> Option<f64> {
        self.estimated_rows
    }

    /// Per-bag AGM estimates in bag order, when the plan came out of
    /// [`GhdPlan::cost_based`]; the entries sum to
    /// [`GhdPlan::estimated_rows`].
    pub fn bag_estimates(&self) -> Option<&[f64]> {
        self.bag_estimates.as_deref()
    }

    /// Number of bags.
    pub fn len(&self) -> usize {
        self.bags.len()
    }

    /// Whether the plan has no bags (never true for validated plans).
    pub fn is_empty(&self) -> bool {
        self.bags.is_empty()
    }

    /// The largest number of atoms joined inside a single bag — a proxy for
    /// the integral edge-cover width of the plan.
    pub fn max_bag_atoms(&self) -> usize {
        self.bags.iter().map(|b| b.atoms.len()).max().unwrap_or(0)
    }
}

/// The AGM bound on one bag: `exp(Σ x_i · ln |R_i|)` for a minimum
/// fractional edge cover `x` of the bag's attributes by the bag's atoms.
///
/// Half-integral covers suffice for an optimum on the graph-shaped
/// (arity ≤ 2) queries this engine targets, so for up to ten atoms the
/// exact minimum is found by brute force over `x_i ∈ {0, ½, 1}`; larger
/// bags fall back to a greedy integral cover. Attributes no atom covers
/// make the bag infeasible (`+∞`), which [`GhdPlan::new`] already rejects.
fn agm_estimate(query: &JoinProjectQuery, cards: &[f64], bag: &Bag) -> f64 {
    let atom_vars: Vec<BTreeSet<Attr>> = bag
        .atoms
        .iter()
        .map(|&ai| query.atoms()[ai].var_set())
        .collect();
    let log_cards: Vec<f64> = bag.atoms.iter().map(|&ai| cards[ai].ln()).collect();
    let attrs = &bag.attrs;
    let m = atom_vars.len();
    if m <= 10 {
        // x_i ∈ {0, 1/2, 1} encoded in base 3.
        let mut best = f64::INFINITY;
        let combos = 3usize.pow(m as u32);
        'combo: for c in 0..combos {
            let mut weight = 0.0f64;
            let mut x = [0.0f64; 10];
            let mut rest = c;
            for i in 0..m {
                x[i] = (rest % 3) as f64 * 0.5;
                rest /= 3;
                weight += x[i] * log_cards[i];
            }
            if weight >= best {
                continue;
            }
            for a in attrs {
                let covered: f64 = (0..m)
                    .filter(|&i| atom_vars[i].contains(a))
                    .map(|i| x[i])
                    .sum();
                if covered < 1.0 {
                    continue 'combo;
                }
            }
            best = weight;
        }
        best.exp()
    } else {
        // Greedy integral cover: repeatedly take the atom covering the most
        // uncovered attributes (smaller relation, then lower index on ties).
        let mut uncovered: BTreeSet<&Attr> = attrs.iter().collect();
        let mut weight = 0.0f64;
        while !uncovered.is_empty() {
            let pick = (0..m)
                .map(|i| {
                    let gain = uncovered
                        .iter()
                        .filter(|a| atom_vars[i].contains(**a))
                        .count();
                    (gain, i)
                })
                .max_by(|(ga, ia), (gb, ib)| {
                    ga.cmp(gb)
                        .then(
                            log_cards[*ib]
                                .partial_cmp(&log_cards[*ia])
                                .unwrap_or(std::cmp::Ordering::Equal),
                        )
                        .then(ib.cmp(ia))
                });
            match pick {
                Some((gain, i)) if gain > 0 => {
                    uncovered.retain(|a| !atom_vars[i].contains(*a));
                    weight += log_cards[i];
                }
                _ => return f64::INFINITY,
            }
        }
        weight.exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryBuilder;

    fn four_cycle() -> JoinProjectQuery {
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
    fn single_bag_covers_everything() {
        let q = four_cycle();
        let plan = GhdPlan::single_bag(&q);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.bags()[0].atoms.len(), 4);
        assert_eq!(plan.bags()[0].attrs.len(), 4);
    }

    #[test]
    fn cycle_ghd_for_four_cycle_has_two_bags() {
        let q = four_cycle();
        let plan = GhdPlan::for_cycle(&q).unwrap();
        assert_eq!(plan.len(), 2);
        for bag in plan.bags() {
            assert_eq!(bag.attrs.len(), 3);
            assert!(bag.attrs.contains(&Attr::new("a1")));
        }
        // every atom appears in some bag
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        for bag in plan.bags() {
            seen.extend(bag.atoms.iter().copied());
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn cycle_ghd_for_six_cycle_has_four_bags() {
        let q = QueryBuilder::new()
            .atom("R1", "E", ["a1", "a2"])
            .atom("R2", "E", ["a2", "a3"])
            .atom("R3", "E", ["a3", "a4"])
            .atom("R4", "E", ["a4", "a5"])
            .atom("R5", "E", ["a5", "a6"])
            .atom("R6", "E", ["a6", "a1"])
            .project(["a1", "a4"])
            .build()
            .unwrap();
        let plan = GhdPlan::for_cycle(&q).unwrap();
        assert_eq!(plan.len(), 4);
    }

    #[test]
    fn explicit_plan_validation_rejects_uncovered_atom() {
        let q = four_cycle();
        // one bag that forgets atoms 2 and 3
        let bags = vec![Bag {
            name: "b".into(),
            attrs: vec![Attr::new("a1"), Attr::new("a2"), Attr::new("a3")],
            atoms: vec![0, 1],
        }];
        assert!(GhdPlan::new(&q, bags).is_err());
    }

    #[test]
    fn explicit_plan_validation_rejects_uncovered_attr() {
        let q = four_cycle();
        let bags = vec![Bag {
            name: "b".into(),
            attrs: vec![Attr::new("a1"), Attr::new("zzz")],
            atoms: vec![0, 1, 2, 3],
        }];
        assert!(GhdPlan::new(&q, bags).is_err());
    }

    #[test]
    fn cycle_ghd_rejects_non_cycle_declaration() {
        let q = QueryBuilder::new()
            .atom("R1", "E", ["a", "b"])
            .atom("R2", "E", ["c", "d"])
            .atom("R3", "E", ["e", "f"])
            .project(["a"])
            .build()
            .unwrap();
        assert!(GhdPlan::for_cycle(&q).is_err());
    }

    fn six_cycle_membership() -> JoinProjectQuery {
        QueryBuilder::new()
            .atom("M1", "M", ["a1", "p1"])
            .atom("M2", "M", ["a2", "p1"])
            .atom("M3", "M", ["a2", "p2"])
            .atom("M4", "M", ["a3", "p2"])
            .atom("M5", "M", ["a3", "p3"])
            .atom("M6", "M", ["a1", "p3"])
            .project(["a1", "a2"])
            .build()
            .unwrap()
    }

    fn db_with(name: &str, attrs_: [&str; 2], rows: usize) -> re_storage::Database {
        let mut rel =
            re_storage::Relation::new(name, attrs_.iter().map(Attr::new).collect::<Vec<_>>());
        for i in 0..rows {
            rel.push(&[i as u64 + 1, (i % 7) as u64 + 1]).unwrap();
        }
        let mut db = re_storage::Database::new();
        db.add_relation(rel).unwrap();
        db
    }

    #[test]
    fn cycle_split_builds_two_arc_bags() {
        let q = six_cycle_membership();
        let plan = GhdPlan::for_cycle_split(&q, 0, 3).unwrap();
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.shape(), "cycle-split(0,3)");
        assert_eq!(plan.bags()[0].atoms, vec![0, 1, 2]);
        assert_eq!(plan.bags()[1].atoms, vec![3, 4, 5]);
        let a: BTreeSet<_> = plan.bags()[0].attrs.iter().cloned().collect();
        let b: BTreeSet<_> = plan.bags()[1].attrs.iter().cloned().collect();
        let shared: Vec<_> = a.intersection(&b).collect();
        assert_eq!(shared, [&Attr::new("a1"), &Attr::new("p2")]);
        assert!(GhdPlan::for_cycle_split(&q, 0, 6).is_err());
        assert!(GhdPlan::for_cycle_split(&q, 3, 3).is_err());
    }

    #[test]
    fn cost_based_picks_the_balanced_split_for_the_six_cycle() {
        let q = six_cycle_membership();
        let db = db_with("M", ["e", "c"], 100);
        let sel = GhdPlan::cost_based(&q, &db).unwrap();
        assert!(sel.cycle_error.is_none());
        assert!(sel.considered > 10, "figure-2 + splits + single-bag");
        assert_eq!(sel.plan.len(), 2, "{}", sel.plan.shape());
        assert!(
            sel.plan.shape().starts_with("cycle-split"),
            "expected a two-arc split, got {}",
            sel.plan.shape()
        );
        // Both arcs have three atoms: the balanced cut.
        assert!(sel.plan.bags().iter().all(|b| b.atoms.len() == 3));
        let est = sel.plan.estimated_rows().unwrap();
        // 2 · N² for N = 100.
        assert!((est - 20_000.0).abs() < 1.0, "estimate {est}");
        let per_bag = sel.plan.bag_estimates().unwrap();
        assert_eq!(per_bag.len(), 2);
        let sum: f64 = per_bag.iter().sum();
        assert!((sum - est).abs() < 1e-9, "per-bag estimates sum to total");
    }

    #[test]
    fn cost_based_prefers_figure2_for_triangles() {
        let q = QueryBuilder::new()
            .atom("R1", "E", ["x", "y"])
            .atom("R2", "E", ["y", "z"])
            .atom("R3", "E", ["z", "x"])
            .project(["x", "y"])
            .build()
            .unwrap();
        let db = db_with("E", ["s", "t"], 50);
        let sel = GhdPlan::cost_based(&q, &db).unwrap();
        // One N² bag beats any split carrying an extra N term.
        assert_eq!(sel.plan.shape(), "cycle-figure2");
        assert_eq!(sel.plan.len(), 1);
        assert_eq!(sel.fallback(), None, "one bag, but a real decomposition");
    }

    #[test]
    fn cost_based_reports_why_the_cycle_template_failed() {
        // A chorded shape: declaration order is not a cycle.
        let q = QueryBuilder::new()
            .atom("R1", "E", ["a", "b"])
            .atom("R2", "E", ["c", "d"])
            .atom("R3", "E", ["b", "c"])
            .atom("R4", "E", ["d", "a"])
            .project(["a", "c"])
            .build()
            .unwrap();
        let db = db_with("E", ["s", "t"], 30);
        let sel = GhdPlan::cost_based(&q, &db).unwrap();
        assert!(sel.cycle_error.is_some());
        assert_eq!(sel.plan.shape(), "single-bag");
        assert_eq!(sel.fallback(), sel.cycle_error.as_deref());
    }

    #[test]
    fn agm_estimate_is_exact_on_a_product_bag() {
        // A bag whose attrs need two disjoint atoms: estimate = N².
        let q = four_cycle();
        let db = db_with("E", ["s", "t"], 9);
        let sel = GhdPlan::cost_based(&q, &db).unwrap();
        // The cheapest partitions pair one free single-atom bag (N) with a
        // three-atom bag two of whose atoms cover all four attrs (N²);
        // ties break to the earliest such split.
        assert_eq!(sel.plan.len(), 2);
        assert_eq!(sel.plan.shape(), "cycle-split(0,1)");
        assert!((sel.plan.estimated_rows().unwrap() - 90.0).abs() < 1e-6);
    }
}
