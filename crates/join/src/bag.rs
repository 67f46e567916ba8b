//! GHD bag materialisation (Theorem 3).
//!
//! For a cyclic query, each bag of a [`re_query::GhdPlan`] is materialised
//! as the join of the atoms assigned to the bag, projected (with
//! de-duplication) onto the bag's *interface* — the bag attributes that
//! leave it: those the query projects and those another bag shares
//! ([`bag_interface`]). An attribute outside the interface occurs in this
//! bag only and is not projected, so it is existential, and eliminating it
//! inside the bag leaves the residual query's answers unchanged. The
//! resulting bag relations form an acyclic residual query which the
//! acyclic enumerator then processes.
//!
//! One kernel produces a bag: after a semi-join sweep over the bag's
//! atoms, the generic-join kernel of [`crate::wcoj`], whose cost is bounded
//! by the bag's AGM bound instead of the largest pairwise intermediate. It
//! walks the full bag and emits the *canonical* bag representation — rows
//! lexicographically sorted and distinct over the interface — which the
//! `wcoj_differential` suite checks against the definition (hash-join the
//! bag's atoms, project with de-duplication onto the interface, sort).
//!
//! The kernel's walk is resumable, so the bags of several decompositions
//! can be built in lockstep: [`race_bags`] keeps whichever decomposition
//! finishes its bags first, at no more than twice its work plus one step.
//! Building one decomposition's bags is the race with one contender.

use crate::bind::bind_atoms_of;
use crate::error::JoinError;
use crate::parallel::par_semi_join;
use crate::wcoj::BagWalk;
use re_exec::ExecContext;
use re_obs::trace::{self, SpanGuard};
use re_obs::AttrValue;
use re_query::{Bag, JoinProjectQuery};
use re_storage::{Attr, Database, Relation};
use std::collections::{BTreeSet, VecDeque};

/// Vestige of the retired kernel choice, kept because the frozen
/// `stackbench/` names it; it goes with ROADMAP item 2.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BagKernel {
    /// Attribute-at-a-time generic join (worst-case optimal).
    #[default]
    Wcoj,
}

/// Per-operator report of one bag materialisation: what EXPLAIN ANALYZE
/// prints next to the bag's AGM estimate.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BagBuildInfo {
    /// The bag's name.
    pub name: String,
    /// Atoms joined into the bag.
    pub atoms: u64,
    /// The attribute order the kernel bound (generic join's global order).
    pub attr_order: Vec<Attr>,
    /// The columns the bag keeps: its [`bag_interface`], in bag order.
    pub interface: Vec<Attr>,
    /// Rows the walk produced before de-duplicating them on the interface
    /// (at most the full-width bag's rows).
    pub walked_rows: u64,
    /// Rows actually materialised (distinct rows over the interface).
    pub rows: u64,
    /// Trie intersection steps of the generic-join walk.
    pub intersections: u64,
}

/// The interface of `bags[i]`: its attributes, in bag order, that the
/// query projects or another bag shares. A bag that projects nothing and
/// shares nothing keeps its full schema instead: it still decides whether
/// the query has an answer at all, and a zero-width relation cannot hold
/// a row to say so.
pub fn bag_interface(query: &JoinProjectQuery, bags: &[Bag], i: usize) -> Vec<Attr> {
    let bag = &bags[i];
    let leaves = |a: &Attr| {
        query.projection().contains(a)
            || bags
                .iter()
                .enumerate()
                .any(|(j, other)| j != i && other.attrs.contains(a))
    };
    let interface: Vec<Attr> = bag.attrs.iter().filter(|a| leaves(a)).cloned().collect();
    if interface.is_empty() {
        bag.attrs.clone()
    } else {
        interface
    }
}

/// One bag of a contender, ready to walk or part-way through its walk:
/// the kernel's resumable walk and the bag's `bag.materialize` trace
/// span, which is detached so that the contenders' spans can interleave.
struct BagInProgress {
    walk: BagWalk,
    atoms: u64,
    span: Option<SpanGuard>,
}

impl BagInProgress {
    /// Bind bag `i`'s atoms (only the bag's own: binding clones the base
    /// relation per atom), sweep them by semi-joins, and compile its walk;
    /// with `walk_now`, also walk it to the end. The bag boundary is a
    /// cancellation poll point and the `bags.materialize` failpoint.
    fn prepare(
        query: &JoinProjectQuery,
        db: &Database,
        bags: &[Bag],
        i: usize,
        walk_now: bool,
        ctx: &ExecContext,
    ) -> Result<Self, JoinError> {
        ctx.check_cancelled()?;
        re_fault::fire("bags.materialize")?;
        let bag = &bags[i];
        let span = trace::detached_span("bag.materialize");
        let _parent = span.as_ref().map(SpanGuard::resume);
        let mut rels = bind_atoms_of(query, db, bag.atoms.iter().copied())?;
        semi_join_sweep(ctx, &mut rels)?;
        let mut walk = BagWalk::new(bag, &bag_interface(query, bags, i), &rels)?;
        drop(rels);
        if walk_now {
            walk.walk_rest(ctx)?;
        }
        drop(_parent);
        Ok(BagInProgress {
            walk,
            atoms: bag.atoms.len() as u64,
            span,
        })
    }
}

/// One contender of a race: a GHD's bags, walked one after another, one
/// step at a time.
struct Contender<'b> {
    bags: &'b [Bag],
    /// The prepared bags not yet walked to the end, in bag order, the
    /// first maybe part-walked. A bag the race has not reached is prepared
    /// when the contender first steps into it.
    pending: VecDeque<BagInProgress>,
    /// The bags walked to the end, each with its span (stopped, and kept
    /// open for the race's verdict).
    built: Vec<(Relation, BagBuildInfo, Option<SpanGuard>)>,
    spent: u64,
    last_step: u64,
}

impl<'b> Contender<'b> {
    fn new(bags: &'b [Bag]) -> Self {
        Contender {
            bags,
            pending: VecDeque::new(),
            built: Vec::with_capacity(bags.len()),
            spent: 0,
            last_step: 0,
        }
    }

    fn is_done(&self) -> bool {
        self.built.len() == self.bags.len()
    }

    /// Walk one step of the current bag, preparing it first if the race
    /// has just reached it, and close the bag when its walk is done.
    fn step(
        &mut self,
        query: &JoinProjectQuery,
        db: &Database,
        ctx: &ExecContext,
    ) -> Result<(), JoinError> {
        if self.pending.is_empty() {
            let i = self.built.len();
            let bag = BagInProgress::prepare(query, db, self.bags, i, false, ctx)?;
            self.pending.push_back(bag);
        }
        let bag = self.pending.front_mut().expect("just ensured");
        let _parent = bag.span.as_ref().map(SpanGuard::resume);
        self.last_step = bag.walk.advance(ctx)?;
        self.spent += self.last_step;
        drop(_parent);
        if !bag.walk.is_done() {
            return Ok(());
        }
        let bag = self.pending.pop_front().expect("just walked");
        let (rel, report) = bag.walk.finish();
        let info = BagBuildInfo {
            name: rel.name().to_string(),
            atoms: bag.atoms,
            attr_order: report.attr_order,
            interface: rel.attrs().to_vec(),
            walked_rows: report.walked_rows,
            rows: rel.len() as u64,
            intersections: report.intersections,
        };
        let mut span = bag.span;
        if let Some(s) = span.as_mut() {
            s.stop();
            record_bag(s, &info);
        }
        self.built.push((rel, info, span));
        Ok(())
    }

    /// Mark every span of a contender that lost the race: its bags,
    /// walked or part-walked, are dropped.
    fn abandon(&mut self) {
        let built = self.built.iter_mut().map(|(_, _, s)| s);
        let pending = self.pending.iter_mut().map(|bag| {
            if let Some(s) = bag.span.as_mut() {
                s.set_attr("intersections", AttrValue::U64(bag.walk.intersections()));
            }
            &mut bag.span
        });
        for s in built.chain(pending).flatten() {
            s.set_attr("abandoned", AttrValue::Bool(true));
        }
    }
}

/// The counters of a built bag on its `bag.materialize` span.
fn record_bag(s: &mut SpanGuard, info: &BagBuildInfo) {
    s.set_attr("bag", AttrValue::Str(info.name.clone()));
    s.set_attr("atoms", AttrValue::U64(info.atoms));
    let interface: Vec<&str> = info.interface.iter().map(Attr::as_str).collect();
    s.set_attr("interface", AttrValue::Str(interface.join(",")));
    s.set_attr("walked_rows", AttrValue::U64(info.walked_rows));
    s.set_attr("rows", AttrValue::U64(info.rows));
    s.set_attr("intersections", AttrValue::U64(info.intersections));
}

/// The outcome of [`race_bags`]: the bags of the contender that walked
/// all of its bags first, and what every contender spent.
#[derive(Debug)]
pub struct BagRace {
    /// Index of the winning contender.
    pub winner: usize,
    /// The winner's bags, in its bag order.
    pub bags: Vec<(Relation, BagBuildInfo)>,
    /// Intersections each contender walked, in contender order: the
    /// winner's whole build, the others' wasted work.
    pub intersections: Vec<u64>,
    /// Intersections of each contender's last step.
    pub last_step: Vec<u64>,
}

/// Race the bag builds of several decompositions of `query` and keep the
/// one that finishes first.
///
/// Each contender walks its bags in bag order, one [`BagWalk::advance`]
/// step ([`WALK_STEP`](crate::wcoj::WALK_STEP) intersections) at a time.
/// At every turn the contender that has spent the fewest intersections so
/// far takes the next step; ties go to the earlier contender. As soon as
/// one contender has walked all of its bags it wins, and the others'
/// partial rows are dropped. A bag is bound, swept by semi-joins and
/// compiled when its contender first reaches it; each contender's first
/// bag before the race starts, as one pool task each under a pooled
/// context, since that work reads nothing a walk writes.
///
/// Guarantee: every contender took its last step when it had spent no
/// more than any other had by then. So a loser spent at most the winner's
/// intersections plus its own last step, and the winner at most any
/// loser's whole walk plus its own last step. A race of two therefore
/// walks at most twice the intersections of the contender that needs
/// fewer, plus one step — with no estimate and no budget to tune. Racing steps run on the calling thread
/// (a step pauses mid-candidate, which a fan-out over candidates cannot),
/// so the counts, and with them the winner, are the same under every
/// context.
///
/// With one contender this is plain materialisation
/// ([`materialize_bags_reported`]): each bag is walked in one go in its
/// preparation task, its candidates fanned out further over a pooled
/// context, and the race only collects the bags. When a request trace is
/// installed, each bag started is a `bag.materialize` span carrying its
/// counters; a loser's spans also carry `abandoned=true`.
pub fn race_bags(
    query: &JoinProjectQuery,
    db: &Database,
    contenders: &[&[Bag]],
    ctx: &ExecContext,
) -> Result<BagRace, JoinError> {
    let _span = re_obs::Span::enter("preprocess.bags");
    let mut trace_span = trace::child_span("preprocess.bags");
    // Preparing a bag reads only the database, so the bags the contenders
    // start with are prepared up front, as one pool task each under a
    // pooled context. A contender racing nobody has nothing to pause for:
    // all of its bags are prepared and walked to the end in those tasks,
    // each walk fanned out further.
    let alone = contenders.len() == 1;
    let jobs: Vec<(usize, usize)> = if alone {
        (0..contenders[0].len()).map(|i| (0, i)).collect()
    } else {
        (0..contenders.len())
            .filter(|&c| !contenders[c].is_empty())
            .map(|c| (c, 0))
            .collect()
    };
    let prepared = ctx.map(jobs.len(), |j| {
        let (c, i) = jobs[j];
        BagInProgress::prepare(query, db, contenders[c], i, alone, ctx)
    });
    let mut racers: Vec<Contender> = contenders.iter().map(|bags| Contender::new(bags)).collect();
    for (&(c, _), bag) in jobs.iter().zip(prepared) {
        let bag = bag?;
        racers[c].spent += bag.walk.intersections();
        racers[c].pending.push_back(bag);
    }
    let winner = loop {
        if let Some(done) = racers.iter().position(Contender::is_done) {
            break done;
        }
        let next = (0..racers.len())
            .min_by_key(|&i| racers[i].spent)
            .expect("a race has a contender");
        racers[next].step(query, db, ctx)?;
    };
    for (i, racer) in racers.iter_mut().enumerate() {
        if i != winner {
            racer.abandon();
        }
    }
    if let Some(s) = trace_span.as_mut() {
        s.set_attr("bags", AttrValue::U64(contenders[winner].len() as u64));
        if contenders.len() > 1 {
            s.set_attr("contenders", AttrValue::U64(contenders.len() as u64));
            s.set_attr("winner", AttrValue::U64(winner as u64));
        }
    }
    let intersections = racers.iter().map(|r| r.spent).collect();
    let last_step = racers.iter().map(|r| r.last_step).collect();
    let bags = racers
        .swap_remove(winner)
        .built
        .into_iter()
        .map(|(rel, info, _)| (rel, info))
        .collect();
    Ok(BagRace {
        winner,
        bags,
        intersections,
        last_step,
    })
}

/// Reduce every atom against *all* attribute-sharing partners (forward then
/// backward pass), skipping attribute-disjoint pairs outright. The earlier
/// sweep only paired list-adjacent atoms, which on the 6-cycle middle bags
/// (adjacent atoms disjoint) was a pure no-op doing wasted passes.
fn semi_join_sweep(ctx: &ExecContext, rels: &mut [Relation]) -> Result<(), JoinError> {
    let n = rels.len();
    let shares = |a: &Relation, b: &Relation| {
        let av: BTreeSet<_> = a.attrs().iter().collect();
        b.attrs().iter().any(|x| av.contains(x))
    };
    for i in 1..n {
        for j in 0..i {
            if shares(&rels[i], &rels[j]) {
                ctx.check_cancelled()?;
                let (a, b) = rels.split_at_mut(i);
                par_semi_join(ctx, &mut b[0], &a[j])?;
            }
        }
    }
    for i in (0..n.saturating_sub(1)).rev() {
        for j in i + 1..n {
            if shares(&rels[i], &rels[j]) {
                ctx.check_cancelled()?;
                let (a, b) = rels.split_at_mut(j);
                par_semi_join(ctx, &mut a[i], &b[0])?;
            }
        }
    }
    Ok(())
}

/// Materialise every bag of a GHD plan onto its [`bag_interface`], each
/// with its [`BagBuildInfo`], in bag order: a [`race_bags`] of one
/// contender. Under a pooled context each bag is one pool task (they are
/// independent sub-joins), and its walk fans its level-0 candidates out
/// further over the pool; the bags are byte-identical at any thread
/// count.
/// The fifth parameter is ignored: a vestige that goes with ROADMAP
/// item 2.
pub fn materialize_bags_reported(
    query: &JoinProjectQuery,
    db: &Database,
    bags: &[Bag],
    ctx: &ExecContext,
    _kernel: BagKernel,
) -> Result<Vec<(Relation, BagBuildInfo)>, JoinError> {
    race_bags(query, db, &[bags], ctx).map(|race| race.bags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashjoin::{hash_join, project_distinct};
    use re_query::{GhdPlan, QueryBuilder};
    use re_storage::attr::attrs;

    /// Bag `i` of `plan`, serially, on its interface, relation only.
    fn one_bag(q: &JoinProjectQuery, db: &Database, plan: &GhdPlan, i: usize) -> Relation {
        let serial = ExecContext::serial();
        materialize_bags_reported(q, db, plan.bags(), &serial, BagKernel::Wcoj)
            .unwrap()
            .swap_remove(i)
            .0
    }

    /// A small directed graph stored as an edge relation.
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

    #[test]
    fn four_cycle_bags_materialise_correct_triples() {
        // Square 1-2-3-4-1 plus a dangling edge.
        let db = edge_db(&[(1, 2), (2, 3), (3, 4), (4, 1), (9, 8)]);
        let q = QueryBuilder::new()
            .atom("R1", "E", ["a1", "a2"])
            .atom("R2", "E", ["a2", "a3"])
            .atom("R3", "E", ["a3", "a4"])
            .atom("R4", "E", ["a4", "a1"])
            .project(["a1", "a3"])
            .build()
            .unwrap();
        let plan = GhdPlan::for_cycle(&q).unwrap();
        assert_eq!(plan.len(), 2);
        let bag0 = one_bag(&q, &db, &plan, 0);
        // bag over {a1,a2,a3} covered by R1, R2 and R4: pairs (a1,a3)
        // where a1->a2->a3 is a path for some a2 and a1 has an incoming
        // edge. a2 leaves neither bag, so the bag drops it.
        assert_eq!(bag0.attrs(), &attrs(["a1", "a3"])[..]);
        assert!(!bag0.is_empty());
        // The residual join of both bags must produce exactly the square.
        let bag1 = one_bag(&q, &db, &plan, 1);
        let joined = hash_join(&bag0, &bag1, "res").unwrap();
        let out = project_distinct(&joined, &attrs(["a1", "a3"])).unwrap();
        let mut rows: Vec<Vec<u64>> = out.iter().map(|t| t.to_vec()).collect();
        rows.sort();
        assert_eq!(rows, vec![vec![1, 3], vec![2, 4], vec![3, 1], vec![4, 2]]);
    }

    #[test]
    fn pooled_bag_materialisation_is_identical_to_serial() {
        let db = edge_db(&[
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 1),
            (2, 5),
            (5, 4),
            (9, 8),
            (8, 9),
        ]);
        let q = QueryBuilder::new()
            .atom("R1", "E", ["a1", "a2"])
            .atom("R2", "E", ["a2", "a3"])
            .atom("R3", "E", ["a3", "a4"])
            .atom("R4", "E", ["a4", "a1"])
            .project(["a1", "a3"])
            .build()
            .unwrap();
        let plan = GhdPlan::for_cycle(&q).unwrap();
        let serial: Vec<Relation> = (0..plan.len())
            .map(|i| one_bag(&q, &db, &plan, i))
            .collect();
        for threads in [1, 2, 4] {
            let ctx = ExecContext::with_threads(threads)
                .with_min_par_rows(1)
                .with_morsel_rows(2);
            let pooled =
                materialize_bags_reported(&q, &db, plan.bags(), &ctx, BagKernel::default())
                    .unwrap();
            assert_eq!(pooled.len(), serial.len());
            for ((p, _), s) in pooled.iter().zip(&serial) {
                assert_eq!(p.name(), s.name());
                assert_eq!(p.attrs(), s.attrs());
                let pt: Vec<Vec<u64>> = p.iter().map(|t| t.to_vec()).collect();
                let st: Vec<Vec<u64>> = s.iter().map(|t| t.to_vec()).collect();
                assert_eq!(pt, st, "bag {} diverged at {threads} threads", p.name());
            }
        }
    }

    #[test]
    fn a_race_keeps_the_first_finisher_and_bounds_the_loser() {
        let mut edges = Vec::new();
        for i in 0..300u64 {
            edges.push((i % 37, (i * 11) % 41));
        }
        let db = edge_db(&edges);
        let q = QueryBuilder::new()
            .atom("R1", "E", ["a1", "a2"])
            .atom("R2", "E", ["a2", "a3"])
            .atom("R3", "E", ["a3", "a4"])
            .atom("R4", "E", ["a4", "a1"])
            .project(["a1", "a3"])
            .build()
            .unwrap();
        let (single, figure2) = (GhdPlan::single_bag(&q), GhdPlan::for_cycle(&q).unwrap());
        let serial = ExecContext::serial();
        let alone: Vec<u64> = [&single, &figure2]
            .iter()
            .map(|plan| {
                let race = race_bags(&q, &db, &[plan.bags()], &serial).unwrap();
                assert_eq!(race.winner, 0);
                race.intersections[0]
            })
            .collect();
        let race = race_bags(&q, &db, &[single.bags(), figure2.bags()], &serial).unwrap();
        let (w, l) = (race.winner, 1 - race.winner);
        assert_eq!(
            race.intersections[w], alone[w],
            "the winner walked all of it"
        );
        // Each took its last step while it had spent no more than the
        // other.
        assert!(race.intersections[l] <= race.intersections[w] + race.last_step[l]);
        assert!(race.intersections[w] <= race.intersections[l] + race.last_step[w]);
        assert!(
            race.intersections[l] < alone[l],
            "the loser stopped part-way"
        );
        let plan = [&single, &figure2][w];
        let want: Vec<Relation> = (0..plan.len()).map(|i| one_bag(&q, &db, plan, i)).collect();
        let got: Vec<Relation> = race.bags.into_iter().map(|(rel, _)| rel).collect();
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.attrs(), w.attrs());
            assert!(g.iter().eq(w.iter()), "bag {}", g.name());
        }
    }

    #[test]
    fn single_bag_plan_is_the_full_join() {
        let db = edge_db(&[(1, 2), (2, 3), (3, 1)]);
        let q = QueryBuilder::new()
            .atom("R1", "E", ["x", "y"])
            .atom("R2", "E", ["y", "z"])
            .atom("R3", "E", ["z", "x"])
            .project(["x", "z"])
            .build()
            .unwrap();
        let plan = GhdPlan::single_bag(&q);
        let bag = one_bag(&q, &db, &plan, 0);
        // The triangle 1->2->3->1 yields 3 (x,y,z) rotations; the only
        // bag's interface is the projection.
        assert_eq!(bag.len(), 3);
        assert_eq!(bag.attrs(), &attrs(["x", "z"])[..]);
    }

    #[test]
    fn bags_equal_their_definition_byte_for_byte() {
        let db = edge_db(&[
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 1),
            (2, 5),
            (5, 4),
            (1, 4),
            (4, 3),
            (9, 8),
        ]);
        let q = QueryBuilder::new()
            .atom("R1", "E", ["a1", "a2"])
            .atom("R2", "E", ["a2", "a3"])
            .atom("R3", "E", ["a3", "a4"])
            .atom("R4", "E", ["a4", "a1"])
            .project(["a1", "a3"])
            .build()
            .unwrap();
        for plan in [GhdPlan::for_cycle(&q).unwrap(), GhdPlan::single_bag(&q)] {
            for (i, bag) in plan.bags().iter().enumerate() {
                let got = one_bag(&q, &db, &plan, i);
                // The definition: join the bag's atoms, project with
                // de-duplication onto the interface, sort.
                let joined = bind_atoms_of(&q, &db, bag.atoms.iter().copied())
                    .unwrap()
                    .into_iter()
                    .reduce(|acc, next| hash_join(&acc, &next, "join").unwrap())
                    .unwrap();
                let want = project_distinct(&joined, &bag_interface(&q, plan.bags(), i)).unwrap();
                assert_eq!(got.attrs(), want.attrs(), "{}", bag.name);
                let g: Vec<Vec<u64>> = got.iter().map(|t| t.to_vec()).collect();
                let mut w: Vec<Vec<u64>> = want.iter().map(|t| t.to_vec()).collect();
                w.sort();
                assert_eq!(g, w, "bag {} differs from its definition", bag.name);
                assert!(!g.is_empty(), "bag {} must not be vacuous", bag.name);
            }
        }
    }

    #[test]
    fn a_bag_that_nothing_leaves_keeps_its_full_schema() {
        // Two components: the second bag shares nothing and projects
        // nothing, yet an empty `S` must still empty the answer.
        let mut db = edge_db(&[(1, 2), (2, 3)]);
        db.add_relation(
            Relation::with_tuples("F", attrs(["src", "dst"]), [vec![7, 8], vec![8, 9]]).unwrap(),
        )
        .unwrap();
        let q = QueryBuilder::new()
            .atom("R", "E", ["x", "y"])
            .atom("S", "F", ["u", "v"])
            .project(["x"])
            .build()
            .unwrap();
        let bag = |name: &str, attrs_: [&str; 2], atom| Bag {
            name: name.to_string(),
            attrs: attrs(attrs_),
            atoms: vec![atom],
        };
        let plan =
            GhdPlan::new(&q, vec![bag("b0", ["x", "y"], 0), bag("b1", ["u", "v"], 1)]).unwrap();
        assert_eq!(bag_interface(&q, plan.bags(), 0), attrs(["x"]));
        assert_eq!(bag_interface(&q, plan.bags(), 1), attrs(["u", "v"]));
        let built = materialize_bags_reported(
            &q,
            &db,
            plan.bags(),
            &ExecContext::serial(),
            BagKernel::Wcoj,
        )
        .unwrap();
        let (b1, info) = &built[1];
        assert_eq!(b1.attrs(), &attrs(["u", "v"])[..]);
        assert_eq!(b1.len(), 2, "the full bag, not an empty zero-width one");
        assert_eq!((info.walked_rows, info.rows), (2, 2));
        assert_eq!(built[0].0.len(), 2);
    }
}
