//! Generic-join (worst-case-optimal) bag materialisation.
//!
//! A pairwise join plan materialises a GHD bag through intermediates, and
//! on bags whose atoms meet only "around" the bag (the membership-cycle
//! middle bags) the first pairwise step is a cartesian product far larger
//! than the bag itself. Generic join sidesteps
//! intermediates entirely: it fixes one global attribute order per bag and
//! binds attributes one at a time, intersecting — by binary search on
//! [`re_storage::TrieIndex`] ranges — the candidate lists of every atom
//! containing the attribute. Its running time is bounded by the AGM
//! fractional-edge-cover bound on the bag (Ngo–Porat–Ré–Rudra), i.e. by the
//! worst-case bag *output*, never by an intermediate.
//!
//! The global order starts at the bag's first kept attribute; every later
//! attribute shares an atom with one bound before it where any does, ties
//! going to bag order, and the existential attributes follow the bag's
//! (`walk_order`). Candidates are visited ascending, so rows come out
//! lexicographically sorted and de-duplicated in walk order. Existential
//! suffixes stop at the first witness (`Walker::exists`).
//!
//! A bag only needs the attributes that leave it — its *interface*, the
//! projection and what it shares with other bags ([`crate::bag`] derives
//! it) — so the kernel emits the interface columns only. It still walks
//! the full bag order, whose cost the AGM bound charges; bag attributes
//! after the last interface attribute become existential. Dropping a
//! column in the middle makes rows that differ only there collide, so the
//! walk de-duplicates within each *group*, the rows sharing the walk prefix
//! before the first dropped attribute: it collects the group's kept suffix
//! columns in one reusable buffer, sorts and de-duplicates them when the
//! group closes, and emits prefix + suffix. Most collisions never reach
//! the buffer: inside a group, a value bound at a level whose subtree
//! depends on nothing else the group varies is walked below only once
//! (`GenericJoin::repeats`). On the membership cycles' arcs that leaves
//! the sort no duplicate at all, and the walk visits fewer rows than the
//! full bag holds. The output is the canonical bag representation —
//! sorted and distinct over the interface — which [`crate::bag`] hands the
//! cyclic enumerator. A bag whose interface is its full schema has no
//! groups and runs the plain walk.
//!
//! The walk is resumable ([`BagWalk`]): it advances [`WALK_STEP`]
//! intersections at a time and can pause between any two bindings, so a
//! caller can interleave the walks of several bags and stop one part-way.
//! A walk run to the end follows the morsel contract of the `re_exec`
//! pool: the first attribute's candidate values are chunked, each chunk
//! enumerated independently, and the per-chunk outputs concatenated in
//! chunk order — byte-identical to the serial walk at any thread count.
//! The walk leads with a kept attribute, so a group never straddles two
//! chunks.

use crate::error::JoinError;
use re_exec::ExecContext;
use re_query::{Bag, QueryError};
use re_storage::{Attr, KeyTable, Relation, TrieIndex, Value};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A compiled generic-join evaluation of one bag: per-atom tries over the
/// global attribute order plus, for every order level, the `(atom, depth)`
/// pairs whose attribute binds at that level, and the output layout.
struct GenericJoin {
    tries: Vec<TrieIndex>,
    /// `levels[l]` lists the atoms participating at order level `l`, each
    /// with the trie depth its copy of the attribute sits at.
    levels: Vec<Vec<(usize, usize)>>,
    /// Levels the walk enumerates: the bag attributes up to the last
    /// interface attribute. The levels after it only need a witness.
    walk_arity: usize,
    /// The first walked level whose attribute the output drops
    /// (`walk_arity` when none is): rows sharing the levels before it form
    /// one group.
    first_drop: usize,
    /// The kept levels after `first_drop`: the group's suffix columns.
    suffix: Vec<usize>,
    /// `repeats[l]` for the group's levels: whether what the walk emits
    /// below a binding at `l` is fixed by the group prefix and that
    /// binding's value alone, so a value seen before in the group is not
    /// walked again.
    repeats: Vec<bool>,
    /// The global attribute order ([`walk_order`]) — surfaced through
    /// [`WcojReport`] so EXPLAIN can print it.
    order: Vec<Attr>,
}

/// The walk's global attribute order, the one rule every bag walk follows:
/// it starts at the bag's first kept attribute, and after that each
/// attribute shares an atom with one already bound, ties going to bag
/// order. Only where no attribute left is connected (a bag that is a
/// product of its atoms) does the next one in bag order come. The bag's
/// attributes are all placed before its atoms' existential attributes,
/// which follow the same rule in first-appearance order.
///
/// Leading with a kept attribute puts every group under one level-0
/// value. Binding next to a bound attribute keeps each level narrowed by
/// an atom already walked into, so the walk of a bag does not depend on
/// the order its atoms or attributes were listed in, beyond ties.
fn walk_order(bag: &Bag, interface: &[Attr], rels: &[Relation]) -> Vec<Attr> {
    let lead = bag
        .attrs
        .iter()
        .find(|a| interface.contains(a))
        .expect("a non-empty interface");
    let mut seen: BTreeSet<&Attr> = bag.attrs.iter().collect();
    let existential: Vec<Attr> = rels
        .iter()
        .flat_map(|r| r.attrs())
        .filter(|a| seen.insert(*a))
        .cloned()
        .collect();
    let rest: Vec<Attr> = bag.attrs.iter().filter(|a| *a != lead).cloned().collect();
    let mut order = vec![lead.clone()];
    for mut left in [rest, existential] {
        while !left.is_empty() {
            let connected = |a: &Attr| {
                rels.iter()
                    .any(|r| r.attrs().contains(a) && r.attrs().iter().any(|b| order.contains(b)))
            };
            let next = left.iter().position(connected).unwrap_or(0);
            order.push(left.remove(next));
        }
    }
    order
}

impl GenericJoin {
    fn compile(bag: &Bag, interface: &[Attr], rels: &[Relation]) -> Result<Self, JoinError> {
        let order = walk_order(bag, interface, rels);
        let keep: Vec<bool> = order.iter().map(|a| interface.contains(a)).collect();
        let level_of = |a: &Attr| order.iter().position(|o| o == a);
        let mut tries = Vec::with_capacity(rels.len());
        let mut levels: Vec<Vec<(usize, usize)>> = vec![Vec::new(); order.len()];
        for (k, rel) in rels.iter().enumerate() {
            let mut atom_attrs: Vec<Attr> = rel.attrs().to_vec();
            atom_attrs.sort_by_key(|a| level_of(a).expect("order covers all atom attrs"));
            for (d, a) in atom_attrs.iter().enumerate() {
                levels[level_of(a).expect("just sorted by it")].push((k, d));
            }
            tries.push(TrieIndex::build(rel, &atom_attrs)?);
        }
        for (l, parts) in levels.iter().enumerate() {
            if parts.is_empty() {
                return Err(JoinError::Query(QueryError::InvalidGhd(format!(
                    "bag '{}' attribute '{}' is covered by no atom",
                    bag.name, order[l]
                ))));
            }
        }
        let walk_arity = keep.iter().rposition(|&k| k).map_or(0, |l| l + 1);
        let first_drop = keep[..walk_arity]
            .iter()
            .position(|&k| !k)
            .unwrap_or(walk_arity);
        let suffix = (first_drop..walk_arity).filter(|&l| keep[l]).collect();
        // Below a binding at `l` the walk reads the ranges of the atoms of
        // the later levels, and the group's rows carry the kept values.
        // Both are fixed by the prefix and the value at `l` unless a level
        // between `first_drop` and `l` is kept or narrows such an atom.
        let repeats = (0..walk_arity)
            .map(|l| {
                let below: BTreeSet<usize> = levels[l + 1..]
                    .iter()
                    .flat_map(|parts| parts.iter().map(|&(k, _)| k))
                    .collect();
                l >= first_drop
                    && (first_drop..l)
                        .all(|j| !keep[j] && levels[j].iter().all(|(k, _)| !below.contains(k)))
            })
            .collect();
        Ok(GenericJoin {
            tries,
            levels,
            walk_arity,
            first_drop,
            suffix,
            repeats,
            order,
        })
    }

    /// The participant with the fewest remaining rows — the seed whose
    /// distinct values drive the intersection at `level`. Ties keep the
    /// first participant, so the choice is deterministic.
    fn seed(&self, level: usize, ranges: &[(usize, usize)]) -> (usize, usize) {
        *self.levels[level]
            .iter()
            .min_by_key(|(k, _)| ranges[*k].1 - ranges[*k].0)
            .expect("compile checked every level has a participant")
    }
}

/// The backtracking state of one enumeration walk: current per-atom trie
/// ranges, the bound prefix, a restore trail, the open group's suffix
/// rows, the output buffer, and where a paused walk picks up.
struct Walker {
    gj: Arc<GenericJoin>,
    ranges: Vec<(usize, usize)>,
    bound: Vec<Value>,
    trail: Vec<(usize, (usize, usize))>,
    /// The open group's kept suffix columns, row-major, in walk order.
    group: Vec<Value>,
    /// Per level, the values the open group has walked below already
    /// (levels that [`GenericJoin::repeats`] allows).
    seen: Vec<KeyTable>,
    out: Vec<Value>,
    /// Trie range narrowings performed — one per participant per attempted
    /// binding, the unit the AGM bound actually charges. Deterministic at
    /// any thread count: the chunked parallel walk performs exactly the
    /// serial walk's bindings, just partitioned by level-0 candidate, and
    /// re-binding a paused walk's path is not counted.
    intersections: u64,
    /// Rows produced, before the group sort de-duplicates them.
    walked: u64,
    /// The walk pauses at the first binding it is about to try once
    /// `intersections` has reached this.
    budget: u64,
    /// A paused walk's path: `resume[l]` for the levels `1..resume_len` is
    /// the seed position of the value the walk was inside at level `l`,
    /// except at the deepest level, where it is the value to try next.
    /// `resume_len` is 0 when the walk is not paused inside a candidate.
    resume: Vec<usize>,
    resume_len: usize,
    /// Whether the descent in progress still follows `resume`.
    resuming: bool,
}

impl Walker {
    fn new(gj: Arc<GenericJoin>) -> Self {
        Walker {
            ranges: gj.tries.iter().map(|t| t.full_range()).collect(),
            bound: Vec::with_capacity(gj.levels.len()),
            trail: Vec::new(),
            group: Vec::new(),
            seen: (0..gj.walk_arity).map(|_| KeyTable::new(1)).collect(),
            out: Vec::new(),
            intersections: 0,
            walked: 0,
            budget: u64::MAX,
            resume: vec![0; gj.walk_arity],
            resume_len: 0,
            resuming: false,
            gj,
        }
    }

    /// Narrow every participant of `level` to `value`. Returns whether all
    /// stayed non-empty; the caller unwinds to `mark` either way.
    fn bind(&mut self, level: usize, value: Value) -> bool {
        for &(k, d) in &self.gj.levels[level] {
            let narrowed = self.gj.tries[k].narrow(self.ranges[k], d, value);
            self.intersections += 1;
            self.trail.push((k, self.ranges[k]));
            self.ranges[k] = narrowed;
            if narrowed.0 >= narrowed.1 {
                return false;
            }
        }
        true
    }

    /// Bind again a value a paused walk was inside: it held then, and the
    /// intersections it took are counted already.
    fn rebind(&mut self, level: usize, value: Value) {
        let counted = self.intersections;
        let held = self.bind(level, value);
        debug_assert!(held, "a resumed path binds as it did");
        self.intersections = counted;
    }

    fn unwind(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let (k, r) = self.trail.pop().expect("len checked");
            self.ranges[k] = r;
        }
    }

    /// Enumerate all bindings of the walked levels from `level` on,
    /// emitting each completed binding that has an existential witness.
    /// Returns false when the walk paused: the budget ran out, and
    /// `resume` holds the path back to where it stopped.
    fn enumerate(&mut self, level: usize) -> bool {
        if level == self.gj.walk_arity {
            if self.exists(level) {
                self.walked += 1;
                self.emit();
            }
            return true;
        }
        let (seed_k, seed_d) = self.gj.seed(level, &self.ranges);
        let (mut lo, hi) = self.ranges[seed_k];
        // On a resumed path, a level above the deepest re-enters the value
        // it was inside; the deepest goes on from its next value.
        let mut reenter = false;
        if self.resuming {
            lo = self.resume[level];
            reenter = level + 1 < self.resume_len;
            self.resuming = reenter;
        }
        let mark = self.trail.len();
        let repeats = self.gj.repeats[level];
        while let Some((value, end)) = self.gj.tries[seed_k].group_at(lo, hi, seed_d) {
            let at = lo;
            lo = end;
            if reenter {
                reenter = false;
                self.rebind(level, value);
            } else {
                if self.intersections >= self.budget {
                    self.resume[level] = at;
                    self.resume_len = level + 1;
                    return false;
                }
                if repeats && self.seen[level].contains(&[value]) {
                    continue;
                }
                // Only a binding that holds is remembered: whether one
                // holds also depends on this level's own atoms, which the
                // group may vary.
                if !self.bind(level, value) {
                    self.unwind(mark);
                    continue;
                }
                if repeats {
                    self.seen[level].insert(&[value]);
                }
            }
            self.bound.push(value);
            let finished = self.enumerate(level + 1);
            self.bound.pop();
            self.unwind(mark);
            if !finished {
                self.resume[level] = at;
                return false;
            }
        }
        if level == self.gj.first_drop {
            self.close_group();
        }
        true
    }

    /// Emit the completed binding: whole when nothing before the last kept
    /// level is dropped, else its suffix columns into the open group.
    fn emit(&mut self) {
        if self.gj.suffix.is_empty() {
            self.out.extend_from_slice(&self.bound);
        } else {
            for &l in &self.gj.suffix {
                self.group.push(self.bound[l]);
            }
        }
    }

    /// Sort and de-duplicate the open group's suffix rows and emit each
    /// after the group's prefix.
    fn close_group(&mut self) {
        for seen in &mut self.seen[self.gj.first_drop..] {
            seen.clear();
        }
        if self.group.is_empty() {
            return;
        }
        let width = self.gj.suffix.len();
        sort_dedup_rows(&mut self.group, width);
        let prefix = &self.bound[..self.gj.first_drop];
        self.out
            .reserve((prefix.len() + width) * (self.group.len() / width));
        for row in self.group.chunks_exact(width) {
            self.out.extend_from_slice(prefix);
            self.out.extend_from_slice(row);
        }
        self.group.clear();
    }

    /// First-witness check over the existential suffix: true as soon as one
    /// complete consistent extension exists. A witness search is not
    /// paused.
    fn exists(&mut self, level: usize) -> bool {
        if level == self.gj.levels.len() {
            return true;
        }
        let (seed_k, seed_d) = self.gj.seed(level, &self.ranges);
        let (mut lo, hi) = self.ranges[seed_k];
        let mark = self.trail.len();
        while let Some((value, end)) = self.gj.tries[seed_k].group_at(lo, hi, seed_d) {
            lo = end;
            let found = self.bind(level, value) && self.exists(level + 1);
            self.unwind(mark);
            if found {
                return true;
            }
        }
        false
    }

    /// Enumerate below the level-0 candidate `value`, resuming a walk that
    /// paused inside it. Returns false when the walk paused again.
    fn enumerate_root(&mut self, value: Value) -> bool {
        let mark = self.trail.len();
        let held = if self.resume_len > 0 {
            self.resuming = true;
            self.rebind(0, value);
            true
        } else {
            self.bind(0, value)
        };
        let mut finished = true;
        if held {
            self.bound.push(value);
            finished = self.enumerate(1);
            self.bound.pop();
        }
        self.unwind(mark);
        if finished {
            self.resume_len = 0;
        }
        finished
    }

    /// The walk's rows, its intersections and walked bindings.
    fn finish(self) -> (Vec<Value>, u64, u64) {
        (self.out, self.intersections, self.walked)
    }
}

/// Sort the row-major `rows` of `width` columns lexicographically and drop
/// repeated rows, in place. A stable sort: a group arrives as sorted runs,
/// one per binding of its dropped levels, which it merges.
fn sort_dedup_rows(rows: &mut Vec<Value>, width: usize) {
    fn fixed<const W: usize>(rows: &mut Vec<Value>) {
        let (chunks, rest) = rows.as_chunks_mut::<W>();
        debug_assert!(rest.is_empty());
        chunks.sort();
        let mut kept = 0;
        for i in 0..chunks.len() {
            if kept == 0 || chunks[i] != chunks[kept - 1] {
                chunks[kept] = chunks[i];
                kept += 1;
            }
        }
        rows.truncate(kept * W);
    }
    // The membership arcs' suffixes are one and two columns wide; sorting
    // them as fixed-size arrays takes about a sixth off their bags' walks.
    match width {
        1 => fixed::<1>(rows),
        2 => fixed::<2>(rows),
        _ => {
            let mut sorted: Vec<&[Value]> = rows.chunks_exact(width).collect();
            sorted.sort();
            sorted.dedup();
            *rows = sorted.concat();
        }
    }
}

/// Per-operator report of one generic-join bag materialisation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WcojReport {
    /// The global attribute order the walk bound (see the module docs):
    /// the bag's first kept attribute, the bag's other attributes each
    /// next to one already bound, then the existentials.
    pub attr_order: Vec<Attr>,
    /// Total trie range narrowings performed — the intersection work the
    /// AGM bound charges. Identical at any thread count.
    pub intersections: u64,
    /// Rows the walk produced before the group sort de-duplicated them:
    /// the bag's rows when the interface is its full schema, at most the
    /// full bag's rows otherwise (a repeated subtree is walked once per
    /// group, and dropped trailing attributes only need a witness).
    pub walked_rows: u64,
}

/// Intersections one [`BagWalk::advance`] spends before it pauses: the
/// unit in which a bag race (`crate::bag::race_bags`) hands out work, and
/// the stretch between two polls of the cancel token. A step pauses at the
/// first binding it is about to try once it has spent this many, so it
/// overshoots by at most one binding and that binding's witness search.
/// Small against a membership-cycle bag's walk (tens of thousands of
/// intersections at 1 200 edges), large against the few re-bindings a
/// resumed walk repeats. Fixed: the race's guarantee is stated in steps,
/// not in a tuned budget.
pub const WALK_STEP: u64 = 1024;

/// A generic-join walk of one bag that can pause between any two
/// bindings: the bag's tries are compiled once, and each
/// [`BagWalk::advance`] walks on for [`WALK_STEP`] intersections, resuming
/// where the last step paused — inside a level-0 candidate if need be, by
/// re-binding the path there. The steps together are the very same walk,
/// with the same rows and the same count, as one uninterrupted walk.
/// [`BagWalk::finish`] hands over the relation: the canonical bag, sorted
/// and distinct over the interface.
pub struct BagWalk {
    name: String,
    /// The output columns: the interface, in walk order.
    kept: Vec<Attr>,
    /// `None` when an atom is empty, and so is the bag.
    walker: Option<Walker>,
    candidates: Vec<Value>,
    /// Candidates walked to the end so far.
    next: usize,
    /// Rows of the bound atoms: the pooled fan-out's threshold.
    input_rows: usize,
}

impl BagWalk {
    /// Compile the walk of `bag` over its already-bound (and typically
    /// semi-join-reduced) atom relations, keeping the `interface` columns —
    /// a non-empty subset of `bag.attrs`. Nothing is walked yet.
    pub fn new(bag: &Bag, interface: &[Attr], rels: &[Relation]) -> Result<Self, JoinError> {
        if let Some(a) = interface.iter().find(|a| !bag.attrs.contains(a)) {
            return Err(JoinError::Query(QueryError::InvalidGhd(format!(
                "bag '{}' has no attribute '{a}' to keep",
                bag.name
            ))));
        }
        // A zero-width relation is empty, so it could not say that the bag
        // holds a row: an empty interface would drop every answer.
        if interface.is_empty() {
            return Err(JoinError::Query(QueryError::InvalidGhd(format!(
                "bag '{}' keeps no attribute",
                bag.name
            ))));
        }
        let mut walk = BagWalk {
            name: bag.name.clone(),
            kept: bag
                .attrs
                .iter()
                .filter(|a| interface.contains(a))
                .cloned()
                .collect(),
            walker: None,
            candidates: Vec::new(),
            next: 0,
            input_rows: rels.iter().map(Relation::len).sum(),
        };
        if rels.iter().any(|r| r.is_empty()) {
            return Ok(walk);
        }
        let gj = GenericJoin::compile(bag, interface, rels)?;
        walk.kept = gj
            .order
            .iter()
            .filter(|a| interface.contains(a))
            .cloned()
            .collect();
        // Level-0 candidates: the distinct values of the smallest participant.
        let full: Vec<_> = gj.tries.iter().map(|t| t.full_range()).collect();
        let (seed_k, seed_d) = gj.seed(0, &full);
        let (mut lo, hi) = full[seed_k];
        while let Some((value, end)) = gj.tries[seed_k].group_at(lo, hi, seed_d) {
            lo = end;
            walk.candidates.push(value);
        }
        walk.walker = Some(Walker::new(Arc::new(gj)));
        Ok(walk)
    }

    /// Whether every candidate has been walked.
    pub fn is_done(&self) -> bool {
        self.next == self.candidates.len()
    }

    /// Intersections walked so far.
    pub fn intersections(&self) -> u64 {
        self.walker.as_ref().map_or(0, |w| w.intersections)
    }

    /// Walk on for one step of [`WALK_STEP`] intersections (or to the end
    /// of the walk) on the calling thread, and return the intersections
    /// the step took.
    pub fn advance(&mut self, ctx: &ExecContext) -> Result<u64, JoinError> {
        ctx.check_cancelled()?;
        let Some(walker) = self.walker.as_mut() else {
            return Ok(0);
        };
        let before = walker.intersections;
        walker.budget = before + WALK_STEP;
        while self.next < self.candidates.len() {
            if walker.resume_len == 0 && walker.intersections >= walker.budget {
                break;
            }
            if !walker.enumerate_root(self.candidates[self.next]) {
                break;
            }
            self.next += 1;
        }
        Ok(walker.intersections - before)
    }

    /// Walk everything left. A pooled context whose threshold the bag's
    /// input rows reach fans the remaining candidates out over its
    /// workers, a few chunks per thread, and concatenates their rows in
    /// candidate order — byte-identical to the serial walk, counts
    /// included. Otherwise the walk advances step by step, polling the
    /// cancel token between steps.
    pub fn walk_rest(&mut self, ctx: &ExecContext) -> Result<(), JoinError> {
        let Some(walker) = self.walker.as_mut() else {
            return Ok(());
        };
        let rest = &self.candidates[self.next..];
        if walker.resume_len > 0 || !ctx.should_parallelise(self.input_rows) || rest.len() < 2 {
            while !self.is_done() {
                self.advance(ctx)?;
            }
            return Ok(());
        }
        let chunk = rest.len().div_ceil(ctx.threads().max(1) * 4);
        let chunks: Vec<&[Value]> = rest.chunks(chunk).collect();
        let gj = &walker.gj;
        let parts = ctx.map(chunks.len(), |i| {
            // A tripped token turns the remaining chunks into no-ops; the
            // check after the map turns the partial output into the typed
            // cancellation error.
            if ctx.check_cancelled().is_err() {
                return (Vec::new(), 0, 0);
            }
            let mut part = Walker::new(Arc::clone(gj));
            for &value in chunks[i] {
                part.enumerate_root(value);
            }
            part.finish()
        });
        ctx.check_cancelled()?;
        for (rows, n, w) in parts {
            walker.out.extend_from_slice(&rows);
            walker.intersections += n;
            walker.walked += w;
        }
        self.next = self.candidates.len();
        Ok(())
    }

    /// The bag relation and its report. Call once [`BagWalk::is_done`].
    pub fn finish(self) -> (Relation, WcojReport) {
        debug_assert!(self.is_done(), "bag '{}' finished mid-walk", self.name);
        let (order, mut rows, intersections, walked_rows) = match self.walker {
            Some(walker) => {
                let order = walker.gj.order.clone();
                let (rows, n, w) = walker.finish();
                (order, rows, n, w)
            }
            None => Default::default(),
        };
        // The bag relation keeps this vector: drop its doubling slack.
        rows.shrink_to_fit();
        let report = WcojReport {
            attr_order: order,
            intersections,
            walked_rows,
        };
        (Relation::from_flat(self.name, self.kept, rows), report)
    }
}

/// Materialise one GHD bag by generic join over already-bound (and
/// typically semi-join-reduced) atom relations, keeping the `interface`
/// columns — a non-empty subset of `bag.attrs`, emitted in walk order
/// (which keeps bag order unless the walk has to bind a later kept
/// attribute first to stay connected). The output is the canonical bag
/// representation: lexicographically sorted distinct rows over the
/// interface, independent of thread count.
pub fn wcoj_materialize(
    bag: &Bag,
    interface: &[Attr],
    rels: &[Relation],
    ctx: &ExecContext,
) -> Result<Relation, JoinError> {
    wcoj_materialize_reported(bag, interface, rels, ctx).map(|(rel, _)| rel)
}

/// [`wcoj_materialize`] returning the per-operator [`WcojReport`]
/// alongside the bag relation: a [`BagWalk`] walked to the end.
pub fn wcoj_materialize_reported(
    bag: &Bag,
    interface: &[Attr],
    rels: &[Relation],
    ctx: &ExecContext,
) -> Result<(Relation, WcojReport), JoinError> {
    let mut walk = BagWalk::new(bag, interface, rels)?;
    walk.walk_rest(ctx)?;
    Ok(walk.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use re_storage::attr::attrs;

    fn rel(name: &str, cols: [&str; 2], tuples: &[(u64, u64)]) -> Relation {
        Relation::with_tuples(name, attrs(cols), tuples.iter().map(|&(a, b)| vec![a, b])).unwrap()
    }

    fn bag(name: &str, out: &[&str], atoms: Vec<usize>) -> Bag {
        Bag {
            name: name.to_string(),
            attrs: out.iter().map(Attr::new).collect(),
            atoms,
        }
    }

    #[test]
    fn triangle_listing_matches_brute_force() {
        let edges = [(1, 2), (2, 3), (3, 1), (2, 1), (1, 3), (3, 4), (4, 1)];
        let r = rel("R", ["x", "y"], &edges);
        let s = rel("S", ["y", "z"], &edges);
        let t = rel("T", ["z", "x"], &edges);
        let b = bag("tri", &["x", "y", "z"], vec![0, 1, 2]);
        let got = wcoj_materialize(&b, &b.attrs, &[r, s, t], &ExecContext::serial()).unwrap();
        let mut expected = Vec::new();
        for &(x, y) in &edges {
            for &(y2, z) in &edges {
                for &(z2, x2) in &edges {
                    if y == y2 && z == z2 && x == x2 {
                        expected.push(vec![x, y, z]);
                    }
                }
            }
        }
        expected.sort();
        expected.dedup();
        let rows: Vec<Vec<u64>> = got.iter().map(|t| t.to_vec()).collect();
        assert_eq!(rows, expected);
    }

    #[test]
    fn existential_attrs_project_with_first_witness() {
        // Output (x) such that some y with R(x,y) and S(y) exists.
        let r = rel("R", ["x", "y"], &[(1, 10), (1, 11), (2, 12), (3, 13)]);
        let s = rel("S", ["y", "w"], &[(11, 0), (12, 0), (12, 1)]);
        let b = bag("exist", &["x"], vec![0, 1]);
        let got = wcoj_materialize(&b, &b.attrs, &[r, s], &ExecContext::serial()).unwrap();
        let rows: Vec<Vec<u64>> = got.iter().map(|t| t.to_vec()).collect();
        assert_eq!(rows, vec![vec![1], vec![2]]);
    }

    #[test]
    fn parallel_walk_is_byte_identical_to_serial() {
        let mut edges = Vec::new();
        for i in 0..40u64 {
            edges.push((i % 13, (i * 7) % 11));
            edges.push(((i * 3) % 11, i % 13));
        }
        let r = rel("R", ["a", "b"], &edges);
        let s = rel("S", ["b", "c"], &edges);
        let t = rel("T", ["a", "c"], &edges);
        let b = bag("tri", &["a", "b", "c"], vec![0, 1, 2]);
        let (serial, serial_report) = wcoj_materialize_reported(
            &b,
            &b.attrs,
            &[r.clone(), s.clone(), t.clone()],
            &ExecContext::serial(),
        )
        .unwrap();
        assert_eq!(serial_report.attr_order, attrs(["a", "b", "c"]));
        assert!(serial_report.intersections > 0);
        for threads in [2usize, 4] {
            let ctx = ExecContext::with_threads(threads)
                .with_min_par_rows(1)
                .with_morsel_rows(3);
            let (par, par_report) =
                wcoj_materialize_reported(&b, &b.attrs, &[r.clone(), s.clone(), t.clone()], &ctx)
                    .unwrap();
            let a: Vec<Vec<u64>> = serial.iter().map(|t| t.to_vec()).collect();
            let p: Vec<Vec<u64>> = par.iter().map(|t| t.to_vec()).collect();
            assert_eq!(a, p, "{threads} threads diverged");
            assert_eq!(
                par_report, serial_report,
                "intersection counts are deterministic"
            );
        }
    }

    #[test]
    fn empty_atom_yields_empty_bag() {
        let r = rel("R", ["x", "y"], &[(1, 2)]);
        let s = Relation::new("S", attrs(["y", "z"]));
        let b = bag("e", &["x", "z"], vec![0, 1]);
        let got = wcoj_materialize(&b, &b.attrs, &[r, s], &ExecContext::serial()).unwrap();
        assert!(got.is_empty());
        assert_eq!(got.arity(), 2);
    }

    /// A 4-path `a-b-c-d` over three edge atoms plus the chord `b-d`, so a
    /// dropped `b` decides what a kept `d` may be.
    fn path_rels(edges: &[(u64, u64)]) -> (Bag, Vec<Relation>) {
        let rels = vec![
            rel("R", ["a", "b"], edges),
            rel("S", ["b", "c"], edges),
            rel("T", ["c", "d"], edges),
            rel("U", ["b", "d"], edges),
        ];
        (bag("path", &["a", "b", "c", "d"], vec![0, 1, 2, 3]), rels)
    }

    /// The definition: every walked row, projected onto `keep`, sorted,
    /// de-duplicated.
    fn narrowed_by_hand(full: &Relation, keep: &[&str]) -> Vec<Vec<u64>> {
        let pos: Vec<usize> = keep
            .iter()
            .map(|k| full.position(&Attr::new(k)).unwrap())
            .collect();
        let mut rows: Vec<Vec<u64>> = full
            .iter()
            .map(|t| pos.iter().map(|&p| t[p]).collect())
            .collect();
        rows.sort();
        rows.dedup();
        rows
    }

    #[test]
    fn narrowed_bags_keep_the_interface_sorted_and_distinct() {
        let mut edges = Vec::new();
        for i in 0..60u64 {
            edges.push((i % 7, (i * 5) % 9));
            edges.push(((i * 3) % 9, i % 7));
        }
        let (b, rels) = path_rels(&edges);
        let (full, full_report) =
            wcoj_materialize_reported(&b, &b.attrs, &rels, &ExecContext::serial()).unwrap();
        assert_eq!(full_report.walked_rows, full.len() as u64);
        // A dropped middle column (groups per `a`), a dropped first column
        // (the walk leads with `b`, or with `d`), a dropped last column (an
        // existential suffix), and a width-1 suffix after two dropped
        // levels.
        let mut collided = 0;
        for keep in [
            &["a", "c", "d"][..],
            &["b", "d"],
            &["a", "b"],
            &["a", "d"],
            &["d"],
        ] {
            let interface: Vec<Attr> = keep.iter().map(Attr::new).collect();
            let want = narrowed_by_hand(&full, keep);
            let (serial, report) =
                wcoj_materialize_reported(&b, &interface, &rels, &ExecContext::serial()).unwrap();
            assert_eq!(serial.attrs(), &interface[..]);
            let got: Vec<Vec<u64>> = serial.iter().map(|t| t.to_vec()).collect();
            assert_eq!(got, want, "interface {keep:?}");
            assert!(report.walked_rows >= serial.len() as u64);
            assert!(report.walked_rows <= full.len() as u64);
            collided += usize::from(report.walked_rows > serial.len() as u64);
            for threads in [2usize, 4] {
                let ctx = ExecContext::with_threads(threads)
                    .with_min_par_rows(1)
                    .with_morsel_rows(2);
                let (pooled, pooled_report) =
                    wcoj_materialize_reported(&b, &interface, &rels, &ctx).unwrap();
                let p: Vec<Vec<u64>> = pooled.iter().map(|t| t.to_vec()).collect();
                assert_eq!(p, want, "interface {keep:?}, {threads} threads");
                assert_eq!(pooled_report, report, "{keep:?}, {threads} threads");
                assert!(
                    ctx.pool_stats().tasks_executed > 1,
                    "{keep:?}: the walk must split over the pool"
                );
            }
        }
        assert!(collided > 0, "the sort must have rows to de-duplicate");
    }

    #[test]
    fn a_binding_that_failed_under_one_dropped_value_is_tried_under_the_next() {
        // Group a = 1. Under b = 10, X offers c = 5 but Z refuses it; under
        // b = 11 both take it. The value 5 must not count as walked below
        // after the first, failed binding.
        let r = rel("R", ["a", "b"], &[(1, 10), (1, 11)]);
        let x = rel("X", ["b", "c"], &[(10, 5), (11, 5)]);
        let z = rel("Z", ["b", "c"], &[(10, 6), (11, 5)]);
        let y = rel("Y", ["c", "d"], &[(5, 7), (6, 8)]);
        let b = bag("b", &["a", "b", "c", "d"], vec![0, 1, 2, 3]);
        let got = wcoj_materialize(
            &b,
            &attrs(["a", "c", "d"]),
            &[r, x, z, y],
            &ExecContext::serial(),
        )
        .unwrap();
        let rows: Vec<Vec<u64>> = got.iter().map(|t| t.to_vec()).collect();
        assert_eq!(rows, vec![vec![1, 5, 7]]);
    }

    #[test]
    fn a_walk_paused_every_step_is_the_uninterrupted_walk() {
        let mut edges = Vec::new();
        for i in 0..400u64 {
            edges.push((i % 23, (i * 7 + i / 23) % 29));
        }
        let (b, rels) = path_rels(&edges);
        // A dropped middle column, so pauses fall inside open groups.
        let interface = attrs(["a", "c", "d"]);
        let pooled = ExecContext::with_threads(2)
            .with_min_par_rows(1)
            .with_morsel_rows(2);
        let (whole, whole_report) =
            wcoj_materialize_reported(&b, &interface, &rels, &pooled).unwrap();
        let mut walk = BagWalk::new(&b, &interface, &rels).unwrap();
        let serial = ExecContext::serial();
        let mut steps = 0;
        while !walk.is_done() {
            let spent = walk.advance(&serial).unwrap();
            assert!(spent > 0, "a step makes progress");
            steps += 1;
        }
        assert!(steps > 3, "{steps} steps: the walk must pause mid-way");
        assert_eq!(walk.advance(&serial).unwrap(), 0, "a done walk stays done");
        let (stepped, stepped_report) = walk.finish();
        assert_eq!(stepped_report, whole_report, "same bindings, same count");
        assert!(stepped.iter().eq(whole.iter()));
        assert_eq!(stepped.attrs(), whole.attrs());
    }

    #[test]
    fn every_walk_binds_next_to_a_bound_attribute() {
        // `a` and `c` share no atom; `b` joins them. Declared `a, c, b`,
        // the walk binds `b` before `c`. `e` is existential and joins `d`,
        // which comes after `c`.
        let r = rel("R", ["a", "b"], &[(1, 2), (1, 3), (4, 2)]);
        let s = rel("S", ["b", "c"], &[(2, 5), (3, 6)]);
        let t = rel("T", ["c", "d"], &[(5, 7), (6, 8)]);
        let u = rel("U", ["d", "e"], &[(7, 9), (8, 9)]);
        let b = bag("gap", &["a", "c", "b", "d"], vec![0, 1, 2, 3]);
        let interface = attrs(["a", "c", "d"]);
        let (got, report) =
            wcoj_materialize_reported(&b, &interface, &[r, s, t, u], &ExecContext::serial())
                .unwrap();
        assert_eq!(report.attr_order, attrs(["a", "b", "c", "d", "e"]));
        let rows: Vec<Vec<u64>> = got.iter().map(|t| t.to_vec()).collect();
        assert_eq!(rows, vec![vec![1, 5, 7], vec![1, 6, 8], vec![4, 5, 7]]);
    }

    #[test]
    fn suffix_rows_sort_and_dedup_at_every_width() {
        // Widths 1 and 2 take the fixed-width arms, 3 the general path.
        let values: Vec<u64> = (0..120u64).map(|i| (i * 7 + i / 5) % 4).collect();
        for width in 1..=3 {
            let mut want: Vec<Vec<u64>> = values.chunks_exact(width).map(<[u64]>::to_vec).collect();
            want.sort();
            want.dedup();
            let mut rows = values.clone();
            sort_dedup_rows(&mut rows, width);
            assert_eq!(rows, want.concat(), "width {width}");
            assert!(
                want.len() < values.len() / width,
                "width {width} has duplicates"
            );
        }
    }

    #[test]
    fn an_interface_outside_the_bag_or_empty_is_refused() {
        let (b, rels) = path_rels(&[(1, 2), (2, 3), (3, 4)]);
        let serial = ExecContext::serial();
        assert!(wcoj_materialize(&b, &attrs(["a", "z"]), &rels, &serial).is_err());
        assert!(wcoj_materialize(&b, &[], &rels, &serial).is_err());
    }
}
