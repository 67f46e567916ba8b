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
//! The global order is the bag's output attributes in declared order
//! followed by the existential attributes in first appearance order, and
//! candidates are visited ascending, so rows come out lexicographically
//! sorted and de-duplicated — the canonical bag representation
//! [`crate::bag`] hands the cyclic enumerator. Existential suffixes stop at
//! the first witness (`Walker::exists`).
//!
//! Parallelism follows the morsel contract of the `re_exec` pool: the first
//! attribute's candidate values are chunked, each chunk enumerated
//! independently, and the per-chunk outputs concatenated in chunk order —
//! byte-identical to the serial walk at any thread count.

use crate::error::JoinError;
use re_exec::ExecContext;
use re_query::{Bag, QueryError};
use re_storage::{Attr, Relation, TrieIndex, Value};
use std::collections::BTreeSet;

/// A compiled generic-join evaluation of one bag: per-atom tries over the
/// global attribute order plus, for every order level, the `(atom, depth)`
/// pairs whose attribute binds at that level.
struct GenericJoin {
    tries: Vec<TrieIndex>,
    /// `levels[l]` lists the atoms participating at order level `l`, each
    /// with the trie depth its copy of the attribute sits at.
    levels: Vec<Vec<(usize, usize)>>,
    out_arity: usize,
    /// The global attribute order (output attributes then existentials) —
    /// surfaced through [`WcojReport`] so EXPLAIN can print it.
    order: Vec<Attr>,
}

impl GenericJoin {
    fn compile(bag: &Bag, rels: &[Relation]) -> Result<Self, JoinError> {
        // Global order: output attributes first (declared order), then the
        // existential attributes in first-appearance order across atoms.
        let mut order: Vec<Attr> = bag.attrs.clone();
        let mut seen: BTreeSet<Attr> = order.iter().cloned().collect();
        for rel in rels {
            for a in rel.attrs() {
                if seen.insert(a.clone()) {
                    order.push(a.clone());
                }
            }
        }
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
        Ok(GenericJoin {
            tries,
            levels,
            out_arity: bag.attrs.len(),
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
/// ranges, the bound prefix, a restore trail, and the output buffer.
struct Walker<'a> {
    gj: &'a GenericJoin,
    ranges: Vec<(usize, usize)>,
    bound: Vec<Value>,
    trail: Vec<(usize, (usize, usize))>,
    out: Vec<Value>,
    /// Trie range narrowings performed — one per participant per attempted
    /// binding, the unit the AGM bound actually charges. Deterministic at
    /// any thread count: the chunked parallel walk performs exactly the
    /// serial walk's bindings, just partitioned by level-0 candidate.
    intersections: u64,
}

impl<'a> Walker<'a> {
    fn new(gj: &'a GenericJoin) -> Self {
        Walker {
            gj,
            ranges: gj.tries.iter().map(|t| t.full_range()).collect(),
            bound: Vec::with_capacity(gj.levels.len()),
            trail: Vec::new(),
            out: Vec::new(),
            intersections: 0,
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

    fn unwind(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let (k, r) = self.trail.pop().expect("len checked");
            self.ranges[k] = r;
        }
    }

    /// Enumerate all bindings of the output levels from `level` on,
    /// emitting each completed prefix that has an existential witness.
    fn enumerate(&mut self, level: usize) {
        if level == self.gj.out_arity {
            if self.exists(level) {
                self.out.extend_from_slice(&self.bound);
            }
            return;
        }
        let (seed_k, seed_d) = self.gj.seed(level, &self.ranges);
        let (mut lo, hi) = self.ranges[seed_k];
        let mark = self.trail.len();
        while let Some((value, end)) = self.gj.tries[seed_k].group_at(lo, hi, seed_d) {
            lo = end;
            if self.bind(level, value) {
                self.bound.push(value);
                self.enumerate(level + 1);
                self.bound.pop();
            }
            self.unwind(mark);
        }
    }

    /// First-witness check over the existential suffix: true as soon as one
    /// complete consistent extension exists.
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

    /// Enumerate with the first level restricted to `values` — the unit of
    /// level-0 parallel fan-out. `values` must be ascending for the output
    /// to stay in canonical order.
    fn enumerate_root(&mut self, values: &[Value]) {
        let mark = self.trail.len();
        for &value in values {
            if self.bind(0, value) {
                self.bound.push(value);
                self.enumerate(1);
                self.bound.pop();
            }
            self.unwind(mark);
        }
    }
}

/// Per-operator report of one generic-join bag materialisation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WcojReport {
    /// The global attribute order the walk bound (output attributes first,
    /// then existentials in first-appearance order).
    pub attr_order: Vec<Attr>,
    /// Total trie range narrowings performed — the intersection work the
    /// AGM bound charges. Identical at any thread count.
    pub intersections: u64,
}

/// Materialise one GHD bag by generic join over already-bound (and
/// typically semi-join-reduced) atom relations. The output is the
/// canonical bag representation: lexicographically sorted distinct rows
/// over `bag.attrs`, independent of thread count.
pub fn wcoj_materialize(
    bag: &Bag,
    rels: &[Relation],
    ctx: &ExecContext,
) -> Result<Relation, JoinError> {
    wcoj_materialize_reported(bag, rels, ctx).map(|(rel, _)| rel)
}

/// [`wcoj_materialize`] returning the per-operator [`WcojReport`]
/// alongside the bag relation.
pub fn wcoj_materialize_reported(
    bag: &Bag,
    rels: &[Relation],
    ctx: &ExecContext,
) -> Result<(Relation, WcojReport), JoinError> {
    let mut out = Relation::new(bag.name.clone(), bag.attrs.clone());
    if bag.attrs.is_empty() || rels.iter().any(|r| r.is_empty()) {
        return Ok((out, WcojReport::default()));
    }
    let gj = GenericJoin::compile(bag, rels)?;

    // Level-0 candidates: the distinct values of the smallest participant.
    let (seed_k, seed_d) = gj.seed(
        0,
        &gj.tries.iter().map(|t| t.full_range()).collect::<Vec<_>>(),
    );
    let (mut lo, hi) = gj.tries[seed_k].full_range();
    let mut candidates = Vec::new();
    while let Some((value, end)) = gj.tries[seed_k].group_at(lo, hi, seed_d) {
        lo = end;
        candidates.push(value);
    }

    let total_rows: usize = rels.iter().map(|r| r.len()).sum();
    let (rows, intersections) =
        if !ctx.is_parallel() || !ctx.should_parallelise(total_rows) || candidates.len() < 2 {
            // The serial walk advances one candidate chunk at a time so a
            // tripped cancel token aborts within one morsel of candidates;
            // enumerating consecutive chunks is the very same walk as
            // enumerating the full ascending candidate list.
            let step = ctx.morsel_rows().max(1);
            let mut walker = Walker::new(&gj);
            for chunk in candidates.chunks(step) {
                ctx.check_cancelled()?;
                walker.enumerate_root(chunk);
            }
            (walker.out, walker.intersections)
        } else {
            // One chunk of first-attribute candidates per task, a few tasks per
            // thread for balance; concatenating per-chunk outputs in chunk
            // order reproduces the serial (ascending-candidate) walk exactly.
            let chunk = (candidates.len()).div_ceil(ctx.threads().max(1) * 4).max(1);
            let chunks: Vec<&[Value]> = candidates.chunks(chunk).collect();
            let parts = ctx.map(chunks.len(), |i| {
                // A tripped token turns the remaining chunks into no-ops;
                // the post-map check below converts the partial output
                // into the typed cancellation error.
                if ctx.check_cancelled().is_err() {
                    return (Vec::new(), 0);
                }
                let mut walker = Walker::new(&gj);
                walker.enumerate_root(chunks[i]);
                (walker.out, walker.intersections)
            });
            ctx.check_cancelled()?;
            let mut rows = Vec::with_capacity(parts.iter().map(|(p, _)| p.len()).sum());
            let mut intersections = 0u64;
            for (p, n) in parts {
                rows.extend_from_slice(&p);
                intersections += n;
            }
            (rows, intersections)
        };
    out.reserve_rows(rows.len() / bag.attrs.len());
    out.append_rows(&rows);
    Ok((
        out,
        WcojReport {
            attr_order: gj.order,
            intersections,
        },
    ))
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
        let got = wcoj_materialize(&b, &[r, s, t], &ExecContext::serial()).unwrap();
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
        let got = wcoj_materialize(&b, &[r, s], &ExecContext::serial()).unwrap();
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
                wcoj_materialize_reported(&b, &[r.clone(), s.clone(), t.clone()], &ctx).unwrap();
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
        let got = wcoj_materialize(&b, &[r, s], &ExecContext::serial()).unwrap();
        assert!(got.is_empty());
        assert_eq!(got.arity(), 2);
    }
}
