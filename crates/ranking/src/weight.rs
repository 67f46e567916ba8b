//! Totally ordered weights.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Neg};

/// A weight value with a *total* order.
///
/// Weights are `f64` under the hood but ordered with [`f64::total_cmp`], so
/// they can be used as keys of binary heaps and B-tree maps without the
/// partial-order footguns of raw floats. All weights produced by the data
/// generators are finite.
#[derive(Clone, Copy, Debug, Default)]
pub struct Weight(pub f64);

impl Weight {
    /// The zero weight.
    pub const ZERO: Weight = Weight(0.0);

    /// Construct from a raw `f64`. Negative zero is normalised to positive
    /// zero so that arithmetically equal weights compare equal under the
    /// total order.
    pub fn new(w: f64) -> Self {
        Weight(w + 0.0)
    }

    /// The raw value.
    pub fn value(&self) -> f64 {
        self.0
    }
}

impl PartialEq for Weight {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == Ordering::Equal
    }
}

impl Eq for Weight {}

impl PartialOrd for Weight {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Weight {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add for Weight {
    type Output = Weight;
    fn add(self, rhs: Weight) -> Weight {
        Weight::new(self.0 + rhs.0)
    }
}

impl AddAssign for Weight {
    fn add_assign(&mut self, rhs: Weight) {
        *self = *self + rhs;
    }
}

impl Neg for Weight {
    type Output = Weight;
    fn neg(self) -> Weight {
        Weight::new(-self.0)
    }
}

impl Sum for Weight {
    fn sum<I: Iterator<Item = Weight>>(iter: I) -> Weight {
        Weight::new(iter.map(|w| w.0).sum())
    }
}

impl From<f64> for Weight {
    fn from(w: f64) -> Self {
        Weight::new(w)
    }
}

impl From<u64> for Weight {
    fn from(w: u64) -> Self {
        Weight(w as f64)
    }
}

impl From<i64> for Weight {
    fn from(w: i64) -> Self {
        Weight(w as f64)
    }
}

impl fmt::Display for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The order-preserving image of an `f64` in `u64`: `order_bits(a) <
/// order_bits(b)` exactly when `a.total_cmp(&b)` is `Less` (the IEEE bits
/// with the sign bit flipped for non-negative values and every bit flipped
/// for negative ones).
pub(crate) fn order_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63))
}

/// An **exact** sum of `f64` weights, represented as a nonoverlapping
/// expansion (Shewchuk, *Adaptive Precision Floating-Point Arithmetic*).
///
/// The enumeration algorithms require rank keys to satisfy two properties
/// that a plain `f64` accumulator cannot guarantee:
///
/// 1. **order independence** — the same multiset of weights must produce
///    *exactly* the same key no matter the summation order, because answers
///    that are permutations of the same values (`[w1, w2]` vs `[w2, w1]`
///    under SUM) must compare exactly equal for the last-answer
///    deduplication to see them as adjacent rank ties; and
/// 2. **exact monotonicity** — replacing one addend with a strictly larger
///    one must never *decrease* the total, or a successor cell could sort
///    below its generating cell and break the priority-queue invariant.
///
/// Plain `f64` addition violates both at the ULP level (it is not
/// associative), which manifests as duplicated answers on weight multisets
/// with symmetric tuples. An expansion stores the sum exactly as a list of
/// non-overlapping components, so addition is truly associative and
/// commutative and comparisons are exact.
///
/// Expansions of practically encountered sums have 1–3 components. Up to
/// two of them live in the value itself (24 bytes, no
/// heap block): computing, cloning, comparing and dropping such a key
/// never touches the allocator. Longer expansions spill to a boxed slice.
/// The representation changes nothing about the invariants: the component
/// list is the same canonical list either way.
#[derive(Clone, Debug)]
pub struct ExactSum {
    /// Nonadjacent (hence nonoverlapping) components in increasing
    /// magnitude order, zeros eliminated — [`compress`] re-canonicalises
    /// after every mutation. Empty means zero. The last component
    /// determines the sign and approximates the total to within one ulp.
    repr: Repr,
}

/// Components an [`ExactSum`] stores without a heap block.
const INLINE: usize = 2;

#[derive(Clone, Debug)]
enum Repr {
    /// `components[..len]`, `len ≤ INLINE`.
    Inline { len: u8, components: [f64; INLINE] },
    /// More than `INLINE` components.
    Spilled(Box<[f64]>),
}

impl Default for ExactSum {
    fn default() -> Self {
        ExactSum::from_canonical(&[])
    }
}

/// Error-free transformation: `a + b = s + err` exactly (Knuth's TwoSum).
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bv = s - a;
    let av = s - bv;
    let err = (a - av) + (b - bv);
    (s, err)
}

/// TwoSum under the precondition `|a| ≥ |b|` (Dekker's FastTwoSum).
fn fast_two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let err = b - (s - a);
    (s, err)
}

/// Error-free transformation: `a · b = p + err` exactly, via FMA (`mul_add`
/// is specified as a single rounding, so the residual is exact whether the
/// target has hardware FMA or uses the soft fallback).
fn two_product(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    let err = a.mul_add(b, -p);
    (p, err)
}

/// Canonicalise `e` in place to a **nonadjacent** expansion (Shewchuk's
/// COMPRESS) and return its new length.
///
/// GROW-EXPANSION keeps expansions nonoverlapping but not nonadjacent:
/// after cancellation (mixed-sign addends) the components below the top
/// one can be far larger than one ulp of the top — e.g. adding
/// `2^60, 1, -(2^60 - 1024)` leaves `[1.0, 1024.0]` for the value 1025.
/// The dominant-component shortcut in [`ExactSum::cmp_exact`] is only
/// sound for nonadjacent expansions (tail < 1 ulp of the top), so every
/// mutation re-canonicalises. Compression also collapses exactly
/// representable sums to a single component, which is the fast path for
/// both comparison and equality.
fn compress(e: &mut [f64]) -> usize {
    let m = e.len();
    if m < 2 {
        // The in-place grow pass keeps zero residuals (and can leave a
        // zero total on full cancellation); canonical form has none.
        return usize::from(m == 1 && e[0] != 0.0);
    }
    // Downward pass: sweep significant partial sums towards the top,
    // storing them from the top end down.
    let mut q = e[m - 1];
    let mut bottom = m - 1;
    for i in (0..m - 1).rev() {
        let (big, small) = fast_two_sum(q, e[i]);
        if small != 0.0 {
            e[bottom] = big;
            bottom -= 1;
            q = small;
        } else {
            q = big;
        }
    }
    e[bottom] = q;
    // Upward pass: re-accumulate, emitting finalised low components.
    let mut out = 0usize;
    let mut q = e[bottom];
    for i in bottom + 1..m {
        let (big, small) = fast_two_sum(e[i], q);
        if small != 0.0 {
            e[out] = small;
            out += 1;
        }
        q = big;
    }
    if q != 0.0 {
        e[out] = q;
        out += 1;
    }
    out
}

/// Run `f` over a zeroed scratch slice of `len` components: on the stack
/// for every expansion that occurs in practice, in a `Vec` beyond that.
fn with_scratch<T>(len: usize, f: impl FnOnce(&mut [f64]) -> T) -> T {
    const STACK: usize = 8;
    if len <= STACK {
        f(&mut [0.0; STACK][..len])
    } else {
        f(&mut vec![0.0; len])
    }
}

impl ExactSum {
    /// The empty (zero) sum.
    pub fn zero() -> Self {
        ExactSum::default()
    }

    /// Wrap an already canonical component list.
    fn from_canonical(components: &[f64]) -> Self {
        let repr = if components.len() <= INLINE {
            let mut inline = [0.0; INLINE];
            inline[..components.len()].copy_from_slice(components);
            Repr::Inline {
                len: components.len() as u8,
                components: inline,
            }
        } else {
            Repr::Spilled(components.into())
        };
        ExactSum { repr }
    }

    /// Exact sum of an iterator of weights.
    pub fn of(weights: impl IntoIterator<Item = Weight>) -> Self {
        let mut s = ExactSum::zero();
        for w in weights {
            s.add(w.value());
        }
        s
    }

    /// Add a raw `f64` exactly (GROW-EXPANSION followed by COMPRESS).
    ///
    /// This is the innermost loop of successor-key computation in the
    /// enumerators, so it never allocates unless the result itself has to
    /// spill: sums of up to one component — every step of a two-weight
    /// key — are a single TwoSum, longer ones grow and compress in a stack
    /// scratch buffer.
    pub fn add(&mut self, x: f64) {
        if x == 0.0 {
            return;
        }
        *self = match *self.components() {
            [] => ExactSum::from_canonical(&[x]),
            [c] => {
                // `[err, s]` is what the general path below would produce:
                // `s` is the rounded sum and `err` its roundoff, which
                // COMPRESS leaves as they are.
                let (s, err) = two_sum(x, c);
                match (err != 0.0, s != 0.0) {
                    (true, _) => ExactSum::from_canonical(&[err, s]),
                    (false, true) => ExactSum::from_canonical(&[s]),
                    (false, false) => ExactSum::zero(),
                }
            }
            ref longer => with_scratch(longer.len() + 1, |e| {
                let mut q = x;
                for (slot, &c) in e.iter_mut().zip(longer) {
                    let (s, err) = two_sum(q, c);
                    *slot = err;
                    q = s;
                }
                e[longer.len()] = q;
                let len = compress(e);
                ExactSum::from_canonical(&e[..len])
            }),
        };
    }

    /// Add a weight exactly.
    pub fn add_weight(&mut self, w: Weight) {
        self.add(w.value());
    }

    /// Add another exact sum exactly.
    pub fn add_sum(&mut self, other: &ExactSum) {
        for &c in other.components() {
            self.add(c);
        }
    }

    /// Multiply by a scalar **exactly** (Shewchuk's SCALE-EXPANSION with
    /// zero elimination): the result represents the exact real product of
    /// the represented value and `b`. This is what makes exact products of
    /// weights possible — iterate `scale` over the factors and the result
    /// is independent of the multiplication order.
    #[must_use]
    pub fn scale(&self, b: f64) -> ExactSum {
        let Some((&first, rest)) = self.components().split_first() else {
            return ExactSum::zero();
        };
        if b == 0.0 {
            return ExactSum::zero();
        }
        with_scratch(2 * self.components().len(), |h| {
            let mut len = 0;
            let mut emit = |c: f64| {
                if c != 0.0 {
                    h[len] = c;
                    len += 1;
                }
            };
            let (mut q, err) = two_product(first, b);
            emit(err);
            for &e in rest {
                let (t, t_err) = two_product(e, b);
                let (q2, h1) = two_sum(q, t_err);
                emit(h1);
                let (q3, h2) = fast_two_sum(t, q2);
                emit(h2);
                q = q3;
            }
            emit(q);
            let len = compress(&mut h[..len]);
            ExactSum::from_canonical(&h[..len])
        })
    }

    /// The canonical component list, in increasing magnitude order (empty
    /// means zero). Exposed for representation fingerprints and memory
    /// accounting; the represented value is the exact sum of the entries.
    pub fn components(&self) -> &[f64] {
        match &self.repr {
            Repr::Inline { len, components } => &components[..usize::from(*len)],
            Repr::Spilled(components) => components,
        }
    }

    /// Heap bytes owned beyond `size_of::<ExactSum>()`: none until the
    /// expansion spills.
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Inline { .. } => 0,
            Repr::Spilled(components) => std::mem::size_of_val(&**components),
        }
    }

    /// The closest `f64` approximation of the exact sum.
    pub fn approx(&self) -> f64 {
        // Summing small-to-large; the final component dominates.
        self.components().iter().sum()
    }

    /// The exact sum rounded towards −∞ to an `f64`: the largest `f64`
    /// not above the represented value.
    ///
    /// Unlike the dominant component — whose distance to the exact value
    /// is bounded, but which nothing here proves monotone in it — this is
    /// a monotone function of the exact value *by definition*, which is
    /// what lets [`RankKey::prefix`](crate::RankKey::prefix) order keys by
    /// it. A single component is its own floor. Otherwise the value is
    /// `top + r` where `r` takes the sign of the next component and
    /// `0 < |r| < 2·|next|` (components do not overlap): when that bound
    /// keeps `r` inside the gap between `top` and its neighbouring `f64`
    /// on that side — as it does for everything `compress` has been seen
    /// to emit, `next` being the roundoff of `top` — the floor is `top` or
    /// the `f64` just below it. That is checked, not assumed: when the
    /// bound does not fit the gap, the floor is found by exact comparisons
    /// (which rely on nothing beyond the tail band `cmp_exact` already
    /// trusts).
    pub fn floor(&self) -> f64 {
        let (next, top) = match *self.components() {
            [] => return 0.0,
            [c] => return c,
            [.., next, top] => (next, top),
        };
        if next > 0.0 && 2.0 * next <= top.next_up() - top {
            return top;
        }
        if next < 0.0 && -2.0 * next <= top - top.next_down() {
            return top.next_down() + 0.0;
        }
        let mut floor = top;
        while floor.is_finite() && ExactSum::from_canonical(&[floor]) > *self {
            floor = floor.next_down();
        }
        while floor.is_finite() && ExactSum::from_canonical(&[floor.next_up()]) <= *self {
            floor = floor.next_up();
        }
        floor + 0.0
    }

    /// Exact sign comparison of `self - other`.
    ///
    /// Key comparisons are the innermost loop of every priority-queue
    /// operation in the enumerators, so the decisive cases are handled
    /// without allocating: single-component expansions compare directly,
    /// and multi-component expansions whose dominant components are
    /// separated by more than the expansions' tail bounds compare by those
    /// components alone. Only near-ties fall back to forming the exact
    /// difference.
    fn cmp_exact(&self, other: &ExactSum) -> Ordering {
        let (mine, theirs) = (self.components(), other.components());
        let (x, y) = match (mine.last(), theirs.last()) {
            (None, None) => return Ordering::Equal,
            (None, Some(&y)) => return 0.0f64.total_cmp(&y),
            (Some(&x), None) => return x.total_cmp(&0.0),
            (Some(&x), Some(&y)) => (x, y),
        };
        if mine.len() == 1 && theirs.len() == 1 {
            return x.total_cmp(&y);
        }
        // Expansions are kept **nonadjacent** by `compress`, so the
        // non-dominant components sum to less than one ulp of the dominant
        // one; if the dominant components differ by more than both tail
        // bounds combined, they decide the order. (This is unsound for
        // merely nonoverlapping expansions — see `compress`.)
        let tail_x = 2.0 * f64::EPSILON * x.abs() + f64::MIN_POSITIVE;
        let tail_y = 2.0 * f64::EPSILON * y.abs() + f64::MIN_POSITIVE;
        if x + tail_x < y - tail_y {
            return Ordering::Less;
        }
        if x - tail_x > y + tail_y {
            return Ordering::Greater;
        }
        // Near-tie: the sign of the exact difference decides.
        if mine == theirs {
            return Ordering::Equal;
        }
        let mut diff = self.clone();
        for &c in theirs {
            diff.add(-c);
        }
        match diff.components().last() {
            None => Ordering::Equal,
            Some(&d) if d > 0.0 => Ordering::Greater,
            Some(_) => Ordering::Less,
        }
    }
}

impl PartialEq for ExactSum {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_exact(other) == Ordering::Equal
    }
}

impl Eq for ExactSum {}

impl PartialOrd for ExactSum {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ExactSum {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_exact(other)
    }
}

impl PartialEq<Weight> for ExactSum {
    fn eq(&self, other: &Weight) -> bool {
        *self == ExactSum::of([*other])
    }
}

impl PartialEq<ExactSum> for Weight {
    fn eq(&self, other: &ExactSum) -> bool {
        other == self
    }
}

impl From<Weight> for ExactSum {
    fn from(w: Weight) -> Self {
        ExactSum::of([w])
    }
}

impl fmt::Display for ExactSum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.approx())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total_and_matches_f64() {
        assert!(Weight(1.0) < Weight(2.0));
        assert!(Weight(-1.0) < Weight(0.0));
        assert_eq!(Weight(3.0), Weight(3.0));
        let mut v = vec![Weight(2.0), Weight(-1.0), Weight(0.5)];
        v.sort();
        assert_eq!(v, vec![Weight(-1.0), Weight(0.5), Weight(2.0)]);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(Weight(1.5) + Weight(2.5), Weight(4.0));
        let s: Weight = vec![Weight(1.0), Weight(2.0), Weight(3.0)]
            .into_iter()
            .sum();
        assert_eq!(s, Weight(6.0));
        assert_eq!(-Weight(2.0), Weight(-2.0));
        let mut w = Weight(1.0);
        w += Weight(1.0);
        assert_eq!(w, Weight(2.0));
    }

    #[test]
    fn conversions() {
        assert_eq!(Weight::from(3u64), Weight(3.0));
        assert_eq!(Weight::from(-4i64), Weight(-4.0));
        assert_eq!(Weight::from(0.25f64).value(), 0.25);
        assert_eq!(Weight::ZERO, Weight(0.0));
    }

    #[test]
    fn exact_sum_is_order_independent() {
        // The classic non-associativity witness: summing in different orders
        // gives different f64s but the same ExactSum.
        let ws = [0.1, 0.2, 0.3, 1e16, -1e16, 0.1];
        let forward = ExactSum::of(ws.iter().map(|&w| Weight::new(w)));
        let backward = ExactSum::of(ws.iter().rev().map(|&w| Weight::new(w)));
        assert_eq!(forward, backward);
        assert_eq!(forward.cmp(&backward), Ordering::Equal);
    }

    #[test]
    fn exact_sum_orders_by_exact_value() {
        let a = ExactSum::of([Weight::new(1e16), Weight::new(0.5)]);
        let b = ExactSum::of([Weight::new(1e16), Weight::new(1.0)]);
        // f64 addition cannot see the difference (both round to 1e16, the
        // ULP there being 2.0); the expansion can.
        assert_eq!(1e16 + 0.5, 1e16 + 1.0);
        assert!(a < b);
        let c = ExactSum::of([Weight::new(1.0), Weight::new(1e16)]);
        assert!(a < c);
        assert_eq!(b, c);
    }

    #[test]
    fn exact_sum_monotone_under_addend_replacement() {
        let mut base = ExactSum::of([Weight::new(0.3), Weight::new(0.7)]);
        let mut bumped = ExactSum::of([Weight::new(0.3), Weight::new(0.7000000000000001)]);
        assert!(base < bumped);
        base.add(0.123456789);
        bumped.add(0.123456789);
        assert!(base < bumped, "adding a common term must preserve order");
    }

    #[test]
    fn exact_sum_zero_and_cancellation() {
        let mut s = ExactSum::zero();
        assert_eq!(s, ExactSum::zero());
        assert_eq!(s.approx(), 0.0);
        s.add(0.1);
        s.add(-0.1);
        assert_eq!(s, ExactSum::zero());
        assert_eq!(s, Weight::new(0.0));
    }

    #[test]
    fn exact_sum_compares_with_weight() {
        let s = ExactSum::of([Weight::new(3.0), Weight::new(4.0)]);
        assert_eq!(s, Weight::new(7.0));
        assert_eq!(s.approx(), 7.0);
    }

    #[test]
    fn scale_is_exact_and_order_independent() {
        // 0.1 * 0.2 * 0.3 in every association order gives the same exact
        // product expansion, even though plain f64 products differ by ULPs.
        let factors = [0.1f64, 0.2, 0.3];
        let mut products = Vec::new();
        for perm in [
            [0usize, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [2, 1, 0],
            [1, 2, 0],
            [2, 0, 1],
        ] {
            let mut p = ExactSum::from(Weight::new(factors[perm[0]]));
            p = p.scale(factors[perm[1]]);
            p = p.scale(factors[perm[2]]);
            products.push(p);
        }
        for p in &products[1..] {
            assert_eq!(*p, products[0]);
        }
        // Scaling by zero annihilates; scaling by one is the identity.
        assert_eq!(products[0].scale(0.0), ExactSum::zero());
        assert_eq!(products[0].scale(1.0), products[0]);
    }

    #[test]
    fn cancellation_compresses_to_canonical_form() {
        // Without compression, adding 2^60, 1, -(2^60 - 1024) leaves the
        // nonoverlapping-but-adjacent expansion [1.0, 1024.0] whose tail
        // (1.0) vastly exceeds one ulp of its top — which broke the
        // dominant-component comparison shortcut. Compression collapses it
        // to the exactly representable single component 1025.
        let big = (1u64 << 60) as f64;
        let s = ExactSum::of([
            Weight::new(big),
            Weight::new(1.0),
            Weight::new(-(big - 1024.0)),
        ]);
        assert_eq!(s.approx(), 1025.0);
        assert_eq!(s, Weight::new(1025.0));
        // The ordering near the cancelled value must be exact.
        let just_below = ExactSum::of([Weight::new(1024.5)]);
        assert!(just_below < s, "1024.5 must order below 1025");
        let just_above = ExactSum::of([Weight::new(1025.5)]);
        assert!(s < just_above);
    }

    #[test]
    fn in_place_add_reuses_the_component_buffer() {
        // Regression for the hot-path allocation: repeated adds must not
        // grow the buffer beyond the expansion's canonical length + 1, and
        // cancellation must restore the canonical empty form.
        let mut s = ExactSum::zero();
        for i in 0..1000 {
            s.add(0.1 * (i % 7 + 1) as f64);
        }
        assert!(
            s.components().len() <= 3,
            "canonical expansion stays short, got {}",
            s.components().len()
        );
        let total = s.clone();
        s.add_sum(&total.scale(-1.0));
        assert_eq!(s, ExactSum::zero());
        assert!(
            s.components().is_empty(),
            "cancellation must re-canonicalise"
        );
        // Interleaved magnitudes still produce an order-independent result.
        let mut a = ExactSum::zero();
        let mut b = ExactSum::zero();
        let ws = [1e300, 1.0, -1e300, 1e-300, 3.5, -1.0];
        for &w in &ws {
            a.add(w);
        }
        for &w in ws.iter().rev() {
            b.add(w);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn scale_preserves_order_for_positive_factors() {
        let a = ExactSum::of([Weight::new(1e16), Weight::new(0.5)]);
        let b = ExactSum::of([Weight::new(1e16), Weight::new(1.0)]);
        assert!(a < b);
        let f = 1.0 / 3.0;
        assert!(a.scale(f) < b.scale(f), "exact scaling must preserve order");
    }

    #[test]
    fn exact_sum_fits_three_words_and_stays_inline_up_to_two_components() {
        assert!(std::mem::size_of::<ExactSum>() <= 24);
        let (high, mid) = (2.0f64.powi(120), 2.0f64.powi(60));
        let two = ExactSum::of([Weight::new(mid), Weight::new(0.5)]);
        assert_eq!(two.components(), &[0.5, mid]);
        assert_eq!(two.heap_bytes(), 0);
        let three = ExactSum::of([high, mid, 0.5].map(Weight::new));
        assert_eq!(three.components(), &[0.5, mid, high]);
        assert_eq!(three.heap_bytes(), 24);
        // Spilled and inline forms of one value are the same key.
        let mut back = three.clone();
        back.add(-high);
        assert_eq!(back.components(), two.components());
        assert_eq!(back, two);
        assert_eq!(back.heap_bytes(), 0);
        // The one-component fast path of `add` matches the general one:
        // building [a, b] directly or through a longer detour agrees.
        let direct = ExactSum::of([Weight::new(0.1), Weight::new(0.2)]);
        let mut detour = ExactSum::of([0.1, 1e20, 0.2].map(Weight::new));
        detour.add(-1e20);
        assert_eq!(direct.components(), detour.components());
    }

    #[test]
    fn floor_is_the_largest_float_not_above_the_exact_value() {
        let single = |f: f64| ExactSum::of([Weight(f)]);
        let tiny = f64::from_bits(1);
        let cases: Vec<Vec<f64>> = vec![
            vec![],
            vec![2.5],
            vec![-2.5],
            vec![1e16, 0.5],
            vec![1e16, -0.5],
            vec![-1e16, 0.5],
            vec![-1e16, -0.5],
            vec![1.0, tiny],
            vec![1.0, -tiny],
            vec![-1.0, tiny],
            vec![-1.0, -tiny],
            vec![f64::MIN_POSITIVE, -tiny],
            vec![1e32, 1e16, 0.5],
            vec![1e32, -1e16, -0.5],
            vec![0.1, 0.2, 0.3],
        ];
        for addends in cases {
            let s = ExactSum::of(addends.iter().map(|&w| Weight(w)));
            let floor = s.floor();
            assert!(single(floor) <= s, "{addends:?}: floor {floor:e} is above");
            assert!(
                s < single(floor.next_up()),
                "{addends:?}: {floor:e} is not the largest"
            );
            if s.components().len() <= 1 {
                assert_eq!(single(floor), s);
            }
        }
        assert_eq!(
            ExactSum::of([Weight(1.0), Weight(-tiny)]).floor(),
            1.0f64.next_down()
        );
        assert_eq!(ExactSum::of([Weight(1.0), Weight(tiny)]).floor(), 1.0);
        // A nonoverlapping expansion `compress` would never emit — its
        // tail is three quarters of an ulp, inside `cmp_exact`'s band but
        // past the gap to the neighbouring float: the exact search runs.
        let wide = 0.75 * f64::EPSILON;
        assert_eq!(ExactSum::from_canonical(&[wide, 1.0]).floor(), 1.0);
        assert_eq!(
            ExactSum::from_canonical(&[-wide, 1.0]).floor(),
            1.0f64.next_down().next_down()
        );
    }
}
