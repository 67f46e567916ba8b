//! Interning identity and inline order hints for rank keys.
//!
//! The frontier kernel in `rankedenum-core` stores every distinct rank key
//! **once** in a per-node interner and lets priority-queue entries carry a
//! `u32` key id instead of a cloned key — the representation trick that
//! keeps heap entries constant-size no matter how wide an [`ExactSum`]
//! expansion or a lexicographic key vector grows. Interning needs two
//! things beyond the [`Ord`] bound every key already has: a cheap hash of
//! the key's *representation* to bucket candidates, and a byte count for
//! memory accounting. [`RankKey`] provides both, plus a 64-bit order hint
//! that lets most heap comparisons skip the interner altogether — and, for
//! a key that hint describes completely, a way to say so, which lets the
//! kernel skip *storing* the key as well.
//!
//! The fingerprint contract is deliberately one-sided:
//!
//! * keys with identical representations MUST have identical fingerprints
//!   (so duplicates dedup), while
//! * keys that compare [`Ordering::Equal`](std::cmp::Ordering::Equal)
//!   through *different* representations MAY fingerprint differently.
//!
//! The second case merely stores the key twice under two ids; every
//! comparison still goes through `Ord`, so correctness never depends on
//! perfect deduplication. This sidesteps the classic float pitfall: none
//! of the key types here can implement [`std::hash::Hash`] consistently
//! with their value-based `Eq` (e.g. [`ExactSum`] equality is decided by
//! an exact difference, not by representation), but a representation
//! fingerprint is always available.
//!
//! The [`prefix`](RankKey::prefix) contract is one-sided in the same way:
//!
//! * `a.prefix() < b.prefix()` MUST imply `a < b`, while
//! * equal prefixes decide nothing — the keys may compare either way.
//!
//! Equivalently, the prefix is a *weakly* monotone function of the key:
//! `a ≤ b` implies `a.prefix() ≤ b.prefix()`, so in particular equal keys
//! have equal prefixes. A frontier entry carries its key's prefix inline
//! and a comparison consults the interned keys only when two prefixes are
//! equal. The constant `0` — the default — satisfies the contract for any
//! key type: it just never decides. A single-`f64` key's prefix is exact
//! (it decides every comparison between unequal keys); a composite key
//! projects onto something coarser that still never contradicts `Ord`.
//!
//! [`prefix_is_exact`](RankKey::prefix_is_exact) is the third one-sided
//! contract. A key that answers `true` promises that its prefix *is* the
//! key, for every comparison the kernel will make with it:
//!
//! * against another key that says so, `a.cmp(b)` MUST equal
//!   `a.prefix().cmp(&b.prefix())` — equal prefixes now mean equal keys;
//! * against a key of **equal prefix** that does *not* say so, it MUST be
//!   the strictly smaller one — the prefix rounds down, so an exact key is
//!   the least member of the class of keys that share its prefix, and the
//!   only exact one; while
//! * `false` — the default — promises nothing and is always correct.
//!
//! The kernel never interns a key that says `true`: the eight prefix bytes
//! already in its heap entry are all of it, and an entry pair is ordered
//! by the two rules above without reading a stored key. The answer belongs
//! to the key, not to its type, because the interesting type needs both:
//! an [`ExactSum`] of at most one component *is* an `f64` (every `ORDER BY
//! x + y` over integer-valued weights), while a sum of `0.1`s is sometimes
//! one component and sometimes an expansion — inside one queue. Deciding
//! per key lets those two populations share a heap with no mode to select
//! and none to get wrong; a type whose answer is constant (the integers,
//! [`Weight`]: always; a `Vec` key: never) meets the second rule vacuously.

use crate::weight::{order_bits, ExactSum, Weight};
use std::fmt::Debug;

/// A rank key that can be interned: totally ordered, cloneable, and able
/// to report a representation fingerprint, an order prefix, and its owned
/// heap bytes.
///
/// This is the bound on [`Ranking::Key`](crate::Ranking::Key); every key
/// type shipped by this crate implements it, as do the integer types (for
/// tests and custom rankings).
pub trait RankKey: Ord + Clone + Debug + Send {
    /// Hash of the key's representation. Identical representations must
    /// agree; `Ord`-equal keys with different representations may not
    /// (see the module docs for why that is sound).
    fn fingerprint(&self) -> u64;

    /// A 64-bit order hint: `a.prefix() < b.prefix()` must imply `a < b`;
    /// equal prefixes decide nothing (see the module docs). The default
    /// never decides, which is always correct.
    fn prefix(&self) -> u64 {
        0
    }

    /// Whether [`prefix`](RankKey::prefix) is the whole key: against every
    /// other key that says so, `cmp` must equal the prefixes' `cmp`, and a
    /// key of equal prefix that does not say so must be strictly greater
    /// (see the module docs). Decided per key, not per type. The default
    /// promises nothing, which is always correct.
    fn prefix_is_exact(&self) -> bool {
        false
    }

    /// Heap bytes owned by the key beyond `size_of::<Self>()`. Used for
    /// frontier memory accounting; an estimate based on `len` (not
    /// capacity) so it is deterministic across runs.
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// Fold `words` into one fingerprint by multiply-rotate. Weak on its own,
/// and that is enough: the interner re-mixes every fingerprint before it
/// picks a slot, and a collision costs one extra `Ord` comparison.
fn fold_words(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0, |h: u64, w| {
        (h.rotate_left(5) ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    })
}

impl RankKey for Weight {
    /// [`Weight`] equality is `total_cmp`-based, and `total_cmp` equality
    /// is exactly bit equality — so the bit pattern is a *perfect*
    /// fingerprint here.
    fn fingerprint(&self) -> u64 {
        self.value().to_bits()
    }

    /// Exact: the order-preserving image of the weight's bits.
    fn prefix(&self) -> u64 {
        order_bits(self.value())
    }

    fn prefix_is_exact(&self) -> bool {
        true
    }
}

impl RankKey for ExactSum {
    /// Canonical (compressed, nonadjacent) expansions of the same value
    /// agree component-wise in practice; the fingerprint folds the
    /// component bits in order.
    fn fingerprint(&self) -> u64 {
        fold_words(self.components().iter().map(|c| c.to_bits()))
    }

    /// The order-preserving image of the exact value rounded towards −∞
    /// ([`ExactSum::floor`]) — exact for one-component sums; a longer
    /// expansion shares its prefix with the `f64` just below its value,
    /// and the interned keys settle that pair.
    fn prefix(&self) -> u64 {
        order_bits(self.floor())
    }

    /// A sum of at most one component is the `f64` its prefix encodes —
    /// zero is always `+0.0`, canonical form keeps no zero component. A
    /// longer canonical expansion lies strictly between its floor and the
    /// next `f64` up (its top component is the rounded total and the tail
    /// the non-zero roundoff), so it is strictly greater than the exact
    /// key it shares a prefix with; the tests below check that over
    /// `adversarial_sums()` instead of taking it on trust.
    fn prefix_is_exact(&self) -> bool {
        self.components().len() <= 1
    }

    fn heap_bytes(&self) -> usize {
        ExactSum::heap_bytes(self)
    }
}

impl<K: RankKey> RankKey for Vec<K> {
    fn fingerprint(&self) -> u64 {
        fold_words(std::iter::once(self.len() as u64).chain(self.iter().map(RankKey::fingerprint)))
    }

    /// Lexicographic order is decided by the first element whenever the
    /// first elements differ; the empty vector sorts first.
    fn prefix(&self) -> u64 {
        self.first().map_or(0, RankKey::prefix)
    }

    fn heap_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<K>() + self.iter().map(RankKey::heap_bytes).sum::<usize>()
    }
}

macro_rules! int_rank_key {
    ($sign_bit:expr => $($t:ty),*) => {
        $(impl RankKey for $t {
            fn fingerprint(&self) -> u64 {
                *self as u64
            }

            /// Exact: the value itself, offset so that negative values
            /// sort below non-negative ones.
            fn prefix(&self) -> u64 {
                (*self as u64) ^ $sign_bit
            }

            fn prefix_is_exact(&self) -> bool {
                true
            }
        })*
    };
}

int_rank_key!(0 => u8, u16, u32, u64, usize);
int_rank_key!(1 << 63 => i8, i16, i32, i64, isize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_representations_fingerprint_equal() {
        let a = ExactSum::of([Weight::new(0.1), Weight::new(0.2)]);
        let b = ExactSum::of([Weight::new(0.1), Weight::new(0.2)]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(
            Weight::new(3.5).fingerprint(),
            Weight::new(3.5).fingerprint()
        );
        assert_eq!(vec![1u64, 2].fingerprint(), vec![1u64, 2].fingerprint());
    }

    #[test]
    fn different_values_fingerprint_differently_in_practice() {
        assert_ne!(
            Weight::new(1.0).fingerprint(),
            Weight::new(2.0).fingerprint()
        );
        assert_ne!(vec![1u64].fingerprint(), vec![1u64, 1].fingerprint());
    }

    #[test]
    fn order_independent_sums_share_a_fingerprint() {
        // ExactSum canonicalises, so permuted addends produce the same
        // representation — and therefore the same fingerprint.
        let a = ExactSum::of([Weight::new(0.1), Weight::new(1e16), Weight::new(0.2)]);
        let b = ExactSum::of([Weight::new(0.2), Weight::new(0.1), Weight::new(1e16)]);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn heap_bytes_track_component_count() {
        assert_eq!(RankKey::heap_bytes(&ExactSum::zero()), 0);
        let inline = ExactSum::of([Weight::new(1e16), Weight::new(0.5)]);
        assert_eq!(inline.components().len(), 2);
        assert_eq!(
            RankKey::heap_bytes(&inline),
            0,
            "two components stay inline"
        );
        let spilled = ExactSum::of([1e32, 1e16, 0.5].map(Weight::new));
        assert_eq!(spilled.components().len(), 3);
        assert_eq!(RankKey::heap_bytes(&spilled), 3 * 8);
        let v: Vec<Weight> = vec![Weight::new(1.0); 3];
        assert_eq!(v.heap_bytes(), 3 * std::mem::size_of::<Weight>());
        assert_eq!(7u64.heap_bytes(), 0);
    }

    /// Sums built to sit on the prefix contract's edges: one- to
    /// four-component expansions, mixed signs and cancellation, adjacent
    /// floats, binade boundaries, ±0 and subnormals — plus a seeded random
    /// fill around each of them.
    fn adversarial_sums() -> Vec<ExactSum> {
        let big = (1u64 << 60) as f64;
        let tiny = f64::from_bits(1);
        let mut addends: Vec<Vec<f64>> = vec![
            vec![],
            vec![0.0],
            vec![-0.0],
            vec![0.1, -0.1],
            vec![big, 1.0, -(big - 1024.0)],
            vec![1e16, 0.5],
            vec![1e16, 1.0],
            vec![1e16, -0.5],
            vec![-1e16, 0.5],
            vec![-1e16, -0.5],
            vec![1e32, 1e16, 0.5],
            vec![1e32, -1e16, 0.5],
            vec![2.0f64.powi(180), 2.0f64.powi(120), big, 0.5],
            vec![-(2.0f64.powi(180)), 2.0f64.powi(120), -big, 0.5],
            vec![1e300, 1.0, -1e300, 1e-300, 3.5, -1.0],
            vec![tiny],
            vec![-tiny],
            vec![tiny, tiny],
            vec![f64::MIN_POSITIVE, -tiny],
            vec![f64::MIN_POSITIVE, tiny],
            vec![1.0, tiny],
            vec![1.0, -tiny],
            vec![-1.0, tiny],
            vec![-1.0, -tiny],
            vec![0.1, 0.2],
            vec![0.3],
            vec![0.1, 0.2, 0.3],
        ];
        // Binade boundaries and their neighbours, alone and nudged by a
        // quarter, a half and a whole ulp from either side.
        for exp in [-1022, -52, -1, 0, 1, 52, 53, 60, 1000] {
            let edge = 2.0f64.powi(exp);
            for base in [
                edge,
                edge.next_down(),
                edge.next_up(),
                -edge,
                -edge.next_up(),
            ] {
                let ulp = base.abs().next_up() - base.abs();
                addends.push(vec![base]);
                for nudge in [ulp / 4.0, ulp / 2.0, ulp, -ulp / 4.0, -ulp / 2.0, -ulp] {
                    addends.push(vec![base, nudge]);
                    addends.push(vec![base, nudge, nudge / 1024.0]);
                }
            }
        }
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut draw = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..400 {
            // Two to four addends a few binades apart, signs mixed: sums
            // whose dominant components collide or sit one ulp apart.
            let scale = 2.0f64.powi((draw() % 9) as i32 * 26 - 104);
            let n = 2 + draw() % 3;
            let sum = (0..n)
                .map(|i| {
                    let mantissa = (draw() >> 11) as f64 / (1u64 << 53) as f64;
                    let sign = if draw() % 3 == 0 { -1.0 } else { 1.0 };
                    sign * (1.0 + mantissa) * scale * 2.0f64.powi(-(i as i32) * 27)
                })
                .collect();
            addends.push(sum);
        }
        addends
            .into_iter()
            .map(|ws| ExactSum::of(ws.into_iter().map(Weight)))
            .collect()
    }

    /// Both halves of the contract over every ordered pair of `keys`.
    fn assert_prefix_contract<K: RankKey>(keys: &[K]) {
        for a in keys {
            for b in keys {
                if a.prefix() < b.prefix() {
                    assert!(a < b, "prefix({a:?}) < prefix({b:?}) but not a < b");
                }
                if a == b {
                    assert_eq!(a.prefix(), b.prefix(), "{a:?} == {b:?}");
                }
            }
        }
    }

    #[test]
    fn exact_sum_prefixes_never_contradict_the_exact_order() {
        let sums = adversarial_sums();
        assert!(sums.iter().any(|s| s.components().len() >= 3));
        assert!(
            sums.iter().filter(|s| s.components().len() == 2).count() > 100,
            "the pool must be dominated by multi-component sums"
        );
        assert_prefix_contract(&sums);
        // One-component sums are decided by their prefixes alone.
        for a in sums.iter().filter(|s| s.components().len() <= 1) {
            for b in sums.iter().filter(|s| s.components().len() <= 1) {
                assert_eq!(a.prefix().cmp(&b.prefix()), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn weight_vector_and_integer_prefixes_satisfy_the_contract() {
        let tiny = f64::from_bits(1);
        let weights: Vec<Weight> = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -tiny,
            -0.0,
            0.0,
            tiny,
            f64::MIN_POSITIVE,
            1.0,
            1.0f64.next_up(),
            2.0,
            1e300,
            f64::INFINITY,
        ]
        .map(Weight)
        .to_vec();
        assert_prefix_contract(&weights);
        for (a, b) in weights.iter().zip(&weights[1..]) {
            assert!(
                a.prefix() < b.prefix(),
                "{a:?} {b:?}: weight prefixes are exact"
            );
        }
        let mut vectors: Vec<Vec<Weight>> = vec![vec![]];
        for &w in &weights {
            vectors.push(vec![w]);
            vectors.push(vec![w, Weight(-5.0)]);
            vectors.push(vec![w, Weight(7.0)]);
        }
        assert_prefix_contract(&vectors);
        assert_prefix_contract(&[i64::MIN, -2, -1, 0, 1, 2, i64::MAX]);
        assert_prefix_contract(&[i8::MIN, -1, 0, 1, i8::MAX]);
        assert_prefix_contract(&[0u64, 1, 2, u64::MAX]);
        assert_prefix_contract(&[0u8, 1, u8::MAX]);
        assert_prefix_contract(&[0usize, 9, usize::MAX]);
        assert!((-1i32).prefix() < 0i32.prefix() && 0i32.prefix() < 1i32.prefix());
    }

    /// The `prefix_is_exact` contract over every ordered pair of `keys`:
    /// two exact keys are ordered by their prefixes, and an exact key is
    /// strictly below every other key it shares a prefix with — the two
    /// answers the frontier comparator gives without reading a stored key.
    fn assert_exact_prefix_contract<K: RankKey>(keys: &[K]) {
        use std::cmp::Ordering;
        for a in keys.iter().filter(|k| k.prefix_is_exact()) {
            for b in keys {
                if b.prefix_is_exact() {
                    assert_eq!(a.cmp(b), a.prefix().cmp(&b.prefix()), "{a:?} {b:?}");
                } else if a.prefix() == b.prefix() {
                    assert_eq!(a.cmp(b), Ordering::Less, "exact {a:?}, stored {b:?}");
                    assert_eq!(b.cmp(a), Ordering::Greater, "stored {b:?}, exact {a:?}");
                }
            }
        }
    }

    #[test]
    fn an_exact_prefix_is_the_whole_key() {
        let mut sums = adversarial_sums();
        // Every floor in the pool also as a key of its own, so that each
        // expansion meets the exact key it shares a prefix with.
        let floors: Vec<ExactSum> = sums
            .iter()
            .map(|s| ExactSum::of([Weight(s.floor())]))
            .collect();
        sums.extend(floors);
        for s in &sums {
            assert_eq!(s.prefix_is_exact(), s.components().len() <= 1, "{s:?}");
        }
        let shared = sums
            .iter()
            .filter(|s| !s.prefix_is_exact())
            .filter(|s| {
                sums.iter()
                    .any(|e| e.prefix_is_exact() && e.prefix() == s.prefix())
            })
            .count();
        assert!(
            shared > 400,
            "{shared} expansions share a prefix with an exact key"
        );
        for n in 0..=4 {
            assert!(sums.iter().any(|s| s.components().len() == n), "{n}");
        }
        assert_exact_prefix_contract(&sums);
        // ±0: no sum keeps a zero component, so zero has one prefix.
        let zeros = [vec![], vec![0.0], vec![-0.0], vec![0.1, -0.1]]
            .map(|ws| ExactSum::of(ws.into_iter().map(Weight)));
        for z in &zeros {
            assert!(z.prefix_is_exact() && z.prefix() == zeros[0].prefix());
        }

        let weights = [
            f64::NEG_INFINITY,
            -1.0,
            -0.0,
            0.0,
            f64::from_bits(1),
            1.0,
            1e300,
        ];
        let weights = weights.map(Weight);
        assert!(weights.iter().all(RankKey::prefix_is_exact));
        assert_exact_prefix_contract(&weights);
        assert_exact_prefix_contract(&[u8::MIN, 1, u8::MAX]);
        assert_exact_prefix_contract(&[u16::MIN, 1, u16::MAX]);
        assert_exact_prefix_contract(&[u32::MIN, 1, u32::MAX]);
        assert_exact_prefix_contract(&[u64::MIN, 1, u64::MAX]);
        assert_exact_prefix_contract(&[usize::MIN, 1, usize::MAX]);
        assert_exact_prefix_contract(&[i8::MIN, -1, 0, 1, i8::MAX]);
        assert_exact_prefix_contract(&[i16::MIN, -1, 0, 1, i16::MAX]);
        assert_exact_prefix_contract(&[i32::MIN, -1, 0, 1, i32::MAX]);
        assert_exact_prefix_contract(&[i64::MIN, -1, 0, 1, i64::MAX]);
        assert_exact_prefix_contract(&[isize::MIN, -1, 0, 1, isize::MAX]);
        assert!(7u8.prefix_is_exact() && (-7i64).prefix_is_exact());
        // A vector's prefix covers its first element only: never exact,
        // not even for one element — the default, which promises nothing.
        assert!(!vec![Weight(1.0)].prefix_is_exact());
        assert!(!Vec::<Weight>::new().prefix_is_exact());
    }

    #[test]
    fn the_default_prefix_never_decides() {
        #[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
        struct Custom(u32);
        impl RankKey for Custom {
            fn fingerprint(&self) -> u64 {
                u64::from(self.0)
            }
        }
        assert_eq!(Custom(1).prefix(), Custom(2).prefix());
        assert!(!Custom(1).prefix_is_exact());
        assert_prefix_contract(&[Custom(1), Custom(2)]);
    }
}
