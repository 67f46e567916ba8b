//! Weight assignments `w : dom(A) → ℝ` (Example 3 of the paper).

use crate::weight::Weight;
use re_storage::{Attr, DegreeIndex, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Behaviour for attributes/values without an explicit weight table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DefaultWeight {
    /// Use the (dictionary-encoded) value itself as its weight. This is the
    /// natural choice for synthetic integer domains.
    ValueAsWeight,
    /// Weight zero. Used by the Appendix-B baseline which sets the weight of
    /// every non-projection attribute to zero.
    Zero,
}

/// A weight assignment: per-attribute weight tables with a configurable
/// default for values (or attributes) without an entry.
///
/// Weight tables are shared behind `Arc` so that several query variables
/// bound to the same entity class (e.g. `a1` and `a2` both ranging over
/// authors) can share one table without copying it.
#[derive(Clone, Debug)]
pub struct WeightAssignment {
    tables: HashMap<Attr, Arc<HashMap<Value, Weight>>>,
    default: DefaultWeight,
    /// Per-attribute overrides of the global default, consulted before
    /// `default` when an attribute has no table entry for a value.
    attr_defaults: HashMap<Attr, DefaultWeight>,
}

impl WeightAssignment {
    /// Every value weighs its own numeric value.
    pub fn value_as_weight() -> Self {
        WeightAssignment {
            tables: HashMap::new(),
            default: DefaultWeight::ValueAsWeight,
            attr_defaults: HashMap::new(),
        }
    }

    /// Every value weighs zero unless a table overrides it.
    pub fn zero() -> Self {
        WeightAssignment {
            tables: HashMap::new(),
            default: DefaultWeight::Zero,
            attr_defaults: HashMap::new(),
        }
    }

    /// Change the default behaviour.
    pub fn with_default(mut self, default: DefaultWeight) -> Self {
        self.default = default;
        self
    }

    /// Override the default behaviour for one attribute only. Used, e.g., to
    /// rank by a *subset* of the projection attributes
    /// (`ORDER BY a1 + a2` while also selecting `a3`): keep the global
    /// default for `a1`, `a2` and set the others to [`DefaultWeight::Zero`].
    pub fn with_attr_default(mut self, attr: impl Into<Attr>, default: DefaultWeight) -> Self {
        self.attr_defaults.insert(attr.into(), default);
        self
    }

    /// Attach an explicit weight table to an attribute.
    pub fn with_table(mut self, attr: impl Into<Attr>, table: HashMap<Value, Weight>) -> Self {
        self.tables.insert(attr.into(), Arc::new(table));
        self
    }

    /// Attach an already shared weight table to an attribute (used when
    /// several query variables range over the same entities).
    pub fn with_shared_table(
        mut self,
        attr: impl Into<Attr>,
        table: Arc<HashMap<Value, Weight>>,
    ) -> Self {
        self.tables.insert(attr.into(), table);
        self
    }

    /// Attach the *logarithmic* weights of the paper's evaluation
    /// (Section 6.1.1): `w(v) = log2(1 + deg(v))` where `deg` comes from a
    /// degree index over the relation the entity lives in.
    pub fn with_log_degree_table(self, attr: impl Into<Attr>, degrees: &DegreeIndex) -> Self {
        let table = Self::log_degree_table(degrees.iter());
        self.with_table(attr, table)
    }

    /// Build a log-degree weight table from explicit `(value, degree)` pairs.
    pub fn log_degree_table(
        pairs: impl IntoIterator<Item = (Value, u32)>,
    ) -> HashMap<Value, Weight> {
        pairs
            .into_iter()
            .map(|(v, d)| (v, Weight::new((1.0 + d as f64).log2())))
            .collect()
    }

    /// The weight of a value under an attribute — a convenience over
    /// [`WeightAssignment::resolver`] for one-off lookups; anything that
    /// looks up many values of one attribute resolves it once instead.
    pub fn weight_of(&self, attr: &Attr, value: Value) -> Weight {
        self.resolver(attr).weight_of(value)
    }

    /// Whether the attribute has an explicit table.
    pub fn has_table(&self, attr: &Attr) -> bool {
        self.tables.contains_key(attr)
    }

    /// A per-attribute resolver: the attribute's table and effective
    /// default, resolved **once**. Looking a value up by attribute name
    /// hashes the name into two maps before it reaches the value; ranking
    /// plans and lexicographic levels resolve each attribute up front so a
    /// value costs at most one lookup (none without a table).
    /// The resolver shares the table (`Arc`), so it outlives `self`.
    pub fn resolver(&self, attr: &Attr) -> AttrWeights {
        AttrWeights {
            table: self.tables.get(attr).cloned(),
            default: self
                .attr_defaults
                .get(attr)
                .copied()
                .unwrap_or(self.default),
        }
    }

    /// One resolver per attribute of `attrs`, in order — the shape of a
    /// ranking plan.
    pub fn resolvers(&self, attrs: &[Attr]) -> Vec<AttrWeights> {
        attrs.iter().map(|a| self.resolver(a)).collect()
    }
}

/// A [`WeightAssignment`] restricted to one attribute (see
/// [`WeightAssignment::resolver`]).
#[derive(Clone, Debug)]
pub struct AttrWeights {
    table: Option<Arc<HashMap<Value, Weight>>>,
    default: DefaultWeight,
}

impl AttrWeights {
    /// The weight of one value — a single hash lookup (none when the
    /// attribute has no table).
    #[inline]
    pub fn weight_of(&self, value: Value) -> Weight {
        if let Some(w) = self.table.as_ref().and_then(|t| t.get(&value)) {
            return *w;
        }
        match self.default {
            DefaultWeight::ValueAsWeight => Weight::new(value as f64),
            DefaultWeight::Zero => Weight::ZERO,
        }
    }
}

impl Default for WeightAssignment {
    fn default() -> Self {
        WeightAssignment::value_as_weight()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_as_weight_default() {
        let w = WeightAssignment::value_as_weight();
        assert_eq!(w.weight_of(&Attr::new("a"), 7), Weight::new(7.0));
    }

    #[test]
    fn zero_default() {
        let w = WeightAssignment::zero();
        assert_eq!(w.weight_of(&Attr::new("a"), 7), Weight::ZERO);
    }

    #[test]
    fn explicit_table_overrides_default() {
        let mut table = HashMap::new();
        table.insert(5u64, Weight::new(0.25));
        let w = WeightAssignment::value_as_weight().with_table("a", table);
        assert_eq!(w.weight_of(&Attr::new("a"), 5), Weight::new(0.25));
        // absent value falls back to the default
        assert_eq!(w.weight_of(&Attr::new("a"), 6), Weight::new(6.0));
        // other attributes are unaffected
        assert_eq!(w.weight_of(&Attr::new("b"), 5), Weight::new(5.0));
        assert!(w.has_table(&Attr::new("a")));
        assert!(!w.has_table(&Attr::new("b")));
    }

    #[test]
    fn shared_table_between_variables() {
        let table: Arc<HashMap<Value, Weight>> =
            Arc::new([(1u64, Weight::new(10.0))].into_iter().collect());
        let w = WeightAssignment::zero()
            .with_shared_table("a1", Arc::clone(&table))
            .with_shared_table("a2", table);
        assert_eq!(w.weight_of(&Attr::new("a1"), 1), Weight::new(10.0));
        assert_eq!(w.weight_of(&Attr::new("a2"), 1), Weight::new(10.0));
    }

    #[test]
    fn log_degree_table_formula() {
        let table = WeightAssignment::log_degree_table([(3u64, 1u32), (4, 3)]);
        assert_eq!(table[&3], Weight::new(1.0)); // log2(2)
        assert_eq!(table[&4], Weight::new(2.0)); // log2(4)
    }

    #[test]
    fn per_attribute_default_overrides_global_default() {
        let w =
            WeightAssignment::value_as_weight().with_attr_default("ignored", DefaultWeight::Zero);
        assert_eq!(w.weight_of(&Attr::new("ranked"), 7), Weight::new(7.0));
        assert_eq!(w.weight_of(&Attr::new("ignored"), 7), Weight::ZERO);
        // An explicit table entry still wins over the per-attribute default.
        let mut table = HashMap::new();
        table.insert(3u64, Weight::new(0.5));
        let w = w.with_table("ignored", table);
        assert_eq!(w.weight_of(&Attr::new("ignored"), 3), Weight::new(0.5));
        assert_eq!(w.weight_of(&Attr::new("ignored"), 4), Weight::ZERO);
    }

    #[test]
    fn resolver_agrees_with_weight_of_everywhere() {
        let mut table = HashMap::new();
        table.insert(5u64, Weight::new(0.25));
        let w = WeightAssignment::value_as_weight()
            .with_table("a", table)
            .with_attr_default("z", DefaultWeight::Zero);
        for attr in ["a", "b", "z"] {
            let attr = Attr::new(attr);
            let r = w.resolver(&attr);
            for v in [0u64, 5, 6, 42] {
                assert_eq!(r.weight_of(v), w.weight_of(&attr, v), "{attr} {v}");
            }
        }
    }

    #[test]
    fn log_degree_from_degree_index() {
        use re_storage::{attr::attrs, Relation};
        let rel = Relation::with_tuples(
            "AP",
            attrs(["a", "p"]),
            vec![vec![1, 10], vec![1, 11], vec![1, 12], vec![2, 10]],
        )
        .unwrap();
        let deg = DegreeIndex::build(&rel, &Attr::new("a")).unwrap();
        let w = WeightAssignment::zero().with_log_degree_table("a", &deg);
        assert_eq!(w.weight_of(&Attr::new("a"), 1), Weight::new(2.0)); // deg 3 → log2(4)
        assert_eq!(w.weight_of(&Attr::new("a"), 2), Weight::new(1.0)); // deg 1 → log2(2)
        assert_eq!(w.weight_of(&Attr::new("a"), 99), Weight::ZERO);
    }
}
