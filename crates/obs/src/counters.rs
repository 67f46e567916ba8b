//! Declare-once counter tables.
//!
//! A group of monotone `u64` counters (or gauges) is declared in one
//! [`counter_table!`](crate::counter_table) invocation: per counter the
//! Rust field name, its one-line description, its Prometheus name and
//! kind. The macro generates the plain struct and the arrays
//! (`FIELDS`, `values()`, `from_values()`) that every generic consumer
//! loops over — component-wise merge and diff, the atomic mirror
//! ([`AtomicCounters`]), wire codecs, and the metrics page
//! ([`scalar_metrics`]).

use crate::expo::{MetricKind, ScalarMetric};
use std::sync::atomic::{AtomicU64, Ordering};

/// What the codecs and the metrics page need to know about one declared
/// counter; a table's descriptors are its `FIELDS`, in declaration order,
/// which is also the order on the wire.
#[derive(Clone, Copy, Debug)]
pub struct CounterField {
    /// Name in keyed encodings (the `stats` JSON line): the table's key
    /// prefix plus the Rust field name.
    pub key: &'static str,
    /// Dotted Prometheus name (sanitised and `re_`-prefixed on output).
    pub metric: &'static str,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// The one-line description: first line of the field's rustdoc and
    /// the `# HELP` text.
    pub help: &'static str,
}

/// Declare a group of `u64` counters **once**. Each entry reads
///
/// ```text
/// /// Optional further rustdoc.
/// field: Counter "prometheus.name" = "One-line description.",
/// ```
///
/// and the macro generates the struct with its named public fields (the
/// description is the field's doc), `N`, `FIELDS`, `values()` and
/// `from_values()`. Everything else — merge, diff, the atomic mirror,
/// both wire codecs, the Prometheus page — loops over those arrays, so a
/// new counter is one entry here plus the code that produces its value.
/// Fields under `extra` are carried along untouched (`from_values`
/// defaults them).
#[macro_export]
macro_rules! counter_table {
    (
        $(#[$meta:meta])*
        pub struct $name:ident, key prefix $prefix:literal {
            $($(#[$more:meta])* $field:ident: $kind:ident $metric:literal = $help:literal,)+
        }
        $(extra { $($(#[$xmeta:meta])* $xfield:ident: $xty:ty,)+ })?
    ) => {
        $(#[$meta])*
        pub struct $name {
            $(#[doc = $help] $(#[$more])* pub $field: u64,)+
            $($($(#[$xmeta])* pub $xfield: $xty,)+)?
        }

        impl $name {
            /// Number of counters declared in the table.
            pub const N: usize = [$(stringify!($field)),+].len();
            /// One descriptor per counter, in declaration (= wire) order.
            pub const FIELDS: [$crate::CounterField; Self::N] = [$(
                $crate::CounterField {
                    key: concat!($prefix, stringify!($field)),
                    metric: $metric,
                    kind: $crate::MetricKind::$kind,
                    help: $help,
                }
            ),+];

            /// The counter values, in [`Self::FIELDS`] order.
            pub fn values(&self) -> [u64; Self::N] {
                [$(self.$field),+]
            }

            /// The inverse of [`Self::values`].
            #[allow(clippy::needless_update)]
            pub fn from_values(values: [u64; Self::N]) -> Self {
                let [$($field),+] = values;
                Self { $($field,)+ ..Default::default() }
            }
        }
    };
}

/// The scalar samples of one table: each declared counter's metric name,
/// description and kind with its current value.
pub fn scalar_metrics<'a>(
    fields: &'a [CounterField],
    values: &'a [u64],
) -> impl Iterator<Item = ScalarMetric> + 'a {
    fields.iter().zip(values).map(|(f, &value)| ScalarMetric {
        name: f.metric,
        help: f.help,
        kind: f.kind,
        value: value as f64,
    })
}

/// `N` monotone totals behind relaxed atomics — the lock-free mirror of a
/// counter table's `values()`. Relaxed, because the counters are
/// monitoring data, not synchronisation.
#[derive(Debug)]
pub struct AtomicCounters<const N: usize>([AtomicU64; N]);

impl<const N: usize> Default for AtomicCounters<N> {
    fn default() -> Self {
        AtomicCounters(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

impl<const N: usize> AtomicCounters<N> {
    /// Add `delta` component-wise. Zero components are skipped: most of
    /// a per-page delta is zero, and a single-counter bump costs one
    /// `fetch_add`.
    pub fn add(&self, delta: [u64; N]) {
        for (total, add) in self.0.iter().zip(delta) {
            if add != 0 {
                total.fetch_add(add, Ordering::Relaxed);
            }
        }
    }

    /// Current totals.
    pub fn load(&self) -> [u64; N] {
        std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    counter_table! {
        /// A two-counter table with one carried field.
        #[derive(Clone, Debug, Default, PartialEq)]
        pub struct Sample, key prefix "s_" {
            /// More about `hits`.
            hits: Counter "sample.hits" = "Hits.",
            level: Gauge "sample.level" = "Level.",
        }
        extra {
            /// Carried along.
            label: String,
        }
    }

    #[test]
    fn a_table_generates_the_struct_its_descriptors_and_both_conversions() {
        let sample = Sample {
            hits: 3,
            level: 4,
            label: "kept".into(),
        };
        assert_eq!(sample.values(), [3, 4]);
        assert_eq!(Sample::from_values([3, 4]).hits, 3);
        assert_eq!(Sample::from_values([3, 4]).label, "");
        assert_eq!(Sample::N, 2);
        let [hits, level] = Sample::FIELDS;
        assert_eq!(
            (hits.key, hits.metric, hits.help),
            ("s_hits", "sample.hits", "Hits.")
        );
        assert_eq!(
            (hits.kind, level.kind),
            (MetricKind::Counter, MetricKind::Gauge)
        );
        let metrics: Vec<_> = scalar_metrics(&Sample::FIELDS, &sample.values()).collect();
        assert_eq!((metrics[1].name, metrics[1].value), ("sample.level", 4.0));
    }

    #[test]
    fn atomic_counters_add_componentwise_and_skip_zeros() {
        let totals = AtomicCounters::<3>::default();
        totals.add([1, 0, 5]);
        totals.add([2, 0, 0]);
        assert_eq!(totals.load(), [3, 0, 5]);
    }
}
