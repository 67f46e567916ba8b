//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction and — for end-to-end metrics — regression bound. It mirrors
//! `BENCHMARK.json`; `tests/benchmark_smoke.rs` fails when the two differ.

use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    /// `None` for per-layer metrics, which are never gated.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a client of the server sees. Every workload reports every one.
/// The timings carry the widest bound the contract allows: on the shared
/// two-core machine this runs on, their run-to-run spread is 3–12 % on a
/// quiet day (see the README), and a bound must clear three times that.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("open_p50_ms", "ms", Lower, 0.25),
    e2e("ttfp_p50_ms", "ms", Lower, 0.25),
    e2e("fetch_p50_us", "us", Lower, 0.25),
    e2e("rows_per_s", "rows/s", Higher, 0.25),
    e2e("sessions_per_s", "1/s", Higher, 0.25),
    e2e("peak_heap_mb", "MiB", Lower, 0.15),
];

/// Single layers, from the traced run. `*` in a comment marks a count that
/// repeats exactly for a seed.
pub const PER_LAYER: &[MetricDef] = &[
    // Tails and failures of the run's untraced phase: too few samples or
    // too wide a spread on some workload to carry a bound.
    layer("failed_ratio", "ratio", Lower),
    layer("open_p90_ms", "ms", Lower),
    layer("fetch_p99_us", "us", Lower),
    layer("peak_rss_mb", "MiB", Lower),
    // sql
    layer("sql.plan_miss_us", "us", Lower),
    layer("sql.plan_hit_us", "us", Lower),
    layer("sql.plan_cache_hit_ratio", "ratio", Higher),
    layer("sql.open_ms.sum2", "ms", Lower),
    layer("sql.open_ms.sum3", "ms", Lower),
    layer("sql.open_ms.lex2", "ms", Lower),
    layer("sql.open_ms.sum4", "ms", Lower),
    layer("sql.open_ms.point", "ms", Lower),
    // query
    layer("query.join_tree_us", "us", Lower),
    layer("query.ghd_select_us", "us", Lower),
    // join
    layer("join.reduce_ms", "ms", Lower),
    layer("join.reduce_rows_per_s", "rows/s", Higher),
    layer("join.bags_ms.t1", "ms", Lower),
    layer("join.bags_ms.t2", "ms", Lower),
    layer("join.bag_rows", "count", Lower),           // *
    layer("join.wcoj_intersections", "count", Lower), // *
    layer("join.reduce_input_rows", "count", Lower),  // *
    // storage
    layer("storage.hash_index_ns_per_row", "ns", Lower),
    layer("storage.sorted_index_ns_per_row", "ns", Lower),
    layer("storage.trie_index_ns_per_row", "ns", Lower),
    layer("storage.trie_bytes", "bytes", Lower), // *
    // exec
    layer("exec.map_overhead_us", "us", Lower),
    layer("exec.pool_busy_ratio", "ratio", Higher),
    layer("exec.pool_tasks", "count", Lower),
    layer("exec.pool_steals", "count", Lower),
    // core
    layer("core.build_ms.acyclic", "ms", Lower),
    layer("core.build_ms.lexi", "ms", Lower),
    layer("core.build_ms.cyclic", "ms", Lower),
    layer("core.build_ms.union", "ms", Lower),
    layer("core.next_p50_ns.sum2", "ns", Lower),
    layer("core.next_p50_ns.lex2", "ns", Lower),
    layer("core.next_p50_ns.sum3", "ns", Lower),
    layer("core.next_p50_ns.union", "ns", Lower),
    layer("core.next_p99_ns.sum2", "ns", Lower),
    layer("core.next_p99_ns.lex2", "ns", Lower),
    layer("core.next_p99_ns.sum3", "ns", Lower),
    layer("core.next_p99_ns.union", "ns", Lower),
    layer("core.next_max_ns.sum2", "ns", Lower),
    layer("core.next_max_ns.lex2", "ns", Lower),
    layer("core.next_max_ns.sum3", "ns", Lower),
    layer("core.next_max_ns.union", "ns", Lower),
    layer("core.rows_per_s.sum2", "rows/s", Higher),
    layer("core.rows_per_s.lex2", "rows/s", Higher),
    layer("core.rows_per_s.sum3", "rows/s", Higher),
    layer("core.rows_per_s.union", "rows/s", Higher),
    layer("core.pq_ops_per_answer_p99", "count", Lower), // *
    layer("core.pq_ops_per_answer_max", "count", Lower), // *
    layer("core.log2_input_rows", "count", Lower),       // *
    layer("core.frontier_peak_bytes", "bytes", Lower),   // *
    layer("core.cells_created", "count", Lower),         // *
    layer("core.tuple_allocs", "count", Lower),          // *
    // ranking
    layer("ranking.sum_key_ns", "ns", Lower),
    // server
    layer("server.handle_fetch_us.k1", "us", Lower),
    layer("server.handle_fetch_us.k8", "us", Lower),
    layer("server.handle_open_us", "us", Lower),
    layer("server.session_overhead_us", "us", Lower),
    layer("server.parked_bytes", "bytes", Lower),
    // wire
    layer("wire.json.encode_page_us.k8", "us", Lower),
    layer("wire.json.encode_page_us.k1024", "us", Lower),
    layer("wire.json.decode_page_us.k8", "us", Lower),
    layer("wire.json.decode_page_us.k1024", "us", Lower),
    layer("wire.json.bytes_per_row", "bytes", Lower), // *
    layer("wire.binary.encode_page_us.k8", "us", Lower),
    layer("wire.binary.encode_page_us.k1024", "us", Lower),
    layer("wire.binary.decode_page_us.k8", "us", Lower),
    layer("wire.binary.decode_page_us.k1024", "us", Lower),
    layer("wire.binary.bytes_per_row", "bytes", Lower), // *
    // net
    layer("net.ping_rtt_us.json", "us", Lower),
    layer("net.ping_rtt_us.binary", "us", Lower),
    layer("net.transport_share", "ratio", Lower),
    layer("net.epoll_waits_per_req", "ratio", Lower),
    layer("net.wakeups_per_req", "ratio", Lower),
    layer("net.bytes_out_per_row", "bytes", Lower),
    layer("net.due_p99_us.r1", "us", Lower),
    layer("net.due_p99_us.r2", "us", Lower),
    layer("net.due_p99_us.r3", "us", Lower),
    layer("net.due_p99_us.r4", "us", Lower),
    layer("net.max_rate_ok", "req/s", Higher),
    layer("net.generator_late_p99_us", "us", Lower),
    // obs
    layer("obs.instrument_overhead_ns", "ns", Lower),
    layer("obs.trace_overhead_ratio", "ratio", Lower),
    // ledger: end-to-end median minus the layers that should explain it
    layer("ledger.fetch_unattributed_us", "us", Lower),
    layer("ledger.open_unattributed_us", "us", Lower),
];

/// Whether `name` fits the contract: starts with a letter or digit, then
/// at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Whether `unit` fits the contract: at most 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|def| def.name == name)
}

/// One measured value, with what is known of its steadiness.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Value {
    pub value: f64,
    /// Samples behind the value (0: not a sampled quantity).
    pub n: u64,
    /// Inter-quartile spread across the rounds of the run, as a share of
    /// their median (0: not taken per round).
    pub spread: f64,
}

/// The values of one run, by metric name. Setting a name the catalogue
/// does not hold is a bug and panics.
#[derive(Clone, Debug, Default)]
pub struct Values(BTreeMap<&'static str, Value>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_sampled(name, value, 0, 0.0);
    }

    pub fn set_sampled(&mut self, name: &str, value: f64, n: u64, spread: f64) {
        let def = find(name).unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"));
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(def.name, Value { value, n, spread });
    }

    pub fn get(&self, name: &str) -> Option<Value> {
        self.0.get(name).copied()
    }

    /// The values of `defs` in catalogue order. A per-layer metric the run
    /// did not exercise reads 0; a missing end-to-end metric is a bug.
    pub fn in_order(&self, defs: &'static [MetricDef]) -> Vec<(&'static MetricDef, Value)> {
        defs.iter()
            .map(|def| {
                let v = self.get(def.name).unwrap_or_else(|| {
                    assert!(
                        def.bound.is_none(),
                        "end-to-end metric `{}` not set",
                        def.name
                    );
                    Value::default()
                });
                (def, v)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_obey_the_contract_charset() {
        for ok in [
            "a",
            "open_p50_ms",
            "core.next_p50_ns.sum2",
            "page-fetch-tcp",
            "9x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".a",
            "-a",
            "_a",
            "a b",
            "a/b",
            "µs",
            "a%",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "rows/s", "count", "%", "MiB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "a b", "seventeen-letters"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn the_catalogue_is_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(def.name), "{}", def.name);
            assert!(valid_unit(def.unit), "{}: {}", def.name, def.unit);
            assert!(seen.insert(def.name), "{} listed twice", def.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }
}
