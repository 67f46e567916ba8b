//! Result documents and `benchmark compare`.
//!
//! A run of one workload yields a *result document*: the contract's four
//! keys (`correct`, `attempted`, `failed`, `metrics`) plus everything
//! needed to reproduce and judge it — seed, commit, CPU count, effective
//! server configuration, frozen open-loop rates, and per metric its
//! direction, bound, sample count and inter-round spread. A run of all
//! workloads is `{"runs": [document, …]}`.

use crate::harness::json::Json;
use crate::harness::metrics::{self, Better, MetricDef, Values};
use crate::harness::stats;
use std::collections::BTreeMap;

/// Outcome of one workload run.
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    /// The CPU the workload's phases were confined to, if they were.
    pub pinned_cpu: Option<usize>,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Failure and mismatch messages, for the operator.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn defs(&self) -> &'static [MetricDef] {
        if self.traced {
            metrics::PER_LAYER
        } else {
            metrics::END_TO_END
        }
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, each metric exactly `value` and `unit`.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .values
            .in_order(self.defs())
            .into_iter()
            .map(|(def, v)| {
                let entry =
                    Json::obj([("value", Json::Num(v.value)), ("unit", Json::str(def.unit))]);
                (def.name.to_string(), entry)
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }

    /// The full result document.
    pub fn document(&self, context: &[(&'static str, Json)]) -> Json {
        let metrics = self
            .values
            .in_order(self.defs())
            .into_iter()
            .map(|(def, v)| {
                let mut entry = vec![
                    ("value", Json::Num(v.value)),
                    ("unit", Json::str(def.unit)),
                    ("better", Json::str(def.better.as_str())),
                ];
                if let Some(bound) = def.bound {
                    entry.push(("bound", Json::Num(bound)));
                }
                entry.push(("n", Json::Num(v.n as f64)));
                entry.push(("spread", Json::Num(v.spread)));
                (def.name.to_string(), Json::obj(entry))
            })
            .collect();
        let mut members = vec![
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("trace", Json::Num(f64::from(u8::from(self.traced)))),
            ("smoke", Json::Bool(self.smoke)),
            (
                "pinned_cpu",
                self.pinned_cpu.map_or(Json::Null, |c| Json::Num(c as f64)),
            ),
        ];
        members.extend(context.iter().cloned());
        members.extend([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
            (
                "errors",
                Json::Arr(self.errors.iter().map(Json::str).collect()),
            ),
        ]);
        Json::obj(members)
    }

    /// `workload metric value unit` lines, the human-readable listing.
    pub fn listing(&self) -> String {
        let mut out = String::new();
        for (def, v) in self.values.in_order(self.defs()) {
            out.push_str(&format!(
                "{} {} {} {}",
                self.workload, def.name, v.value, def.unit
            ));
            if v.n > 0 {
                out.push_str(&format!("  (n={}, round spread {:.3})", v.n, v.spread));
            }
            out.push('\n');
        }
        out
    }
}

/// The values of one side of a comparison: per (workload, metric), one
/// value per result document read.
type Side = BTreeMap<(String, String), Vec<f64>>;

/// Direction, bound and unit of every metric name met while reading.
type Defs = BTreeMap<String, (Better, Option<f64>, String)>;

/// Collect the values of one side: each path a single result document or
/// `{"runs": […]}`.
fn read_side(paths: &str) -> Result<(Side, Defs), String> {
    let mut side = Side::new();
    let mut defs = BTreeMap::new();
    for path in paths.split(',').filter(|p| !p.is_empty()) {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        // A document is one line, and the captured output of a run of all
        // workloads ends with one: the last non-empty line is the JSON.
        let last = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or_else(|| format!("{path}: empty"))?;
        let doc = Json::parse(last).map_err(|e| format!("{path}: {e}"))?;
        let runs: Vec<&Json> = match doc.get("runs").and_then(Json::as_arr) {
            Some(runs) => runs.iter().collect(),
            None => vec![&doc],
        };
        for run in runs {
            let workload = run
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{path}: a run has no `workload`"))?;
            let metrics = run
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("{path}: a run has no `metrics`"))?;
            for (name, entry) in metrics {
                let value = entry
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{path}: `{name}` has no value"))?;
                side.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
                let better = match entry.get("better").and_then(Json::as_str) {
                    Some("higher") => Better::Higher,
                    Some(_) => Better::Lower,
                    None => metrics::find(name).map_or(Better::Lower, |d| d.better),
                };
                let bound = entry
                    .get("bound")
                    .and_then(Json::as_f64)
                    .or_else(|| metrics::find(name).and_then(|d| d.bound));
                let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
                defs.insert(name.clone(), (better, bound, unit.to_string()));
            }
        }
    }
    Ok((side, defs))
}

/// Verdict of one (workload, metric) row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `new` against `base`: unresolved when either side's run-to-run
/// spread is wider than the bound; worse when the median moved the wrong
/// way by more than the bound; better when it moved the right way by more
/// than either side's spread; otherwise the same.
pub fn judge(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let (b, n) = (stats::median(base), stats::median(new));
    let (sb, sn) = (stats::spread(base), stats::spread(new));
    if sb > bound || sn > bound {
        return Verdict::Unresolved;
    }
    if b == 0.0 {
        return if n == 0.0 {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    let worsening = match better {
        Better::Lower => (n - b) / b,
        Better::Higher => (b - n) / b,
    };
    // One document a side has no run-to-run spread to beat: fall back to
    // the bound.
    let noise = if base.len() > 1 && new.len() > 1 {
        sb.max(sn)
    } else {
        bound
    };
    if worsening > bound {
        Verdict::Worse
    } else if -worsening > noise {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// `benchmark compare BASE NEW`: each side one file or a comma-separated
/// list of files (result documents, `{"runs": …}` documents, or captured
/// output ending in one). Prints a row per (metric, workload) holding a
/// bound; returns whether any row is `worse`.
pub fn compare(base_paths: &str, new_paths: &str) -> Result<bool, String> {
    let (base, defs) = read_side(base_paths)?;
    let (new, _) = read_side(new_paths)?;
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "new", "ratio", "spreadB", "spreadN", "bound"
    );
    let mut any_worse = false;
    for ((workload, metric), base_values) in &base {
        let Some((better, Some(bound), unit)) = defs.get(metric).cloned() else {
            continue;
        };
        let Some(new_values) = new.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let verdict = judge(base_values, new_values, better, bound);
        any_worse |= verdict == Verdict::Worse;
        let (b, n) = (stats::median(base_values), stats::median(new_values));
        println!(
            "{:<16} {:<16} {:>14.4} {:>14.4} {:>8.4} {:>8.4} {:>8.4} {:>6.2}  {} ({unit}, {} is better, base n={}, new n={})",
            workload,
            metric,
            b,
            n,
            if b == 0.0 { 0.0 } else { n / b },
            stats::spread(base_values),
            stats::spread(new_values),
            bound,
            verdict.as_str(),
            better.as_str(),
            base_values.len(),
            new_values.len(),
        );
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_bound_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [103.0, 104.0, 102.0, 103.5, 102.5];
        let worse = [115.0, 116.0, 114.0, 115.5, 114.5];
        let better = [80.0, 81.0, 79.0, 80.5, 79.5];
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(judge(&base, &same, Better::Lower, 0.10), Verdict::Same);
        assert_eq!(judge(&base, &worse, Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(judge(&base, &better, Better::Lower, 0.10), Verdict::Better);
        assert_eq!(
            judge(&base, &noisy, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Direction flips for throughput.
        assert_eq!(judge(&base, &worse, Better::Higher, 0.10), Verdict::Better);
        assert_eq!(judge(&base, &better, Better::Higher, 0.10), Verdict::Worse);
    }
}
