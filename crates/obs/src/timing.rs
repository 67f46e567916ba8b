//! Per-operation wall-clock accounting.
//!
//! A [`TimingBreakdown`] is the per-cursor analogue of the global
//! registry: where the registry histograms aggregate over every
//! operation in the process, a breakdown describes *one* enumeration —
//! how long its preprocessing took (split by phase), when its first
//! answer arrived, and the distribution of delays between consecutive
//! answers. The paper's experimental sections report exactly these
//! quantities (TTF, TT(k), delay distributions), so cursors carry one.

use crate::hist::HistSnapshot;

/// Wall-clock profile of a single ranked enumeration.
#[derive(Clone, Debug)]
pub struct TimingBreakdown {
    /// Nanoseconds spent constructing the enumerator (parse, plan,
    /// full-reduce, decomposition, index builds).
    pub open_nanos: u64,
    /// Spans that closed on the opening thread during construction, as
    /// `(name, nanos)` in completion order. Phases may nest (e.g.
    /// `exec.pooled_run` inside `preprocess.bags`), so entries are a
    /// breakdown, not a partition.
    pub phases: Vec<(String, u64)>,
    /// Answers produced so far (exact: every answer is counted).
    pub answers: u64,
    /// Nanoseconds from the start of `open` to the first answer leaving
    /// the stream; `None` until a first answer (or if there is none).
    /// Exact: the first answer is always timed.
    pub first_answer_nanos: Option<u64>,
    /// Distribution of wall-clock `next()` delays (the paper's Figure 14
    /// quantity, in nanoseconds) over a systematic 1-in-64 sample —
    /// answers 0, 64, 128, … (`rankedenum_core::DELAY_SAMPLE_EVERY`) — so
    /// it holds `answers.div_ceil(64)` observations.
    pub delay: HistSnapshot,
}

impl TimingBreakdown {
    /// Total nanoseconds attributed to a phase name in this breakdown.
    pub fn phase_nanos(&self, name: &str) -> u64 {
        self.phases
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, ns)| *ns)
            .sum()
    }

    /// Render the phases as a compact `name=ms` list for log lines.
    pub fn phases_summary(&self) -> String {
        let mut parts: Vec<String> = Vec::with_capacity(self.phases.len());
        for (name, nanos) in &self.phases {
            parts.push(format!("{name}={:.3}ms", *nanos as f64 / 1e6));
        }
        parts.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_totals_sum_repeated_phases() {
        let breakdown = TimingBreakdown {
            open_nanos: 5_000_000,
            phases: vec![
                ("preprocess.sorted_index".into(), 1_000_000),
                ("preprocess.reduce".into(), 2_000_000),
                ("preprocess.sorted_index".into(), 500_000),
            ],
            answers: 0,
            first_answer_nanos: None,
            delay: HistSnapshot::empty(),
        };
        assert_eq!(breakdown.phase_nanos("preprocess.sorted_index"), 1_500_000);
        assert_eq!(breakdown.phase_nanos("preprocess.reduce"), 2_000_000);
        assert_eq!(breakdown.phase_nanos("missing"), 0);
        let summary = breakdown.phases_summary();
        assert!(summary.contains("preprocess.reduce=2.000ms"));
    }
}
