//! One run of one workload: set-up, the measured phase, verification.

use crate::harness::data::Sizes;
use crate::harness::driver::{self, Samples, Shape};
use crate::harness::metrics::{Better, Values};
use crate::harness::report::Outcome;
use crate::harness::stats;
use crate::harness::{alloc, env, workloads};
use std::time::Duration;

/// Segments the measured phase of an untraced run is cut into. Each starts
/// with a set-up of its own, on a fresh server, and `setup_s` is the
/// second-fastest of them. A set-up is over in a tenth of a second and the
/// host's slow spells last several (`page-fetch-tcp` set up in 35 ms or in
/// 59 ms, five times running, according to the second the process started
/// in), so only set-ups spread through the run are likely to include some
/// that ran undisturbed, as its rounds do for the other metrics.
pub const SEGMENTS: usize = 5;

/// What the command line chose.
#[derive(Clone, Debug)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

impl Options {
    pub fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        }
    }

    pub fn shape(&self, shape: &Shape) -> Shape {
        if self.smoke {
            workloads::smoke(shape)
        } else {
            shape.clone()
        }
    }
}

/// Requests sent and failed over every phase of a run, oracle checks
/// included, with the failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Add what the load thread saw in one phase.
    pub fn phase(&mut self, samples: &Samples) {
        self.attempted += samples.attempted;
        self.failed += samples.failed;
        self.errors.extend(samples.errors.iter().cloned());
    }

    /// Add the oracle's verdict on `checked` recorded sessions.
    pub fn oracle(&mut self, (checked, mismatches): (u64, Vec<String>)) {
        self.attempted += checked;
        self.failed += mismatches.len() as u64;
        self.errors.extend(mismatches);
    }
}

/// The end-to-end values of a measured phase, given segment by segment
/// (everything but `setup_s` and `peak_heap_mb`): each computed per round,
/// then the second-best of all the rounds.
pub fn end_to_end(segments: &[Samples], values: &mut Values) {
    type Pick = fn(&Samples) -> &driver::Series;
    let latencies: [(&str, Pick, f64); 3] = [
        ("open_p50_ms", |s| &s.open, 1e6),
        ("ttfp_p50_ms", |s| &s.ttfp, 1e6),
        ("fetch_p50_us", |s| &s.fetch, 1e3),
    ];
    for (name, pick, per_unit) in latencies {
        let medians: Vec<f64> = segments
            .iter()
            .flat_map(|s| pick(s).round_medians().iter().copied())
            .collect();
        let (ns, rounds, spread) = driver::over_rounds(&medians, Better::Lower);
        values.set_sampled(name, ns / per_unit, rounds, spread);
    }
    type Count = fn(&driver::Round) -> u64;
    let rates: [(&str, Count); 2] = [
        ("rows_per_s", |r| r.rows),
        ("sessions_per_s", |r| r.sessions),
    ];
    for (name, count) in rates {
        let per_round: Vec<f64> = segments.iter().flat_map(|s| s.round_rates(count)).collect();
        let (rate, rounds, spread) = driver::over_rounds(&per_round, Better::Higher);
        values.set_sampled(name, rate, rounds, spread);
    }
}

/// The untraced run: every end-to-end metric.
pub fn untraced(shape: &Shape, opts: &Options) -> Outcome {
    let shape = opts.shape(shape);
    let pinned_cpu = env::pin_to_one_cpu().map(|p| p.cpu);
    let mut tally = Tally::default();
    let length = Duration::from_secs_f64(opts.seconds / SEGMENTS as f64);
    let mut setup_secs = Vec::new();
    let mut segments = Vec::new();
    let mut peak_heap_mb = 0f64;
    for _ in 0..SEGMENTS {
        let (stack, mix, warm, secs) =
            workloads::set_up(&shape, &opts.sizes(), opts.seed, opts.smoke, 0);
        setup_secs.push(secs);
        tally.phase(&warm);
        alloc::reset_peak();
        let (samples, _) =
            workloads::run_phase(&stack, &shape, &mix, opts.seed, Some(length), false, None);
        // Read before the oracle materialises its joins in this process.
        peak_heap_mb = peak_heap_mb.max(alloc::peak_mb());
        tally.phase(&samples);
        tally.oracle(workloads::verify(&stack, &mix, &samples));
        stack.shutdown();
        segments.push(samples);
    }

    let mut values = Values::default();
    values.set_sampled(
        "setup_s",
        stats::quiet(&setup_secs, Better::Lower),
        SEGMENTS as u64,
        stats::spread(&setup_secs),
    );
    end_to_end(&segments, &mut values);
    values.set("peak_heap_mb", peak_heap_mb);
    Outcome {
        workload: shape.name,
        seed: opts.seed,
        seconds: opts.seconds,
        traced: false,
        smoke: opts.smoke,
        pinned_cpu,
        attempted: tally.attempted,
        failed: tally.failed,
        values,
        errors: tally.errors,
    }
}
