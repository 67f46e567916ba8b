//! Micro-benchmarks and ablations of the core enumeration machinery:
//! preprocessing versus enumeration split, the cost of the full reducer, and
//! the per-answer delay of the general algorithm versus the specialised
//! lexicographic one — the design choices README's frontier section
//! describes.
//!
//! `frontier_pop_push` times the frontier kernel by itself: one pop and one
//! push on a 20 000-entry [`FrontierHeap`] of `SUM` keys under the
//! enumerators' own comparator ([`entry_cmp`]), at two shares of rank ties,
//! in nanoseconds per pair, and then the same entries through one
//! [`FrontierHeap::replace_top`] each — the step `Topdown` takes — in
//! nanoseconds per replace: the numbers to read before and after a change
//! to the heap, its entries or their comparator, without an end-to-end run
//! around it. It asserts the tie share it measured is the one it states.
//!
//! `frontier_build` splits what an `OPEN` pays before its first answer, per
//! cell built, into the reducer with its edge encoding, the cell fill and
//! the heapify — the attribution to start the next `OPEN`-side change from.
//!
//! `bag_build` times the generic-join kernel on the 6-cycle's GHD bags, in
//! nanoseconds per walked row, once narrowed to each bag's interface and
//! once at full width: the difference is what the walk's de-duplication
//! costs.
//!
//! `ghd_race` opens the same 6-cycle the way a cyclic `OPEN` does, its
//! decomposition racing the single bag, and prints which won, what each
//! walked, and the build's milliseconds; then the same plan's second, warm
//! OPEN, which builds the recorded winner alone, with its milliseconds and
//! intersections.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rankedenum_core::ExecContext;
use rankedenum_core::{
    entry_cmp, AcyclicEnumerator, BranchPlan, CellArena, FrontierEntry, FrontierHeap, KeyInterner,
    LexiEnumerator,
};
use re_bench::Scale;
use re_join::{bag_interface, bind_atoms_of, full_reduce, wcoj_materialize_reported};
use re_query::{GhdPlan, JoinTree};
use re_ranking::{ExactSum, Ranking, SumRanking};
use re_storage::attr::attrs;
use re_storage::Database;
use re_workloads::membership::WeightScheme;
use re_workloads::{DblpWorkload, QuerySpec};
use std::time::{Duration, Instant};

/// The tie-break order of the bench's two-column cells: as stored.
const TIE_PERM: [usize; 2] = [0, 1];

/// One pop and one push, `PAIRS` times, on a heap of `ENTRIES` two-column
/// cells keyed by `SUM`, the way a root queue sees them: the popped cell
/// `(x, y)` is succeeded by `(x + step, y)`, so keys only move up and the
/// heap keeps its size (the classic hold model). Values and steps are
/// drawn from `0..spread`; the narrower the range, the more cells share a
/// sum. A first, untimed run creates every cell and key and records the
/// entries it pushed; the timed runs replay them on a fresh heap, so the
/// clock sees the heap and its comparator and nothing else. Prints
/// nanoseconds per pair (best of five) and the share of pops that tied in
/// rank with the pop before, which must lie within three points of
/// `tie_percent`: a probe that no longer sees the ties it is named for
/// fails instead of printing. A second line times the same replay as one
/// replace-top per entry, which yields the same pop sequence.
fn frontier_pop_push(spread: u64, tie_percent: f64) {
    const ENTRIES: usize = 20_000;
    const PAIRS: usize = 200_000;
    let ranking = SumRanking::value_sum();
    let plan = ranking.plan(&attrs(["x", "y"]));
    let mut arena = CellArena::new(2, 0, ENTRIES);
    let mut keys: KeyInterner<ExactSum> = KeyInterner::new();
    let mut seed: u64 = 0x2545_F491_4F6C_DD1D;
    let mut draw = |m: u64| {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed % m
    };
    let new_entry = |arena: &mut CellArena, keys: &mut KeyInterner<ExactSum>, out: [u64; 2]| {
        let cell = arena.push(0, 0, &out, &[]);
        keys.entry(ranking.key(&plan, &out), out[TIE_PERM[0]], cell)
    };
    let initial: Vec<FrontierEntry> = (0..ENTRIES)
        .map(|_| {
            let out = [draw(spread), draw(spread)];
            new_entry(&mut arena, &mut keys, out)
        })
        .collect();
    let build = |keys: &KeyInterner<ExactSum>, arena: &CellArena| {
        let mut heap = FrontierHeap::with_capacity(ENTRIES);
        for &entry in &initial {
            heap.push_unordered(entry);
        }
        heap.heapify(|a, b| entry_cmp(keys, arena, &TIE_PERM, a, b));
        heap
    };

    let mut heap = build(&keys, &arena);
    let mut pushed = Vec::with_capacity(PAIRS);
    let (mut ties, mut last) = (0usize, None);
    for _ in 0..PAIRS {
        let top = heap
            .pop(|a, b| entry_cmp(&keys, &arena, &TIE_PERM, a, b))
            .expect("the heap keeps its size");
        // Equal prefixes under equal ids are equal keys, stored or not.
        ties += usize::from(last == Some((top.prefix, top.key)));
        last = Some((top.prefix, top.key));
        let out = arena.output(top.cell);
        let successor = [out[0] + draw(spread), out[1]];
        let entry = new_entry(&mut arena, &mut keys, successor);
        heap.push(entry, |a, b| entry_cmp(&keys, &arena, &TIE_PERM, a, b));
        pushed.push(entry);
    }

    let cmp = |a, b| entry_cmp(&keys, &arena, &TIE_PERM, a, b);
    let fresh = || build(&keys, &arena);
    let pop_push = replay(fresh, &pushed, |heap, entry| {
        black_box(heap.pop(cmp));
        heap.push(entry, cmp);
    });
    let replace_top = replay(fresh, &pushed, |heap, entry| {
        black_box(heap.replace_top(entry, cmp));
    });
    let tied = ties as f64 * 100.0 / PAIRS as f64;
    println!(
        "micro_core/frontier_pop_push/spread={spread}: {pop_push:.1} ns per pop+push \
         ({ENTRIES} entries, {tied:.0}% of pops tie in rank with the pop before)"
    );
    println!(
        "micro_core/frontier_replace_top/spread={spread}: {replace_top:.1} ns per replace \
         ({ENTRIES} entries, the same replay)"
    );
    assert!(
        (tied - tie_percent).abs() <= 3.0,
        "spread={spread}: {tied:.1}% of pops tied in rank, not about {tie_percent}%"
    );
}

/// Nanoseconds per `step` over `entries` on a heap from `fresh`, best of
/// five runs.
fn replay(
    fresh: impl Fn() -> FrontierHeap,
    entries: &[FrontierEntry],
    mut step: impl FnMut(&mut FrontierHeap, FrontierEntry),
) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..5 {
        let mut heap = fresh();
        let start = Instant::now();
        for &entry in entries {
            step(&mut heap, entry);
        }
        best = best.min(start.elapsed().as_nanos() as f64 / entries.len() as f64);
    }
    best
}

/// Build the `SUM` enumerator of `spec` `ROUNDS` times under a request
/// trace and print where the time went, in nanoseconds per cell built:
/// `encode` is the full reducer with its edge encoding (the
/// `preprocess.reduce` span), `fill` the one-cell-per-row pass of
/// Algorithm 1 with its key construction and interning (`cells.fill`),
/// `heapify` the per-anchor queues' heap order (`cells.heapify`). Binding
/// the atoms, the remaining part of an `OPEN`, is a copy and is left out.
fn frontier_build(spec: &QuerySpec, db: &Database) {
    const ROUNDS: u64 = 20;
    const PHASES: [&str; 3] = ["preprocess.reduce", "cells.fill", "cells.heapify"];
    let mut micros = [0u64; 3];
    let mut cells = 0;
    for round in 0..=ROUNDS {
        let trace = re_obs::TraceCtx::new("frontier_build");
        {
            let _installed = re_obs::trace::install(&trace, 0);
            let built = AcyclicEnumerator::new(&spec.query, db, spec.sum_ranking()).unwrap();
            cells = black_box(built).cell_count() as u64;
        }
        let trace = trace.finish();
        // The first round warms the allocator and is not counted.
        if round > 0 {
            for (total, phase) in micros.iter_mut().zip(PHASES) {
                *total += trace
                    .spans_named(phase)
                    .map(|s| s.duration_micros)
                    .sum::<u64>();
            }
        }
    }
    let [encode, fill, heapify] = micros.map(|m| m as f64 * 1e3 / (ROUNDS * cells) as f64);
    println!(
        "micro_core/frontier_build/{}: encode {encode:.1} + fill {fill:.1} + heapify \
         {heapify:.1} ns per cell ({cells} cells, mean of {ROUNDS} builds)",
        spec.name
    );
}

/// Walk every bag of `spec`'s cost-based GHD plan serially, `ROUNDS`
/// times, once onto its interface and once at full width, and print the
/// rows the narrowed walk produced and kept, its nanoseconds per walked
/// row, and both walks' milliseconds per build (best round each). The
/// atoms are bound once, outside the clock.
fn bag_build(spec: &QuerySpec, db: &Database) {
    const ROUNDS: usize = 15;
    let plan = GhdPlan::cost_based(&spec.query, db).unwrap().plan;
    let serial = ExecContext::serial();
    let bags: Vec<_> = plan
        .bags()
        .iter()
        .enumerate()
        .map(|(i, bag)| {
            let rels = bind_atoms_of(&spec.query, db, bag.atoms.iter().copied()).unwrap();
            (bag, bag_interface(&spec.query, plan.bags(), i), rels)
        })
        .collect();
    // Per width (narrowed, full): best seconds, walked rows, kept rows.
    let mut best = [(f64::MAX, 0, 0); 2];
    for _ in 0..ROUNDS {
        for (full, best) in best.iter_mut().enumerate() {
            let start = Instant::now();
            let (mut walked, mut kept) = (0, 0);
            for (bag, interface, rels) in &bags {
                let interface = if full == 1 { &bag.attrs } else { interface };
                let (rel, report) =
                    wcoj_materialize_reported(bag, interface, rels, &serial).unwrap();
                kept += black_box(rel).len() as u64;
                walked += report.walked_rows;
            }
            *best = (best.0.min(start.elapsed().as_secs_f64()), walked, kept);
        }
    }
    let [(narrowed, walked, kept), (full, _, full_rows)] = best;
    println!(
        "micro_core/bag_build/{}: {walked} walked rows -> {kept} kept ({full_rows} at full \
         width), {:.1} ns per walked row; {:.2} ms narrowed vs {:.2} ms at full width ({}, \
         best of {ROUNDS})",
        spec.name,
        narrowed * 1e9 / walked as f64,
        narrowed * 1e3,
        full * 1e3,
        plan.shape()
    );
}

/// Open `spec` the way a server OPEN does, through one [`BranchPlan`]
/// serially, `ROUNDS` times: its first OPEN races the cost-based
/// decomposition against the single bag and records the winner, its
/// second (the warm OPEN) builds the recorded winner alone. Prints the
/// winner, both contenders' intersections and the racing build's
/// milliseconds, then the warm OPEN's milliseconds and intersections
/// (best round each). The intersections are deterministic; the winner is
/// too.
fn ghd_race(spec: &QuerySpec, db: &Database) {
    const ROUNDS: usize = 15;
    let ctx = ExecContext::serial();
    let (mut raced, mut warm) = (f64::MAX, f64::MAX);
    let mut reports = None;
    for _ in 0..ROUNDS {
        let plan = BranchPlan::of(&spec.query, false).unwrap();
        let open = || {
            let start = Instant::now();
            let stream = plan
                .open(&spec.query, db, SumRanking::value_sum(), &ctx)
                .unwrap();
            let elapsed = start.elapsed().as_secs_f64();
            (elapsed, stream.ghd_report().expect("a cyclic plan"))
        };
        let (first, race) = open();
        let (second, recorded) = open();
        raced = raced.min(first);
        warm = warm.min(second);
        reports = Some((race, recorded));
    }
    let (report, recorded) = reports.expect("ROUNDS > 0");
    let loser = report
        .race_loser
        .as_ref()
        .expect("a decomposition of two bags races the single bag");
    assert!(recorded.recorded && recorded.shape == report.shape);
    println!(
        "micro_core/ghd_race/{}: winner {} ({} intersections) over {} ({} intersections \
         wasted); {:.2} ms build (best of {ROUNDS}); warm OPEN {:.2} ms ({} intersections, \
         recorded verdict, best of {ROUNDS})",
        spec.name,
        report.shape,
        report.intersections(),
        loser.shape,
        loser.wasted_intersections,
        raced * 1e3,
        warm * 1e3,
        recorded.intersections()
    );
}

fn bench(c: &mut Criterion) {
    frontier_pop_push(82_000, 20.0);
    frontier_pop_push(35_000, 40.0);

    let factor = Scale::from_env().factor();
    let dblp = DblpWorkload::generate(8_000 * factor, 42, WeightScheme::Random);
    let spec2 = dblp.two_hop();
    let spec4 = dblp.four_hop();
    for spec in [&spec2, &dblp.three_hop(), &spec4] {
        frontier_build(spec, dblp.db());
    }
    let cyc = DblpWorkload::generate(1_200 * factor, 42, WeightScheme::Random);
    bag_build(&cyc.cycle(3).0, cyc.db());
    ghd_race(&cyc.cycle(3).0, cyc.db());

    let mut group = c.benchmark_group("micro_core");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    // Ablation: the Yannakakis full-reducer pass alone.
    for spec in [&spec2, &spec4] {
        let tree = JoinTree::build(&spec.query).unwrap();
        group.bench_function(BenchmarkId::new("full_reduce", &spec.name), |b| {
            b.iter(|| full_reduce(&spec.query, &tree, dblp.db()).unwrap().0.len())
        });
    }

    // Preprocessing only (cell + queue construction).
    for spec in [&spec2, &spec4] {
        group.bench_function(BenchmarkId::new("preprocess", &spec.name), |b| {
            b.iter(|| {
                AcyclicEnumerator::new(&spec.query, dblp.db(), spec.sum_ranking())
                    .unwrap()
                    .cell_count()
            })
        });
    }

    // Per-answer delay after preprocessing: enumerate 1000 answers from a
    // pre-built enumerator (construction excluded via iter_batched).
    group.bench_function("enumerate_1000_after_preprocessing/DBLP2hop", |b| {
        b.iter_batched(
            || AcyclicEnumerator::new(&spec2.query, dblp.db(), spec2.sum_ranking()).unwrap(),
            |e| e.take(1000).count(),
            criterion::BatchSize::LargeInput,
        )
    });

    // Ablation: general algorithm vs the specialised lexicographic one on
    // the same lexicographic ranking (the paper's 2–3× observation).
    let lex = spec2.lex_ranking();
    group.bench_function("lex_via_general_algorithm/DBLP2hop", |b| {
        b.iter(|| {
            AcyclicEnumerator::new(&spec2.query, dblp.db(), lex.clone())
                .unwrap()
                .take(1000)
                .count()
        })
    });
    group.bench_function("lex_via_algorithm3/DBLP2hop", |b| {
        b.iter(|| {
            LexiEnumerator::new(&spec2.query, dblp.db(), &lex)
                .unwrap()
                .take(1000)
                .count()
        })
    });
    group.finish();
}

criterion_group!(micro, bench);
criterion_main!(micro);
