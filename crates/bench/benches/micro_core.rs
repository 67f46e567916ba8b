//! Micro-benchmarks and ablations of the core enumeration machinery:
//! preprocessing versus enumeration split, the cost of the full reducer, and
//! the per-answer delay of the general algorithm versus the specialised
//! lexicographic one — the design choices DESIGN.md calls out.
//!
//! `frontier_pop_push` times the frontier kernel by itself: one pop and one
//! push on a 20 000-entry [`FrontierHeap`] of `SUM` keys under the
//! enumerators' own comparator ([`entry_cmp`]), at two shares of rank ties,
//! in nanoseconds per pair — the number to read before and after a change
//! to the heap, its entries or their comparator, without an end-to-end run
//! around it. It asserts the tie share it measured is the one it states.
//!
//! `frontier_build` splits what an `OPEN` pays before its first answer, per
//! cell built, into the reducer with its edge encoding, the cell fill and
//! the heapify — the attribution to start the next `OPEN`-side change from.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rankedenum_core::{
    entry_cmp, AcyclicEnumerator, CellArena, FrontierEntry, FrontierHeap, KeyInterner,
    LexiEnumerator,
};
use re_bench::Scale;
use re_join::full_reduce;
use re_query::JoinTree;
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
/// fails instead of printing.
fn frontier_pop_push(spread: u64, tie_percent: f64) {
    const ENTRIES: usize = 20_000;
    const PAIRS: usize = 200_000;
    let ranking = SumRanking::value_sum();
    let plan = ranking.plan(&attrs(["x", "y"]));
    let mut arena = CellArena::new(2, 0);
    let mut keys: KeyInterner<ExactSum> = KeyInterner::new();
    let mut seed: u64 = 0x2545_F491_4F6C_DD1D;
    let mut draw = |m: u64| {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed % m
    };
    let new_entry = |arena: &mut CellArena, keys: &mut KeyInterner<ExactSum>, out: [u64; 2]| {
        let cell = arena.push(0, 0, 0, &out, &[]);
        keys.entry(ranking.key(&plan, &out), out[TIE_PERM[0]], cell)
            .0
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

    let mut best = f64::MAX;
    for _ in 0..5 {
        let mut heap = build(&keys, &arena);
        let start = Instant::now();
        for &entry in &pushed {
            black_box(heap.pop(|a, b| entry_cmp(&keys, &arena, &TIE_PERM, a, b)));
            heap.push(entry, |a, b| entry_cmp(&keys, &arena, &TIE_PERM, a, b));
        }
        best = best.min(start.elapsed().as_nanos() as f64 / PAIRS as f64);
    }
    let tied = ties as f64 * 100.0 / PAIRS as f64;
    println!(
        "micro_core/frontier_pop_push/spread={spread}: {best:.1} ns per pop+push \
         ({ENTRIES} entries, {tied:.0}% of pops tie in rank with the pop before)"
    );
    assert!(
        (tied - tie_percent).abs() <= 3.0,
        "spread={spread}: {tied:.1}% of pops tied in rank, not about {tie_percent}%"
    );
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
