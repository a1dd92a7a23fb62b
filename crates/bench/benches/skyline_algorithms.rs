//! Micro-benchmarks of the pure skyline algorithms: BNL vs the all-pairs
//! incomplete global phase, and the local-phase scaling that underlies the
//! paper's executor sweeps; plus the local batch fold on the three
//! Börzsönyi distributions at the sizes of one spine partition.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparkline_common::{
    ColumnBatch, DataType, Field, MemTable, QueryControl, Row, Schema, SkylineDim, SkylineSpec,
    Value,
};
use sparkline_datagen::distributions::{anti_correlated_rows, correlated_rows, independent_rows};
use sparkline_skyline::{
    bnl_skyline, incomplete_global_skyline, BnlBuilder, DominanceChecker, GroupedBnlBuilder,
    SkylineStats,
};

fn rows(n: usize, dims: usize, null_rate: f64, seed: u64) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            Row::new(
                (0..dims)
                    .map(|_| {
                        if rng.gen_bool(null_rate) {
                            Value::Null
                        } else {
                            Value::Int64(rng.gen_range(0..10_000))
                        }
                    })
                    .collect(),
            )
        })
        .collect()
}

fn spec(dims: usize) -> SkylineSpec {
    SkylineSpec::new((0..dims).map(SkylineDim::min).collect())
}

fn bench_bnl_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("bnl_by_input_size");
    for n in [1_000usize, 4_000, 16_000] {
        let data = rows(n, 4, 0.0, 3);
        let checker = DominanceChecker::complete(spec(4));
        group.bench_with_input(BenchmarkId::from_parameter(n), &data, |b, data| {
            b.iter(|| {
                let mut stats = SkylineStats::default();
                bnl_skyline(data.clone(), &checker, &mut stats)
            })
        });
    }
    group.finish();
}

fn bench_bnl_vs_all_pairs(c: &mut Criterion) {
    // The §5.7 trade-off: the all-pairs flagged global phase is safe for
    // incomplete data but much slower than the windowed BNL.
    let mut group = c.benchmark_group("global_phase");
    let data = rows(2_000, 4, 0.0, 5);
    let complete = DominanceChecker::complete(spec(4));
    let incomplete = DominanceChecker::incomplete(spec(4));
    group.bench_function("bnl_window", |b| {
        b.iter(|| {
            let mut stats = SkylineStats::default();
            bnl_skyline(data.clone(), &complete, &mut stats)
        })
    });
    let unlimited = QueryControl::unlimited();
    group.bench_function("all_pairs_flagged", |b| {
        b.iter(|| {
            let mut stats = SkylineStats::default();
            incomplete_global_skyline(data.clone(), &incomplete, &mut stats, &unlimited)
        })
    });
    group.finish();
}

fn bench_dimension_effect(c: &mut Criterion) {
    // Figure 3's mechanism: more dimensions → bigger windows → more tests.
    let mut group = c.benchmark_group("bnl_by_dims");
    for dims in [1usize, 2, 4, 6] {
        let data = rows(4_000, 6, 0.0, 7);
        let checker = DominanceChecker::complete(spec(dims));
        group.bench_with_input(BenchmarkId::from_parameter(dims), &data, |b, data| {
            b.iter(|| {
                let mut stats = SkylineStats::default();
                bnl_skyline(data.clone(), &checker, &mut stats)
            })
        });
    }
    group.finish();
}

fn bench_local_phase_partitions(c: &mut Criterion) {
    // Partitioned local skylines (sequential here; the engine parallelizes
    // across executors): more partitions → less pruning per partition.
    let mut group = c.benchmark_group("local_phase_by_partitions");
    let data = rows(8_000, 4, 0.0, 9);
    let checker = DominanceChecker::complete(spec(4));
    for parts in [1usize, 4, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(parts), &parts, |b, &parts| {
            b.iter(|| {
                let chunk = data.len().div_ceil(parts);
                let mut locals = Vec::new();
                let mut stats = SkylineStats::default();
                for piece in data.chunks(chunk) {
                    locals.extend(bnl_skyline(piece.to_vec(), &checker, &mut stats));
                }
                bnl_skyline(locals, &checker, &mut stats)
            })
        });
    }
    group.finish();
}

fn bench_local_fold(c: &mut Criterion) {
    // One partition's local phase: 4096-row batches through
    // `BnlBuilder::push_batch` (`rows/…`), and through the column path the
    // engine runs, `push_columns_checked` over `MemTable` batches built
    // ahead of the timing (`columns/…`), so the fold and its dominance
    // walk are timed without the scan. Anti-correlated input is bound by
    // the window walk and the eviction scans, the other two by step 1 of
    // the fold (nearly every row dies against the window's strongest
    // rows). `columns/incomplete_250k` routes independent rows with 20%
    // NULLs to their null-bitmap class windows
    // (`GroupedBnlBuilder::push_columns_checked`): the incomplete local
    // phase. `rows_distinct/…` folds under `SKYLINE OF DISTINCT`, which
    // keeps the window in arrival order, so every row takes the per-row
    // step (walk, duplicate check, eviction scan): small-domain integers,
    // where most rows are dominated or duplicates, and independent floats.
    let mut group = c.benchmark_group("local_fold");
    let inputs = [
        (
            "anti_50k",
            anti_correlated_rows(&mut StdRng::seed_from_u64(42), 50_000, 4),
        ),
        (
            "correlated_125k",
            correlated_rows(&mut StdRng::seed_from_u64(42), 125_000, 4),
        ),
        (
            "independent_500k",
            independent_rows(&mut StdRng::seed_from_u64(42), 500_000, 4),
        ),
    ];
    let checker = DominanceChecker::complete(spec(4));
    let schema = |nullable: bool| {
        Schema::new(
            (0..4)
                .map(|i| Field::new(format!("d{i}"), DataType::Float64, nullable))
                .collect(),
        )
    };
    let batches_of = |table: &MemTable| -> Vec<ColumnBatch> {
        (0..table.len())
            .step_by(4096)
            .map(|start| table.batch(start, (start + 4096).min(table.len())))
            .collect()
    };
    let control = QueryControl::unlimited();
    for (name, data) in &inputs {
        group.bench_with_input(BenchmarkId::new("rows", name), data, |b, data| {
            b.iter(|| {
                let mut builder = BnlBuilder::new(checker.clone(), true);
                for batch in data.chunks(4096) {
                    builder.push_batch(batch.to_vec());
                }
                builder.finish()
            })
        });
        let batches = batches_of(&MemTable::from_rows(&schema(false), data.clone()));
        group.bench_with_input(BenchmarkId::new("columns", name), &batches, |b, batches| {
            b.iter(|| {
                let mut builder = BnlBuilder::new(checker.clone(), true);
                for batch in batches {
                    builder
                        .push_columns_checked(batch, &control)
                        .expect("no deadline");
                }
                builder.finish()
            })
        });
    }
    let mut rng = StdRng::seed_from_u64(42);
    let mut data = independent_rows(&mut rng, 250_000, 4);
    for row in &mut data {
        *row = Row::new(
            (row.values().iter())
                .map(|v| {
                    if rng.gen_bool(0.2) {
                        Value::Null
                    } else {
                        v.clone()
                    }
                })
                .collect(),
        );
    }
    let batches = batches_of(&MemTable::from_rows(&schema(true), data));
    let distinct = DominanceChecker::complete(SkylineSpec::distinct(spec(4).dims));
    let small_ints: Vec<Row> = (0..50_000)
        .map(|_| Row::new((0..4).map(|_| Value::Int64(rng.gen_range(0..8))).collect()))
        .collect();
    let distinct_inputs = [
        ("small_ints_50k", small_ints),
        (
            "independent_250k",
            independent_rows(&mut StdRng::seed_from_u64(42), 250_000, 4),
        ),
    ];
    for (name, data) in &distinct_inputs {
        group.bench_with_input(BenchmarkId::new("rows_distinct", name), data, |b, data| {
            b.iter(|| {
                let mut builder = BnlBuilder::new(distinct.clone(), true);
                for batch in data.chunks(4096) {
                    builder.push_batch(batch.to_vec());
                }
                builder.finish()
            })
        });
    }
    let incomplete = DominanceChecker::incomplete(spec(4));
    group.bench_with_input(
        BenchmarkId::new("columns", "incomplete_250k"),
        &batches,
        |b, batches| {
            b.iter(|| {
                let mut builder = GroupedBnlBuilder::new(incomplete.clone(), true);
                for batch in batches {
                    builder
                        .push_columns_checked(batch, &control)
                        .expect("no deadline");
                }
                builder.finish()
            })
        },
    );
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_bnl_scaling, bench_bnl_vs_all_pairs, bench_dimension_effect,
              bench_local_phase_partitions, bench_local_fold
);
criterion_main!(benches);
