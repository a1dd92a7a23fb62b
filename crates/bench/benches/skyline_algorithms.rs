//! Micro-benchmarks of the pure skyline algorithms: BNL vs the all-pairs
//! incomplete global phase, and the local-phase scaling that underlies the
//! paper's executor sweeps; plus the local batch fold on the three
//! Börzsönyi distributions at the sizes of one spine partition.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparkline_common::{Row, SkylineDim, SkylineSpec, Value};
use sparkline_datagen::distributions::{anti_correlated_rows, correlated_rows, independent_rows};
use sparkline_skyline::{
    bnl_skyline, incomplete_global_skyline, sfs_skyline, BnlBuilder, DominanceChecker, SkylineStats,
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
    group.bench_function("all_pairs_flagged", |b| {
        b.iter(|| {
            let mut stats = SkylineStats::default();
            incomplete_global_skyline(data.clone(), &incomplete, &mut stats)
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

fn bench_bnl_vs_sfs(c: &mut Criterion) {
    // The §7 future-work extension: presorting vs the BNL window.
    let mut group = c.benchmark_group("bnl_vs_sfs");
    for dims in [2usize, 6] {
        let data = rows(8_000, 6, 0.0, 21);
        let checker = DominanceChecker::complete(spec(dims));
        group.bench_function(format!("bnl_{dims}d"), |b| {
            b.iter(|| {
                let mut stats = SkylineStats::default();
                bnl_skyline(data.clone(), &checker, &mut stats)
            })
        });
        group.bench_function(format!("sfs_{dims}d"), |b| {
            b.iter(|| {
                let mut stats = SkylineStats::default();
                sfs_skyline(data.clone(), &checker, &mut stats)
            })
        });
    }
    group.finish();
}

fn bench_local_fold(c: &mut Criterion) {
    // One partition's local phase as the engine runs it: 4096-row batches
    // through `BnlBuilder::push_batch`. Anti-correlated input is bound by
    // the window walk, the other two by step 1 of the fold (nearly every
    // row dies against the window's strongest rows).
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
    for (name, data) in &inputs {
        group.bench_with_input(BenchmarkId::from_parameter(name), data, |b, data| {
            b.iter(|| {
                let mut builder = BnlBuilder::new(checker.clone(), true);
                for batch in data.chunks(4096) {
                    builder.push_batch(batch.to_vec());
                }
                builder.finish()
            })
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_bnl_scaling, bench_bnl_vs_all_pairs, bench_dimension_effect,
              bench_local_phase_partitions, bench_bnl_vs_sfs, bench_local_fold
);
criterion_main!(benches);
