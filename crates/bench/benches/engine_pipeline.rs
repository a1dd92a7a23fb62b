//! End-to-end engine benchmarks: parsing, planning, and the integrated
//! vs reference skyline. The paper's figures themselves are
//! `paper_eval`'s (`src/experiments.rs`).

use criterion::{criterion_group, criterion_main, Criterion};
use sparkline::{Algorithm, SessionConfig, SessionContext};
use sparkline_datagen::{airbnb, register_airbnb, skyline_query_for, Variant};
use sparkline_parser::parse_query;
use std::hint::black_box;

fn session(rows: usize) -> SessionContext {
    let ctx = SessionContext::with_config(SessionConfig::default().with_executors(4));
    register_airbnb(&ctx, rows, 17, Variant::Complete).unwrap();
    ctx
}

fn bench_parser(c: &mut Criterion) {
    let sql = "SELECT price, user_rating FROM hotels AS o WHERE NOT EXISTS( \
               SELECT * FROM hotels AS i WHERE i.price <= o.price AND \
               i.user_rating >= o.user_rating AND (i.price < o.price OR \
               i.user_rating > o.user_rating)) ORDER BY price LIMIT 10";
    c.bench_function("parse_reference_query", |b| {
        b.iter(|| parse_query(black_box(sql)).unwrap())
    });
    let skyline = "SELECT * FROM hotels SKYLINE OF DISTINCT COMPLETE a MIN, \
                   b MAX, c DIFF, d MIN ORDER BY a";
    c.bench_function("parse_skyline_query", |b| {
        b.iter(|| parse_query(black_box(skyline)).unwrap())
    });
}

fn bench_planning(c: &mut Criterion) {
    let ctx = session(500);
    let sql = skyline_query_for("airbnb", &airbnb::SKYLINE_DIMS, 6, true);
    c.bench_function("analyze_optimize_plan", |b| {
        b.iter(|| ctx.sql(black_box(&sql)).unwrap().explain().unwrap())
    });
}

fn bench_integrated_vs_reference(c: &mut Criterion) {
    // The paper's headline result at micro scale.
    let ctx = session(2_000);
    let sql = skyline_query_for("airbnb", &airbnb::SKYLINE_DIMS, 4, true);
    let df = ctx.sql(&sql).unwrap();
    let mut group = c.benchmark_group("integrated_vs_reference");
    group.sample_size(10);
    group.bench_function("integrated", |b| {
        b.iter(|| {
            df.collect_with_algorithm(Algorithm::DistributedComplete)
                .unwrap()
        })
    });
    group.bench_function("reference", |b| {
        b.iter(|| df.collect_with_algorithm(Algorithm::Reference).unwrap())
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_parser, bench_planning, bench_integrated_vs_reference
);
criterion_main!(benches);
