//! End-to-end engine benchmarks: parsing, planning, and ablations of the
//! paper's §5.4 optimizer rules (single-dimension rewrite and skyline-join
//! pushdown). The paper's figures themselves are `paper_eval`'s
//! (`src/experiments.rs`).

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

fn bench_single_dim_rewrite_ablation(c: &mut Criterion) {
    // §5.4: O(n) MinMaxFilter vs the general skyline plan on one dimension.
    let base = session(20_000);
    let sql = skyline_query_for("airbnb", &airbnb::SKYLINE_DIMS, 1, true);
    let with_rule = base.with_shared_catalog(
        SessionConfig::default()
            .with_executors(4)
            .with_single_dim_rewrite(true),
    );
    let without_rule = base.with_shared_catalog(
        SessionConfig::default()
            .with_executors(4)
            .with_single_dim_rewrite(false),
    );
    let mut group = c.benchmark_group("single_dim_rewrite");
    group.sample_size(10);
    group.bench_function("enabled_minmax_scan", |b| {
        b.iter(|| with_rule.sql(&sql).unwrap().collect().unwrap())
    });
    group.bench_function("disabled_general_skyline", |b| {
        b.iter(|| without_rule.sql(&sql).unwrap().collect().unwrap())
    });
    group.finish();
}

fn bench_join_pushdown_ablation(c: &mut Criterion) {
    // §5.4: skyline below a non-reductive join vs above it.
    let mk = |pushdown: bool| {
        let ctx = SessionContext::with_config(
            SessionConfig::default()
                .with_executors(4)
                .with_skyline_join_pushdown(pushdown),
        );
        register_airbnb(&ctx, 4_000, 23, Variant::Complete).unwrap();
        // A 1:1 "amenities" side table; LEFT OUTER JOIN is non-reductive.
        let rows: Vec<sparkline::Row> = (0..4_000i64)
            .map(|i| sparkline::Row::new(vec![i.into(), ((i * 7) % 100).into()]))
            .collect();
        ctx.register_table(
            "amenities",
            sparkline::Schema::new(vec![
                sparkline::Field::new("listing_id", sparkline::DataType::Int64, false),
                sparkline::Field::new("score", sparkline::DataType::Int64, false),
            ]),
            rows,
        )
        .unwrap();
        ctx
    };
    let sql = "SELECT * FROM airbnb LEFT OUTER JOIN amenities \
               ON airbnb.id = amenities.listing_id \
               SKYLINE OF price MIN, accommodates MAX, beds MAX";
    let with_rule = mk(true);
    let without_rule = mk(false);
    let mut group = c.benchmark_group("skyline_join_pushdown");
    group.sample_size(10);
    group.bench_function("enabled_skyline_before_join", |b| {
        b.iter(|| with_rule.sql(sql).unwrap().collect().unwrap())
    });
    group.bench_function("disabled_skyline_after_join", |b| {
        b.iter(|| without_rule.sql(sql).unwrap().collect().unwrap())
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_parser, bench_planning, bench_integrated_vs_reference,
              bench_single_dim_rewrite_ablation, bench_join_pushdown_ablation
);
criterion_main!(benches);
