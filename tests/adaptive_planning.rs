//! Differential harness for the statistics-driven adaptive planner
//! (`SkylineStrategy::Adaptive`) and the representative-point pre-filter.
//!
//! The adaptive plan adds a sample-budgeted pre-filter to the complete
//! family and a NULL-fraction-driven merge choice to the incomplete one —
//! both required to be semantically neutral. This suite pins that down:
//! over the Börzsönyi correlated / independent / anti-correlated matrix ×
//! dims {2, 4, 8} × complete / NULL-bearing inputs, the adaptive result
//! must equal the naive oracle *and* every fixed plan shape (standard /
//! angle partitioning × flat / hierarchical incomplete merge × scalar /
//! columnar × streaming / materialized), compared as sorted row sets
//! (partitioning legitimately permutes raw order, exactly like
//! `tests/partitioning_properties.rs`).
//!
//! It also locks down determinism (seeded sampling ⇒ repeated `EXPLAIN`s
//! and runs agree) and the pre-filter's no-lost-skyline-point property
//! over random schemas with MIN/MAX/DIFF dims and NULLs.

mod common;

use common::{generate, oracle, run, session_with, skyline_sql, DISTRIBUTIONS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparkline::{
    DataType, Field, Row, Schema, SessionConfig, SessionContext, SkylinePartitioning,
    SkylineStrategy, Value,
};
use sparkline_common::{DominanceKernel, SkylineDim, SkylineSpec, SkylineType};
use sparkline_skyline::{naive_skyline, DominanceChecker};

const FIXED_SCHEMES: [SkylinePartitioning; 2] = [
    SkylinePartitioning::Standard,
    SkylinePartitioning::AngleBased,
];

/// Every fixed plan-shape combination: scheme × merge × kernel × model.
fn fixed_configs() -> Vec<(String, SessionConfig)> {
    let mut out = Vec::new();
    for scheme in FIXED_SCHEMES {
        for hierarchical in [false, true] {
            for kernel in [DominanceKernel::Scalar, DominanceKernel::Auto] {
                for streaming in [false, true] {
                    let config = SessionConfig::default()
                        .with_executors(4)
                        .with_skyline_partitioning(scheme)
                        .with_hierarchical_merge_min_partitions(if hierarchical {
                            2
                        } else {
                            usize::MAX
                        })
                        .with_merge_fan_in(2)
                        .with_dominance_kernel(kernel)
                        .with_streaming_execution(streaming);
                    out.push((
                        format!(
                            "{scheme:?}/{}/{}/{}",
                            if hierarchical { "tree" } else { "flat" },
                            if kernel.is_vectorized() {
                                "columnar"
                            } else {
                                "scalar"
                            },
                            if streaming { "stream" } else { "mat" },
                        ),
                        config,
                    ));
                }
            }
        }
    }
    out
}

fn adaptive_config() -> SessionConfig {
    SessionConfig::default()
        .with_executors(4)
        .with_skyline_strategy(SkylineStrategy::Adaptive)
        .with_sample_size(64)
}

#[test]
fn adaptive_matches_oracle_and_every_fixed_plan_shape() {
    for dist in DISTRIBUTIONS {
        for dims in [2usize, 4, 8] {
            for with_nulls in [false, true] {
                let n = if dims == 8 { 60 } else { 90 };
                let rows = generate(dist, 11, n, dims, with_nulls);
                let expected = oracle(&rows, dims, with_nulls);
                // The adaptive plan, across kernel × execution model.
                for kernel in [DominanceKernel::Scalar, DominanceKernel::Auto] {
                    for streaming in [false, true] {
                        let ctx = session_with(
                            rows.clone(),
                            dims,
                            with_nulls,
                            adaptive_config()
                                .with_dominance_kernel(kernel)
                                .with_streaming_execution(streaming),
                        );
                        assert_eq!(
                            run(&ctx, dims),
                            expected,
                            "adaptive {dist}/{dims}d/nulls={with_nulls}/{kernel:?}/s={streaming}"
                        );
                    }
                }
                // Every fixed plan shape agrees byte-for-byte (as sorted
                // row sets) with the oracle — and hence with adaptive.
                for (label, config) in fixed_configs() {
                    let ctx = session_with(rows.clone(), dims, with_nulls, config);
                    assert_eq!(
                        run(&ctx, dims),
                        expected,
                        "fixed {label} on {dist}/{dims}d/nulls={with_nulls}"
                    );
                }
            }
        }
    }
}

#[test]
fn prefilter_drops_rows_and_preserves_results() {
    let rows = generate("correlated", 5, 800, 3, false);
    let expected = oracle(&rows, 3, false);
    let on = session_with(
        rows.clone(),
        3,
        false,
        adaptive_config().with_sample_size(128),
    );
    let off = session_with(
        rows,
        3,
        false,
        adaptive_config()
            .with_sample_size(128)
            .with_representative_prefilter(false),
    );
    let r_on = on.sql(&skyline_sql(3)).unwrap().collect().unwrap();
    let r_off = off.sql(&skyline_sql(3)).unwrap().collect().unwrap();
    assert_eq!(r_on.sorted_display(), expected);
    assert_eq!(r_off.sorted_display(), expected);
    assert!(
        r_on.metrics.prefilter_rows_dropped > 0,
        "correlated data must trip the pre-filter: {:?}",
        r_on.metrics
    );
    assert_eq!(r_off.metrics.prefilter_rows_dropped, 0);
    assert!(r_on.metrics.sample_rows > 0, "{:?}", r_on.metrics);
    assert_eq!(
        r_off.metrics.sample_rows, 0,
        "only the pre-filter reports its sample: {:?}",
        r_off.metrics
    );
}

#[test]
fn repeated_explains_and_runs_are_deterministic() {
    // Seeded sampling: the same query in the same session config must
    // plan identically every time — same EXPLAIN text, same sample and
    // pre-filter metrics.
    let make = || {
        session_with(
            generate("independent", 9, 500, 3, false),
            3,
            false,
            adaptive_config(),
        )
    };
    let sql = skyline_sql(3);
    let (a, b) = (make(), make());
    let explain_a = a.sql(&sql).unwrap().explain().unwrap();
    let explain_b = b.sql(&sql).unwrap().explain().unwrap();
    assert_eq!(explain_a, explain_b, "plan must not vary across sessions");
    assert_eq!(
        a.sql(&sql).unwrap().explain().unwrap(),
        explain_a,
        "plan must not vary across repeated EXPLAINs"
    );
    let m1 = a.sql(&sql).unwrap().collect().unwrap().metrics;
    let m2 = a.sql(&sql).unwrap().collect().unwrap().metrics;
    assert_eq!(m1.sample_rows, m2.sample_rows);
    assert_eq!(m1.prefilter_rows_dropped, m2.prefilter_rows_dropped);
    assert_eq!(m1.rows_output, m2.rows_output);
    // A different sampling seed is allowed to plan differently, but must
    // still be self-consistent.
    let c = session_with(
        generate("independent", 9, 500, 3, false),
        3,
        false,
        adaptive_config().with_sample_seed(7),
    );
    let explain_c = c.sql(&sql).unwrap().explain().unwrap();
    assert_eq!(c.sql(&sql).unwrap().explain().unwrap(), explain_c);
}

#[test]
fn adaptive_handles_unsampleable_inputs() {
    // A join input defeats plan-time sampling: adaptive must fall back to
    // the static knobs (no pre-filter, no panic) and stay correct.
    let ctx = SessionContext::with_config(adaptive_config());
    let rows: Vec<Row> = (0..40)
        .map(|i: i64| Row::new(vec![Value::Int64(i), Value::Int64((i * 7) % 40)]))
        .collect();
    ctx.register_table(
        "a",
        Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("x", DataType::Int64, false),
        ]),
        rows.clone(),
    )
    .unwrap();
    ctx.register_table(
        "b",
        Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("y", DataType::Int64, false),
        ]),
        rows,
    )
    .unwrap();
    let df = ctx
        .sql("SELECT * FROM a JOIN b ON a.id = b.id SKYLINE OF x MIN, y MIN")
        .unwrap();
    let explain = df.explain().unwrap();
    assert!(
        !explain.contains("SkylinePreFilterExec"),
        "no sample, no pre-filter:\n{explain}"
    );
    let result = df.collect().unwrap();
    assert!(result.num_rows() > 0);
    assert_eq!(result.metrics.sample_rows, 0);
}

#[test]
fn prefilter_respects_where_clauses() {
    // The sample is pushed through the WHERE clause, so a representative
    // point the predicate excludes can never poison the filter. (0,0)
    // dominates everything but is filtered out; every d0 >= 1 row with
    // d1 = 0 must survive.
    let mut rows = vec![Row::new(vec![Value::Float64(0.0), Value::Float64(0.0)])];
    rows.extend((1..40).map(|i| Row::new(vec![Value::Float64(f64::from(i)), Value::Float64(0.0)])));
    let ctx = session_with(rows, 2, false, adaptive_config());
    let result = ctx
        .sql("SELECT * FROM t WHERE d0 >= 1 SKYLINE OF d0 MIN, d1 MIN")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(result.num_rows(), 1);
    assert_eq!(result.rows[0].get(0), &Value::Float64(1.0));
    // The sample is drawn from the filter's *output*: all 39 surviving
    // rows, not a filtered-down remnant of a pre-filter draw.
    assert_eq!(result.metrics.sample_rows, 39);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The pre-filter never drops a true skyline point: filter-on and
    /// filter-off plans agree (and match the oracle) over random schemas
    /// with MIN/MAX/DIFF dimensions and NULL-bearing values under the
    /// declared-COMPLETE relation.
    #[test]
    fn prefilter_on_off_equality(
        seed in 0u64..500,
        n in 1usize..160,
        dims in 2usize..5,
        null_pct in 0u32..25,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let types: Vec<SkylineType> = (0..dims)
            .map(|i| match (seed as usize + i) % 3 {
                0 => SkylineType::Min,
                1 => SkylineType::Max,
                _ => SkylineType::Diff,
            })
            .collect();
        let rows: Vec<Row> = (0..n)
            .map(|_| {
                Row::new(
                    (0..dims)
                        .map(|_| {
                            if rng.gen_range(0u32..100) < null_pct {
                                Value::Null
                            } else {
                                Value::Int64(rng.gen_range(0i64..6))
                            }
                        })
                        .collect(),
                )
            })
            .collect();
        let spec = SkylineSpec::new(
            types
                .iter()
                .enumerate()
                .map(|(i, &ty)| SkylineDim::new(i, ty))
                .collect(),
        );
        let checker = DominanceChecker::complete(spec);
        let mut expected: Vec<String> = naive_skyline(&rows, &checker)
            .iter()
            .map(|r| r.to_string())
            .collect();
        expected.sort();
        let dim_list = types
            .iter()
            .enumerate()
            .map(|(i, ty)| format!("d{i} {}", ty.keyword()))
            .collect::<Vec<_>>()
            .join(", ");
        // COMPLETE is declared, so the complete relation applies even to
        // NULL-bearing rows and the pre-filter stays live.
        let sql = format!("SELECT * FROM t SKYLINE OF COMPLETE {dim_list}");
        for prefilter in [true, false] {
            let config = adaptive_config()
                .with_sample_size(32)
                .with_representative_prefilter(prefilter);
            let ctx = SessionContext::with_config(config);
            ctx.register_table(
                "t",
                Schema::new(
                    (0..dims)
                        .map(|i| Field::new(format!("d{i}"), DataType::Int64, true))
                        .collect(),
                ),
                rows.clone(),
            )
            .unwrap();
            let got = ctx.sql(&sql).unwrap().collect().unwrap().sorted_display();
            prop_assert_eq!(
                &got,
                &expected,
                "prefilter={} seed={} n={} dims={} nulls={}%",
                prefilter,
                seed,
                n,
                dims,
                null_pct
            );
        }
    }
}
