//! Differential suite for the dominance-kernel knob: forcing
//! `dominance_kernel` to `scalar`, `chunked`, or `auto` must be
//! invisible in the results — byte-identical rows in identical order on
//! every cell of the shared Börzsönyi matrix (3 distributions × dims
//! {2, 4, 8} × NULL fractions), on DIFF/MIN/MAX dimension mixes, and on
//! non-numeric DIFF columns that demote the kernel to its scalar
//! fallback. Only the performed-test counters may differ between knobs,
//! and those must attribute the work consistently: the scalar knob
//! batches nothing, the chunked knob runs no SIMD tests, and the auto
//! knob reports `simd_tests` exactly when the host has a SIMD tier.

mod common;

use common::{generate_with_null_fraction, oracle, skyline_sql, DISTRIBUTIONS};
use proptest::prelude::*;
use sparkline::{
    DataType, DominanceKernel, Field, Row, Schema, SessionConfig, SessionContext, Value,
};
use sparkline_skyline::KernelTier;

/// Every setting of the knob, scalar baseline first.
const KERNELS: [DominanceKernel; 3] = [
    DominanceKernel::Scalar,
    DominanceKernel::Chunked,
    DominanceKernel::Auto,
];

/// A session with the rows as table `t` (`dims` float columns) and the
/// dominance kernel pinned.
fn kernel_session(
    rows: Vec<Row>,
    dims: usize,
    nullable: bool,
    kernel: DominanceKernel,
) -> SessionContext {
    let ctx = SessionContext::with_config(
        SessionConfig::default()
            .with_executors(3)
            .with_dominance_kernel(kernel),
    );
    ctx.register_table(
        "t",
        Schema::new(
            (0..dims)
                .map(|i| Field::new(format!("d{i}"), DataType::Float64, nullable))
                .collect(),
        ),
        rows,
    )
    .unwrap();
    ctx
}

#[test]
fn kernel_knobs_are_byte_identical_across_the_matrix() {
    for dist in DISTRIBUTIONS {
        for dims in [2usize, 4, 8] {
            for null_fraction in [0.0, 0.2] {
                let rows = generate_with_null_fraction(dist, 11, 300, dims, null_fraction);
                let expected = oracle(&rows, dims, null_fraction > 0.0);
                let mut baseline: Option<Vec<Row>> = None;
                for kernel in KERNELS {
                    let ctx = kernel_session(rows.clone(), dims, null_fraction > 0.0, kernel);
                    let result = ctx.sql(&skyline_sql(dims)).unwrap().collect().unwrap();
                    let mut sorted = result.sorted_display();
                    sorted.sort();
                    assert_eq!(
                        sorted, expected,
                        "{dist} dims={dims} nf={null_fraction} {kernel:?} vs oracle"
                    );
                    match &baseline {
                        None => baseline = Some(result.rows),
                        Some(rows) => assert_eq!(
                            &result.rows, rows,
                            "{dist} dims={dims} nf={null_fraction} {kernel:?}: \
                             rows (and their order) must not depend on the knob"
                        ),
                    }
                }
            }
        }
    }
}

#[test]
fn kernel_knobs_agree_on_diff_min_max_mixes() {
    for dist in DISTRIBUTIONS {
        let rows = generate_with_null_fraction(dist, 23, 400, 4, 0.0);
        let sql = "SELECT * FROM t SKYLINE OF d0 DIFF, d1 MIN, d2 MAX, d3 MIN";
        let mut baseline: Option<Vec<Row>> = None;
        for kernel in KERNELS {
            let ctx = kernel_session(rows.clone(), 4, false, kernel);
            let result = ctx.sql(sql).unwrap().collect().unwrap();
            let m = result.metrics;
            if kernel == DominanceKernel::Scalar {
                assert_eq!(m.batched_tests, 0, "{dist}: scalar knob must not batch");
                assert!(m.scalar_tests > 0, "{dist}");
            } else {
                // Numeric DIFF dims ride the kernel's equality mask — no
                // scalar demotion.
                assert!(m.batched_tests > 0, "{dist} {kernel:?}: {m:?}");
            }
            match &baseline {
                None => baseline = Some(result.rows),
                Some(rows) => assert_eq!(&result.rows, rows, "{dist} {kernel:?}"),
            }
        }
    }
}

#[test]
fn non_numeric_diff_demotes_every_kernel_to_the_same_scalar_path() {
    // A string DIFF column cannot be encoded; all knobs must agree with
    // the scalar baseline through the fallback.
    let rows: Vec<Row> = (0..120)
        .map(|i: i64| {
            Row::new(vec![
                Value::str(format!("g{}", i % 3)),
                Value::Float64((i % 17) as f64),
                Value::Float64(((i * 7) % 13) as f64),
            ])
        })
        .collect();
    let schema = Schema::new(vec![
        Field::new("g", DataType::Utf8, false),
        Field::new("d1", DataType::Float64, false),
        Field::new("d2", DataType::Float64, false),
    ]);
    let sql = "SELECT * FROM t SKYLINE OF g DIFF, d1 MIN, d2 MIN";
    let mut baseline: Option<Vec<Row>> = None;
    for kernel in KERNELS {
        let ctx = SessionContext::with_config(
            SessionConfig::default()
                .with_executors(2)
                .with_dominance_kernel(kernel),
        );
        ctx.register_table("t", schema.clone(), rows.clone())
            .unwrap();
        let result = ctx.sql(sql).unwrap().collect().unwrap();
        assert!(
            result.metrics.scalar_tests > 0,
            "{kernel:?} demotes to scalar"
        );
        match &baseline {
            None => baseline = Some(result.rows),
            Some(rows) => assert_eq!(&result.rows, rows, "{kernel:?}"),
        }
    }
}

#[test]
fn forced_knobs_attribute_work_to_the_right_tier() {
    let rows = generate_with_null_fraction("independent", 5, 500, 3, 0.0);
    let run = |kernel: DominanceKernel| {
        let ctx = kernel_session(rows.clone(), 3, false, kernel);
        let result = ctx.sql(&skyline_sql(3)).unwrap().collect().unwrap();
        result.metrics
    };

    let scalar = run(DominanceKernel::Scalar);
    assert_eq!(scalar.batched_tests, 0, "{scalar:?}");
    assert_eq!(scalar.simd_tests, 0, "{scalar:?}");
    assert_eq!(scalar.multi_candidate_passes, 0, "{scalar:?}");
    assert_eq!(scalar.scalar_tests, scalar.dominance_tests, "{scalar:?}");

    let chunked = run(DominanceKernel::Chunked);
    assert!(chunked.batched_tests > 0, "{chunked:?}");
    assert_eq!(chunked.simd_tests, 0, "chunked knob must not use SIMD");
    assert!(chunked.multi_candidate_passes > 0, "{chunked:?}");

    let simd = run(DominanceKernel::Auto);
    assert!(simd.batched_tests > 0, "{simd:?}");
    assert!(simd.multi_candidate_passes > 0, "{simd:?}");
    assert!(
        simd.simd_tests <= simd.batched_tests,
        "SIMD tests are a subset of batched tests: {simd:?}"
    );
    if KernelTier::detect().is_simd() {
        assert!(simd.simd_tests > 0, "host has a SIMD tier: {simd:?}");
    } else {
        assert_eq!(simd.simd_tests, 0, "no SIMD tier on this host: {simd:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random small nullable datasets with random MIN/MAX/DIFF dimension
    /// mixes: every kernel knob returns exactly the rows (and order) the
    /// scalar checker produces.
    #[test]
    fn random_specs_are_knob_invariant(
        rows in prop::collection::vec(
            prop::collection::vec(
                prop_oneof![4 => (0i64..8).prop_map(Some), 1 => Just(None)],
                3,
            ),
            1..90,
        ),
        dim_kinds in prop::collection::vec(0u8..3, 2),
        executors in 1usize..4,
    ) {
        let schema = Schema::new(
            (0..3)
                .map(|i| Field::new(format!("d{i}"), DataType::Int64, true))
                .collect(),
        );
        let table: Vec<Row> = rows
            .iter()
            .map(|vals| {
                Row::new(
                    vals.iter()
                        .map(|v| v.map(Value::Int64).unwrap_or(Value::Null))
                        .collect(),
                )
            })
            .collect();
        // d0 is always a strict dimension so the spec stays meaningful.
        let dims: Vec<String> = std::iter::once("d0 MIN".to_string())
            .chain(dim_kinds.iter().enumerate().map(|(i, k)| {
                let kind = match k {
                    0 => "MIN",
                    1 => "MAX",
                    _ => "DIFF",
                };
                format!("d{} {kind}", i + 1)
            }))
            .collect();
        let sql = format!("SELECT * FROM t SKYLINE OF {}", dims.join(", "));
        let mut baseline: Option<Vec<Row>> = None;
        for kernel in KERNELS {
            let ctx = SessionContext::with_config(
                SessionConfig::default()
                    .with_executors(executors)
                    .with_dominance_kernel(kernel),
            );
            ctx.register_table("t", schema.clone(), table.clone()).unwrap();
            let result = ctx.sql(&sql).unwrap().collect().unwrap();
            match &baseline {
                None => baseline = Some(result.rows),
                Some(rows) => prop_assert_eq!(&result.rows, rows, "{:?}", kernel),
            }
        }
    }
}
