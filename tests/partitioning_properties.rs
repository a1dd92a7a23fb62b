//! Partitioning correctness properties: the two-phase skyline must equal
//! the naive Definition-3.2 oracle under **both** local-phase
//! partitionings (the inherited `Standard` distribution and the
//! `AngleBased` exchange) on every benchmark distribution (correlated /
//! independent / anti-correlated), for any executor count — including the
//! empty-input and single-partition edge cases — and for every query
//! shape the angle routing treats specially: NULL-bearing rows under
//! `SKYLINE OF COMPLETE` (routed to sector 0), a `DIFF` dimension, and a
//! single ranked dimension (no angles: the exchange is left out). The
//! scheme may only change *where* tuples are processed, never the result.

mod common;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparkline::{
    DataType, Field, Row, Schema, SessionConfig, SessionContext, SkylinePartitioning, SkylineType,
    Value,
};
use sparkline_common::{SkylineDim, SkylineSpec};
use sparkline_datagen::distributions::{anti_correlated_rows, correlated_rows, independent_rows};
use sparkline_skyline::{naive_skyline, DominanceChecker};

const SCHEMES: [SkylinePartitioning; 2] = [
    SkylinePartitioning::Standard,
    SkylinePartitioning::AngleBased,
];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Distribution {
    Correlated,
    Independent,
    AntiCorrelated,
}

fn generate(dist: Distribution, seed: u64, n: usize, dims: usize) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    match dist {
        Distribution::Correlated => correlated_rows(&mut rng, n, dims),
        Distribution::Independent => independent_rows(&mut rng, n, dims),
        Distribution::AntiCorrelated => anti_correlated_rows(&mut rng, n, dims),
    }
}

/// The query shapes every property runs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// `d0 MIN, …, dN MIN` over the generated columns.
    AllMin,
    /// `AllMin` after every fifth row lost one value.
    Nulls,
    /// `AllMin` plus a `DIFF` dimension over an appended three-value
    /// column.
    Diff,
    /// `d0 MIN` plus the appended `DIFF` column: one ranked dimension.
    OneRanked,
}

const SHAPES: [Shape; 4] = [Shape::AllMin, Shape::Nulls, Shape::Diff, Shape::OneRanked];

/// One query: the table rows and the `(column, type)` skyline dimensions.
struct Query {
    rows: Vec<Row>,
    dims: Vec<SkylineDim>,
    nullable: bool,
}

impl Query {
    fn new(shape: Shape, mut rows: Vec<Row>, dims: usize) -> Self {
        let all_min: Vec<SkylineDim> = (0..dims).map(SkylineDim::min).collect();
        let with_group = |rows: Vec<Row>| -> Vec<Row> {
            rows.into_iter()
                .enumerate()
                .map(|(i, row)| {
                    let mut values = row.values().to_vec();
                    values.push(Value::Float64((i % 3) as f64));
                    Row::new(values)
                })
                .collect()
        };
        let (dims, nullable) = match shape {
            Shape::AllMin => (all_min, false),
            Shape::Nulls => {
                common::null_every_fifth(&mut rows, dims);
                (all_min, true)
            }
            Shape::Diff => {
                rows = with_group(rows);
                let mut d = all_min;
                d.push(SkylineDim::diff(dims));
                (d, false)
            }
            Shape::OneRanked => {
                rows = with_group(rows);
                (vec![SkylineDim::min(0), SkylineDim::diff(dims)], false)
            }
        };
        Query {
            rows,
            dims,
            nullable,
        }
    }

    fn ranked_dims(&self) -> usize {
        self.dims
            .iter()
            .filter(|d| d.ty != SkylineType::Diff)
            .count()
    }

    /// Oracle skyline (sorted display strings) under the complete relation.
    fn oracle(&self) -> Vec<String> {
        let checker = DominanceChecker::complete(SkylineSpec::new(self.dims.clone()));
        let mut v: Vec<String> = naive_skyline(&self.rows, &checker)
            .iter()
            .map(|r| r.to_string())
            .collect();
        v.sort();
        v
    }

    /// Engine skyline (sorted display strings) under one scheme, after
    /// checking that the plan carries the angle exchange exactly when the
    /// scheme asks for it and two ranked dimensions give it angles.
    fn engine(&self, scheme: SkylinePartitioning, executors: usize) -> Vec<String> {
        let ctx = SessionContext::with_config(
            SessionConfig::default()
                .with_executors(executors)
                .with_skyline_partitioning(scheme),
        );
        let width = self.dims.iter().map(|d| d.index + 1).max().unwrap_or(0);
        ctx.register_table(
            "t",
            Schema::new(
                (0..width)
                    .map(|i| Field::new(format!("d{i}"), DataType::Float64, self.nullable))
                    .collect(),
            ),
            self.rows.clone(),
        )
        .unwrap();
        let dim_list = self
            .dims
            .iter()
            .map(|d| format!("d{} {}", d.index, d.ty.keyword()))
            .collect::<Vec<_>>()
            .join(", ");
        let df = ctx
            .sql(&format!("SELECT * FROM t SKYLINE OF COMPLETE {dim_list}"))
            .unwrap();
        let explain = df.explain().unwrap();
        let angles = scheme == SkylinePartitioning::AngleBased && self.ranked_dims() >= 2;
        assert_eq!(
            explain.contains("ExchangeExec [AngleBased on 2 dims]"),
            angles,
            "{scheme:?}:\n{explain}"
        );
        assert_eq!(explain.contains("ExchangeExec"), angles, "{explain}");
        df.collect().unwrap().sorted_display()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every scheme × distribution × shape × executor count equals the
    /// oracle.
    #[test]
    fn partitioned_two_phase_equals_oracle(
        seed in 0u64..1_000,
        n in 0usize..250,
        executors in 1usize..7,
        dims in 2usize..4,
    ) {
        for dist in [
            Distribution::Correlated,
            Distribution::Independent,
            Distribution::AntiCorrelated,
        ] {
            for shape in SHAPES {
                let query = Query::new(shape, generate(dist, seed, n, dims), dims);
                let expected = query.oracle();
                for scheme in SCHEMES {
                    let got = query.engine(scheme, executors);
                    prop_assert_eq!(
                        &got,
                        &expected,
                        "{:?} / {:?} / {:?} / {} executors / {} rows",
                        scheme,
                        shape,
                        dist,
                        executors,
                        n
                    );
                }
            }
        }
    }
}

#[test]
fn empty_input_yields_empty_skyline_under_every_scheme() {
    for shape in SHAPES {
        let query = Query::new(shape, Vec::new(), 2);
        for scheme in SCHEMES {
            for executors in [1usize, 4] {
                let got = query.engine(scheme, executors);
                assert!(
                    got.is_empty(),
                    "{scheme:?} / {shape:?} with {executors} executors"
                );
            }
        }
    }
}

#[test]
fn single_partition_degenerates_gracefully() {
    // One executor means one partition everywhere: every scheme must
    // degenerate to the direct skyline.
    for shape in SHAPES {
        let query = Query::new(shape, generate(Distribution::AntiCorrelated, 7, 300, 3), 3);
        let expected = query.oracle();
        for scheme in SCHEMES {
            assert_eq!(
                query.engine(scheme, 1),
                expected,
                "{scheme:?} / {shape:?} single partition"
            );
        }
    }
}

#[test]
fn more_executors_than_rows_is_sound() {
    for shape in SHAPES {
        let query = Query::new(shape, generate(Distribution::Independent, 3, 4, 2), 2);
        let expected = query.oracle();
        for scheme in SCHEMES {
            assert_eq!(
                query.engine(scheme, 16),
                expected,
                "{scheme:?} / {shape:?} with 16 executors / 4 rows"
            );
        }
    }
}
