//! The five workloads: what data each generates from the seed and which
//! SQL texts it issues. The engine only ever receives the generated rows
//! and the SQL text; the structured form of each query stays here for the
//! checker.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparkline::{DataType, Field, Row, Schema, Value};
use sparkline_datagen::distributions::{anti_correlated_rows, correlated_rows, independent_rows};

use crate::checker::{Dir, Filter, Point};

/// Workload names, in the order they are run and reported.
pub const WORKLOADS: [&str; 5] = [
    "mem_anti",
    "mem_scan",
    "mem_incomplete",
    "disk_filter",
    "served_mix",
];

/// A workload's tables are `t0`, `t1`, ..
pub fn table_name(i: usize) -> String {
    format!("t{i}")
}

/// The seed of a run's `i`-th table. Runs with neighbouring `--seed`s
/// share no table.
pub fn table_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(i as u64)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dist {
    AntiCorrelated,
    Correlated,
    Independent,
}

/// A generated table: `rows` × `dims` `Float64` columns `d0..`, Börzsönyi
/// distribution `dist`, each value NULLed with probability `null_share`.
#[derive(Debug, Clone, Copy)]
pub struct TableSpec {
    pub rows: usize,
    pub dims: usize,
    pub dist: Dist,
    pub null_share: f64,
}

impl TableSpec {
    pub fn schema(&self) -> Schema {
        Schema::new(
            (0..self.dims)
                .map(|d| Field::new(format!("d{d}"), DataType::Float64, self.null_share > 0.0))
                .collect(),
        )
    }

    /// The same seed gives the same rows.
    pub fn generate(&self, seed: u64) -> Vec<Row> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = match self.dist {
            Dist::AntiCorrelated => anti_correlated_rows(&mut rng, self.rows, self.dims),
            Dist::Correlated => correlated_rows(&mut rng, self.rows, self.dims),
            Dist::Independent => independent_rows(&mut rng, self.rows, self.dims),
        };
        if self.null_share > 0.0 {
            for row in &mut rows {
                let values = row
                    .values()
                    .iter()
                    .map(|v| {
                        if rng.gen_range(0.0..1.0) < self.null_share {
                            Value::Null
                        } else {
                            v.clone()
                        }
                    })
                    .collect();
                *row = Row::new(values);
            }
        }
        rows
    }
}

/// Engine rows as the checker's points.
pub fn to_points(rows: &[Row]) -> Vec<Point> {
    rows.iter().map(row_to_point).collect()
}

pub fn row_to_point(row: &Row) -> Point {
    row.values()
        .iter()
        .map(|v| match v {
            Value::Float64(x) => Some(*x),
            Value::Null => None,
            other => panic!("workload tables hold only Float64 and NULL, found {other:?}"),
        })
        .collect()
}

/// One skyline query over all columns of table `t<table>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub sql: String,
    pub table: usize,
    pub dirs: Vec<Dir>,
    pub filter: Option<Filter>,
}

impl Query {
    /// `SELECT * FROM t<table> [WHERE ..] SKYLINE OF [COMPLETE] d0 <dir>, ..`
    pub fn skyline(table: usize, dirs: &[Dir], complete: bool, filter: Option<Filter>) -> Query {
        let dims: Vec<String> = dirs
            .iter()
            .enumerate()
            .map(|(d, dir)| format!("d{d} {}", dir.keyword()))
            .collect();
        let where_clause = filter.map_or(String::new(), |f| format!(" WHERE {}", f.sql()));
        let complete = if complete { "COMPLETE " } else { "" };
        Query {
            sql: format!(
                "SELECT * FROM {}{where_clause} SKYLINE OF {complete}{}",
                table_name(table),
                dims.join(", ")
            ),
            table,
            dirs: dirs.to_vec(),
            filter,
        }
    }
}

/// An in-process workload: a cycle of queries issued through
/// `SessionContext::sql(..).collect()` by one caller.
///
/// A skyline's cost is set by the extreme rows of its table, so it does
/// not average out within one table however large: across seeds the
/// dominance tests of one 200k-row anti-correlated table spread by ±6%.
/// The driver judges steadiness across seeds, so the workloads whose cost
/// is the skyline's hold several independently generated tables and the
/// cycle visits each.
#[derive(Debug, Clone)]
pub struct InprocSpec {
    pub name: &'static str,
    /// The shape of each table.
    pub table: TableSpec,
    pub tables: usize,
    /// Write the tables to SPKB files and query them from there.
    pub on_disk: bool,
    /// Issued round-robin: every query shape on every table.
    pub queries: Vec<Query>,
}

impl InprocSpec {
    /// The rows of every table, from the run's seed.
    pub fn generate(&self, seed: u64) -> Vec<Vec<Row>> {
        (0..self.tables)
            .map(|i| self.table.generate(table_seed(seed, i)))
            .collect()
    }
}

fn scaled(rows: usize, scale: f64) -> usize {
    ((rows as f64 * scale) as usize).max(100)
}

/// The four in-process workloads; `None` for `served_mix` (see
/// [`crate::served`]) and unknown names. `scale` multiplies row counts
/// (1.0 for measurements, 0.05 for the smoke run).
pub fn inproc_spec(name: &str, scale: f64) -> Option<InprocSpec> {
    let all_min = [Dir::Min; 4];
    let filter = |col, greater, value| {
        Some(Filter {
            col,
            greater,
            value,
        })
    };
    let table = |rows, dist, null_share| TableSpec {
        rows: scaled(rows, scale),
        dims: 4,
        dist,
        null_share,
    };
    // (name, table shape, tables, on disk, COMPLETE, filters of the cycle)
    let (name, table, tables, on_disk, complete, filters) = match name {
        "mem_anti" => (
            "mem_anti",
            table(100_000, Dist::AntiCorrelated, 0.0),
            4,
            false,
            true,
            vec![None],
        ),
        "mem_scan" => (
            "mem_scan",
            table(250_000, Dist::Correlated, 0.0),
            4,
            false,
            true,
            vec![None, filter(1, false, 0.5), filter(1, false, 0.25)],
        ),
        "mem_incomplete" => (
            "mem_incomplete",
            table(500_000, Dist::Independent, 0.2),
            1,
            false,
            false,
            vec![None],
        ),
        "disk_filter" => (
            "disk_filter",
            table(1_000_000, Dist::Independent, 0.0),
            1,
            true,
            true,
            vec![None, filter(0, false, 0.25), filter(0, true, 0.5)],
        ),
        _ => return None,
    };
    let queries = (0..tables)
        .flat_map(|t| {
            filters
                .iter()
                .map(move |f| Query::skyline(t, &all_min, complete, *f))
        })
        .collect();
    Some(InprocSpec {
        name,
        table,
        tables,
        on_disk,
        queries,
    })
}

/// How many tables `served_mix` serves.
pub const SERVED_TABLES: usize = 4;

/// Each of `served_mix`'s tables: 20 000 × 3 anti-correlated rows.
pub fn served_table(scale: f64) -> TableSpec {
    TableSpec {
        rows: scaled(20_000, scale),
        dims: 3,
        dist: Dist::AntiCorrelated,
        null_share: 0.0,
    }
}
