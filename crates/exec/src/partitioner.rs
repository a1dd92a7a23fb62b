//! The pluggable partitioning subsystem for distributed skyline plans.
//!
//! The paper's two-phase plan inherits the input distribution for its local
//! phase ("avoiding unnecessary communication cost", §5.6) — but the choice
//! of *how* tuples are spread over executors decides how much the local
//! phase can prune. This module makes that choice a first-class strategy
//! object ([`Partitioner`]) the planner selects from
//! [`SessionConfig::skyline_partitioning`](sparkline_common::SessionConfig::skyline_partitioning):
//!
//! * [`EvenPartitioner`] — contiguous even split, Spark's read default;
//! * [`SkylineHashPartitioner`] — tuples with identical skyline-dimension
//!   values share an executor, so duplicate trade-offs collapse locally;
//! * [`AnglePartitioner`] — the angle-based scheme of Vlachou et al.
//!   (SIGMOD 2008, the paper's §7 future work): tuples on the same
//!   price/quality trade-off compete in the same partition;
//! * [`GridPartitioner`] — MR-GRID-style grid partitioning with
//!   **dominated-cell pruning** (cf. Ciaccia & Martinenghi's dominated
//!   region strategies): each cell tracks the best and worst corner of its
//!   tuples, and a cell whose best corner is dominated by another cell's
//!   worst corner is discarded *before any local skyline runs*. Pruned
//!   cell and row counts are reported through [`ExecMetrics`].
//!
//! Correctness never depends on the scheme: on complete data the
//! local/global skyline decomposition is sound under *any* partitioning
//! (every global skyline tuple survives its local phase), and grid pruning
//! only discards tuples with a dominating witness. Pruning is disabled
//! when the spec carries `DIFF` dimensions (dominance then additionally
//! requires equality on those, which corners do not capture) and for
//! tuples that are NULL or non-numeric in a grid dimension (they are
//! routed past the grid, never pruned).

use std::fmt;

use sparkline_common::{Row, SkylineDim, SkylineSpec, SkylineType, Value};
use sparkline_skyline::{PointBlock, MULTI_LANES};

use crate::metrics::ExecMetrics;
use crate::partition::{flatten, split_evenly, Partition};

/// A partitioning strategy: redistributes a dataset over `n` executors.
pub trait Partitioner: fmt::Debug + Send + Sync {
    /// Strategy name for plan display and metrics.
    fn name(&self) -> &'static str;

    /// One-line description (strategy plus parameters) for `describe()`.
    fn describe(&self) -> String {
        self.name().to_string()
    }

    /// Redistribute `parts` into `n` partitions. Implementations may
    /// return fewer (never zero) partitions and may drop rows **only**
    /// when the rows are provably dominated under the strategy's spec;
    /// every drop must be reported through `metrics`.
    fn repartition(&self, parts: Vec<Partition>, n: usize, metrics: &ExecMetrics)
        -> Vec<Partition>;
}

/// Contiguous even split (Spark's default read distribution).
#[derive(Debug, Clone, Copy, Default)]
pub struct EvenPartitioner;

impl Partitioner for EvenPartitioner {
    fn name(&self) -> &'static str {
        "Even"
    }

    fn repartition(
        &self,
        parts: Vec<Partition>,
        n: usize,
        _metrics: &ExecMetrics,
    ) -> Vec<Partition> {
        split_evenly(flatten(parts), n)
    }
}

/// Hash partitioning on the skyline-dimension values: tuples with
/// identical dimension values always share an executor, so ties (and
/// `DISTINCT` representatives) collapse during the local phase.
#[derive(Debug, Clone)]
pub struct SkylineHashPartitioner {
    spec: SkylineSpec,
}

impl SkylineHashPartitioner {
    /// Hash partitioner over the spec's dimensions.
    pub fn new(spec: SkylineSpec) -> Self {
        SkylineHashPartitioner { spec }
    }
}

impl Partitioner for SkylineHashPartitioner {
    fn name(&self) -> &'static str {
        "Hash"
    }

    fn describe(&self) -> String {
        format!("Hash on {} dims", self.spec.dims.len())
    }

    fn repartition(
        &self,
        parts: Vec<Partition>,
        n: usize,
        _metrics: &ExecMetrics,
    ) -> Vec<Partition> {
        crate::partition::hash_partition(parts, n, |row| {
            use std::fmt::Write;
            let mut key = String::new();
            for dim in &self.spec.dims {
                let _ = write!(key, "{}\u{1f}", row.get(dim.index));
            }
            key
        })
    }
}

/// Numeric view of a ranked dimension with the MIN/MAX direction folded in
/// (smaller is always better). `None` for NULL / non-numeric values.
fn folded_numeric(row: &Row, dim: &SkylineDim) -> Option<f64> {
    match row.get(dim.index) {
        Value::Int64(i) => Some(*i as f64),
        Value::Float64(f) => Some(*f),
        Value::Boolean(b) => Some(f64::from(*b)),
        _ => None,
    }
    .map(|v| if dim.ty == SkylineType::Max { -v } else { v })
}

/// Angle-based partitioning (Vlachou et al., SIGMOD 2008, simplified to
/// the first two ranked dimensions): normalize both dimensions to [0, 1]
/// with the MIN/MAX direction folded in, compute each tuple's polar angle,
/// and split `[0, π/2]` into equal sectors. Tuples that do not admit the
/// numeric mapping are routed to sector 0.
#[derive(Debug, Clone)]
pub struct AnglePartitioner {
    spec: SkylineSpec,
}

impl AnglePartitioner {
    /// Angle partitioner over the spec's first two ranked dimensions.
    pub fn new(spec: SkylineSpec) -> Self {
        AnglePartitioner { spec }
    }
}

impl Partitioner for AnglePartitioner {
    fn name(&self) -> &'static str {
        "AngleBased"
    }

    fn describe(&self) -> String {
        format!(
            "AngleBased on {} dims",
            self.spec.ranked_dims().count().min(2)
        )
    }

    fn repartition(
        &self,
        parts: Vec<Partition>,
        n: usize,
        _metrics: &ExecMetrics,
    ) -> Vec<Partition> {
        let ranked: Vec<SkylineDim> = self.spec.ranked_dims().take(2).copied().collect();
        if ranked.len() < 2 || n == 1 {
            // One ranked dimension has no angular structure.
            return split_evenly(flatten(parts), n);
        }
        // Pass 1: global min/max per dimension for normalization.
        let mut lo = [f64::INFINITY; 2];
        let mut hi = [f64::NEG_INFINITY; 2];
        for part in &parts {
            for row in part {
                for (k, dim) in ranked.iter().enumerate() {
                    if let Some(v) = folded_numeric(row, dim) {
                        lo[k] = lo[k].min(v);
                        hi[k] = hi[k].max(v);
                    }
                }
            }
        }
        let span = [
            (hi[0] - lo[0]).max(f64::MIN_POSITIVE),
            (hi[1] - lo[1]).max(f64::MIN_POSITIVE),
        ];
        // Pass 2: route by polar angle sector.
        let mut out: Vec<Partition> = (0..n).map(|_| Vec::new()).collect();
        for part in parts {
            for row in part {
                let sector = match (
                    folded_numeric(&row, &ranked[0]),
                    folded_numeric(&row, &ranked[1]),
                ) {
                    (Some(x), Some(y)) => {
                        let nx = ((x - lo[0]) / span[0]).clamp(0.0, 1.0);
                        let ny = ((y - lo[1]) / span[1]).clamp(0.0, 1.0);
                        let theta = ny.atan2(nx); // [0, π/2]
                        ((theta / std::f64::consts::FRAC_PI_2) * n as f64) as usize
                    }
                    _ => 0,
                };
                out[sector.min(n - 1)].push(row);
            }
        }
        out
    }
}

/// Grid partitioning with dominated-cell pruning.
///
/// The value space of the first `MAX_GRID_DIMS` ranked dimensions is cut
/// into `cells_per_dim` equal-width buckets per dimension. Each nonempty
/// cell records the component-wise best (`min`) and worst (`max`) corner
/// of its tuples in folded space; a cell whose best corner is dominated by
/// another cell's worst corner contains only dominated tuples and is
/// dropped wholesale. Surviving cells are packed onto executors
/// largest-first so partition sizes stay balanced.
#[derive(Debug, Clone)]
pub struct GridPartitioner {
    spec: SkylineSpec,
    cells_per_dim: usize,
    prune: bool,
}

/// Grid dimensionality cap: cell count is `cells_per_dim ^ dims`, so the
/// grid uses at most this many leading ranked dimensions (pruning on a
/// prefix of the dimensions remains sound — corner dominance in a subspace
/// implies row dominance only when tested on all dims, so the corner test
/// below always runs over exactly the grid dims **and** pruning additionally
/// requires the spec to have no ranked dimensions beyond the grid prefix).
const MAX_GRID_DIMS: usize = 3;

impl GridPartitioner {
    /// Grid partitioner with `cells_per_dim >= 2` buckets per dimension.
    pub fn new(spec: SkylineSpec, cells_per_dim: usize) -> Self {
        assert!(
            cells_per_dim >= 2,
            "a grid needs at least 2 cells per dimension"
        );
        // Corner dominance over a *subset* of the ranked dimensions does
        // not imply row dominance, so pruning only engages when the grid
        // covers every ranked dimension and no DIFF dimension exists.
        let prune = spec.diff_dims().count() == 0 && spec.ranked_dims().count() <= MAX_GRID_DIMS;
        GridPartitioner {
            spec,
            cells_per_dim,
            prune,
        }
    }

    fn grid_dims(&self) -> Vec<SkylineDim> {
        self.spec
            .ranked_dims()
            .take(MAX_GRID_DIMS)
            .copied()
            .collect()
    }
}

struct GridCell {
    rows: Vec<Row>,
    best: Vec<f64>,
    worst: Vec<f64>,
}

impl Partitioner for GridPartitioner {
    fn name(&self) -> &'static str {
        "Grid"
    }

    fn describe(&self) -> String {
        format!(
            "Grid {}^{}{}",
            self.cells_per_dim,
            self.grid_dims().len(),
            if self.prune { ", cell pruning" } else { "" }
        )
    }

    fn repartition(
        &self,
        parts: Vec<Partition>,
        n: usize,
        metrics: &ExecMetrics,
    ) -> Vec<Partition> {
        let dims = self.grid_dims();
        if dims.len() < 2 {
            // The single-dimension case is already O(n) via MinMaxFilter;
            // a 1-d grid adds nothing over an even split.
            return split_evenly(flatten(parts), n);
        }
        let rows = flatten(parts);

        // Pass 1: bounds per grid dimension (folded space).
        let mut lo = vec![f64::INFINITY; dims.len()];
        let mut hi = vec![f64::NEG_INFINITY; dims.len()];
        for row in &rows {
            for (k, dim) in dims.iter().enumerate() {
                if let Some(v) = folded_numeric(row, dim) {
                    lo[k] = lo[k].min(v);
                    hi[k] = hi[k].max(v);
                }
            }
        }
        let span: Vec<f64> = lo
            .iter()
            .zip(&hi)
            .map(|(l, h)| (h - l).max(f64::MIN_POSITIVE))
            .collect();

        // Pass 2: route rows into cells; rows without a full numeric
        // mapping bypass the grid (kept, never pruned).
        let k = self.cells_per_dim;
        let mut cells: std::collections::HashMap<usize, GridCell> =
            std::collections::HashMap::new();
        let mut bypass: Vec<Row> = Vec::new();
        for row in rows {
            let coords: Option<Vec<f64>> = dims.iter().map(|d| folded_numeric(&row, d)).collect();
            let Some(coords) = coords else {
                bypass.push(row);
                continue;
            };
            let mut cell_id = 0usize;
            for (c, (l, s)) in coords.iter().zip(lo.iter().zip(&span)) {
                let bucket = (((c - l) / s) * k as f64) as usize;
                cell_id = cell_id * k + bucket.min(k - 1);
            }
            let cell = cells.entry(cell_id).or_insert_with(|| GridCell {
                rows: Vec::new(),
                best: vec![f64::INFINITY; dims.len()],
                worst: vec![f64::NEG_INFINITY; dims.len()],
            });
            for (d, c) in coords.iter().enumerate() {
                cell.best[d] = cell.best[d].min(*c);
                cell.worst[d] = cell.worst[d].max(*c);
            }
            cell.rows.push(row);
        }

        // Pass 3: dominated-cell pruning. Every cell's *worst* corner is
        // encoded into a columnar point block once (the same chunked
        // kernel the skyline windows use), and each cell's *best* corner
        // is tested against all of them in one batched pass; transitivity
        // of complete-data dominance makes comparing against
        // already-pruned cells sound. A cell never "dominates itself":
        // its worst corner is component-wise >= its best corner, which can
        // never be strictly dominating.
        let mut survivors: Vec<GridCell> = Vec::with_capacity(cells.len());
        // Deterministic cell order: the greedy packing below breaks size
        // ties by arrival order, so iterating the hash map directly would
        // make the partition composition — and with it the result *order*
        // of every downstream skyline — vary run to run.
        let mut ordered: Vec<(usize, GridCell)> = cells.into_iter().collect();
        ordered.sort_by_key(|(id, _)| *id);
        let all: Vec<GridCell> = ordered.into_iter().map(|(_, c)| c).collect();
        if self.prune {
            let mut worst_corners = PointBlock::new(dims.len());
            for cell in &all {
                worst_corners.push(&cell.worst);
            }
            // Best corners are tested MULTI_LANES at a time: one walk over
            // the worst-corner block serves the whole lane group.
            let mut corner_tests = 0u64;
            let mut dominated: Vec<bool> = Vec::with_capacity(all.len());
            let mut lanes: Vec<Option<usize>> = Vec::new();
            for group in all.chunks(MULTI_LANES) {
                let points: Vec<&[f64]> = group.iter().map(|c| c.best.as_slice()).collect();
                corner_tests += worst_corners.first_dominators(&points, &mut lanes);
                dominated.extend(lanes.iter().map(Option::is_some));
            }
            metrics
                .corner_tests
                .fetch_add(corner_tests, std::sync::atomic::Ordering::Relaxed);
            for (cell, dominated) in all.into_iter().zip(dominated) {
                if dominated {
                    metrics.add_pruned_partition(cell.rows.len() as u64);
                } else {
                    survivors.push(cell);
                }
            }
        } else {
            survivors = all;
        }

        // Pass 4: pack surviving cells onto `n` partitions, largest first
        // onto the currently lightest partition (greedy LPT balancing).
        // Rows that bypassed the grid are packed like one more cell.
        let mut out: Vec<Partition> = (0..n).map(|_| Vec::new()).collect();
        let mut batches: Vec<Vec<Row>> = survivors.into_iter().map(|c| c.rows).collect();
        if !bypass.is_empty() {
            batches.push(bypass);
        }
        batches.sort_by_key(|b| std::cmp::Reverse(b.len()));
        for batch in batches {
            let lightest = out
                .iter()
                .enumerate()
                .min_by_key(|(_, p)| p.len())
                .map(|(i, _)| i)
                .unwrap_or(0);
            out[lightest].extend(batch);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::total_rows;
    use sparkline_common::SkylineDim;

    fn spec2() -> SkylineSpec {
        SkylineSpec::new(vec![SkylineDim::min(0), SkylineDim::min(1)])
    }

    fn row2(a: i64, b: i64) -> Row {
        Row::new(vec![Value::Int64(a), Value::Int64(b)])
    }

    #[test]
    fn even_partitioner_balances() {
        let m = ExecMetrics::new();
        let rows: Vec<Row> = (0..10).map(|i| row2(i, i)).collect();
        let parts = EvenPartitioner.repartition(vec![rows], 3, &m);
        assert_eq!(parts.len(), 3);
        assert_eq!(total_rows(&parts), 10);
        assert!(parts.iter().all(|p| !p.is_empty()));
    }

    #[test]
    fn hash_partitioner_groups_equal_dim_values() {
        let m = ExecMetrics::new();
        let rows: Vec<Row> = (0..30).map(|i| row2(i % 5, (i % 5) * 2)).collect();
        let parts = SkylineHashPartitioner::new(spec2()).repartition(vec![rows], 4, &m);
        assert_eq!(total_rows(&parts), 30);
        // Each of the five distinct dim-value combinations lives in exactly
        // one partition.
        for v in 0..5i64 {
            let holders = parts
                .iter()
                .filter(|p| p.iter().any(|r| r.get(0) == &Value::Int64(v)))
                .count();
            assert_eq!(holders, 1, "value {v}");
        }
    }

    #[test]
    fn angle_partitioner_separates_trade_offs() {
        let m = ExecMetrics::new();
        let rows: Vec<Row> = (0..20)
            .map(|i| {
                if i % 2 == 0 {
                    row2(1, 100 + i)
                } else {
                    row2(100 + i, 1)
                }
            })
            .collect();
        let parts = AnglePartitioner::new(spec2()).repartition(vec![rows], 4, &m);
        assert_eq!(total_rows(&parts), 20);
        let steep: Vec<usize> = parts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.iter().any(|r| r.get(0) == &Value::Int64(1)))
            .map(|(i, _)| i)
            .collect();
        let flat: Vec<usize> = parts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.iter().any(|r| r.get(1) == &Value::Int64(1)))
            .map(|(i, _)| i)
            .collect();
        assert!(
            steep.iter().all(|s| !flat.contains(s)),
            "{steep:?} vs {flat:?}"
        );
    }

    #[test]
    fn grid_prunes_fully_dominated_cells() {
        let m = ExecMetrics::new();
        // A tight cluster near the origin (the dominating cell) and a
        // tight cluster far away (entirely dominated).
        let mut rows: Vec<Row> = (0..10).map(|i| row2(i % 3, (i * 7) % 3)).collect();
        rows.extend((0..10).map(|i| row2(90 + i % 3, 90 + (i * 3) % 3)));
        let parts = GridPartitioner::new(spec2(), 4).repartition(vec![rows], 2, &m);
        let s = m.snapshot();
        assert!(s.partitions_pruned >= 1, "{s:?}");
        assert_eq!(s.rows_pruned, 10, "{s:?}");
        assert!(s.corner_tests > 0);
        // Only the near cluster survives.
        assert_eq!(total_rows(&parts), 10);
        assert!(parts
            .iter()
            .flatten()
            .all(|r| matches!(r.get(0), Value::Int64(v) if *v < 10)));
    }

    #[test]
    fn grid_pruning_never_drops_skyline_members() {
        let m = ExecMetrics::new();
        // An anti-correlated diagonal: nothing dominates anything.
        let rows: Vec<Row> = (0..50).map(|i| row2(i, 49 - i)).collect();
        let parts = GridPartitioner::new(spec2(), 4).repartition(vec![rows], 3, &m);
        assert_eq!(total_rows(&parts), 50);
        assert_eq!(m.snapshot().rows_pruned, 0);
    }

    #[test]
    fn grid_routes_null_rows_past_pruning() {
        let m = ExecMetrics::new();
        let mut rows: Vec<Row> = (0..8).map(|i| row2(i, i)).collect();
        rows.push(Row::new(vec![Value::Null, Value::Int64(1_000)]));
        rows.push(Row::new(vec![Value::Int64(1_000), Value::Null]));
        let parts = GridPartitioner::new(spec2(), 4).repartition(vec![rows], 2, &m);
        // NULL rows are incomparable — they must survive regardless of how
        // bad their non-NULL coordinates are.
        let nulls = parts
            .iter()
            .flatten()
            .filter(|r| r.values().iter().any(Value::is_null))
            .count();
        assert_eq!(nulls, 2);
    }

    #[test]
    fn grid_disables_pruning_for_diff_specs() {
        let spec = SkylineSpec::new(vec![
            SkylineDim::min(0),
            SkylineDim::min(1),
            SkylineDim::diff(2),
        ]);
        let m = ExecMetrics::new();
        // Without the DIFF guard the (90,90) cluster would be pruned, but
        // its DIFF value differs from the near cluster's: nothing may drop.
        let mut rows: Vec<Row> = (0..6)
            .map(|i| Row::new(vec![Value::Int64(i), Value::Int64(i), Value::Int64(1)]))
            .collect();
        rows.extend((0..6).map(|i| {
            Row::new(vec![
                Value::Int64(90 + i),
                Value::Int64(90 + i),
                Value::Int64(2),
            ])
        }));
        let parts = GridPartitioner::new(spec, 4).repartition(vec![rows], 2, &m);
        assert_eq!(total_rows(&parts), 12);
        assert_eq!(m.snapshot().partitions_pruned, 0);
    }

    #[test]
    fn grid_disables_pruning_beyond_grid_dims() {
        // Five ranked dims exceed the 3-dim grid: corner dominance in the
        // 3-dim prefix no longer implies row dominance, so nothing prunes.
        let spec = SkylineSpec::new((0..5).map(SkylineDim::min).collect());
        let m = ExecMetrics::new();
        let near: Vec<Row> = (0..5)
            .map(|i| Row::new((0..5).map(|_| Value::Int64(i)).collect()))
            .collect();
        let far: Vec<Row> = (0..5)
            .map(|_| {
                // Terrible in the grid prefix, optimal in dim 4.
                Row::new(vec![
                    Value::Int64(99),
                    Value::Int64(99),
                    Value::Int64(99),
                    Value::Int64(99),
                    Value::Int64(-1),
                ])
            })
            .collect();
        let rows: Vec<Row> = near.into_iter().chain(far).collect();
        let parts = GridPartitioner::new(spec, 4).repartition(vec![rows], 2, &m);
        assert_eq!(total_rows(&parts), 10);
        assert_eq!(m.snapshot().partitions_pruned, 0);
    }

    #[test]
    fn partitioners_are_usable_as_trait_objects() {
        let m = ExecMetrics::new();
        let strategies: Vec<Box<dyn Partitioner>> = vec![
            Box::new(EvenPartitioner),
            Box::new(SkylineHashPartitioner::new(spec2())),
            Box::new(AnglePartitioner::new(spec2())),
            Box::new(GridPartitioner::new(spec2(), 4)),
        ];
        for s in &strategies {
            let rows: Vec<Row> = (0..40).map(|i| row2(i % 10, (i * 3) % 10)).collect();
            let parts = s.repartition(vec![rows], 4, &m);
            assert!(!parts.is_empty(), "{}", s.name());
            assert!(total_rows(&parts) <= 40);
            assert!(!s.describe().is_empty());
        }
    }
}
