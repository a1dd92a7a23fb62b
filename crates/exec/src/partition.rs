//! Materialized partitions: the unit of distribution *at pipeline-breaker
//! stages* of the stream model.
//!
//! Since the pull-based refactor, operators no longer exchange
//! `Vec<Partition>` between every stage — they exchange
//! [`PartitionStream`](crate::stream::PartitionStream)s of row batches,
//! and a `Partition` (one `Vec<Row>`) only materializes where an
//! algorithm genuinely needs buffered rows: repartitioning exchanges,
//! sorts, aggregation tables, join build sides, and the skyline merge
//! phases. The helpers here implement the distribution schemes those
//! breaker stages need — even splitting (Spark's default when reading),
//! coalescing to a single partition (the `AllTuples` requirement of the
//! flat global skyline), and angle-based routing (the `AngleBased`
//! local-phase partitioning) — plus the flatten/drain adapters the tests
//! and the bench harness use to compare against the materialized model.

use sparkline_common::{Row, SkylineDim, SkylineSpec, SkylineType, Value};

/// One partition of rows, processed by a single executor.
pub type Partition = Vec<Row>;

/// Split rows into `n` contiguous, evenly sized partitions.
///
/// Mirrors the paper's description: "if there are 10 executors available
/// for 10,000,000 tuples ... each executor will receive roughly 1 million
/// tuples each".
pub fn split_evenly(rows: Vec<Row>, n: usize) -> Vec<Partition> {
    let total = rows.len();
    if n == 1 || total == 0 {
        assert!(n >= 1, "at least one partition required");
        return vec![rows];
    }
    let mut parts: Vec<Partition> = Vec::with_capacity(n);
    let mut iter = rows.into_iter();
    for (start, end) in even_ranges(total, n) {
        let part: Partition = iter.by_ref().take(end - start).collect();
        parts.push(part);
    }
    parts
}

/// The `(start, end)` index ranges [`split_evenly`] cuts `total` rows
/// into — shared with the streaming scan so both models produce identical
/// partition boundaries. The remainder is spread one row at a time over
/// the leading ranges, so sizes differ by at most one and no partition is
/// left empty while another holds two or more rows (ceil-sized chunks
/// would emit empty *trailing* partitions, e.g. 4 rows / 3 executors as
/// [2, 2, 0], idling an executor).
pub fn even_ranges(total: usize, n: usize) -> Vec<(usize, usize)> {
    assert!(n >= 1, "at least one partition required");
    if n == 1 || total == 0 {
        return vec![(0, total)];
    }
    let (base, extra) = (total / n, total % n);
    let mut start = 0;
    (0..n)
        .map(|i| {
            let size = base + usize::from(i < extra);
            let range = (start, start + size);
            start += size;
            range
        })
        .collect()
}

/// Merge all partitions into a single one (Spark's `AllTuples`
/// distribution, required by the global skyline phase).
pub fn coalesce(parts: Vec<Partition>) -> Vec<Partition> {
    let total: usize = parts.iter().map(Vec::len).sum();
    let mut merged = Vec::with_capacity(total);
    for p in parts {
        merged.extend(p);
    }
    vec![merged]
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
/// the first two ranked dimensions of `spec`): normalize both dimensions
/// to [0, 1] with the MIN/MAX direction folded in, compute each row's
/// polar angle, and split `[0, π/2]` into `n` equal sectors, so rows on
/// the same trade-off compete in the same partition. Rows that do not
/// admit the numeric mapping (NULL or non-numeric in either dimension)
/// are routed to sector 0. With fewer than two ranked dimensions there is
/// no angular structure and the rows are split evenly.
pub fn angle_partition(parts: Vec<Partition>, n: usize, spec: &SkylineSpec) -> Vec<Partition> {
    let ranked: Vec<SkylineDim> = spec.ranked_dims().take(2).copied().collect();
    if ranked.len() < 2 || n == 1 {
        return split_evenly(flatten(parts), n);
    }
    // Pass 1: global min/max per dimension for normalization.
    let mut lo = [f64::INFINITY; 2];
    let mut hi = [f64::NEG_INFINITY; 2];
    for row in parts.iter().flatten() {
        for (k, dim) in ranked.iter().enumerate() {
            if let Some(v) = folded_numeric(row, dim) {
                lo[k] = lo[k].min(v);
                hi[k] = hi[k].max(v);
            }
        }
    }
    let span = [
        (hi[0] - lo[0]).max(f64::MIN_POSITIVE),
        (hi[1] - lo[1]).max(f64::MIN_POSITIVE),
    ];
    // Pass 2: route by polar angle sector.
    let mut out: Vec<Partition> = (0..n).map(|_| Vec::new()).collect();
    for row in parts.into_iter().flatten() {
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
    out
}

/// Total number of rows across partitions.
pub fn total_rows(parts: &[Partition]) -> usize {
    parts.iter().map(Vec::len).sum()
}

/// Flatten partitions into a single row vector (preserving partition
/// order), consuming the input.
pub fn flatten(parts: Vec<Partition>) -> Vec<Row> {
    let mut rows = Vec::with_capacity(total_rows(&parts));
    for p in parts {
        rows.extend(p);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkline_common::Value;

    fn rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| Row::new(vec![Value::Int64(i as i64)]))
            .collect()
    }

    #[test]
    fn split_sizes_are_even() {
        let parts = split_evenly(rows(10), 3);
        assert_eq!(parts.len(), 3);
        let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1, "{sizes:?}");
    }

    #[test]
    fn split_never_leaves_an_executor_idle() {
        // Regression: 4 rows / 3 executors used to come out as [2, 2, 0].
        let parts = split_evenly(rows(4), 3);
        let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![2, 1, 1]);
        // Whenever there are at least as many rows as partitions, every
        // partition gets work.
        for (total, n) in [(5usize, 4usize), (7, 3), (9, 2), (3, 3), (100, 7)] {
            let parts = split_evenly(rows(total), n);
            assert_eq!(parts.len(), n);
            assert_eq!(total_rows(&parts), total);
            assert!(parts.iter().all(|p| !p.is_empty()), "{total}/{n}");
        }
    }

    #[test]
    fn split_single_partition() {
        let parts = split_evenly(rows(5), 1);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].len(), 5);
    }

    #[test]
    fn split_more_partitions_than_rows() {
        let parts = split_evenly(rows(2), 5);
        assert_eq!(parts.len(), 5);
        assert_eq!(total_rows(&parts), 2);
    }

    #[test]
    fn coalesce_merges_preserving_order() {
        let parts = split_evenly(rows(9), 3);
        let merged = coalesce(parts);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0], rows(9));
    }

    #[test]
    fn angle_partition_separates_trade_offs() {
        let spec = SkylineSpec::new(vec![SkylineDim::min(0), SkylineDim::min(1)]);
        let row2 = |a: i64, b: i64| Row::new(vec![Value::Int64(a), Value::Int64(b)]);
        let rows: Vec<Row> = (0..20)
            .map(|i| {
                if i % 2 == 0 {
                    row2(1, 100 + i)
                } else {
                    row2(100 + i, 1)
                }
            })
            .collect();
        let parts = angle_partition(vec![rows], 4, &spec);
        assert_eq!(total_rows(&parts), 20);
        let holding = |dim: usize| -> Vec<usize> {
            parts
                .iter()
                .enumerate()
                .filter(|(_, p)| p.iter().any(|r| r.get(dim) == &Value::Int64(1)))
                .map(|(i, _)| i)
                .collect()
        };
        let (steep, flat) = (holding(0), holding(1));
        assert!(
            steep.iter().all(|s| !flat.contains(s)),
            "{steep:?} vs {flat:?}"
        );
    }

    #[test]
    fn flatten_round_trip() {
        let parts = split_evenly(rows(7), 2);
        assert_eq!(flatten(parts).len(), 7);
    }
}
