//! Materialized partitions: the unit of distribution *at pipeline-breaker
//! stages* of the stream model, where an algorithm needs buffered rows
//! (gathers, sorts, aggregation, join build sides, the skyline merge).
//! The helpers here split evenly (Spark's default when reading) and
//! flatten drained results; `TaskContext::gather` gathers to one
//! partition (`AllTuples`), charging the rows as it drains them.

use sparkline_common::Row;

/// One partition of rows, processed by a single executor.
pub type Partition = Vec<Row>;

/// Split rows into `n` contiguous, evenly sized partitions.
///
/// Mirrors the paper's description: "if there are 10 executors available
/// for 10,000,000 tuples ... each executor will receive roughly 1 million
/// tuples each".
pub fn split_evenly(rows: Vec<Row>, n: usize) -> Vec<Partition> {
    let mut rows = rows.into_iter();
    let ranges = even_ranges(rows.len(), n).into_iter();
    ranges
        .map(|(start, end)| rows.by_ref().take(end - start).collect())
        .collect()
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

/// Total number of rows across partitions.
pub fn total_rows(parts: &[Partition]) -> usize {
    parts.iter().map(Vec::len).sum()
}

/// Flatten partitions into a single row vector (preserving partition
/// order), consuming the input.
pub fn flatten(parts: Vec<Partition>) -> Vec<Row> {
    let mut rows = Vec::with_capacity(total_rows(&parts));
    rows.extend(parts.into_iter().flatten());
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
    fn flatten_round_trip() {
        let parts = split_evenly(rows(7), 2);
        assert_eq!(flatten(parts).len(), 7);
    }
}
