//! Execution metrics: row counts, dominance tests, exchange volume.
//!
//! The paper identifies dominance testing as "the main cost factor of
//! skyline computation" (§2); the harness reports these counters alongside
//! wall time so experiments can explain *why* an algorithm wins.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Shared, thread-safe metric counters for one query execution.
#[derive(Debug, Default)]
pub struct ExecMetrics {
    /// Rows read from base tables.
    pub rows_scanned: AtomicU64,
    /// Batches yielded across all partition streams (every operator
    /// boundary counts its own batches — a proxy for pipeline work).
    pub batches_emitted: AtomicU64,
    /// Rows currently held by live batches and operator buffers (each
    /// buffer a `MemoryReservation`).
    pub rows_in_flight: AtomicUsize,
    /// High-water mark of [`rows_in_flight`](Self::rows_in_flight) — the
    /// peak-memory story of the stream model, in rows.
    pub peak_rows_in_flight: AtomicUsize,
    /// Rows produced by the root operator.
    pub rows_output: AtomicU64,
    /// Pairwise dominance tests across all skyline operators.
    pub dominance_tests: AtomicU64,
    /// Dominance tests answered by the columnar batch kernel.
    pub batched_tests: AtomicU64,
    /// Dominance tests answered by the scalar checker (scalar operators,
    /// or per-tuple fallbacks of the columnar kernel).
    pub scalar_tests: AtomicU64,
    /// Dominance tests answered by an explicit-SIMD compare tier (a subset
    /// of `batched_tests`; 0 when the chunked tier or the scalar checker
    /// served every test).
    pub simd_tests: AtomicU64,
    /// First-dominator walks of the cross-filter: one per candidate tested
    /// against a live kernel block.
    pub dominator_walks: AtomicU64,
    /// Eviction scans of the BNL batch fold: one per survivor-skyline row
    /// scanned against the window rows whose key reaches its own.
    pub eviction_scans: AtomicU64,
    /// Largest skyline window / candidate set observed.
    pub max_window: AtomicUsize,
    /// Rows moved between executors: those the `AllTuples` gather
    /// collects, and the local-skyline rows the pairwise merge gathers in
    /// place of the paper's `AllTuples` exchange.
    pub rows_exchanged: AtomicU64,
    /// Rows compared by join operators (probe work).
    pub join_comparisons: AtomicU64,
    /// Block-corner dominance tests performed by the disk scan's
    /// dominance skip.
    pub corner_tests: AtomicU64,
    /// Rounds of the global merge: 1 for every distributed plan whose
    /// pairwise merge has two or more antichain blocks to combine (local
    /// skylines, or bitmap-class runs of them under the incomplete
    /// relation), 0 when there is nothing to merge — a single gathered
    /// partition streaming through one window (non-distributed plans), or
    /// a single block.
    pub merge_rounds: AtomicU64,
    /// Merge tasks executed: the pairwise merge runs one per non-empty
    /// block, all in its one round.
    pub merge_tasks: AtomicU64,
    /// Tuples flagged as dominated during the incomplete global phase —
    /// the deferred deletions of §5.7: a flagged tuple keeps witnessing
    /// against every other candidate until the round ends. Equal to the
    /// candidates the global phase received minus its result, exactly the
    /// tuples the paper's all-pairs pass flags (`SKYLINE OF DISTINCT`
    /// duplicates included); 0 under the complete relation.
    pub deferred_deletions: AtomicU64,
    /// Reservations denied by the per-query memory budget.
    pub budget_denials: AtomicU64,
    /// Storage blocks read and decoded by disk scans.
    pub blocks_read: AtomicU64,
    /// Storage blocks skipped by static min/max pruning of pushed-down
    /// filter conjuncts — never read from disk.
    pub blocks_skipped_minmax: AtomicU64,
    /// Storage blocks skipped because a point of the footer sample's
    /// skyline dominates the block's best corner — never read from disk.
    pub blocks_skipped_dominance: AtomicU64,
    /// Encoded bytes actually read and decoded by disk scans (skipped
    /// blocks contribute nothing).
    pub bytes_decoded: AtomicU64,
}

impl ExecMetrics {
    /// Fresh counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add to a counter.
    pub fn add_dominance_tests(&self, n: u64) {
        self.dominance_tests.fetch_add(n, Ordering::Relaxed);
    }

    /// Attribute dominance tests to the columnar kernel vs the scalar
    /// checker (both also count toward `dominance_tests` via
    /// [`add_dominance_tests`](Self::add_dominance_tests)).
    pub fn add_dominance_breakdown(&self, batched: u64, scalar: u64) {
        self.batched_tests.fetch_add(batched, Ordering::Relaxed);
        self.scalar_tests.fetch_add(scalar, Ordering::Relaxed);
    }

    /// Attribute kernel work to the SIMD tier and count first-dominator
    /// walks and eviction scans (`simd` is a subset of the `batched` count
    /// reported through
    /// [`add_dominance_breakdown`](Self::add_dominance_breakdown)).
    pub fn add_kernel_breakdown(&self, simd: u64, walks: u64, scans: u64) {
        self.simd_tests.fetch_add(simd, Ordering::Relaxed);
        self.dominator_walks.fetch_add(walks, Ordering::Relaxed);
        self.eviction_scans.fetch_add(scans, Ordering::Relaxed);
    }

    /// Track the maximum window size.
    pub fn observe_window(&self, size: usize) {
        self.max_window.fetch_max(size, Ordering::Relaxed);
    }

    /// Record a batch entering flight (yielded by a partition stream).
    pub fn begin_batch(&self, rows: usize) {
        self.batches_emitted.fetch_add(1, Ordering::Relaxed);
        self.add_rows_in_flight(rows);
    }

    /// Add buffered/in-transit rows to the in-flight gauge (a yielded
    /// batch, or a `MemoryReservation`'s rows).
    pub(crate) fn add_rows_in_flight(&self, rows: usize) {
        let new = self.rows_in_flight.fetch_add(rows, Ordering::Relaxed) + rows;
        self.peak_rows_in_flight.fetch_max(new, Ordering::Relaxed);
    }

    /// Release in-flight rows (batch consumed / buffer dropped).
    pub(crate) fn sub_rows_in_flight(&self, rows: usize) {
        self.rows_in_flight.fetch_sub(rows, Ordering::Relaxed);
    }

    /// Record one merge round with `tasks` tasks.
    pub fn add_merge_round(&self, tasks: usize) {
        self.merge_rounds.fetch_add(1, Ordering::Relaxed);
        self.merge_tasks.fetch_add(tasks as u64, Ordering::Relaxed);
    }

    /// Record tuples flagged (deferred-deleted) by an incomplete global
    /// phase.
    pub fn add_deferred_deletions(&self, tuples: u64) {
        self.deferred_deletions.fetch_add(tuples, Ordering::Relaxed);
    }

    /// Record one memory-budget denial.
    pub fn add_budget_denial(&self) {
        self.budget_denials.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a storage block read and decoded (`bytes` encoded bytes).
    pub fn add_block_read(&self, bytes: u64) {
        self.blocks_read.fetch_add(1, Ordering::Relaxed);
        self.bytes_decoded.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record storage blocks skipped: `minmax` by min/max pruning,
    /// `dominance` by dominance pruning.
    pub fn add_blocks_skipped(&self, minmax: u64, dominance: u64) {
        self.blocks_skipped_minmax
            .fetch_add(minmax, Ordering::Relaxed);
        self.blocks_skipped_dominance
            .fetch_add(dominance, Ordering::Relaxed);
    }

    /// Snapshot the counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            rows_scanned: self.rows_scanned.load(Ordering::Relaxed),
            batches_emitted: self.batches_emitted.load(Ordering::Relaxed),
            peak_rows_in_flight: self.peak_rows_in_flight.load(Ordering::Relaxed),
            rows_output: self.rows_output.load(Ordering::Relaxed),
            dominance_tests: self.dominance_tests.load(Ordering::Relaxed),
            batched_tests: self.batched_tests.load(Ordering::Relaxed),
            scalar_tests: self.scalar_tests.load(Ordering::Relaxed),
            simd_tests: self.simd_tests.load(Ordering::Relaxed),
            dominator_walks: self.dominator_walks.load(Ordering::Relaxed),
            eviction_scans: self.eviction_scans.load(Ordering::Relaxed),
            max_window: self.max_window.load(Ordering::Relaxed),
            rows_exchanged: self.rows_exchanged.load(Ordering::Relaxed),
            join_comparisons: self.join_comparisons.load(Ordering::Relaxed),
            partitions_pruned: 0,
            corner_tests: self.corner_tests.load(Ordering::Relaxed),
            merge_rounds: self.merge_rounds.load(Ordering::Relaxed),
            merge_tasks: self.merge_tasks.load(Ordering::Relaxed),
            prefilter_rows_dropped: 0,
            deferred_deletions: self.deferred_deletions.load(Ordering::Relaxed),
            retries_attempted: 0,
            budget_denials: self.budget_denials.load(Ordering::Relaxed),
            degraded_paths: 0,
            blocks_read: self.blocks_read.load(Ordering::Relaxed),
            blocks_skipped_minmax: self.blocks_skipped_minmax.load(Ordering::Relaxed),
            blocks_skipped_dominance: self.blocks_skipped_dominance.load(Ordering::Relaxed),
            bytes_decoded: self.bytes_decoded.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`ExecMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Rows read from base tables.
    pub rows_scanned: u64,
    /// Batches yielded across all partition streams.
    pub batches_emitted: u64,
    /// Peak rows simultaneously held by batches and operator buffers.
    pub peak_rows_in_flight: usize,
    /// Rows produced by the root operator.
    pub rows_output: u64,
    /// Pairwise dominance tests.
    pub dominance_tests: u64,
    /// Dominance tests answered by the columnar batch kernel.
    pub batched_tests: u64,
    /// Dominance tests answered by the scalar checker.
    pub scalar_tests: u64,
    /// Dominance tests answered by an explicit-SIMD tier (subset of
    /// `batched_tests`).
    pub simd_tests: u64,
    /// First-dominator walks of the cross-filter.
    pub dominator_walks: u64,
    /// Eviction scans of the BNL batch fold.
    pub eviction_scans: u64,
    /// Largest skyline window observed.
    pub max_window: usize,
    /// Rows moved through exchanges.
    pub rows_exchanged: u64,
    /// Join probe comparisons.
    pub join_comparisons: u64,
    /// Always 0: no operator prunes whole partitions. Kept because the
    /// benchmark's `exec.partitions_pruned` layer metric reads it.
    pub partitions_pruned: u64,
    /// Block-corner dominance tests spent by the disk dominance skip.
    pub corner_tests: u64,
    /// Global merge rounds (1 for the pairwise merge).
    pub merge_rounds: u64,
    /// Merge tasks, one per merged block.
    pub merge_tasks: u64,
    /// Always 0: no operator pre-filters rows. Kept because the
    /// benchmark's `exec.prefilter_rows_dropped` layer metric reads it.
    pub prefilter_rows_dropped: u64,
    /// Tuples flagged (deferred-deleted) by incomplete global phases.
    pub deferred_deletions: u64,
    /// Always 0: nothing retries a partition. Kept because the
    /// benchmark's `exec.retries_attempted` layer metric reads it; a
    /// `[benchmark]` change deletes it.
    pub retries_attempted: u64,
    /// Reservations denied by the per-query memory budget.
    pub budget_denials: u64,
    /// Always 0: nothing re-plans a query. Kept because the benchmark's
    /// `exec.degraded_paths` layer metric reads it; a `[benchmark]` change
    /// deletes it.
    pub degraded_paths: u64,
    /// Storage blocks read and decoded by disk scans.
    pub blocks_read: u64,
    /// Storage blocks skipped by static min/max pruning.
    pub blocks_skipped_minmax: u64,
    /// Storage blocks skipped by dominance pruning.
    pub blocks_skipped_dominance: u64,
    /// Encoded bytes read and decoded by disk scans.
    pub bytes_decoded: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = ExecMetrics::new();
        m.add_dominance_tests(10);
        m.add_dominance_tests(5);
        m.observe_window(3);
        m.observe_window(2);
        m.rows_scanned.fetch_add(100, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(s.dominance_tests, 15);
        assert_eq!(s.max_window, 3);
        assert_eq!(s.rows_scanned, 100);
    }

    #[test]
    fn dominance_breakdown_accumulates() {
        let m = ExecMetrics::new();
        m.add_dominance_tests(10);
        m.add_dominance_breakdown(7, 3);
        m.add_dominance_breakdown(1, 0);
        m.add_kernel_breakdown(5, 2, 4);
        m.add_kernel_breakdown(0, 1, 0);
        let s = m.snapshot();
        assert_eq!(s.batched_tests, 8);
        assert_eq!(s.scalar_tests, 3);
        assert_eq!(s.simd_tests, 5);
        assert_eq!(s.dominator_walks, 3);
        assert_eq!(s.eviction_scans, 4);
    }

    #[test]
    fn in_flight_gauge_tracks_peak() {
        let ctx = crate::TaskContext::new(1);
        let m = &ctx.metrics;
        m.begin_batch(100);
        {
            let mut r = ctx.reservation();
            r.try_resize(50, 0).unwrap();
            r.try_resize(300, 0).unwrap();
            r.try_resize(10, 0).unwrap();
        }
        m.sub_rows_in_flight(100);
        let s = m.snapshot();
        assert_eq!(s.batches_emitted, 1);
        assert_eq!(s.peak_rows_in_flight, 400);
        assert_eq!(m.rows_in_flight.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn prefilter_and_strategy_counters() {
        let m = ExecMetrics::new();
        m.add_deferred_deletions(5);
        m.add_deferred_deletions(2);
        let s = m.snapshot();
        assert_eq!(s.prefilter_rows_dropped, 0, "nothing pre-filters rows");
        assert_eq!(s.deferred_deletions, 7);
    }

    #[test]
    fn resilience_counters_accumulate_and_carry() {
        // Denials accumulate over the one execution and the snapshot
        // carries them; the two inert counters read 0.
        let m = ExecMetrics::new();
        m.add_budget_denial();
        m.add_budget_denial();
        let s = m.snapshot();
        assert_eq!(s.budget_denials, 2);
        assert_eq!(s.degraded_paths, 0, "nothing re-plans a query");
        assert_eq!(s.retries_attempted, 0, "nothing retries a partition");
    }

    #[test]
    fn storage_counters_accumulate() {
        let m = ExecMetrics::new();
        m.add_block_read(4096);
        m.add_block_read(1024);
        m.add_blocks_skipped(1, 1);
        m.add_blocks_skipped(0, 1);
        let s = m.snapshot();
        assert_eq!(s.blocks_read, 2);
        assert_eq!(s.bytes_decoded, 5120);
        assert_eq!(s.blocks_skipped_minmax, 1);
        assert_eq!(s.blocks_skipped_dominance, 2);
    }

    #[test]
    fn pruning_and_merge_counters() {
        let m = ExecMetrics::new();
        m.add_merge_round(4);
        m.add_merge_round(2);
        m.add_merge_round(1);
        let s = m.snapshot();
        assert_eq!(s.partitions_pruned, 0, "nothing prunes partitions");
        assert_eq!(s.merge_rounds, 3);
        assert_eq!(s.merge_tasks, 7);
    }
}
