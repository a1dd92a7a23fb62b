//! Execution metrics: row counts, dominance tests, exchange volume.
//!
//! The paper identifies dominance testing as "the main cost factor of
//! skyline computation" (§2); the harness reports these counters alongside
//! wall time so experiments can explain *why* an algorithm wins.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Shared, thread-safe metric counters for one query execution.
#[derive(Debug, Default)]
pub struct ExecMetrics {
    /// Rows read from base tables.
    pub rows_scanned: AtomicU64,
    /// Batches yielded across all partition streams (every operator
    /// boundary counts its own batches — a proxy for pipeline work).
    pub batches_emitted: AtomicU64,
    /// Rows currently held by live batches and operator buffers.
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
    /// Multi-candidate kernel passes: window walks amortized over a batch
    /// of candidates instead of one.
    pub multi_candidate_passes: AtomicU64,
    /// Times the SFS scan discarded its sort work and re-ran BNL because a
    /// row did not admit the monotone scoring function.
    pub sfs_fallbacks: AtomicU64,
    /// Largest skyline window / candidate set observed.
    pub max_window: AtomicUsize,
    /// Rows moved through exchanges (repartitioning volume), including
    /// the local-skyline rows the flat pairwise merge gathers in place of
    /// the paper's `AllTuples` exchange.
    pub rows_exchanged: AtomicU64,
    /// Rows compared by join operators (probe work).
    pub join_comparisons: AtomicU64,
    /// Grid cells discarded because another cell's worst corner dominates
    /// their best corner (the whole cell is provably dominated).
    pub partitions_pruned: AtomicU64,
    /// Rows discarded with pruned grid cells — work the local skyline
    /// phase never sees.
    pub rows_pruned: AtomicU64,
    /// Corner-to-corner dominance tests performed by grid pruning.
    pub corner_tests: AtomicU64,
    /// Rounds of the global merge: 1 for the flat pairwise merge of two
    /// or more local skylines, the tree depth for the hierarchical merge,
    /// 0 when a single gathered partition streams through one window
    /// (non-distributed and SFS plans, the flat incomplete plan).
    pub merge_rounds: AtomicU64,
    /// Merge tasks executed across all rounds (the flat pairwise merge
    /// runs one per non-empty local skyline).
    pub merge_tasks: AtomicU64,
    /// Largest number of merge tasks in a single round — the parallelism
    /// the merge actually exposed to the executor pool.
    pub max_merge_fanout: AtomicUsize,
    /// Rows discarded by the representative-point pre-filter before they
    /// reached any skyline window.
    pub prefilter_rows_dropped: AtomicU64,
    /// Tuples flagged as dominated during the incomplete global phase —
    /// the deferred deletions of §5.7: flagged tuples keep traveling as
    /// dominance witnesses (flat: until the final filter; hierarchical:
    /// with their partial result) and are removed only at the end. The
    /// flat and tree merges flag the same tuples, so this counter is
    /// plan-shape invariant — the bench harness records it as a structural
    /// check alongside wall clock.
    pub deferred_deletions: AtomicU64,
    /// Distinct null-bitmap classes consumed by the hierarchical
    /// incomplete merge (0 for the flat single-executor global phase).
    pub classes_merged: AtomicU64,
    /// Rows in the planner's reservoir sample (0 when no skyline operator
    /// was planned adaptively).
    pub sample_rows: AtomicU64,
    /// Local-phase partitioning scheme chosen by the planner, as a code
    /// (see [`partitioning_code`]); 0 = standard / inherited distribution.
    /// Aggregated with `max` so the value is deterministic when several
    /// custom exchanges run concurrently — for the (rare) query with
    /// multiple differently-partitioned skylines this is a summary of the
    /// schemes involved, not a per-operator attribution (the plan display
    /// names each exchange's scheme exactly).
    pub chosen_partitioning: AtomicU64,
    /// Transient faults fired by the deterministic injector
    /// (`fault_rate` > 0). The differential chaos suite asserts this is
    /// positive to prove the fault-free-identical results were earned.
    pub faults_injected: AtomicU64,
    /// Partition recomputations triggered by retryable failures.
    pub retries_attempted: AtomicU64,
    /// Reservations denied by the per-query memory budget.
    pub budget_denials: AtomicU64,
    /// Graceful-degradation steps the session took before this execution
    /// (streaming sinks, dropped pre-filter, shrunk batches).
    pub degraded_paths: AtomicU64,
    /// Storage blocks read and decoded by disk scans.
    pub blocks_read: AtomicU64,
    /// Storage blocks skipped by static min/max pruning of pushed-down
    /// filter conjuncts — never read from disk.
    pub blocks_skipped_minmax: AtomicU64,
    /// Storage blocks skipped because a representative pre-filter point
    /// dominates the block's best corner — never read from disk.
    pub blocks_skipped_dominance: AtomicU64,
    /// Encoded bytes actually read and decoded by disk scans (skipped
    /// blocks contribute nothing).
    pub bytes_decoded: AtomicU64,
}

/// Stable code for a partitioner name ([`crate::Partitioner::name`]);
/// `0` means the input distribution was inherited (`Standard`).
pub fn partitioning_code(name: &str) -> u64 {
    match name {
        "Even" => 1,
        "Hash" => 2,
        "AngleBased" => 3,
        "Grid" => 4,
        _ => 0,
    }
}

/// Human-readable label for a [`partitioning_code`] value.
pub fn partitioning_label(code: u64) -> &'static str {
    match code {
        1 => "even",
        2 => "hash",
        3 => "angle",
        4 => "grid",
        _ => "standard",
    }
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

    /// Attribute kernel work to the SIMD tier and count multi-candidate
    /// passes (`simd` is a subset of the `batched` count reported through
    /// [`add_dominance_breakdown`](Self::add_dominance_breakdown)).
    pub fn add_kernel_breakdown(&self, simd: u64, multi_passes: u64) {
        self.simd_tests.fetch_add(simd, Ordering::Relaxed);
        self.multi_candidate_passes
            .fetch_add(multi_passes, Ordering::Relaxed);
    }

    /// Record SFS sort-discarding fallbacks.
    pub fn add_sfs_fallbacks(&self, n: u64) {
        self.sfs_fallbacks.fetch_add(n, Ordering::Relaxed);
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

    /// Add buffered/in-transit rows to the in-flight gauge.
    pub fn add_rows_in_flight(&self, rows: usize) {
        let new = self.rows_in_flight.fetch_add(rows, Ordering::Relaxed) + rows;
        self.peak_rows_in_flight.fetch_max(new, Ordering::Relaxed);
    }

    /// Release in-flight rows (batch consumed / buffer dropped).
    pub fn sub_rows_in_flight(&self, rows: usize) {
        self.rows_in_flight.fetch_sub(rows, Ordering::Relaxed);
    }

    /// Record a pruned grid cell and the rows discarded with it.
    pub fn add_pruned_partition(&self, rows: u64) {
        self.partitions_pruned.fetch_add(1, Ordering::Relaxed);
        self.rows_pruned.fetch_add(rows, Ordering::Relaxed);
    }

    /// Record one merge round with `tasks` tasks.
    pub fn add_merge_round(&self, tasks: usize) {
        self.merge_rounds.fetch_add(1, Ordering::Relaxed);
        self.merge_tasks.fetch_add(tasks as u64, Ordering::Relaxed);
        self.max_merge_fanout.fetch_max(tasks, Ordering::Relaxed);
    }

    /// Record rows discarded by the representative pre-filter.
    pub fn add_prefilter_dropped(&self, rows: u64) {
        self.prefilter_rows_dropped
            .fetch_add(rows, Ordering::Relaxed);
    }

    /// Record tuples flagged (deferred-deleted) by an incomplete global
    /// phase.
    pub fn add_deferred_deletions(&self, tuples: u64) {
        self.deferred_deletions.fetch_add(tuples, Ordering::Relaxed);
    }

    /// Record bitmap classes consumed by the hierarchical incomplete
    /// merge.
    pub fn add_classes_merged(&self, classes: u64) {
        self.classes_merged.fetch_add(classes, Ordering::Relaxed);
    }

    /// Record the planner's sample size (idempotent across partitions).
    pub fn note_sample_rows(&self, rows: u64) {
        self.sample_rows.fetch_max(rows, Ordering::Relaxed);
    }

    /// Record the partitioning scheme a custom exchange applied.
    pub fn note_partitioning(&self, name: &str) {
        self.chosen_partitioning
            .fetch_max(partitioning_code(name), Ordering::Relaxed);
    }

    /// Record one injected transient fault.
    pub fn add_fault_injected(&self) {
        self.faults_injected.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one partition retry (recomputation from source).
    pub fn add_retry_attempted(&self) {
        self.retries_attempted.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one memory-budget denial.
    pub fn add_budget_denial(&self) {
        self.budget_denials.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one graceful-degradation step.
    pub fn add_degraded_path(&self) {
        self.degraded_paths.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a storage block read and decoded (`bytes` encoded bytes).
    pub fn add_block_read(&self, bytes: u64) {
        self.blocks_read.fetch_add(1, Ordering::Relaxed);
        self.bytes_decoded.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record a storage block skipped by min/max pruning.
    pub fn add_block_skipped_minmax(&self) {
        self.blocks_skipped_minmax.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a storage block skipped by dominance pruning.
    pub fn add_block_skipped_dominance(&self) {
        self.blocks_skipped_dominance
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Carry the resilience counters of an abandoned execution attempt
    /// (the session's degradation ladder re-executes with fresh metrics;
    /// faults fired and denials suffered on the way are part of the
    /// query's story and must survive into the final snapshot).
    pub fn absorb_resilience(&self, prior: &MetricsSnapshot) {
        self.faults_injected
            .fetch_add(prior.faults_injected, Ordering::Relaxed);
        self.retries_attempted
            .fetch_add(prior.retries_attempted, Ordering::Relaxed);
        self.budget_denials
            .fetch_add(prior.budget_denials, Ordering::Relaxed);
        self.degraded_paths
            .fetch_add(prior.degraded_paths, Ordering::Relaxed);
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
            multi_candidate_passes: self.multi_candidate_passes.load(Ordering::Relaxed),
            sfs_fallbacks: self.sfs_fallbacks.load(Ordering::Relaxed),
            max_window: self.max_window.load(Ordering::Relaxed),
            rows_exchanged: self.rows_exchanged.load(Ordering::Relaxed),
            join_comparisons: self.join_comparisons.load(Ordering::Relaxed),
            partitions_pruned: self.partitions_pruned.load(Ordering::Relaxed),
            rows_pruned: self.rows_pruned.load(Ordering::Relaxed),
            corner_tests: self.corner_tests.load(Ordering::Relaxed),
            merge_rounds: self.merge_rounds.load(Ordering::Relaxed),
            merge_tasks: self.merge_tasks.load(Ordering::Relaxed),
            max_merge_fanout: self.max_merge_fanout.load(Ordering::Relaxed),
            prefilter_rows_dropped: self.prefilter_rows_dropped.load(Ordering::Relaxed),
            deferred_deletions: self.deferred_deletions.load(Ordering::Relaxed),
            classes_merged: self.classes_merged.load(Ordering::Relaxed),
            sample_rows: self.sample_rows.load(Ordering::Relaxed),
            chosen_partitioning: self.chosen_partitioning.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            retries_attempted: self.retries_attempted.load(Ordering::Relaxed),
            budget_denials: self.budget_denials.load(Ordering::Relaxed),
            degraded_paths: self.degraded_paths.load(Ordering::Relaxed),
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
    /// Multi-candidate kernel passes.
    pub multi_candidate_passes: u64,
    /// SFS sort-discarding fallbacks.
    pub sfs_fallbacks: u64,
    /// Largest skyline window observed.
    pub max_window: usize,
    /// Rows moved through exchanges.
    pub rows_exchanged: u64,
    /// Join probe comparisons.
    pub join_comparisons: u64,
    /// Grid cells pruned before the local skyline phase.
    pub partitions_pruned: u64,
    /// Rows discarded with pruned cells.
    pub rows_pruned: u64,
    /// Corner dominance tests spent on pruning.
    pub corner_tests: u64,
    /// Global merge rounds (1 for the flat pairwise merge).
    pub merge_rounds: u64,
    /// Total merge tasks across all rounds.
    pub merge_tasks: u64,
    /// Largest single-round merge parallelism.
    pub max_merge_fanout: usize,
    /// Rows discarded by the representative pre-filter.
    pub prefilter_rows_dropped: u64,
    /// Tuples flagged (deferred-deleted) by incomplete global phases.
    pub deferred_deletions: u64,
    /// Bitmap classes consumed by the hierarchical incomplete merge.
    pub classes_merged: u64,
    /// Rows in the planner's reservoir sample.
    pub sample_rows: u64,
    /// Chosen local-phase partitioning scheme (see [`partitioning_code`]).
    pub chosen_partitioning: u64,
    /// Transient faults fired by the deterministic injector.
    pub faults_injected: u64,
    /// Partition recomputations triggered by retryable failures.
    pub retries_attempted: u64,
    /// Reservations denied by the per-query memory budget.
    pub budget_denials: u64,
    /// Graceful-degradation steps taken by the session.
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

impl MetricsSnapshot {
    /// Label of the partitioning scheme the plan applied.
    pub fn chosen_partitioning_label(&self) -> &'static str {
        partitioning_label(self.chosen_partitioning)
    }
}

/// RAII gauge for rows buffered by a pipeline-breaker stage (sort buffers,
/// hash tables, skyline windows, materialized partitions): counts toward
/// `rows_in_flight` / `peak_rows_in_flight` until dropped.
#[derive(Debug)]
pub struct InFlightRows {
    metrics: Arc<ExecMetrics>,
    rows: usize,
}

impl InFlightRows {
    /// Register `rows` buffered rows.
    pub fn new(metrics: Arc<ExecMetrics>, rows: usize) -> Self {
        metrics.add_rows_in_flight(rows);
        InFlightRows { metrics, rows }
    }

    /// Adjust the gauge to a new buffer size (windows grow and shrink).
    pub fn set(&mut self, rows: usize) {
        if rows > self.rows {
            self.metrics.add_rows_in_flight(rows - self.rows);
        } else {
            self.metrics.sub_rows_in_flight(self.rows - rows);
        }
        self.rows = rows;
    }

    /// Rows currently registered by this guard.
    pub fn rows(&self) -> usize {
        self.rows
    }
}

impl Drop for InFlightRows {
    fn drop(&mut self) {
        self.metrics.sub_rows_in_flight(self.rows);
    }
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
        m.add_kernel_breakdown(5, 2);
        m.add_kernel_breakdown(0, 1);
        m.add_sfs_fallbacks(2);
        let s = m.snapshot();
        assert_eq!(s.batched_tests, 8);
        assert_eq!(s.scalar_tests, 3);
        assert_eq!(s.simd_tests, 5);
        assert_eq!(s.multi_candidate_passes, 3);
        assert_eq!(s.sfs_fallbacks, 2);
    }

    #[test]
    fn in_flight_gauge_tracks_peak() {
        let m = Arc::new(ExecMetrics::new());
        m.begin_batch(100);
        {
            let mut g = InFlightRows::new(Arc::clone(&m), 50);
            g.set(300);
            g.set(10);
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
        m.add_prefilter_dropped(40);
        m.add_prefilter_dropped(2);
        m.add_deferred_deletions(5);
        m.add_deferred_deletions(2);
        m.add_classes_merged(3);
        m.note_sample_rows(128);
        m.note_sample_rows(128);
        m.note_partitioning("Grid");
        let s = m.snapshot();
        assert_eq!(s.prefilter_rows_dropped, 42);
        assert_eq!(s.deferred_deletions, 7);
        assert_eq!(s.classes_merged, 3);
        assert_eq!(s.sample_rows, 128);
        assert_eq!(s.chosen_partitioning, partitioning_code("Grid"));
        assert_eq!(s.chosen_partitioning_label(), "grid");
        assert_eq!(
            MetricsSnapshot::default().chosen_partitioning_label(),
            "standard"
        );
        for name in ["Even", "Hash", "AngleBased", "Grid"] {
            assert_ne!(
                partitioning_label(partitioning_code(name)),
                "standard",
                "{name}"
            );
        }
    }

    #[test]
    fn resilience_counters_accumulate_and_carry() {
        let m = ExecMetrics::new();
        m.add_fault_injected();
        m.add_fault_injected();
        m.add_retry_attempted();
        m.add_budget_denial();
        m.add_degraded_path();
        let s = m.snapshot();
        assert_eq!(s.faults_injected, 2);
        assert_eq!(s.retries_attempted, 1);
        assert_eq!(s.budget_denials, 1);
        assert_eq!(s.degraded_paths, 1);
        let next = ExecMetrics::new();
        next.absorb_resilience(&s);
        next.add_retry_attempted();
        let carried = next.snapshot();
        assert_eq!(carried.faults_injected, 2);
        assert_eq!(carried.retries_attempted, 2);
        assert_eq!(carried.degraded_paths, 1);
    }

    #[test]
    fn storage_counters_accumulate() {
        let m = ExecMetrics::new();
        m.add_block_read(4096);
        m.add_block_read(1024);
        m.add_block_skipped_minmax();
        m.add_block_skipped_dominance();
        m.add_block_skipped_dominance();
        let s = m.snapshot();
        assert_eq!(s.blocks_read, 2);
        assert_eq!(s.bytes_decoded, 5120);
        assert_eq!(s.blocks_skipped_minmax, 1);
        assert_eq!(s.blocks_skipped_dominance, 2);
    }

    #[test]
    fn pruning_and_merge_counters() {
        let m = ExecMetrics::new();
        m.add_pruned_partition(40);
        m.add_pruned_partition(2);
        m.add_merge_round(4);
        m.add_merge_round(2);
        m.add_merge_round(1);
        let s = m.snapshot();
        assert_eq!(s.partitions_pruned, 2);
        assert_eq!(s.rows_pruned, 42);
        assert_eq!(s.merge_rounds, 3);
        assert_eq!(s.merge_tasks, 7);
        assert_eq!(s.max_merge_fanout, 4);
    }
}
