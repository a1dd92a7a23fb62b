//! Session configuration: executor count, skyline strategy, optimizer
//! toggles, and the query timeout.

use std::time::Duration;

/// Which physical skyline implementation the planner should choose.
///
/// `Auto` follows the paper's Listing 8: the complete (BNL) algorithm when
/// `COMPLETE` is declared or no skyline dimension is nullable, otherwise the
/// incomplete (null-bitmap partitioned) algorithm. The remaining variants
/// force one of the four algorithms evaluated in §6.3 — the benchmark
/// harness uses them to produce the paper's comparison series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SkylineStrategy {
    /// Paper's Listing 8 selection logic.
    #[default]
    Auto,
    /// Algorithm (1): distributed local skylines + global skyline, both
    /// block-nested-loop (the global phase merges the local skylines
    /// pairwise over the executor pool where the paper gathers them onto
    /// one executor — same rows, same order). Only valid on complete data.
    DistributedComplete,
    /// Algorithm (2): skip the local phase; one executor computes the
    /// global skyline directly. Only valid on complete data.
    NonDistributedComplete,
    /// Algorithm (3): null-bitmap partitioned local skylines + all-pairs
    /// flagged global skyline. Valid on any data.
    DistributedIncomplete,
    /// Extension beyond the paper (its §7 future work): distributed
    /// Sort-Filter-Skyline — presorted, insert-only windows in both the
    /// local and global phase. Only valid on complete data with numeric
    /// dimensions (non-numeric inputs fall back to BNL per partition).
    SortFilterSkyline,
    /// Extension beyond the paper: statistics-driven planning. The
    /// algorithm family still follows Listing 8 (like `Auto`), but the
    /// local-phase partitioning scheme, the global merge strategy, the
    /// grid granularity, and the representative-point pre-filter are
    /// chosen from a seeded sample of the input
    /// (`sparkline_common::stats`) instead of the static config knobs.
    /// Any fixed setting preserves the old behavior.
    Adaptive,
}

impl SkylineStrategy {
    /// Whether this strategy may be applied to data that can contain NULLs
    /// in skyline dimensions.
    pub fn handles_incomplete(self) -> bool {
        matches!(
            self,
            SkylineStrategy::Auto
                | SkylineStrategy::Adaptive
                | SkylineStrategy::DistributedIncomplete
        )
    }
}

/// How the input of a distributed (complete-data) local skyline phase is
/// partitioned across executors.
///
/// `Standard` keeps the child's distribution, "avoid[ing] unnecessary
/// communication cost" (paper §2/§5.6). The remaining variants select a
/// strategy from the pluggable partitioning subsystem in
/// `sparkline_exec::partitioner`; all of them are semantically neutral
/// (the two-phase skyline is sound under any partitioning of complete
/// data), differing only in balance and local pruning power.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SkylinePartitioning {
    /// Inherit the input partitioning (the paper's choice).
    #[default]
    Standard,
    /// Contiguous even re-split across the executor count.
    Even,
    /// Hash on the skyline-dimension values: identical trade-offs share an
    /// executor, collapsing ties during the local phase.
    Hash,
    /// Angle-based repartitioning before the local phase (Vlachou et al.,
    /// the paper's §7 future work).
    AngleBased,
    /// MR-GRID-style grid partitioning with dominated-cell pruning: cells
    /// whose best corner is dominated by another cell's worst corner are
    /// dropped before any local skyline runs.
    Grid,
}

/// Which dominance-kernel implementation the skyline operators run on.
///
/// The columnar block (`sparkline_skyline::columnar`) ships three compare
/// tiers — explicit AVX2 and SSE2 intrinsic loops plus the portable
/// chunked-scalar loop — and `Scalar` bypasses the block entirely, testing
/// every pair through the row-at-a-time `DominanceChecker`. All four
/// selections produce byte-identical skylines (only the performed-test
/// counters differ); the non-`Auto` values exist for A/B benchmarking and
/// for pinning CI to the portable paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DominanceKernel {
    /// Runtime dispatch: the widest SIMD tier the CPU supports
    /// (`is_x86_feature_detected!`), falling back to the chunked loop on
    /// targets without SSE2/AVX2.
    #[default]
    Auto,
    /// Force the explicit-SIMD tier (still runtime-detected AVX2 vs SSE2;
    /// degrades to the chunked loop off x86-64).
    Simd,
    /// Force the portable chunked-scalar mask loop (the PR 2 kernel,
    /// kept verbatim as the differential oracle for the SIMD tiers).
    Chunked,
    /// Bypass the columnar block; every test runs the scalar checker.
    Scalar,
}

impl DominanceKernel {
    /// Whether this selection routes tests through the columnar block at
    /// all (everything but [`DominanceKernel::Scalar`]).
    pub fn is_vectorized(self) -> bool {
        self != DominanceKernel::Scalar
    }
}

/// How the global skyline phase combines the gathered local skylines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MergeStrategy {
    /// One round over all local skylines. The complete BNL family merges
    /// them pairwise in place — every local skyline cross-filtered against
    /// every other, one task per partition on the executor pool (see
    /// `GlobalSkylineExec`); SFS and the incomplete family keep the
    /// paper's plan: gather everything onto one executor (`AllTuples`)
    /// for a single pass — the serial bottleneck of §6.4.
    #[default]
    Flat,
    /// Hierarchical (tree) merge: local skylines are merged in k-way
    /// rounds fanned over the executor pool until one partition remains.
    /// Always produces the same row *set* as the flat merge; with the
    /// default BNL windows the output order is identical too (SFS order
    /// can differ when its non-numeric fallback engages — see
    /// `GlobalSkylineExec`).
    Hierarchical {
        /// How many partitions one merge task combines per round (>= 2).
        fan_in: usize,
    },
}

/// Per-session engine configuration.
///
/// `num_executors` plays the role of Spark's executor count: it sizes the
/// worker-thread pool *and* the default partition count, so the local
/// skyline phase runs `num_executors` ways in parallel, exactly like the
/// paper's `--num-executors` sweeps.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Number of executors (worker threads / default partitions).
    pub num_executors: usize,
    /// Wall-clock limit for a single query; `None` disables the check.
    pub timeout: Option<Duration>,
    /// Rows per batch in the pull-based stream pipeline (>= 1).
    pub batch_size: usize,
    /// Execute through the pipelined stream model (default). Disabling it
    /// materializes a full `Vec<Partition>` at every operator boundary —
    /// the seed execution model, kept as the A/B baseline for the
    /// streaming benchmarks. Results are byte-identical either way.
    pub streaming_execution: bool,
    /// Physical skyline algorithm selection override.
    pub skyline_strategy: SkylineStrategy,
    /// Partitioning scheme for the distributed complete local phase.
    pub skyline_partitioning: SkylinePartitioning,
    /// Buckets per dimension for [`SkylinePartitioning::Grid`] (>= 2).
    pub grid_cells_per_dim: usize,
    /// Fan-in of one hierarchical merge task (>= 2).
    pub merge_fan_in: usize,
    /// Minimum partition count (== executor count) at which the planner
    /// replaces the flat single-executor global merge with the
    /// hierarchical tree merge. Below it the tree degenerates to the flat
    /// plan anyway, so the exchange-free path is not worth the plan churn.
    pub hierarchical_merge_min_partitions: usize,
    /// Allow the hierarchical (tree) merge for the **incomplete** family's
    /// global phase: per-bitmap-class partial results with deferred-
    /// deletion bookkeeping are merged in k-way rounds over the executor
    /// pool instead of gathering every candidate onto one executor for the
    /// §5.7 all-pairs pass. Byte-identical results either way (see
    /// `sparkline_skyline::incomplete` for the soundness argument);
    /// disabling it pins the incomplete family to the paper's flat
    /// single-executor plan — the A/B switch of the `ext6` benchmark.
    pub incomplete_tree_merge: bool,
    /// How skyline dominance tests run: through the columnar (struct-of-
    /// arrays) batch kernel where the data admits it — on the tier
    /// [`DominanceKernel::Auto`] picks from the CPU's features at runtime,
    /// or a pinned one; rows the kernel cannot represent fall back to the
    /// scalar checker per tuple — or, with [`DominanceKernel::Scalar`], on
    /// the scalar checker throughout (the A/B baseline). Results are
    /// identical either way.
    pub dominance_kernel: DominanceKernel,
    /// Enable the §5.4 rewrite of single-dimension skylines into an O(n)
    /// min/max scan + filter.
    pub enable_single_dim_rewrite: bool,
    /// Enable the §5.4 pushdown of the skyline below non-reductive joins.
    pub enable_skyline_join_pushdown: bool,
    /// Enable generic optimizations (predicate pushdown, constant folding,
    /// projection pruning). Disabled only for optimizer A/B benchmarks.
    pub enable_generic_optimizations: bool,
    /// Bytes of fixed memory overhead charged per executor in the memory
    /// accountant. Models the paper's observation that each Spark executor
    /// loads its whole JVM execution environment (§6.5 / Appendix C).
    pub executor_memory_overhead: usize,
    /// Reservoir-sample size for the adaptive planner's dataset
    /// statistics and the representative pre-filter (>= 1).
    pub sample_size: usize,
    /// Seed of the planner's reservoir sampler. Fixed per session so
    /// repeated `EXPLAIN`s of the same query report the same chosen
    /// strategy.
    pub sample_seed: u64,
    /// Cap on the representative-point pre-filter broadcast to every
    /// partition stream under [`SkylineStrategy::Adaptive`]; the filter is
    /// the sample's skyline truncated to this many points.
    pub prefilter_max_points: usize,
    /// Enable the representative-point pre-filter (adaptive plans only;
    /// the complete-data family — the incomplete relation is not
    /// transitive, so discarding dominated tuples early is unsound
    /// there). Disabling it is the A/B switch of the `ext5` benchmark and
    /// the pre-filter property tests.
    pub representative_prefilter: bool,
    /// Seed of the deterministic fault injector. With the same seed, rate,
    /// and plan, the same (site, partition, seq) steps fault on every run
    /// — the reproducibility contract of the chaos tests.
    pub fault_seed: u64,
    /// Probability in `[0, 1]` that an injection site fires a transient
    /// [`Error::Injected`](crate::Error::Injected) the first time a
    /// (site, partition, seq) step executes. `0.0` (the default) disables
    /// injection entirely.
    pub fault_rate: f64,
    /// How many times a failed partition is recomputed from its source
    /// before the error is surfaced. Only transient (injected) faults are
    /// retried; `0` disables retry.
    pub max_retries: u32,
    /// Base sleep between retry attempts; attempt `k` backs off
    /// `k * retry_backoff`, with `k` capped at
    /// `control::MAX_BACKOFF_MULTIPLIER` and the wait aborted early by a
    /// cancel or deadline expiry (a backoff must never park a shared
    /// worker thread past the query's own lifetime). Zero (the default)
    /// retries immediately — recomputation in-process has no external
    /// resource to wait out, but a service deployment would raise this.
    pub retry_backoff: Duration,
    /// Per-query cap on tracked buffer bytes (excluding the fixed
    /// per-executor overhead). `None` (the default) leaves reservations
    /// unbounded; with a budget, reservations past the cap fail with
    /// [`Error::ResourceExhausted`](crate::Error::ResourceExhausted) after
    /// the session has exhausted its graceful-degradation ladder.
    pub memory_budget: Option<usize>,
    /// Rows per block written by `COPY`-style disk-table writes (>= 1) —
    /// the skipping and decode granularity of the out-of-core scan.
    pub storage_block_rows: usize,
    /// Skip disk blocks whose per-column min/max prove no row passes a
    /// pushed-down filter conjunct. Sound on its own (the `Filter` stays
    /// in the plan); the switch exists for A/B benchmarks.
    pub disk_minmax_skipping: bool,
    /// Skip disk blocks whose best dominance corner is strictly dominated
    /// by a representative pre-filter point (complete-family skyline
    /// plans only). The `ext9` benchmark's headline A/B switch.
    pub disk_dominance_skipping: bool,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            num_executors: 2,
            timeout: None,
            batch_size: 4096,
            streaming_execution: true,
            skyline_strategy: SkylineStrategy::Auto,
            skyline_partitioning: SkylinePartitioning::Standard,
            grid_cells_per_dim: 4,
            merge_fan_in: 4,
            hierarchical_merge_min_partitions: 4,
            incomplete_tree_merge: true,
            dominance_kernel: DominanceKernel::Auto,
            enable_single_dim_rewrite: true,
            enable_skyline_join_pushdown: true,
            enable_generic_optimizations: true,
            // ~300 MB per executor in the paper's charts; scaled 1:1000 to
            // keep reproduction numbers readable alongside real row bytes.
            executor_memory_overhead: 300 * 1024,
            sample_size: 1024,
            sample_seed: 0x5EED_1A7E,
            prefilter_max_points: 64,
            representative_prefilter: true,
            fault_seed: 0xFA17_5EED,
            fault_rate: 0.0,
            max_retries: 3,
            retry_backoff: Duration::ZERO,
            memory_budget: None,
            storage_block_rows: 2048,
            disk_minmax_skipping: true,
            disk_dominance_skipping: true,
        }
    }
}

impl SessionConfig {
    /// Default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the executor count (must be at least 1).
    pub fn with_executors(mut self, n: usize) -> Self {
        assert!(n >= 1, "at least one executor is required");
        self.num_executors = n;
        self
    }

    /// Set the query timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Set the stream batch size (>= 1).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size >= 1, "batch size must be at least 1");
        self.batch_size = batch_size;
        self
    }

    /// Toggle the pipelined stream model (on by default); `false` selects
    /// the materialized per-boundary model.
    pub fn with_streaming_execution(mut self, on: bool) -> Self {
        self.streaming_execution = on;
        self
    }

    /// Force a skyline strategy.
    pub fn with_skyline_strategy(mut self, strategy: SkylineStrategy) -> Self {
        self.skyline_strategy = strategy;
        self
    }

    /// Choose the local-phase partitioning scheme.
    pub fn with_skyline_partitioning(mut self, partitioning: SkylinePartitioning) -> Self {
        self.skyline_partitioning = partitioning;
        self
    }

    /// Set the grid granularity (buckets per dimension, >= 2).
    pub fn with_grid_cells_per_dim(mut self, cells: usize) -> Self {
        assert!(cells >= 2, "a grid needs at least 2 cells per dimension");
        self.grid_cells_per_dim = cells;
        self
    }

    /// Set the hierarchical-merge fan-in (>= 2).
    pub fn with_merge_fan_in(mut self, fan_in: usize) -> Self {
        assert!(fan_in >= 2, "merge fan-in must be at least 2");
        self.merge_fan_in = fan_in;
        self
    }

    /// Set the partition count at which the hierarchical merge engages.
    /// `usize::MAX` effectively forces the flat (one-round) merge.
    pub fn with_hierarchical_merge_min_partitions(mut self, min: usize) -> Self {
        self.hierarchical_merge_min_partitions = min;
        self
    }

    /// Toggle the hierarchical merge for the incomplete family's global
    /// phase (on by default; engages once the executor count reaches
    /// [`Self::with_hierarchical_merge_min_partitions`]).
    pub fn with_incomplete_tree_merge(mut self, on: bool) -> Self {
        self.incomplete_tree_merge = on;
        self
    }

    /// Select the dominance-kernel tier (runtime-dispatched by default).
    pub fn with_dominance_kernel(mut self, kernel: DominanceKernel) -> Self {
        self.dominance_kernel = kernel;
        self
    }

    /// Toggle the single-dimension rewrite.
    pub fn with_single_dim_rewrite(mut self, on: bool) -> Self {
        self.enable_single_dim_rewrite = on;
        self
    }

    /// Toggle the skyline-join pushdown.
    pub fn with_skyline_join_pushdown(mut self, on: bool) -> Self {
        self.enable_skyline_join_pushdown = on;
        self
    }

    /// Toggle generic (non-skyline) optimizer rules.
    pub fn with_generic_optimizations(mut self, on: bool) -> Self {
        self.enable_generic_optimizations = on;
        self
    }

    /// Set the planner's reservoir-sample size (>= 1).
    pub fn with_sample_size(mut self, n: usize) -> Self {
        assert!(n >= 1, "sample size must be at least 1");
        self.sample_size = n;
        self
    }

    /// Set the planner's sampling seed.
    pub fn with_sample_seed(mut self, seed: u64) -> Self {
        self.sample_seed = seed;
        self
    }

    /// Set the representative pre-filter cap (0 disables the filter).
    pub fn with_prefilter_max_points(mut self, n: usize) -> Self {
        self.prefilter_max_points = n;
        self
    }

    /// Toggle the representative-point pre-filter (on by default; only
    /// active under [`SkylineStrategy::Adaptive`]).
    pub fn with_representative_prefilter(mut self, on: bool) -> Self {
        self.representative_prefilter = on;
        self
    }

    /// Enable deterministic fault injection with a seed and a per-step
    /// firing probability in `[0, 1]`.
    pub fn with_fault_injection(mut self, seed: u64, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "fault rate must be a probability"
        );
        self.fault_seed = seed;
        self.fault_rate = rate;
        self
    }

    /// Set the per-partition retry cap (0 disables retry).
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Set the retry backoff base (capped linear; see `retry_backoff`).
    pub fn with_retry_backoff(mut self, backoff: Duration) -> Self {
        self.retry_backoff = backoff;
        self
    }

    /// Cap the query's tracked buffer bytes.
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Set the disk-table block granularity in rows (>= 1).
    pub fn with_storage_block_rows(mut self, rows: usize) -> Self {
        assert!(rows >= 1, "a block holds at least one row");
        self.storage_block_rows = rows;
        self
    }

    /// Toggle min/max block skipping for disk scans (on by default).
    pub fn with_disk_minmax_skipping(mut self, on: bool) -> Self {
        self.disk_minmax_skipping = on;
        self
    }

    /// Toggle dominance block skipping for disk scans (on by default).
    pub fn with_disk_dominance_skipping(mut self, on: bool) -> Self {
        self.disk_dominance_skipping = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let c = SessionConfig::new()
            .with_executors(5)
            .with_timeout(Duration::from_secs(30))
            .with_skyline_strategy(SkylineStrategy::DistributedIncomplete)
            .with_single_dim_rewrite(false);
        assert_eq!(c.num_executors, 5);
        assert_eq!(c.timeout, Some(Duration::from_secs(30)));
        assert_eq!(c.skyline_strategy, SkylineStrategy::DistributedIncomplete);
        assert!(!c.enable_single_dim_rewrite);
        assert!(c.enable_skyline_join_pushdown);
        assert_eq!(c.batch_size, 4096, "default batch size");
        assert!(c.streaming_execution, "streaming defaults on");
        let c = SessionConfig::new()
            .with_batch_size(64)
            .with_streaming_execution(false);
        assert_eq!(c.batch_size, 64);
        assert!(!c.streaming_execution);
        assert_eq!(c.dominance_kernel, DominanceKernel::Auto, "kernel default");
        assert_eq!(
            SessionConfig::new()
                .with_dominance_kernel(DominanceKernel::Chunked)
                .dominance_kernel,
            DominanceKernel::Chunked
        );
        assert!(DominanceKernel::Auto.is_vectorized());
        assert!(DominanceKernel::Simd.is_vectorized());
        assert!(DominanceKernel::Chunked.is_vectorized());
        assert!(!DominanceKernel::Scalar.is_vectorized());
    }

    #[test]
    #[should_panic(expected = "at least one executor")]
    fn zero_executors_rejected() {
        let _ = SessionConfig::new().with_executors(0);
    }

    #[test]
    fn strategy_incomplete_handling() {
        assert!(SkylineStrategy::Auto.handles_incomplete());
        assert!(SkylineStrategy::Adaptive.handles_incomplete());
        assert!(SkylineStrategy::DistributedIncomplete.handles_incomplete());
        assert!(!SkylineStrategy::DistributedComplete.handles_incomplete());
        assert!(!SkylineStrategy::NonDistributedComplete.handles_incomplete());
    }

    #[test]
    fn sampling_knobs_default_and_chain() {
        let c = SessionConfig::new();
        assert_eq!(c.sample_size, 1024);
        assert_eq!(c.prefilter_max_points, 64);
        assert!(c.representative_prefilter);
        let c = SessionConfig::new()
            .with_sample_size(32)
            .with_sample_seed(99)
            .with_prefilter_max_points(0)
            .with_representative_prefilter(false);
        assert_eq!(c.sample_size, 32);
        assert_eq!(c.sample_seed, 99);
        assert_eq!(c.prefilter_max_points, 0);
        assert!(!c.representative_prefilter);
    }

    #[test]
    fn storage_knobs_default_and_chain() {
        let c = SessionConfig::new();
        assert_eq!(c.storage_block_rows, 2048);
        assert!(c.disk_minmax_skipping);
        assert!(c.disk_dominance_skipping);
        let c = SessionConfig::new()
            .with_storage_block_rows(256)
            .with_disk_minmax_skipping(false)
            .with_disk_dominance_skipping(false);
        assert_eq!(c.storage_block_rows, 256);
        assert!(!c.disk_minmax_skipping);
        assert!(!c.disk_dominance_skipping);
    }

    #[test]
    fn incomplete_tree_merge_knob_defaults_on() {
        assert!(SessionConfig::new().incomplete_tree_merge);
        assert!(
            !SessionConfig::new()
                .with_incomplete_tree_merge(false)
                .incomplete_tree_merge
        );
    }
}
