//! Query runner for the evaluation harness: registers datasets once,
//! executes one (query, algorithm, executor-count) cell at a time, and
//! applies the paper's timeout discipline.

use std::collections::HashSet;
use std::time::Duration;

use sparkline::{Algorithm, Error, SessionConfig, SessionContext};
use sparkline_datagen::{register_airbnb, register_musicbrainz, Variant};

/// What an experiment measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Wall-clock execution time (Figures 3–7, 11–16, 18).
    Time,
    /// Peak memory (Figures 8–10, 17, 19).
    Memory,
    /// Peak rows simultaneously in flight (the ext4 streaming chart).
    Rows,
}

/// One measured cell.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Execution time; `None` on timeout (rendered "t.o.", as in the
    /// paper's Appendix D tables).
    pub secs: Option<f64>,
    /// Peak memory in bytes (incl. per-executor overhead).
    pub peak_memory: usize,
    /// Result cardinality (skyline size).
    pub rows: usize,
    /// Dominance tests performed by skyline operators; for the reference
    /// algorithm the equivalent quantity is the join comparisons.
    pub dominance_tests: u64,
    /// Dominance tests answered by the columnar batch kernel.
    pub batched_tests: u64,
    /// Dominance tests answered by the scalar checker.
    pub scalar_tests: u64,
    /// Batches yielded across all partition streams.
    pub batches_emitted: u64,
    /// Peak rows simultaneously held by batches and operator buffers.
    pub peak_rows_in_flight: usize,
    /// Storage blocks read (decoded) by disk scans.
    pub blocks_read: u64,
    /// Storage blocks skipped by min/max refutation of pushed-down filters.
    pub blocks_skipped_minmax: u64,
    /// Storage blocks skipped by corner-dominance against the footer
    /// sample's skyline.
    pub blocks_skipped_dominance: u64,
    /// Raw block bytes read and decoded by disk scans.
    pub bytes_decoded: u64,
}

impl Measurement {
    /// The timeout marker.
    pub fn timeout() -> Self {
        Measurement {
            secs: None,
            peak_memory: 0,
            rows: 0,
            dominance_tests: 0,
            batched_tests: 0,
            scalar_tests: 0,
            batches_emitted: 0,
            peak_rows_in_flight: 0,
            blocks_read: 0,
            blocks_skipped_minmax: 0,
            blocks_skipped_dominance: 0,
            bytes_decoded: 0,
        }
    }

    /// Whether the cell timed out.
    pub fn timed_out(&self) -> bool {
        self.secs.is_none()
    }
}

/// Harness settings (scaled-down counterparts of §6.1/§6.2).
#[derive(Debug, Clone)]
pub struct EvalSettings {
    /// Dataset scale relative to the default 1:100 reproduction scale.
    pub scale: f64,
    /// Per-query timeout (the paper's 3600 s, scaled).
    pub timeout: Duration,
    /// Executor counts swept by the executor experiments (§6.4: 1,2,3,5,10).
    pub executors: Vec<usize>,
    /// RNG seed for dataset generation.
    pub seed: u64,
}

impl Default for EvalSettings {
    fn default() -> Self {
        EvalSettings {
            scale: 1.0,
            timeout: Duration::from_secs(30),
            executors: vec![1, 2, 3, 5, 10],
            seed: 42,
        }
    }
}

impl EvalSettings {
    /// Size of the incomplete Airbnb dataset (paper: 1,193,465 → 1:100).
    pub fn airbnb_rows(&self) -> usize {
        ((12_000.0 * self.scale) as usize).max(200)
    }

    /// The four store_sales sizes (paper: 10^6, 2·10^6, 5·10^6, 10^7 →
    /// 1:100).
    pub fn store_sales_sizes(&self) -> Vec<usize> {
        [10_000.0, 20_000.0, 50_000.0, 100_000.0]
            .iter()
            .map(|s| ((s * self.scale) as usize).max(100))
            .collect()
    }

    /// MusicBrainz recording count (paper: 1.5M → 1:100).
    pub fn musicbrainz_rows(&self) -> usize {
        ((15_000.0 * self.scale) as usize).max(150)
    }
}

/// Shared state across experiments: a session whose catalog accumulates
/// the datasets an experiment requests (registered lazily, exactly once).
pub struct EvalContext {
    base: SessionContext,
    settings: EvalSettings,
    registered: HashSet<String>,
}

impl EvalContext {
    /// Fresh context.
    pub fn new(settings: EvalSettings) -> Self {
        EvalContext {
            base: SessionContext::new(),
            settings,
            registered: HashSet::new(),
        }
    }

    /// The harness settings.
    pub fn settings(&self) -> &EvalSettings {
        &self.settings
    }

    /// Ensure the Airbnb dataset is registered; returns (table, rows).
    pub fn airbnb(&mut self, variant: Variant) -> (String, usize) {
        let name = format!("airbnb{}", variant.suffix());
        if self.registered.insert(name.clone()) {
            let (n, s) = (self.settings.airbnb_rows(), self.settings.seed);
            register_airbnb(&self.base, n, s, variant).expect("airbnb registration");
        }
        let rows = self.base.table_row_count(&name).unwrap_or(0);
        (name, rows)
    }

    /// Ensure a store_sales dataset of `size` rows exists; tables are
    /// named `store_sales_<millions-equivalent>[_incomplete]` like the
    /// paper's chart captions (`store_sales_10` etc.).
    pub fn store_sales(&mut self, size: usize, variant: Variant) -> (String, usize) {
        let sizes = self.settings.store_sales_sizes();
        let label = match sizes.iter().position(|&s| s == size) {
            Some(0) => "1",
            Some(1) => "2",
            Some(2) => "5",
            Some(3) => "10",
            _ => "x",
        };
        let name = format!("store_sales_{label}{}", variant.suffix());
        if self.registered.insert(name.clone()) {
            let d = sparkline_datagen::store_sales::generate(size, self.settings.seed, variant);
            let schema = d.schema;
            let rows = d.rows;
            self.base
                .register_table(name.clone(), schema, rows)
                .expect("store_sales registration");
        }
        let rows = self.base.table_row_count(&name).unwrap_or(0);
        (name, rows)
    }

    /// Ensure the MusicBrainz tables are registered; returns the
    /// recordings table name and its size.
    pub fn musicbrainz(&mut self, variant: Variant) -> (String, usize) {
        let name = match variant {
            Variant::Complete => "recording_complete".to_string(),
            Variant::Incomplete => "recording_incomplete".to_string(),
        };
        if self.registered.insert(name.clone()) {
            register_musicbrainz(
                &self.base,
                self.settings.musicbrainz_rows(),
                self.settings.seed,
                variant,
            )
            .expect("musicbrainz registration");
        }
        let rows = self.base.table_row_count(&name).unwrap_or(0);
        (name, rows)
    }

    /// Ensure a synthetic anti-correlated table (`dims` Float64 columns
    /// `d0..d{dims-1}`) of `n` rows exists — the hardest skyline workload,
    /// used by the partitioning-scheme experiments.
    pub fn anti_correlated(&mut self, n: usize, dims: usize) -> (String, usize) {
        use sparkline::{DataType, Field, Schema};
        let name = format!("anti_{n}_{dims}");
        if self.registered.insert(name.clone()) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(self.settings.seed);
            let rows = sparkline_datagen::distributions::anti_correlated_rows(&mut rng, n, dims);
            let schema = Schema::new(
                (0..dims)
                    .map(|i| Field::new(format!("d{i}"), DataType::Float64, false))
                    .collect(),
            );
            self.base
                .register_table(name.clone(), schema, rows)
                .expect("anti-correlated registration");
        }
        let rows = self.base.table_row_count(&name).unwrap_or(0);
        (name, rows)
    }

    /// Run one cell: `sql` under `algorithm` with `executors`.
    pub fn run(
        &self,
        sql: &str,
        algorithm: Algorithm,
        executors: usize,
    ) -> sparkline::Result<Measurement> {
        let config = SessionConfig::default()
            .with_executors(executors)
            .with_timeout(self.settings.timeout);
        self.run_with_config(sql, algorithm, config)
    }

    /// Run one cell under a fully custom [`SessionConfig`] — the
    /// partitioning experiment uses this to sweep the knob the default
    /// [`EvalContext::run`] leaves alone.
    pub fn run_with_config(
        &self,
        sql: &str,
        algorithm: Algorithm,
        config: SessionConfig,
    ) -> sparkline::Result<Measurement> {
        let config = config.with_timeout(self.settings.timeout);
        let ctx = self.base.with_shared_catalog(config);
        let df = ctx.sql(sql)?;
        match df.collect_with_algorithm(algorithm) {
            Ok(result) => {
                let dominance = if algorithm == Algorithm::Reference {
                    result.metrics.join_comparisons
                } else {
                    result.metrics.dominance_tests
                };
                Ok(Measurement {
                    secs: Some(result.elapsed.as_secs_f64()),
                    peak_memory: result.peak_memory_bytes,
                    rows: result.num_rows(),
                    dominance_tests: dominance,
                    batched_tests: result.metrics.batched_tests,
                    scalar_tests: result.metrics.scalar_tests,
                    batches_emitted: result.metrics.batches_emitted,
                    peak_rows_in_flight: result.metrics.peak_rows_in_flight,
                    blocks_read: result.metrics.blocks_read,
                    blocks_skipped_minmax: result.metrics.blocks_skipped_minmax,
                    blocks_skipped_dominance: result.metrics.blocks_skipped_dominance,
                    bytes_decoded: result.metrics.bytes_decoded,
                })
            }
            Err(Error::Timeout { .. }) => Ok(Measurement::timeout()),
            Err(other) => Err(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> EvalSettings {
        EvalSettings {
            scale: 0.02,
            timeout: Duration::from_secs(10),
            executors: vec![1, 2],
            seed: 1,
        }
    }

    #[test]
    fn datasets_register_once_and_run() {
        let mut ctx = EvalContext::new(tiny());
        let (a1, n1) = ctx.airbnb(Variant::Complete);
        let (a2, n2) = ctx.airbnb(Variant::Complete);
        assert_eq!(a1, a2);
        assert_eq!(n1, n2);
        let m = ctx
            .run(
                &format!("SELECT * FROM {a1} SKYLINE OF price MIN, accommodates MAX"),
                Algorithm::DistributedComplete,
                2,
            )
            .unwrap();
        assert!(!m.timed_out());
        assert!(m.rows > 0);
    }

    #[test]
    fn store_sales_labels_match_paper() {
        let mut ctx = EvalContext::new(tiny());
        let sizes = ctx.settings().store_sales_sizes();
        let (name, _) = ctx.store_sales(sizes[3], Variant::Complete);
        assert_eq!(name, "store_sales_10");
        let (name, _) = ctx.store_sales(sizes[0], Variant::Incomplete);
        assert_eq!(name, "store_sales_1_incomplete");
    }

    #[test]
    fn timeout_cells_are_marked() {
        let mut settings = tiny();
        settings.timeout = Duration::ZERO;
        let mut ctx = EvalContext::new(settings);
        let (t, _) = ctx.airbnb(Variant::Complete);
        let m = ctx
            .run(
                &format!("SELECT * FROM {t} SKYLINE OF price MIN, beds MAX"),
                Algorithm::DistributedComplete,
                1,
            )
            .unwrap();
        assert!(m.timed_out());
    }
}
