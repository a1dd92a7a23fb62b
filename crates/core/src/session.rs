//! The session: configuration + catalog + the full query pipeline
//! (parse → analyze → optimize → physical planning → execution), mirroring
//! the paper's Figure 2.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;
use sparkline_analyzer::Analyzer;
use sparkline_common::{Algorithm, MemTable, Result, Row, Schema, SessionConfig, Value};
use sparkline_exec::{Deadline, QueryControl, TaskContext};
use sparkline_optimizer::Optimizer;
use sparkline_parser::parse_query;
use sparkline_physical::{
    display_physical, ExecTableSource, ExecutionPlan, PhysicalPlanner, TableData,
};
use sparkline_plan::{Expr, LogicalPlan, LogicalPlanBuilder};

use crate::catalog::SessionCatalog;
use crate::dataframe::DataFrame;
use crate::reference::rewrite_to_reference;
use crate::result::QueryResult;

/// The entry point of the engine: holds the configuration and (shared)
/// catalog, creates [`DataFrame`]s from SQL or tables, and runs queries.
#[derive(Clone)]
pub struct SessionContext {
    config: SessionConfig,
    catalog: Arc<RwLock<SessionCatalog>>,
    /// Cooperative cancellation flag shared with every running query's
    /// [`QueryControl`]; clones of the session share it.
    cancel: Arc<AtomicBool>,
}

impl Default for SessionContext {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionContext {
    /// Session with the default configuration.
    pub fn new() -> Self {
        Self::with_config(SessionConfig::default())
    }

    /// Session with a custom configuration.
    pub fn with_config(config: SessionConfig) -> Self {
        SessionContext {
            config,
            catalog: Arc::new(RwLock::new(SessionCatalog::new())),
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A session with different configuration **sharing this session's
    /// catalog** — the harness uses this to sweep executor counts and
    /// algorithms without re-registering datasets. The new session gets
    /// its own cancellation flag.
    pub fn with_shared_catalog(&self, config: SessionConfig) -> SessionContext {
        SessionContext {
            config,
            catalog: Arc::clone(&self.catalog),
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Request cancellation of the queries running on this session (or
    /// any clone of it). Cooperative: each query aborts with
    /// `Error::Cancelled` at its next control check, unwinding through
    /// `Result` so every memory reservation is released. The flag is
    /// sticky — new queries fail immediately until
    /// [`reset_cancel`](Self::reset_cancel) is called.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Clear a previous [`cancel`](SessionContext::cancel), re-enabling
    /// query execution on this session.
    pub fn reset_cancel(&self) {
        self.cancel.store(false, Ordering::Relaxed);
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Read access to the catalog (crate-internal).
    pub(crate) fn catalog_read(&self) -> parking_lot::RwLockReadGuard<'_, SessionCatalog> {
        self.catalog.read()
    }

    /// Register an in-memory table.
    pub fn register_table(
        &self,
        name: impl Into<String>,
        schema: Schema,
        rows: Vec<Row>,
    ) -> Result<()> {
        self.catalog.write().register_table(name, schema, rows)
    }

    /// `COPY ... TO`: write a registered table to `path` in the sparkline
    /// block format, using the session's storage knobs
    /// (`storage_block_rows` for the block granularity, `sample_size` /
    /// `sample_seed` for the footer's reservoir sample). It writes through
    /// [`sparkline_storage::write_mem_table`], which orders the rows and
    /// gathers every block and the footer sample out of the table's column
    /// chunks, so no row is built: the file does **not** keep the table's
    /// row order, rows are clustered in Z order so block metadata can skip
    /// blocks (see `sparkline_storage`'s "Row order"). The same rows always
    /// write the same file. The file is written beside `path` and renamed
    /// over it once complete, so a failed COPY leaves `path` as it was. A
    /// disk table registered from `path` before the COPY fails its next
    /// scan with a typed `storage:` error until it is registered again.
    pub fn copy_table_to_disk(
        &self,
        name: &str,
        path: impl AsRef<std::path::Path>,
    ) -> Result<sparkline_storage::DiskTableSummary> {
        let (schema, table) = {
            let catalog = self.catalog.read();
            let schema = sparkline_plan::CatalogProvider::table_schema(&*catalog, name)
                .ok_or_else(|| {
                    sparkline_common::Error::plan(format!("no table named '{name}' to copy"))
                })?;
            let Some(TableData::Memory(table)) = catalog.table(name) else {
                return Err(sparkline_common::Error::plan(format!(
                    "table '{name}' has no in-memory rows to copy"
                )));
            };
            (schema, table)
        };
        sparkline_storage::write_mem_table(
            path,
            schema,
            &table,
            sparkline_storage::WriterOptions {
                block_rows: self.config.storage_block_rows,
                sample_cap: self.config.sample_size,
                sample_seed: self.config.sample_seed,
            },
        )
    }

    /// Open a block file written by
    /// [`copy_table_to_disk`](Self::copy_table_to_disk) (or any
    /// `sparkline_storage` writer) and register it as a disk-resident
    /// table: queries stream its blocks out-of-core, skipping whole
    /// blocks from footer metadata instead of reading them.
    pub fn register_disk_table(
        &self,
        name: impl Into<String>,
        path: impl AsRef<std::path::Path>,
    ) -> Result<()> {
        let table = Arc::new(sparkline_storage::DiskTable::open(path)?);
        self.catalog.write().register_disk_table(name, table);
        Ok(())
    }

    /// Declare a foreign key enabling the §5.4 skyline-join pushdown for
    /// inner joins. Both endpoints must name a registered table and
    /// column (see [`SessionCatalog::register_foreign_key`]); an invalid
    /// declaration is a plan error and leaves the catalog untouched.
    pub fn register_foreign_key(
        &self,
        from_table: impl Into<String>,
        from_column: impl Into<String>,
        to_table: impl Into<String>,
        to_column: impl Into<String>,
    ) -> Result<()> {
        self.catalog
            .write()
            .register_foreign_key(from_table, from_column, to_table, to_column)
    }

    /// Drop a table; returns whether it existed.
    pub fn deregister_table(&self, name: &str) -> bool {
        self.catalog.write().drop_table(name)
    }

    /// Append rows to a registered in-memory table (validated against its
    /// schema); returns the table's new row count. Running queries keep
    /// the snapshot they started with.
    pub fn insert_rows(&self, name: &str, rows: Vec<Row>) -> Result<usize> {
        self.catalog.write().insert_rows(name, rows)
    }

    /// `DELETE FROM name WHERE predicate`: remove the rows of a
    /// registered in-memory table matching `predicate` (all rows when
    /// `None`), returning the ascending positions of the removed rows in
    /// the table's pre-delete order. The predicate is resolved by the
    /// analyzer against the table's schema and evaluated under the
    /// catalog write lock, so there is no window between matching and
    /// removal in which a concurrent mutation could shift positions: on
    /// the table's column chunks when it is an `AND` of exactly comparable
    /// `column <op> literal` conjuncts (the scans'
    /// [`ScanFilter`](sparkline_physical::ScanFilter)), row by row
    /// otherwise. Rows where the predicate is NULL (or false) are kept,
    /// per SQL semantics. Only the chunks holding a removed row are
    /// rewritten. A delete matching nothing does not bump the catalog
    /// version (caches stay warm).
    pub fn delete_where(&self, name: &str, predicate: Option<&Expr>) -> Result<Vec<usize>> {
        let mut catalog = self.catalog.write();
        let bound = match predicate {
            Some(pred) => {
                let plan = LogicalPlanBuilder::relation(name)
                    .filter(pred.clone())
                    .build()?;
                let analyzed = Analyzer::new(&*catalog).analyze(&plan)?;
                Some(extract_filter_predicate(&analyzed).ok_or_else(|| {
                    sparkline_common::Error::internal(
                        "analyzed DELETE plan lost its filter predicate",
                    )
                })?)
            }
            None => {
                // Still validate the table name (and reject disk tables)
                // through the same path a predicate delete would take.
                Analyzer::new(&*catalog).analyze(&LogicalPlanBuilder::relation(name).build()?)?;
                None
            }
        };
        let Some(TableData::Memory(table)) = catalog.table(name) else {
            return Err(sparkline_common::Error::plan(format!(
                "table '{name}' is disk-resident; DELETE is only supported \
                 for in-memory tables"
            )));
        };
        let positions = match &bound {
            Some(predicate) => {
                let schema = sparkline_plan::CatalogProvider::table_schema(&*catalog, name)
                    .ok_or_else(|| {
                        sparkline_common::Error::internal(format!("table '{name}' has no schema"))
                    })?;
                matching_positions(&table, &schema, predicate)?
            }
            None => (0..table.len()).collect(),
        };
        catalog.delete_rows(name, &positions)?;
        Ok(positions)
    }

    /// A snapshot of a registered in-memory table (`None` for unknown or
    /// disk-resident tables): the chunks scans read, shared, so the
    /// snapshot is immutable and cheap, and a concurrent insert/delete
    /// builds new chunks for the catalog without touching it.
    pub fn table_snapshot(&self, name: &str) -> Option<MemTable> {
        match self.catalog.read().table(name) {
            Some(TableData::Memory(table)) => Some(table),
            _ => None,
        }
    }

    /// The catalog's mutation version (see [`SessionCatalog::version`]):
    /// bumped by every registration, drop, insert, and FK declaration.
    /// Plan/result caches key on it for implicit invalidation.
    pub fn catalog_version(&self) -> u64 {
        self.catalog.read().version()
    }

    /// Names of registered tables.
    pub fn table_names(&self) -> Vec<String> {
        self.catalog.read().table_names()
    }

    /// Row count of a registered table.
    pub fn table_row_count(&self, name: &str) -> Option<usize> {
        self.catalog.read().table_row_count(name)
    }

    /// Parse and eagerly analyze a SQL query (errors surface here, like
    /// Spark's eager analysis), returning a lazy [`DataFrame`].
    pub fn sql(&self, query: &str) -> Result<DataFrame> {
        let plan = parse_query(query)?;
        let analyzed = {
            let catalog = self.catalog.read();
            Analyzer::new(&*catalog).analyze(&plan)?
        };
        Ok(DataFrame::new(self.clone(), analyzed))
    }

    /// A [`DataFrame`] scanning a registered table.
    pub fn table(&self, name: &str) -> Result<DataFrame> {
        let plan = {
            let catalog = self.catalog.read();
            Analyzer::new(&*catalog).analyze(&LogicalPlanBuilder::relation(name).build()?)?
        };
        Ok(DataFrame::new(self.clone(), plan))
    }

    /// Run the full pipeline on a logical plan with Listing 8's algorithm
    /// selection ([`Algorithm::Auto`]).
    pub fn execute_plan(&self, plan: &LogicalPlan) -> Result<QueryResult> {
        self.execute_plan_with(plan, Algorithm::Auto)
    }

    /// Run the full pipeline forcing one of the paper's four algorithms.
    pub fn execute_plan_with(
        &self,
        plan: &LogicalPlan,
        algorithm: Algorithm,
    ) -> Result<QueryResult> {
        self.execute_pipeline(plan, algorithm)
            .map(|(_, result)| result)
    }

    /// The logical half of the pipeline, shared by execution and
    /// `EXPLAIN`: analyze (an already-analyzed plan is only validated),
    /// apply the reference rewrite when `algorithm` asks for it, and
    /// optimize. Returns the analyzed and optimized plans.
    fn analyze_and_optimize(
        &self,
        catalog: &SessionCatalog,
        plan: &LogicalPlan,
        algorithm: Algorithm,
    ) -> Result<(LogicalPlan, LogicalPlan)> {
        let analyzed = Analyzer::new(catalog).analyze(plan)?;
        let optimizer = Optimizer::new(&self.config).with_catalog(catalog);
        let optimized = if algorithm == Algorithm::Reference {
            optimizer.optimize(&rewrite_to_reference(&analyzed)?)?
        } else {
            optimizer.optimize(&analyzed)?
        };
        Ok((analyzed, optimized))
    }

    /// The shared pipeline: analyze → optimize → plan → execute on the
    /// stream model, once, returning the executed physical plan alongside
    /// the result. An error — a denied memory reservation included — is
    /// the query's result; nothing re-runs it. The catalog's read lock
    /// covers planning only: the plan holds its tables as [`TableData`]
    /// snapshots, so writers need not wait for it.
    fn execute_pipeline(
        &self,
        plan: &LogicalPlan,
        algorithm: Algorithm,
    ) -> Result<(Arc<dyn ExecutionPlan>, QueryResult)> {
        let catalog = self.catalog.read();
        let (analyzed, optimized) = self.analyze_and_optimize(&catalog, plan, algorithm)?;
        // The output schema is the analyzed plan's: optimizer rewrites
        // may rename intermediate fields.
        let schema = analyzed.schema()?;

        let start = Instant::now();
        let config = &self.config;
        let physical = PhysicalPlanner::new(config, &*catalog)
            .with_algorithm(algorithm)
            .create(&optimized)?;
        drop(catalog);
        let ctx = self.task_context();
        let rows = sparkline_physical::planner::collect(&physical, &ctx)?;
        let result = QueryResult {
            schema,
            rows,
            metrics: ctx.metrics.snapshot(),
            elapsed: start.elapsed(),
            peak_memory_bytes: ctx
                .memory
                .peak_with_overhead(config.num_executors, config.executor_memory_overhead),
        };
        Ok((physical, result))
    }

    /// The per-query execution context: the session's cancellation flag
    /// behind a fresh deadline and the enforced memory budget — all from
    /// the session's configuration.
    fn task_context(&self) -> TaskContext {
        let config = &self.config;
        TaskContext::new(config.num_executors)
            .with_control(QueryControl::with_cancel_flag(
                Deadline::new(config.timeout),
                Arc::clone(&self.cancel),
            ))
            .with_memory_budget(config.memory_budget)
            .with_batch_size(config.batch_size)
    }

    /// `EXPLAIN ANALYZE`: execute the plan and render the physical
    /// operators together with the measured execution metrics — including
    /// the stream gauges (`batches_emitted`, `peak_rows_in_flight`) that
    /// tell the pipelining story, and the peak memory of
    /// [`QueryResult::peak_memory_bytes`], whose reservations (every
    /// drained breaker input and skyline window among them) also feed the
    /// row gauge, so `peak rows in flight` counts a drained batch both in
    /// transit and held.
    pub fn explain_analyze(&self, plan: &LogicalPlan, algorithm: Algorithm) -> Result<String> {
        let (physical, result) = self.execute_pipeline(plan, algorithm)?;
        let m = &result.metrics;
        let mut out = String::new();
        out.push_str("== Physical Plan ==\n");
        out.push_str(&display_physical(&physical));
        out.push_str("== Execution Metrics ==\n");
        out.push_str(&format!("rows scanned: {}\n", m.rows_scanned));
        out.push_str(&format!("rows output: {}\n", m.rows_output));
        out.push_str(&format!("batches emitted: {}\n", m.batches_emitted));
        out.push_str(&format!("peak rows in flight: {}\n", m.peak_rows_in_flight));
        out.push_str(&format!(
            "dominance tests: {} ({} batched, {} scalar)\n",
            m.dominance_tests, m.batched_tests, m.scalar_tests
        ));
        out.push_str(&format!(
            "simd tests: {} ({} dominator walks, {} eviction scans)\n",
            m.simd_tests, m.dominator_walks, m.eviction_scans
        ));
        out.push_str(&format!("deferred deletions: {}\n", m.deferred_deletions));
        out.push_str(&format!("rows exchanged: {}\n", m.rows_exchanged));
        out.push_str(&format!("max window: {}\n", m.max_window));
        out.push_str(&format!("budget denials: {}\n", m.budget_denials));
        out.push_str(&format!(
            "disk blocks read: {} ({} skipped min/max, {} skipped dominance, {} corner tests)\n",
            m.blocks_read, m.blocks_skipped_minmax, m.blocks_skipped_dominance, m.corner_tests
        ));
        out.push_str(&format!("disk bytes decoded: {}\n", m.bytes_decoded));
        out.push_str(&format!(
            "peak memory: {} bytes\n",
            result.peak_memory_bytes
        ));
        out.push_str(&format!(
            "elapsed: {:.3} ms\n",
            result.elapsed.as_secs_f64() * 1e3
        ));
        Ok(out)
    }

    /// Render all pipeline stages of a plan, like `EXPLAIN EXTENDED`.
    pub fn explain_plan(&self, plan: &LogicalPlan, algorithm: Algorithm) -> Result<String> {
        let catalog = self.catalog.read();
        let (analyzed, optimized) = self.analyze_and_optimize(&catalog, plan, algorithm)?;
        let physical = PhysicalPlanner::new(&self.config, &*catalog)
            .with_algorithm(algorithm)
            .create(&optimized)?;
        Ok(format!(
            "== Analyzed Logical Plan ==\n{}\n== Optimized Logical Plan ==\n{}\n\
             == Physical Plan ==\n{}",
            analyzed.display_indent(),
            optimized.display_indent(),
            display_physical(&physical),
        ))
    }
}

/// The session's tables, for a planner run outside the session's own
/// pipeline: each lookup returns a snapshot.
impl ExecTableSource for SessionContext {
    fn table(&self, name: &str) -> Option<TableData> {
        self.catalog.read().table(name)
    }
}

/// The ascending positions of the rows of `table` (of `schema`) that
/// `predicate` evaluates to TRUE on: on each chunk's buffers through the
/// scans' [`ScanFilter`](sparkline_physical::ScanFilter) when the
/// predicate is an `AND` of exactly comparable conjuncts, through
/// `Expr::evaluate` on each row built from its chunk otherwise. Either
/// way a failing comparison fails the delete with the error a row-by-row
/// evaluation raises.
fn matching_positions(table: &MemTable, schema: &Schema, predicate: &Expr) -> Result<Vec<usize>> {
    let filter = sparkline_physical::ScanFilter::new(predicate, schema);
    let mut positions = Vec::new();
    for (k, chunk) in table.chunks().iter().enumerate() {
        let start = table.chunk_start(k);
        match &filter {
            Some(filter) => {
                let rows: Vec<usize> = (0..chunk.len()).collect();
                let selected = filter.select(chunk.columns(), &rows)?;
                positions.extend(selected.into_iter().map(|i| start + i));
            }
            None => {
                for i in 0..chunk.len() {
                    if predicate.evaluate(&chunk.row(i))? == Value::Boolean(true) {
                        positions.push(start + i);
                    }
                }
            }
        }
    }
    Ok(positions)
}

/// The analyzer-bound filter predicate of an analyzed
/// `relation.filter(pred)` plan, used by
/// [`SessionContext::delete_where`] to evaluate a DELETE's WHERE clause
/// row by row. Walks the plan top-down and returns the first `Filter`
/// node's predicate.
fn extract_filter_predicate(plan: &LogicalPlan) -> Option<Expr> {
    match plan {
        LogicalPlan::Filter { predicate, .. } => Some(predicate.clone()),
        LogicalPlan::Projection { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. }
        | LogicalPlan::SubqueryAlias { input, .. }
        | LogicalPlan::Skyline { input, .. }
        | LogicalPlan::Distinct { input }
        | LogicalPlan::MinMaxFilter { input, .. } => extract_filter_predicate(input),
        LogicalPlan::Join { left, right, .. } => {
            extract_filter_predicate(left).or_else(|| extract_filter_predicate(right))
        }
        LogicalPlan::UnresolvedRelation { .. }
        | LogicalPlan::TableScan { .. }
        | LogicalPlan::Values { .. } => None,
    }
}
