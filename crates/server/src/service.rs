//! The query service: shared catalog, admission control, per-query
//! control handles, the result cache, and the maintained views that
//! keep it warm across mutations (always on: every maintainable cached
//! query gets one). Socket-free — the TCP layer
//! ([`crate::server`]) and the bench harness both drive this type
//! directly.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use sparkline::{Error, Expr, LogicalPlan, Result, Row, SessionConfig, SessionContext};
use sparkline_common::{SkylineDim, SkylineSpec};
use sparkline_skyline::MaintainedSkyline;

use crate::cache::BoundedCache;
use crate::protocol::{normalize_sql, parse_literal_rows, render_plain_rows, render_rows};

/// How long an admission waiter sleeps between cancellation checks.
const ADMISSION_CHECK_SLICE: Duration = Duration::from_millis(2);

/// Skyband depth of maintained views: a view survives up to `k` tracked
/// deletes between rebuilds (the erosion budget — see
/// `sparkline_skyline::maintain`). Deeper bands cost memory on every
/// insert; 8 keeps delete-heavy workloads off the rebuild path without
/// materially growing the band.
const VIEW_SKYBAND_K: u32 = 8;

/// Maximum number of maintained views (one per distinct skyline query
/// shape); installs beyond this are skipped, never evicted mid-flight.
const MAX_VIEWS: usize = 32;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum queries planning/executing at once; the rest queue in a
    /// cancel-aware admission wait. Result-cache hits bypass admission.
    pub max_concurrent_queries: usize,
    /// Entries in the result cache (0 disables it).
    pub result_cache_capacity: usize,
    /// Per-query execution knobs: every query runs under this
    /// configuration's memory budget, deadline, and executor count (on a session clone with a fresh cancel flag).
    pub session: SessionConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_concurrent_queries: 4,
            result_cache_capacity: 256,
            session: SessionConfig::default(),
        }
    }
}

/// What the result cache did for one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the cache.
    Hit,
    /// Looked up, absent, populated (when still valid).
    Miss,
}

impl CacheOutcome {
    /// Wire label.
    pub fn label(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
        }
    }
}

/// A successful query outcome: the rendered body plus cache telemetry.
#[derive(Debug, Clone)]
pub struct QueryReply {
    /// Rendered rows (shared with the result cache).
    pub rows: Arc<Vec<String>>,
    /// Result-cache outcome.
    pub result: CacheOutcome,
}

/// Point-in-time service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Queries finished (ok or error).
    pub queries: u64,
    /// Always 0: the service has no plan cache. Kept because existing
    /// stats consumers read the field.
    pub plan_hits: u64,
    /// Always 0: the service has no plan cache. Kept because existing
    /// stats consumers read the field.
    pub plan_misses: u64,
    /// Result-cache hits.
    pub result_hits: u64,
    /// Result-cache misses.
    pub result_misses: u64,
    /// Queries that finished with a real error (cancellations excluded).
    pub errors: u64,
    /// Queries that finished cancelled at the client's request — not
    /// failures, so they are kept out of `errors`.
    pub cancelled: u64,
    /// Queries currently registered (queued or executing).
    pub active: u64,
}

#[derive(Debug, Default)]
struct Counters {
    queries: AtomicU64,
    result_hits: AtomicU64,
    result_misses: AtomicU64,
    errors: AtomicU64,
    cancelled: AtomicU64,
}

/// Counting semaphore on std primitives (the vendored `parking_lot`
/// stub has no `Condvar`).
#[derive(Debug)]
struct Admission {
    permits: Mutex<usize>,
    available: Condvar,
}

impl Admission {
    fn new(permits: usize) -> Self {
        Admission {
            permits: Mutex::new(permits.max(1)),
            available: Condvar::new(),
        }
    }

    /// Wait for a permit, polling `cancelled` between short slices so a
    /// queued query can be cancelled without ever holding a worker.
    fn acquire(&self, cancelled: impl Fn() -> bool) -> Result<AdmissionPermit<'_>> {
        let mut permits = self.permits.lock().expect("admission lock poisoned");
        loop {
            if cancelled() {
                return Err(Error::Cancelled);
            }
            if *permits > 0 {
                *permits -= 1;
                return Ok(AdmissionPermit { admission: self });
            }
            let (guard, _timeout) = self
                .available
                .wait_timeout(permits, ADMISSION_CHECK_SLICE)
                .expect("admission lock poisoned");
            permits = guard;
        }
    }

    fn release(&self) {
        *self.permits.lock().expect("admission lock poisoned") += 1;
        self.available.notify_one();
    }
}

/// RAII admission permit.
struct AdmissionPermit<'a> {
    admission: &'a Admission,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.admission.release();
    }
}

/// The multi-tenant query service. Cheap to share behind an `Arc`;
/// every public method takes `&self`.
pub struct QueryService {
    base: SessionContext,
    config: ServerConfig,
    admission: Admission,
    next_id: AtomicU64,
    /// Per-query session clones (shared catalog, fresh cancel flag),
    /// registered from ACK until completion so `CANCEL <id>` can reach
    /// a queued or running query from any connection.
    running: Mutex<HashMap<u64, SessionContext>>,
    result_cache: Mutex<BoundedCache<Arc<Vec<String>>>>,
    /// Maintained skyline views, keyed by normalized SQL. Each carries
    /// the k-skyband state that lets a mutation refresh the query's
    /// result-cache entry by delta (see [`MaintainedView`]).
    views: Mutex<HashMap<String, MaintainedView>>,
    /// Serializes service-level mutations (INSERT/DELETE/DROP) so view
    /// state and catalog versions advance in lock step.
    mutation: Mutex<()>,
    counters: Counters,
}

/// The k-skyband state of one cached skyline query, installed on a
/// result-cache miss when the analyzed plan is maintainable
/// (`Skyline` over a pure column projection of a single table scan,
/// complete data). `version` is the catalog version the state mirrors;
/// a mutation whose pre-version does not match (something mutated the
/// catalog behind the service's back) drops the view instead of
/// applying a delta to stale state.
///
/// Installation is self-validating: the view's own rendering of its
/// skyline must be byte-identical to the engine's rendered result
/// before the view is accepted, so a delta-refreshed cache entry can
/// never differ from what a cold recompute would have served.
struct MaintainedView {
    /// Lower-cased catalog table the query scans.
    table: String,
    /// Output column indices of the query's projection (applied to base
    /// rows before they enter the skyband).
    projection: Vec<usize>,
    /// The incremental skyline state over projected rows.
    skyband: MaintainedSkyline,
    /// Catalog version the skyband state corresponds to.
    version: u64,
}

/// What a service mutation did to a table, as the views see it.
enum ViewChange<'a> {
    /// Rows appended (base-table shape, not yet projected).
    Insert(&'a [Row]),
    /// Ascending pre-delete positions of removed rows.
    Delete(&'a [usize]),
    /// The table is gone.
    Drop,
}

impl QueryService {
    /// Service over a fresh, empty catalog.
    pub fn new(config: ServerConfig) -> Arc<Self> {
        let base = SessionContext::with_config(config.session.clone());
        Self::with_session(base, config)
    }

    /// Service sharing an existing session's catalog — tests use this
    /// to compare wire responses against direct execution on the same
    /// data.
    pub fn with_session(base: SessionContext, config: ServerConfig) -> Arc<Self> {
        Arc::new(QueryService {
            admission: Admission::new(config.max_concurrent_queries),
            next_id: AtomicU64::new(0),
            running: Mutex::new(HashMap::new()),
            result_cache: Mutex::new(BoundedCache::new(config.result_cache_capacity)),
            views: Mutex::new(HashMap::new()),
            mutation: Mutex::new(()),
            counters: Counters::default(),
            base,
            config,
        })
    }

    /// The session owning the shared catalog (register datasets through
    /// this before serving).
    pub fn session(&self) -> &SessionContext {
        &self.base
    }

    /// Allocate a query id and register its control handle (a session
    /// clone with a fresh cancel flag). Done *before* the `ACK` is
    /// written, so a `CANCEL <id>` racing the query's own execution
    /// always finds the handle.
    pub fn register_query(&self) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let session = self.base.with_shared_catalog(self.config.session.clone());
        self.running
            .lock()
            .expect("running lock poisoned")
            .insert(id, session);
        id
    }

    /// Execute a registered query end-to-end: result cache → admission
    /// → engine. Always deregisters the id and updates the counters,
    /// success or not.
    pub fn run_query(&self, id: u64, sql: &str) -> Result<QueryReply> {
        let outcome = self.execute(id, sql);
        self.running
            .lock()
            .expect("running lock poisoned")
            .remove(&id);
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        match &outcome {
            // A client-requested cancel is not a failure: counting it in
            // `errors` would inflate the server's error rate.
            Err(e) if e.is_cancelled() => {
                self.counters.cancelled.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
            }
            Ok(_) => {}
        }
        outcome
    }

    fn execute(&self, id: u64, sql: &str) -> Result<QueryReply> {
        let session = self
            .running
            .lock()
            .expect("running lock poisoned")
            .get(&id)
            .cloned()
            .ok_or_else(|| Error::internal(format!("query {id} is not registered")))?;
        let normalized = normalize_sql(sql);
        let version = session.catalog_version();
        let key = (normalized, version);

        // A cancel delivered between ACK and here must win over a cache
        // hit — the client asked for the query not to run.
        if session.is_cancelled() {
            return Err(Error::Cancelled);
        }

        if let Some(rows) = self.result_cache.lock().expect("cache lock").get(&key) {
            self.counters.result_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(QueryReply {
                rows,
                result: CacheOutcome::Hit,
            });
        }
        self.counters.result_misses.fetch_add(1, Ordering::Relaxed);

        let _permit = self.admission.acquire(|| session.is_cancelled())?;

        let frame = session.sql(sql)?;
        let result = frame.collect()?;
        let rows = Arc::new(render_rows(&result));

        // Cache the rendered body only if no mutation raced the
        // execution — otherwise a result computed at version v could be
        // pinned under a key whose version still looks current.
        if session.catalog_version() == version {
            self.result_cache
                .lock()
                .expect("cache lock")
                .insert(key.clone(), Arc::clone(&rows));
            self.maybe_install_view(&session, &key.0, frame.logical_plan(), &rows, version);
        }
        Ok(QueryReply {
            rows,
            result: CacheOutcome::Miss,
        })
    }

    /// Deliver a cancel to a queued or running query. Returns whether
    /// the id was live (false: already finished or never existed).
    pub fn cancel_query(&self, id: u64) -> bool {
        let running = self.running.lock().expect("running lock poisoned");
        match running.get(&id) {
            Some(session) => {
                session.cancel();
                true
            }
            None => false,
        }
    }

    /// Append literal rows to a table (parsed against its schema),
    /// bumping the catalog version, applying deltas to maintained
    /// views, and retiring stale cache entries.
    pub fn insert(&self, table: &str, literal_rows: &[Vec<String>]) -> Result<usize> {
        let _guard = self.mutation.lock().expect("mutation lock poisoned");
        let schema = self.base.table(table)?.schema()?;
        let rows = parse_literal_rows(table, &schema, literal_rows)?;
        let pre = self.base.catalog_version();
        let count = self.base.insert_rows(table, rows.clone())?;
        self.after_mutation(table, pre, ViewChange::Insert(&rows));
        self.trim_cache();
        Ok(count)
    }

    /// `DELETE FROM table [WHERE predicate]`: parse the predicate text
    /// as a SQL expression, remove the matching rows (all rows when
    /// `None`), apply deltas to maintained views, and retire stale cache
    /// entries. Returns the number of removed rows.
    pub fn delete(&self, table: &str, predicate: Option<&str>) -> Result<usize> {
        let _guard = self.mutation.lock().expect("mutation lock poisoned");
        let predicate = predicate
            .map(sparkline_parser::parse_expression)
            .transpose()?;
        let pre = self.base.catalog_version();
        let positions = self.base.delete_where(table, predicate.as_ref())?;
        self.after_mutation(table, pre, ViewChange::Delete(&positions));
        self.trim_cache();
        Ok(positions.len())
    }

    /// Drop a table, dropping its maintained views and retiring stale
    /// cache entries.
    pub fn drop_table(&self, name: &str) -> bool {
        let _guard = self.mutation.lock().expect("mutation lock poisoned");
        let pre = self.base.catalog_version();
        let existed = self.base.deregister_table(name);
        if existed {
            self.after_mutation(name, pre, ViewChange::Drop);
            self.trim_cache();
        }
        existed
    }

    /// Number of live maintained views (test/bench observability).
    pub fn view_count(&self) -> usize {
        self.views.lock().expect("views lock poisoned").len()
    }

    /// Registered table names.
    pub fn table_names(&self) -> Vec<String> {
        self.base.table_names()
    }

    /// Try to install a maintained view for a query that just missed the
    /// result cache. Only maintainable plans qualify (see
    /// [`match_maintainable`]); the install is self-validating — the
    /// skyband's own rendering must be byte-identical to the engine's
    /// `rows` — and is skipped entirely if any mutation raced the
    /// snapshot (the view would start from inconsistent state).
    fn maybe_install_view(
        &self,
        session: &SessionContext,
        normalized: &str,
        plan: &LogicalPlan,
        rows: &Arc<Vec<String>>,
        version: u64,
    ) {
        let Some((table, projection, spec)) = match_maintainable(plan) else {
            return;
        };
        let mut views = self.views.lock().expect("views lock poisoned");
        if let Some(existing) = views.get(normalized) {
            if existing.version == version {
                return; // Fresh view already installed.
            }
        } else if views.len() >= MAX_VIEWS {
            return;
        }
        let Some(base_rows) = session.table_rows_snapshot(&table) else {
            return; // Disk-resident or concurrently dropped.
        };
        // Monotone versions: if the version still reads `version` after
        // the snapshot, the snapshot is exactly the state the executed
        // query (and its cached rendering) saw.
        if session.catalog_version() != version {
            return;
        }
        let projected: Vec<Row> = base_rows
            .iter()
            .map(|r| Row::new(projection.iter().map(|&i| r.values()[i].clone()).collect()))
            .collect();
        let Ok(skyband) = MaintainedSkyline::new(spec, VIEW_SKYBAND_K, &projected) else {
            return;
        };
        if render_plain_rows(&skyband.skyline_rows()) != **rows {
            // The engine's output order (or content, under a config this
            // layer doesn't model) differs from the maintained order —
            // serving from this view could change bytes, so don't.
            return;
        }
        views.insert(
            normalized.to_string(),
            MaintainedView {
                table,
                projection,
                skyband,
                version,
            },
        );
    }

    /// Advance maintained views past a service mutation on `table` whose
    /// pre-mutation catalog version was `pre`. Views whose version is
    /// not `pre` mirror a catalog that was mutated behind the service's
    /// back — dropped, not delta-patched. Views on the mutated table
    /// absorb the change through their skyband; every surviving view
    /// then re-renders its (possibly unchanged) skyline into the result
    /// cache under the new version, which is what keeps post-mutation
    /// queries on the cache-hit path.
    fn after_mutation(&self, table: &str, pre: u64, change: ViewChange<'_>) {
        let post = self.base.catalog_version();
        let mut views = self.views.lock().expect("views lock poisoned");
        views.retain(|_, v| v.version == pre);
        if post == pre {
            return; // Mutation was a no-op (e.g. DELETE matched nothing).
        }
        let table_key = table.to_ascii_lowercase();
        let mut dead = Vec::new();
        for (sql, view) in views.iter_mut() {
            if view.table == table_key {
                let applied = match &change {
                    ViewChange::Insert(rows) => {
                        for row in rows.iter() {
                            let projected = Row::new(
                                view.projection
                                    .iter()
                                    .map(|&i| row.values()[i].clone())
                                    .collect(),
                            );
                            view.skyband.apply_insert(projected);
                        }
                        true
                    }
                    ViewChange::Delete(positions) => positions
                        .iter()
                        .rev()
                        .all(|&p| view.skyband.apply_delete(p).is_ok()),
                    ViewChange::Drop => false,
                };
                if !applied {
                    dead.push(sql.clone());
                    continue;
                }
            }
            view.version = post;
            self.result_cache.lock().expect("cache lock").insert(
                (sql.clone(), post),
                Arc::new(render_plain_rows(&view.skyband.skyline_rows())),
            );
        }
        for sql in dead {
            views.remove(&sql);
        }
    }

    /// Proactively drop result-cache entries from retired catalog
    /// versions. Correctness never depends on this — stale keys are
    /// unreachable by construction — it only frees their memory early.
    fn trim_cache(&self) {
        let version = self.base.catalog_version();
        self.result_cache
            .lock()
            .expect("cache lock")
            .retain_version(version);
    }

    /// Snapshot the service counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            queries: self.counters.queries.load(Ordering::Relaxed),
            plan_hits: 0,
            plan_misses: 0,
            result_hits: self.counters.result_hits.load(Ordering::Relaxed),
            result_misses: self.counters.result_misses.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
            cancelled: self.counters.cancelled.load(Ordering::Relaxed),
            active: self.running.lock().expect("running lock poisoned").len() as u64,
        }
    }

    /// The stats as the `OK stats ...` wire line payload.
    pub fn stats_line(&self) -> String {
        let s = self.stats();
        format!(
            "queries={} result_hits={} result_misses={} errors={} cancelled={} active={}",
            s.queries, s.result_hits, s.result_misses, s.errors, s.cancelled, s.active
        )
    }
}

/// Decide whether an analyzed plan is maintainable, returning the
/// scanned table (lower-cased), the projection's column indices, and
/// the resolved skyline spec over the projected row.
///
/// Maintainable means exactly: `Skyline` (non-DISTINCT) over a
/// projection of plain columns over a single table scan, with every
/// dimension a plain column that is either covered by the `COMPLETE`
/// assertion or non-nullable by schema — the shape for which the
/// k-skyband's complete-relation dominance matches the engine's. Any
/// other plan (joins, filters, aggregates, expressions, DISTINCT,
/// potentially incomplete dimensions) is left to ordinary
/// recompute-on-mutation caching.
fn match_maintainable(plan: &LogicalPlan) -> Option<(String, Vec<usize>, SkylineSpec)> {
    let LogicalPlan::Skyline {
        distinct: false,
        complete,
        dims,
        input,
    } = plan
    else {
        return None;
    };
    let LogicalPlan::Projection { exprs, input: scan } = input.as_ref() else {
        return None;
    };
    let LogicalPlan::TableScan { name, .. } = scan.as_ref() else {
        return None;
    };
    let mut projection = Vec::with_capacity(exprs.len());
    for expr in exprs {
        let Expr::BoundColumn(c) = expr else {
            return None;
        };
        projection.push(c.index);
    }
    let mut spec_dims = Vec::with_capacity(dims.len());
    for dim in dims {
        // The dimension is bound against the skyline's input — the
        // projection output — so its index addresses the projected row.
        let Expr::BoundColumn(c) = &dim.child else {
            return None;
        };
        if !*complete && c.field.nullable() {
            return None;
        }
        if c.index >= projection.len() {
            return None;
        }
        spec_dims.push(SkylineDim::new(c.index, dim.ty));
    }
    Some((
        name.to_ascii_lowercase(),
        projection,
        SkylineSpec {
            dims: spec_dims,
            distinct: false,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkline::{DataType, Field, Row, Schema, Value};

    fn service() -> Arc<QueryService> {
        let svc = QueryService::new(ServerConfig::default());
        svc.session()
            .register_table(
                "hotels",
                Schema::new(vec![
                    Field::new("price", DataType::Int64, false),
                    Field::new("rating", DataType::Int64, false),
                ]),
                vec![
                    Row::new(vec![Value::Int64(50), Value::Int64(7)]),
                    Row::new(vec![Value::Int64(80), Value::Int64(9)]),
                    Row::new(vec![Value::Int64(90), Value::Int64(6)]),
                ],
            )
            .unwrap();
        svc
    }

    const SKY: &str = "SELECT price, rating FROM hotels SKYLINE OF price MIN, rating MAX";

    #[test]
    fn caches_progress_from_cold_to_hot() {
        let svc = service();
        let id = svc.register_query();
        let cold = svc.run_query(id, SKY).unwrap();
        assert_eq!(cold.result, CacheOutcome::Miss);
        assert_eq!(cold.rows.len(), 2);

        let id = svc.register_query();
        let hot = svc.run_query(id, SKY).unwrap();
        assert_eq!(hot.result, CacheOutcome::Hit);
        assert_eq!(hot.rows, cold.rows, "cached body must be byte-identical");

        // A different spelling of the same query shares the entry.
        let id = svc.register_query();
        let respelled = svc
            .run_query(
                id,
                "select  price,  rating from HOTELS skyline of price min, rating max",
            )
            .unwrap();
        assert_eq!(respelled.result, CacheOutcome::Hit);

        let stats = svc.stats();
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.result_hits, 2);
        assert_eq!(stats.result_misses, 1);
        assert_eq!(stats.active, 0);

        // With the result cache disabled every run misses and recomputes
        // the same bytes.
        let config = ServerConfig {
            result_cache_capacity: 0,
            ..ServerConfig::default()
        };
        let uncached = QueryService::with_session(svc.session().clone(), config);
        for _ in 0..2 {
            let id = uncached.register_query();
            let reply = uncached.run_query(id, SKY).unwrap();
            assert_eq!(reply.result, CacheOutcome::Miss);
            assert_eq!(reply.rows, cold.rows);
        }
    }

    #[test]
    fn quoted_identifiers_keep_their_spacing_in_the_cache_key() {
        let svc = QueryService::new(ServerConfig::default());
        svc.session()
            .register_table(
                "t",
                Schema::new(vec![
                    Field::new("a b", DataType::Int64, false),
                    Field::new("a  b", DataType::Int64, false),
                ]),
                vec![Row::new(vec![Value::Int64(1), Value::Int64(2)])],
            )
            .unwrap();
        for sql in [r#"SELECT "a b" FROM t"#, r#"SELECT "a  b" FROM t"#] {
            let direct = render_rows(&svc.session().sql(sql).unwrap().collect().unwrap());
            let id = svc.register_query();
            let served = svc.run_query(id, sql).unwrap();
            assert_eq!(served.result, CacheOutcome::Miss, "{sql}");
            assert_eq!(*served.rows, direct, "{sql}");
        }
    }

    #[test]
    fn mutations_never_serve_stale_bytes() {
        let svc = service();
        let id = svc.register_query();
        let before = svc.run_query(id, SKY).unwrap();
        assert_eq!(before.rows.len(), 2);
        assert_eq!(svc.view_count(), 1, "skyline query should install a view");

        // (60, 8) joins the Pareto front (incomparable with both current
        // members); the cached body must not survive the insert. With
        // maintained views the entry is *refreshed* by delta — a hit
        // with fresh bytes — instead of discarded.
        svc.insert("hotels", &[vec!["60".into(), "8".into()]])
            .unwrap();
        let id = svc.register_query();
        let after = svc.run_query(id, SKY).unwrap();
        assert_eq!(after.result, CacheOutcome::Hit, "view should refresh");
        assert_eq!(after.rows.len(), 3);

        // Dropping the table invalidates again: the query now errors.
        assert!(svc.drop_table("hotels"));
        assert_eq!(svc.view_count(), 0, "drop must discard the view");
        let id = svc.register_query();
        assert!(svc.run_query(id, SKY).is_err());
    }

    #[test]
    fn mutations_invalidate_the_result_cache_of_unmaintainable_queries() {
        // A WHERE conjunct puts a filter under the skyline, which the
        // view matcher declines: the query is cached without a view, so
        // an insert must retire its entry instead of refreshing it.
        let sky = "SELECT price, rating FROM hotels WHERE price > 0 \
                   SKYLINE OF price MIN, rating MAX";
        let svc = service();
        let id = svc.register_query();
        let before = svc.run_query(id, sky).unwrap();
        assert_eq!(before.rows.len(), 2);
        assert_eq!(svc.view_count(), 0);

        svc.insert("hotels", &[vec!["60".into(), "8".into()]])
            .unwrap();
        let id = svc.register_query();
        let after = svc.run_query(id, sky).unwrap();
        assert_eq!(after.result, CacheOutcome::Miss, "stale hit after insert");
        assert_eq!(after.rows.len(), 3);
    }

    #[test]
    fn delete_refreshes_maintained_views() {
        let svc = service();
        let id = svc.register_query();
        let before = svc.run_query(id, SKY).unwrap();
        assert_eq!(before.rows.len(), 2);

        // Delete the cheap front member (50, 7). (90, 6) stays dominated
        // by (80, 9), so the new front is (80, 9) alone.
        let removed = svc.delete("hotels", Some("price = 50")).unwrap();
        assert_eq!(removed, 1);
        let id = svc.register_query();
        let after = svc.run_query(id, SKY).unwrap();
        assert_eq!(after.result, CacheOutcome::Hit, "view should refresh");
        assert_eq!(after.rows, Arc::new(vec!["80\t9".to_string()]));

        // A delete matching nothing keeps version and caches untouched.
        assert_eq!(svc.delete("hotels", Some("price = 9999")).unwrap(), 0);
        let id = svc.register_query();
        let again = svc.run_query(id, SKY).unwrap();
        assert_eq!(again.result, CacheOutcome::Hit);
    }

    #[test]
    fn cancel_before_execution_wins_over_the_cache() {
        let svc = service();
        let id = svc.register_query();
        svc.run_query(id, SKY).unwrap(); // populate the cache
        let id = svc.register_query();
        assert!(svc.cancel_query(id));
        let err = svc.run_query(id, SKY).unwrap_err();
        assert!(err.is_cancelled(), "{err}");
        assert!(!svc.cancel_query(id), "finished id no longer cancellable");
    }

    #[test]
    fn errors_are_counted_and_deregistered() {
        let svc = service();
        let id = svc.register_query();
        assert!(svc.run_query(id, "SELECT nope FROM missing").is_err());
        let stats = svc.stats();
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.active, 0);
    }
}
