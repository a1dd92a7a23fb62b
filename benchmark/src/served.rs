//! `served_mix`: one client connection to a `SkylineServer` running inside
//! the benchmark process, issuing a seeded, fixed schedule of dashboard
//! hits, never-repeated misses and one-row mutations in a closed loop.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparkline::{Row, SessionCatalog, SessionConfig, SessionContext};
use sparkline_common::{SkylineDim, SkylineSpec};
use sparkline_datagen::distributions::anti_correlated_rows;
use sparkline_parser::parse_expression;
use sparkline_server::{QueryService, ServerClient, ServerConfig, SkylineServer};
use sparkline_skyline::MaintainedSkyline;

use crate::checker::{check_reply, Dir, Filter, Point};
use crate::inproc::{run_op, SETUPS_PER_RUN};
use crate::layers::{local_isolated, set_count_metrics, set_subtree_metrics, Pieces};
use crate::metrics::RunResult;
use crate::pipeline::{physical_plan, subtree_millis, traced_op};
use crate::stats::{hash_lines, mean, median, peak_rss_mb, pin_to_current_cpu, tail_percentile};
use crate::trace::Tracer;
use crate::workload::{
    row_to_point, served_table, table_name, table_seed, to_points, Query, TableSpec, SERVED_TABLES,
};
use crate::RunArgs;

/// The band depth `QueryService` builds its maintained views with.
const VIEW_SKYBAND_K: u32 = 8;

/// One block of the schedule: 80% hits, 12% misses, 8% mutations with
/// INSERT : DELETE = 3 : 1. The order inside a block is shuffled by seed.
pub const BLOCK: usize = 50;
const BLOCK_MISSES: usize = 6;
const BLOCK_INSERTS: usize = 3;
const BLOCK_DELETES: usize = 1;

/// Half-width of a DELETE's `d0` range around a live row: narrow enough
/// that it removes that row and rarely another.
const DELETE_HALF_WIDTH: f64 = 2e-5;

/// The eight dashboards: on each table the skylines `d0 MAX, d1 MIN, d2
/// MIN` and `d0 MIN, d1 MAX, d2 MAX`. All are maintainable, so the server
/// installs a view for each, and an INSERT or DELETE maintains the two
/// views of its table. On anti-correlated data both shapes return ~90
/// rows: the hits are one cluster and their median is its middle. (With
/// all-MIN and all-MAX among them, ~450 rows, the hits were two clusters
/// and `op_p50_ms` the edge of one; the misses are all-MIN.)
pub fn dashboards() -> Vec<Query> {
    let shapes = [
        [Dir::Max, Dir::Min, Dir::Min],
        [Dir::Min, Dir::Max, Dir::Max],
    ];
    (0..8usize)
        .map(|i| Query::skyline(i % SERVED_TABLES, &shapes[i / SERVED_TABLES], true, None))
        .collect()
}

#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Re-issue dashboard `dashboard`.
    Hit {
        dashboard: usize,
    },
    /// A skyline with a literal never used before: misses both caches and
    /// is not maintainable (it has a filter), so it runs the full pipeline.
    Miss {
        query: Query,
    },
    Insert {
        table: usize,
        row: Row,
    },
    /// `removed` is what the model says the predicate matches.
    Delete {
        table: usize,
        predicate: String,
        removed: usize,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    Hit,
    Miss,
    Mutation,
}

impl Op {
    pub fn class(&self) -> Class {
        match self {
            Op::Hit { .. } => Class::Hit,
            Op::Miss { .. } => Class::Miss,
            Op::Insert { .. } | Op::Delete { .. } => Class::Mutation,
        }
    }

    /// The table a mutation changes.
    pub fn mutated_table(&self) -> Option<usize> {
        match self {
            Op::Insert { table, .. } | Op::Delete { table, .. } => Some(*table),
            _ => None,
        }
    }
}

/// The schedule: an endless, seed-determined sequence of ops, generated
/// together with a model of the tables so that every DELETE names a live
/// row and the checker knows the table each reply was computed on.
/// Dashboards, misses and mutations each visit the tables round-robin.
pub struct Schedule {
    rng: StdRng,
    models: Vec<Vec<Point>>,
    block: Vec<Class>,
    hits: usize,
    misses: usize,
    mutations: usize,
}

impl Schedule {
    pub fn new(seed: u64, initial: &[Vec<Row>]) -> Schedule {
        Schedule {
            // A stream of its own: table `i` is `StdRng(table_seed(seed, i))`.
            rng: StdRng::seed_from_u64(table_seed(seed, initial.len())),
            models: initial.iter().map(|rows| to_points(rows)).collect(),
            block: Vec::new(),
            hits: 0,
            misses: 0,
            mutations: 0,
        }
    }

    /// Table `table` after every mutation generated so far.
    pub fn model(&self, table: usize) -> &[Point] {
        &self.models[table]
    }

    pub fn next_op(&mut self) -> Op {
        if self.block.is_empty() {
            let mutations = BLOCK_INSERTS + BLOCK_DELETES;
            self.block = vec![Class::Hit; BLOCK - BLOCK_MISSES - mutations];
            self.block.extend([Class::Miss; BLOCK_MISSES]);
            self.block.extend(vec![Class::Mutation; mutations]);
            for i in (1..self.block.len()).rev() {
                self.block.swap(i, self.rng.gen_range(0..i + 1));
            }
        }
        match self.block.pop().expect("block was just refilled") {
            Class::Hit => {
                self.hits += 1;
                Op::Hit {
                    dashboard: self.hits % 8,
                }
            }
            Class::Miss => {
                self.misses += 1;
                let value = self.rng.gen_range(0.3..0.4);
                let filter = Filter {
                    col: 2,
                    greater: false,
                    value,
                };
                let table = self.misses % SERVED_TABLES;
                Op::Miss {
                    query: Query::skyline(table, &[Dir::Min; 3], true, Some(filter)),
                }
            }
            Class::Mutation => {
                self.mutations += 1;
                // I, I, I, D, and the table moves on every mutation, so
                // over four blocks each table sees the same mix.
                let table = (self.mutations + (self.mutations - 1) / 4) % SERVED_TABLES;
                let model = &mut self.models[table];
                if !self.mutations.is_multiple_of(BLOCK_INSERTS + BLOCK_DELETES) {
                    let row = anti_correlated_rows(&mut self.rng, 1, 3).remove(0);
                    model.push(row_to_point(&row));
                    return Op::Insert { table, row };
                }
                let target = self.rng.gen_range(0..model.len());
                let v = model[target][0].expect("served tables have no NULLs");
                let (lo, hi) = (v - DELETE_HALF_WIDTH, v + DELETE_HALF_WIDTH);
                let before = model.len();
                model.retain(|p| !p[0].is_some_and(|x| x >= lo && x <= hi));
                Op::Delete {
                    table,
                    predicate: format!("d0 >= {lo} AND d0 <= {hi}"),
                    removed: before - model.len(),
                }
            }
        }
    }
}

/// The view `QueryService` would install for `query`, built directly.
fn build_view(query: &Query, rows: &[Row]) -> sparkline::Result<MaintainedSkyline> {
    let dims = query
        .dirs
        .iter()
        .enumerate()
        .map(|(d, dir)| match dir {
            Dir::Min => SkylineDim::min(d),
            Dir::Max => SkylineDim::max(d),
        })
        .collect();
    MaintainedSkyline::new(SkylineSpec::new(dims), VIEW_SKYBAND_K, rows)
}

/// A row as the wire's INSERT literal list.
fn literals(row: &Row) -> Vec<String> {
    row.values().iter().map(|v| v.to_string()).collect()
}

/// A running server over the generated tables, one connected client, and
/// the replies to the warm-up issue of each dashboard (which also installs
/// the server's maintained views).
struct Env {
    server: SkylineServer,
    client: ServerClient,
    tables: Vec<Vec<Row>>,
    first: Vec<Vec<String>>,
}

fn io_err(what: &str, e: std::io::Error) -> sparkline::Error {
    sparkline::Error::execution(format!("{what}: {e}"))
}

fn generate(table: &TableSpec, seed: u64) -> Vec<Vec<Row>> {
    (0..SERVED_TABLES)
        .map(|i| table.generate(table_seed(seed, i)))
        .collect()
}

fn set_up(table: &TableSpec, seed: u64) -> sparkline::Result<Env> {
    let tables = generate(table, seed);
    let base = SessionContext::with_config(SessionConfig::default());
    for (i, rows) in tables.iter().enumerate() {
        base.register_table(table_name(i), table.schema(), rows.clone())?;
    }
    let service = QueryService::with_session(base, ServerConfig::default());
    let server =
        SkylineServer::start_with_service(service).map_err(|e| io_err("server start", e))?;
    let mut client = ServerClient::connect(server.addr()).map_err(|e| io_err("connect", e))?;
    let first = dashboards()
        .iter()
        .map(|q| client.query(&q.sql).map(|r| r.rows))
        .collect::<sparkline::Result<_>>()?;
    Ok(Env {
        server,
        client,
        tables,
        first,
    })
}

impl Env {
    /// Say goodbye, then stop the listener; the connection's thread ends
    /// when the client's socket closes.
    fn shut_down(mut self) {
        let _ = self.client.quit();
        self.server.shutdown();
    }

    /// One op over the wire: `Ok` lines of a query, `Err` count of a mutation.
    fn issue(
        &mut self,
        op: &Op,
        dashboards: &[Query],
    ) -> sparkline::Result<Result<Vec<String>, usize>> {
        match op {
            Op::Hit { dashboard } => self
                .client
                .query(&dashboards[*dashboard].sql)
                .map(|r| Ok(r.rows)),
            Op::Miss { query } => self.client.query(&query.sql).map(|r| Ok(r.rows)),
            Op::Insert { table, row } => self
                .client
                .insert(&table_name(*table), &literals(row).join(","))
                .map(Err),
            Op::Delete {
                table, predicate, ..
            } => self
                .client
                .delete(&table_name(*table), Some(predicate))
                .map(Err),
        }
    }
}

/// What an op returned, kept for the verify phase.
enum Outcome {
    Query {
        rows: usize,
        hash: u64,
        /// Kept for every miss and for the first hit on each dashboard
        /// after each mutation of its table; those are verified against
        /// the definition, the other hits against them.
        lines: Option<Vec<String>>,
    },
    Mutation {
        count: usize,
    },
    Failed,
}

/// Replay the schedule beside the recorded outcomes and count the ops
/// whose reply was wrong.
fn verify(table: &TableSpec, seed: u64, first: &[Vec<String>], outcomes: &[Outcome]) -> u64 {
    let dashboards = dashboards();
    let mut schedule = Schedule::new(seed, &generate(table, seed));
    let mut failed = 0;
    let mut versions = [0u64; SERVED_TABLES];
    let mut verified: HashMap<(usize, u64), (usize, u64)> = HashMap::new();
    for (d, reply) in first.iter().enumerate() {
        let q = &dashboards[d];
        match check_reply(schedule.model(q.table), None, &q.dirs, reply) {
            Ok(()) => {
                verified.insert((d, 0), (reply.len(), hash_lines(reply)));
            }
            Err(why) => eprintln!("served_mix: wrong warm-up answer for dashboard {d}: {why}"),
        }
    }
    for (i, outcome) in outcomes.iter().enumerate() {
        let op = schedule.next_op();
        let ok = match (&op, outcome) {
            (Op::Hit { dashboard }, Outcome::Query { rows, hash, lines }) => {
                let q = &dashboards[*dashboard];
                let key = (*dashboard, versions[q.table]);
                if let Some(lines) = lines {
                    match check_reply(schedule.model(q.table), None, &q.dirs, lines) {
                        Ok(()) => {
                            verified.insert(key, (*rows, *hash));
                        }
                        Err(why) => {
                            eprintln!("served_mix: op {i} (hit, dashboard {dashboard}): {why}")
                        }
                    }
                }
                verified.get(&key) == Some(&(*rows, *hash))
            }
            (
                Op::Miss { query },
                Outcome::Query {
                    lines: Some(lines), ..
                },
            ) => check_reply(
                schedule.model(query.table),
                query.filter.as_ref(),
                &query.dirs,
                lines,
            )
            .map_err(|why| eprintln!("served_mix: op {i} (miss): {why}"))
            .is_ok(),
            (Op::Insert { table, .. }, Outcome::Mutation { count }) => {
                *count == schedule.model(*table).len()
            }
            (Op::Delete { removed, .. }, Outcome::Mutation { count }) => count == removed,
            _ => false,
        };
        if let Some(table) = op.mutated_table() {
            versions[table] += 1;
        }
        failed += u64::from(!ok);
    }
    failed
}

pub fn run_timed(args: &RunArgs) -> sparkline::Result<RunResult> {
    let table = served_table(args.scale);
    let pinned = pin_to_current_cpu();
    let t = Instant::now();
    let mut env = set_up(&table, args.seed)?;
    let mut setups = vec![t.elapsed().as_secs_f64()];

    let dashboards = dashboards();
    let mut schedule = Schedule::new(args.seed, &env.tables);
    let mut outcomes = Vec::new();
    let mut latency_ms: HashMap<Class, Vec<f64>> = HashMap::new();
    let mut all_ms = Vec::new();
    let (mut insert_ms, mut delete_ms) = (Vec::new(), Vec::new());
    let mut versions = [0u64; SERVED_TABLES];
    let mut seen: HashSet<(usize, u64)> = (0..8).map(|d| (d, 0)).collect();
    // Throughput is taken over whole blocks: a block always holds the same
    // 40 hits, 6 misses, 3 INSERTs and 1 DELETE, while the ops between the
    // last block boundary and the deadline are whatever the shuffle put
    // first — with mutations 10 000 times dearer than hits, counting them
    // would make ops_per_s a lottery.
    let mut whole_blocks = (0usize, 0.0f64);
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    while start.elapsed() < budget {
        let op = schedule.next_op();
        let t = Instant::now();
        let reply = env.issue(&op, &dashboards);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        all_ms.push(ms);
        latency_ms.entry(op.class()).or_default().push(ms);
        match op {
            Op::Insert { .. } => insert_ms.push(ms),
            Op::Delete { .. } => delete_ms.push(ms),
            _ => {}
        }
        if all_ms.len() % BLOCK == 0 {
            whole_blocks = (all_ms.len(), start.elapsed().as_secs_f64());
        }
        outcomes.push(match reply {
            Ok(Ok(lines)) => {
                let keep = match op {
                    Op::Hit { dashboard } => {
                        seen.insert((dashboard, versions[dashboards[dashboard].table]))
                    }
                    _ => true,
                };
                Outcome::Query {
                    rows: lines.len(),
                    hash: hash_lines(&lines),
                    lines: keep.then_some(lines),
                }
            }
            Ok(Err(count)) => Outcome::Mutation { count },
            Err(e) => {
                eprintln!("served_mix: op failed: {e}");
                Outcome::Failed
            }
        });
        if let Some(table) = op.mutated_table() {
            versions[table] += 1;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    if whole_blocks.0 == 0 {
        whole_blocks = (all_ms.len(), wall_s);
    }
    let peak_rss = peak_rss_mb();
    let first = std::mem::take(&mut env.first);
    env.shut_down();

    let t = Instant::now();
    let failed = verify(&table, args.seed, &first, &outcomes);
    let verify_s = t.elapsed().as_secs_f64();

    for _ in 1..SETUPS_PER_RUN {
        let t = Instant::now();
        let again = set_up(&table, args.seed)?;
        setups.push(t.elapsed().as_secs_f64());
        again.shut_down();
    }

    let mut result = RunResult {
        attempted: outcomes.len() as u64,
        failed,
        ..RunResult::default()
    };
    let class_ms = |c: Class| latency_ms.get(&c).map_or(&[][..], Vec::as_slice);
    let m = &mut result.metrics;
    m.set("setup_s", median(&setups));
    m.set("op_p50_ms", median(&all_ms));
    m.set("ops_per_s", whole_blocks.0 as f64 / whole_blocks.1);
    m.set("peak_rss_mb", peak_rss);
    m.set("hit_p50_ms", median(class_ms(Class::Hit)));
    m.set("miss_p50_ms", median(class_ms(Class::Miss)));
    m.set("mutation_p50_ms", median(class_ms(Class::Mutation)));
    result
        .notes
        .push(("verify_s".into(), format!("{verify_s:.3}")));
    result
        .notes
        .push(("pinned to one CPU".into(), pinned.to_string()));
    result.notes.push((
        "mutation split".into(),
        format!(
            "INSERT p50 {:.2} ms ({}), DELETE p50 {:.2} ms ({})",
            median(&insert_ms),
            insert_ms.len(),
            median(&delete_ms),
            delete_ms.len()
        ),
    ));
    result.notes.push((
        "samples".into(),
        format!(
            "{} ops in {wall_s:.2} s: {} hit, {} miss, {} mutation; ops_per_s over the first {} ops ({:.2} s)",
            all_ms.len(),
            class_ms(Class::Hit).len(),
            class_ms(Class::Miss).len(),
            class_ms(Class::Mutation).len(),
            whole_blocks.0,
            whole_blocks.1
        ),
    ));
    Ok(result)
}

/// The schedule's first `n` ops with the mutations' exact counts — what
/// the determinism test compares.
pub fn schedule_prefix(seed: u64, scale: f64, n: usize) -> Vec<Op> {
    let mut schedule = Schedule::new(seed, &generate(&served_table(scale), seed));
    (0..n).map(|_| schedule.next_op()).collect()
}

/// The traced run. Fixed work, so that the counts repeat exactly: the
/// schedule's first blocks go over the wire, the next through
/// `QueryService` in-process; then the same ops are replayed on a bare
/// `SessionContext` and the wire blocks' mutations on bare
/// `MaintainedSkyline`s. All but the wire and service spans are `derived`.
pub fn run_traced(args: &RunArgs) -> sparkline::Result<RunResult> {
    let table = served_table(args.scale);
    let config = SessionConfig::default();
    let dashboards = dashboards();
    let blocks = ((args.seconds / 15.0).round() as usize).max(1) * 4;
    let per_depth = blocks * BLOCK;
    let pinned = pin_to_current_cpu();

    let mut env = set_up(&table, args.seed)?;
    let service = Arc::clone(env.server.service());
    let stats_before = service.stats();
    let mut schedule = Schedule::new(args.seed, &env.tables);
    let ops: Vec<Op> = (0..2 * per_depth).map(|_| schedule.next_op()).collect();

    // Depths 1 and 2: client → wire → service, then service alone.
    let mut tracer = Tracer::default();
    let mut replies = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let wire = i < per_depth;
        let name = match (wire, op.class()) {
            (true, Class::Hit) => "wire.hit",
            (true, Class::Miss) => "wire.miss",
            (true, Class::Mutation) => "wire.mutation",
            (false, Class::Hit) => "service.hit",
            (false, Class::Miss) => "service.miss",
            (false, Class::Mutation) => "service.mutation",
        };
        let id = tracer.new_op();
        let env = &mut env;
        replies.push(tracer.span(id, name, None, || {
            match op {
                _ if wire => env.issue(op, &dashboards),
                Op::Hit { dashboard } => service
                    .run_query(service.register_query(), &dashboards[*dashboard].sql)
                    .map(|r| Ok(r.rows.to_vec())),
                Op::Miss { query } => service
                    .run_query(service.register_query(), &query.sql)
                    .map(|r| Ok(r.rows.to_vec())),
                Op::Insert { table, row } => service
                    .insert(&table_name(*table), &[literals(row)])
                    .map(Err),
                Op::Delete {
                    table, predicate, ..
                } => service
                    .delete(&table_name(*table), Some(predicate))
                    .map(Err),
            }
        }));
    }
    let stats = service.stats();
    let view_count = service.view_count();
    let first = std::mem::take(&mut env.first);
    let tables = std::mem::take(&mut env.tables);
    env.shut_down();

    // Depth 3: the same ops on a bare SessionContext (untraced, in three
    // pieces) and, for misses, as the explicit pipeline over a
    // benchmark-owned catalog. Every served reply is compared with direct
    // execution on the table as it was when the reply was served.
    let core = SessionContext::with_config(config.clone());
    let mut catalog = SessionCatalog::new();
    for (i, rows) in tables.iter().enumerate() {
        core.register_table(table_name(i), table.schema(), rows.clone())?;
        catalog.register_table(table_name(i), table.schema(), rows.clone())?;
    }
    let mut direct: HashMap<(usize, u64), Vec<String>> = first
        .into_iter()
        .enumerate()
        .map(|(d, r)| ((d, 0), r))
        .collect();
    let mut versions = [0u64; SERVED_TABLES];
    let mut failed = 0u64;
    let mut pieces = Pieces::default();
    let (mut insert_ms, mut delete_ms, mut core_mutation_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut deleted_positions: Vec<Vec<usize>> = Vec::new();
    let mut miss_counts = Vec::new();
    let mut last_miss_sql = None;
    for (op, reply) in ops.iter().zip(&replies) {
        let ok = match (op, reply) {
            (Op::Hit { dashboard }, Ok(Ok(lines))) => {
                let q = &dashboards[*dashboard];
                let key = (*dashboard, versions[q.table]);
                if let Entry::Vacant(slot) = direct.entry(key) {
                    slot.insert(run_op(&core, &q.sql)?);
                }
                direct.get(&key) == Some(lines)
            }
            (Op::Miss { query }, Ok(Ok(lines))) => {
                let (rendered, counts) = pieces.run(&core, &query.sql)?;
                miss_counts.push(counts);
                last_miss_sql = Some(query.sql.clone());
                let traced = traced_op(&mut tracer, &catalog, &config, &query.sql)?;
                rendered == *lines && traced == rendered
            }
            (Op::Insert { table, row }, Ok(Err(count))) => {
                let name = table_name(*table);
                let t = Instant::now();
                let n = core.insert_rows(&name, vec![row.clone()])?;
                let ms = t.elapsed().as_secs_f64() * 1e3;
                insert_ms.push(ms);
                core_mutation_ms.push(ms);
                catalog.insert_rows(&name, vec![row.clone()])?;
                n == *count
            }
            (
                Op::Delete {
                    table,
                    predicate,
                    removed,
                },
                Ok(Err(count)),
            ) => {
                let name = table_name(*table);
                let expr = parse_expression(predicate)?;
                let t = Instant::now();
                let positions = core.delete_where(&name, Some(&expr))?;
                let ms = t.elapsed().as_secs_f64() * 1e3;
                delete_ms.push(ms);
                core_mutation_ms.push(ms);
                catalog.delete_rows(&name, &positions)?;
                let ok = positions.len() == *count && count == removed;
                deleted_positions.push(positions);
                ok
            }
            (_, Err(e)) => {
                eprintln!("served_mix: op failed: {e}");
                false
            }
            _ => false,
        };
        if let Some(table) = op.mutated_table() {
            versions[table] += 1;
        }
        failed += u64::from(!ok);
    }

    // Depth 4: the views alone — build one per dashboard, then replay the
    // wire blocks' mutations on the views of the table each one changes.
    let mut views = Vec::new();
    let mut build_ms = Vec::new();
    for q in &dashboards {
        let t = Instant::now();
        views.push(build_view(q, &tables[q.table])?);
        build_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let (mut view_insert_us, mut view_delete_us, mut views_per_mutation_ms) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut deletes = deleted_positions.iter();
    for op in &ops[..per_depth] {
        let Some(table) = op.mutated_table() else {
            continue;
        };
        let positions = match op {
            Op::Delete { .. } => deletes
                .next()
                .expect("one position list per delete")
                .as_slice(),
            _ => &[],
        };
        let mutation_start = Instant::now();
        for (view, _) in views
            .iter_mut()
            .zip(&dashboards)
            .filter(|(_, q)| q.table == table)
        {
            if let Op::Insert { row, .. } = op {
                let t = Instant::now();
                std::hint::black_box(view.apply_insert(row.clone()));
                view_insert_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            for &p in positions.iter().rev() {
                let t = Instant::now();
                std::hint::black_box(view.apply_delete(p)?);
                view_delete_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        views_per_mutation_ms.push(mutation_start.elapsed().as_secs_f64() * 1e3);
    }

    let mut result = RunResult {
        attempted: ops.len() as u64,
        failed,
        ..RunResult::default()
    };
    let m = &mut result.metrics;
    pieces.set_metrics(&tracer, m);
    let us = |name: &str| median(&tracer.millis_of(name)) * 1e3;
    m.set("core.insert_rows_ms", median(&insert_ms));
    m.set("core.delete_where_ms", median(&delete_ms));

    let wire_ms: Vec<f64> = ["wire.hit", "wire.miss", "wire.mutation"]
        .iter()
        .flat_map(|n| tracer.millis_of(n))
        .collect();
    let service_hit_us = us("service.hit");
    let service_miss_ms = median(&tracer.millis_of("service.miss"));
    let service_mutation = tracer.millis_of("service.mutation");
    m.set("server.service_hit_us", service_hit_us);
    m.set("server.service_miss_ms", service_miss_ms);
    m.set("server.service_mutation_ms", median(&service_mutation));
    m.set("server.wire_self_us", us("wire.hit") - service_hit_us);
    m.set(
        "server.service_self_ms",
        service_miss_ms - median(&pieces.op_ms),
    );
    // Means, not medians: four blocks hold the same 12 INSERTs and 4
    // DELETEs, three and one per table, at every depth.
    m.set(
        "server.mutation_self_ms",
        mean(&service_mutation) - mean(&core_mutation_ms) - mean(&views_per_mutation_ms),
    );
    m.set(
        "server.result_hits",
        (stats.result_hits - stats_before.result_hits) as f64,
    );
    m.set(
        "server.result_misses",
        (stats.result_misses - stats_before.result_misses) as f64,
    );
    m.set(
        "server.plan_hits",
        (stats.plan_hits - stats_before.plan_hits) as f64,
    );
    m.set(
        "server.plan_misses",
        (stats.plan_misses - stats_before.plan_misses) as f64,
    );
    m.set("server.view_count", view_count as f64);
    let reply_bytes: Vec<f64> = replies[..per_depth]
        .iter()
        .filter_map(|r| match r {
            Ok(Ok(lines)) => Some(lines.iter().map(|l| l.len() + 1).sum::<usize>() as f64),
            _ => None,
        })
        .collect();
    m.set("server.reply_bytes", median(&reply_bytes));
    m.set("server.op_p99_ms", tail_percentile(&wire_ms, 0.99));

    m.set("skyline.view_build_ms", median(&build_ms));
    m.set("skyline.view_insert_us", median(&view_insert_us));
    m.set("skyline.view_delete_us", median(&view_delete_us));
    m.set(
        "skyline.view_rebuilds",
        views.iter().map(MaintainedSkyline::rebuilds).sum::<u64>() as f64,
    );

    // The layers below the service, on the misses: counts are the mean
    // over the misses, sub-tree times those of the last miss's plan.
    set_count_metrics(&miss_counts, m);
    if let Some(sql) = last_miss_sql {
        let plan = physical_plan(&catalog, &config, &sql)?;
        set_subtree_metrics(&[subtree_millis(&plan, &config, 5)?], m);
    }
    let (isolated_ms, isolated_tests) = local_isolated(table.dims, false, &tables[0], 3);
    m.set("skyline.local_isolated_ms", isolated_ms);
    m.set(
        "skyline.ns_per_test",
        isolated_ms * 1e6 / isolated_tests as f64,
    );

    result
        .notes
        .push(("pinned to one CPU".into(), pinned.to_string()));
    result.notes.push((
        "samples".into(),
        format!(
            "{per_depth} ops over the wire + {per_depth} through QueryService; {} misses and {} mutations replayed directly",
            pieces.op_ms.len(),
            core_mutation_ms.len()
        ),
    ));
    let path = args.out_dir.join("served_mix.trace.json");
    tracer
        .write(&path, "served_mix", args.seed, &result.metrics)
        .map_err(|e| io_err("write trace", e))?;
    Ok(result)
}

/// One row of the README's cold-view observation: what the server's view
/// install (`MaintainedSkyline::new`) costs beside the all-MIN query it
/// follows, at `rows` table rows. Returns (collect ms, view build ms).
pub fn cold_view_observation(rows: usize, seed: u64) -> sparkline::Result<(f64, f64)> {
    let table = TableSpec {
        rows,
        ..served_table(1.0)
    };
    let data = table.generate(seed);
    let ctx = SessionContext::new();
    ctx.register_table(table_name(0), table.schema(), data.clone())?;
    let all_min = Query::skyline(0, &[Dir::Min; 3], true, None);
    let frame = ctx.sql(&all_min.sql)?;
    let t = Instant::now();
    frame.collect()?;
    let collect_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    build_view(&all_min, &data)?;
    Ok((collect_ms, t.elapsed().as_secs_f64() * 1e3))
}
