//! Multi-tenant server benchmark: N concurrent wire clients against the
//! `sparkline-server` query service, written as the machine-readable
//! `BENCH_PR9.json` trajectory file.
//!
//! Two sweeps. The **concurrency sweep** starts a fresh server per
//! client count, drives every client through a small dashboard-style
//! working set of skyline queries (repeating shapes — the workload the
//! result cache exists for), and reports p50/p99 latency, queries/sec,
//! and the result-cache hit rate, asserting every response body is
//! byte-identical to direct `SessionContext` execution. The **cold/hot
//! cell** measures one cache-cold query against the median of repeated
//! cache-hot runs of the same query — the "repeated dashboard query is
//! near-free" claim, expected ≥ 10x.

use std::fmt::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sparkline::{DataType, Field, Schema, SessionConfig, SessionContext};
use sparkline_datagen::distributions::anti_correlated_rows;
use sparkline_server::{render_rows, QueryService, ServerClient, ServerConfig, SkylineServer};

/// One timed client-count cell of the concurrency sweep.
#[derive(Debug, Clone)]
pub struct ConcurrencyCell {
    /// Concurrent wire clients.
    pub clients: usize,
    /// Queries each client issued.
    pub queries_per_client: usize,
    /// Wall-clock seconds for the whole cell.
    pub secs: f64,
    /// Aggregate throughput (all clients' queries / wall clock).
    pub qps: f64,
    /// Median per-query latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-query latency, milliseconds.
    pub p99_ms: f64,
    /// Result-cache hit rate over all queries.
    pub result_hit_rate: f64,
}

/// The cache-cold vs cache-hot latency cell.
#[derive(Debug, Clone)]
pub struct ColdHotCell {
    /// First (cache-missing) execution, milliseconds.
    pub cold_ms: f64,
    /// Median of repeated result-cache-hit executions, milliseconds.
    pub hot_ms: f64,
    /// `cold_ms / hot_ms`.
    pub speedup: f64,
}

/// The full server benchmark.
#[derive(Debug, Clone)]
pub struct ServerBench {
    /// Rows in the benchmark table.
    pub rows: usize,
    /// Concurrency sweep, ascending client counts.
    pub concurrency_cells: Vec<ConcurrencyCell>,
    /// Cold-vs-hot latency cell.
    pub cold_hot: ColdHotCell,
    /// Whether every wire response matched direct execution
    /// byte-for-byte (asserted, so always true in a written file).
    pub byte_identical: bool,
}

/// The dashboard working set: a few query shapes tenants keep
/// re-issuing. Spellings vary in case/whitespace to exercise
/// normalization; shapes 0 and 1 normalize to the same cache key.
const WORKLOAD: [&str; 4] = [
    "SELECT d0, d1, d2 FROM t SKYLINE OF d0 MIN, d1 MIN, d2 MIN",
    "select  d0, d1, d2 from T skyline of d0 min, d1 min, d2 min;",
    "SELECT d0, d1 FROM t WHERE d2 < 0.8 SKYLINE OF d0 MIN, d1 MIN",
    "SELECT d0, d1, d2 FROM t SKYLINE OF DISTINCT d0 MIN, d1 MIN, d2 MIN",
];

fn bench_session(rows: usize) -> SessionContext {
    let mut rng = StdRng::seed_from_u64(0x5EB7_0A11);
    let data = anti_correlated_rows(&mut rng, rows, 3);
    let ctx = SessionContext::with_config(SessionConfig::default());
    let schema = Schema::new(
        (0..3)
            .map(|i| Field::new(format!("d{i}"), DataType::Float64, false))
            .collect::<Vec<Field>>(),
    );
    ctx.register_table("t", schema, data)
        .expect("register bench table");
    ctx
}

fn direct_renderings(ctx: &SessionContext) -> Vec<Vec<String>> {
    WORKLOAD
        .iter()
        .map(|sql| render_rows(&ctx.sql(sql).expect("parse").collect().expect("execute")))
        .collect()
}

fn quantile_ms(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn start_server(ctx: &SessionContext) -> SkylineServer {
    // `with_shared_catalog` gives the service its own cancel flag while
    // keeping the registered dataset.
    let service = QueryService::with_session(
        ctx.with_shared_catalog(SessionConfig::default()),
        ServerConfig::default(),
    );
    SkylineServer::start_with_service(service).expect("start server")
}

fn run_concurrency_cell(
    ctx: &SessionContext,
    expected: &[Vec<String>],
    clients: usize,
    queries_per_client: usize,
) -> ConcurrencyCell {
    let server = start_server(ctx);
    let addr = server.addr();
    let started = Instant::now();
    let mut latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = ServerClient::connect(addr).expect("connect");
                    let mut times = Vec::with_capacity(queries_per_client);
                    for q in 0..queries_per_client {
                        let shape = (c + q) % WORKLOAD.len();
                        let t0 = Instant::now();
                        let response = client.query(WORKLOAD[shape]).expect("query");
                        times.push(t0.elapsed().as_secs_f64() * 1e3);
                        assert_eq!(
                            response.rows, expected[shape],
                            "client {c} query {q} (shape {shape}) diverged from \
                             direct execution"
                        );
                    }
                    times
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let secs = started.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.total_cmp(b));
    let stats = server.service().stats();
    let total = (clients * queries_per_client) as f64;
    ConcurrencyCell {
        clients,
        queries_per_client,
        secs,
        qps: total / secs.max(1e-9),
        p50_ms: quantile_ms(&latencies, 0.50),
        p99_ms: quantile_ms(&latencies, 0.99),
        result_hit_rate: stats.result_hits as f64 / total,
    }
}

fn run_cold_hot_cell(
    ctx: &SessionContext,
    expected: &[Vec<String>],
    hot_runs: usize,
) -> ColdHotCell {
    let server = start_server(ctx);
    let mut client = ServerClient::connect(server.addr()).expect("connect");
    let t0 = Instant::now();
    let cold = client.query(WORKLOAD[0]).expect("cold query");
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(cold.rows, expected[0]);
    assert_eq!(cold.result_cache, "miss");
    let mut hot_times: Vec<f64> = (0..hot_runs)
        .map(|_| {
            let t0 = Instant::now();
            let hot = client.query(WORKLOAD[0]).expect("hot query");
            let elapsed = t0.elapsed().as_secs_f64() * 1e3;
            assert_eq!(hot.result_cache, "hit");
            assert_eq!(hot.rows, expected[0], "cached body diverged");
            elapsed
        })
        .collect();
    hot_times.sort_by(|a, b| a.total_cmp(b));
    let hot_ms = quantile_ms(&hot_times, 0.50);
    ColdHotCell {
        cold_ms,
        hot_ms,
        speedup: cold_ms / hot_ms.max(1e-9),
    }
}

/// Run the full benchmark. `quick` shrinks the table and query counts
/// for CI smoke lanes.
pub fn run_server_bench(quick: bool) -> ServerBench {
    let rows = if quick { 6_000 } else { 40_000 };
    let queries_per_client = if quick { 6 } else { 24 };
    let hot_runs = if quick { 10 } else { 30 };
    let client_counts: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };

    let ctx = bench_session(rows);
    let expected = direct_renderings(&ctx);

    let concurrency_cells = client_counts
        .iter()
        .map(|&clients| run_concurrency_cell(&ctx, &expected, clients, queries_per_client))
        .collect();
    let cold_hot = run_cold_hot_cell(&ctx, &expected, hot_runs);
    ServerBench {
        rows,
        concurrency_cells,
        cold_hot,
        // Every response was compared against direct execution above;
        // reaching this line means none diverged.
        byte_identical: true,
    }
}

/// Hand-rolled JSON (the workspace vendors no serde).
pub fn to_json(bench: &ServerBench) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"benchmark\": \"multi_tenant_server\",\n");
    out.push_str("  \"workload\": \"concurrent_wire_clients_dashboard_skylines\",\n");
    let _ = writeln!(out, "  \"rows\": {},", bench.rows);
    let _ = writeln!(out, "  \"byte_identical\": {},", bench.byte_identical);
    out.push_str("  \"concurrency_cells\": [\n");
    for (i, c) in bench.concurrency_cells.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"clients\": {}, \"queries_per_client\": {}, \"secs\": {:.6}, \
             \"qps\": {:.1}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"result_hit_rate\": {:.3}}}{}",
            c.clients,
            c.queries_per_client,
            c.secs,
            c.qps,
            c.p50_ms,
            c.p99_ms,
            c.result_hit_rate,
            if i + 1 < bench.concurrency_cells.len() {
                ","
            } else {
                ""
            },
        );
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"cold_vs_hot\": {{\"cold_ms\": {:.3}, \"hot_ms\": {:.3}, \"speedup\": {:.1}}}",
        bench.cold_hot.cold_ms, bench.cold_hot.hot_ms, bench.cold_hot.speedup
    );
    out.push_str("}\n");
    out
}

/// Run the benchmark and write `path`.
pub fn write_bench_pr9(path: &str, quick: bool) -> std::io::Result<ServerBench> {
    let bench = run_server_bench(quick);
    std::fs::write(path, to_json(&bench))?;
    Ok(bench)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_pick_sane_positions() {
        let v = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(quantile_ms(&v, 0.50), 3.0);
        assert_eq!(quantile_ms(&v, 0.99), 100.0);
        assert_eq!(quantile_ms(&[], 0.5), 0.0);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let bench = ServerBench {
            rows: 10,
            concurrency_cells: vec![ConcurrencyCell {
                clients: 2,
                queries_per_client: 3,
                secs: 0.5,
                qps: 12.0,
                p50_ms: 1.0,
                p99_ms: 2.0,
                result_hit_rate: 0.8,
            }],
            cold_hot: ColdHotCell {
                cold_ms: 10.0,
                hot_ms: 0.5,
                speedup: 20.0,
            },
            byte_identical: true,
        };
        let json = to_json(&bench);
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert!(json.contains("\"clients\": 2"), "{json}");
        assert!(json.contains("\"speedup\": 20.0"), "{json}");
    }

    #[test]
    fn smoke_bench_runs_end_to_end() {
        // A tiny end-to-end pass (not the quick grid — even smaller) to
        // keep `cargo test` fast while covering the harness itself.
        let ctx = bench_session(500);
        let expected = direct_renderings(&ctx);
        let cell = run_concurrency_cell(&ctx, &expected, 2, 3);
        assert_eq!(cell.clients, 2);
        assert!(cell.qps > 0.0);
        assert!(cell.p99_ms >= cell.p50_ms);
        let cold_hot = run_cold_hot_cell(&ctx, &expected, 3);
        assert!(cold_hot.speedup > 0.0);
    }
}
