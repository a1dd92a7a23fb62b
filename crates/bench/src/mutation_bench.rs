//! Mutation-workload benchmark: incremental skyline maintenance vs
//! recompute-on-mutation, written as the machine-readable
//! `BENCH_PR10.json` trajectory file.
//!
//! One cell per mutation fraction (1% / 10% / 50% of the base table,
//! interleaved inserts and deletes). Each cell measures two things:
//!
//! * **Library wall clock** — applying the whole mutation stream to a
//!   [`MaintainedSkyline`] k-skyband (including its initial build)
//!   versus running a full `bnl_skyline` recompute after every
//!   mutation. The final maintained skyline is compared against the
//!   final recompute for exactness.
//! * **Served latency** — the same mutation stream driven over the
//!   wire against two servers that differ only in
//!   `ServerConfig::maintained_views`. Post-mutation queries are
//!   sampled at evenly spaced points of the stream (not after every
//!   mutation — the baseline arm would otherwise recompute hundreds of
//!   skylines; the sample count is recorded in the cell), and the two
//!   servers' response bodies are compared byte-for-byte.
//!
//! Both server arms run single-executor sessions so the engine emits
//! rows in arrival order and the maintained-view install succeeds (a
//! multi-partition plan concatenates per-partition skylines, which the
//! install's byte-compare declines by design).

use std::fmt::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sparkline::{DataType, Field, Row, Schema, SessionConfig, SessionContext, Value};
use sparkline_common::{DominanceKernel, SkylineDim, SkylineSpec};
use sparkline_datagen::distributions::anti_correlated_rows;
use sparkline_server::{QueryService, ServerClient, ServerConfig, SkylineServer};
use sparkline_skyline::{bnl_skyline, DominanceChecker, MaintainedSkyline, SkylineStats};

/// Skyband depth used by the library arm — matches the server's
/// maintained-view depth so both arms pay comparable bookkeeping.
const SKYBAND_K: u32 = 8;

/// One mutation-fraction cell.
#[derive(Debug, Clone)]
pub struct MutationCell {
    /// Mutations as a fraction of the base row count.
    pub fraction: f64,
    /// Number of interleaved insert/delete mutations applied.
    pub mutations: usize,
    /// Wall clock for the delta arm (skyband build + all mutations),
    /// milliseconds.
    pub delta_ms: f64,
    /// Wall clock for the recompute arm (full `bnl_skyline` after
    /// every mutation), milliseconds.
    pub recompute_ms: f64,
    /// `recompute_ms / delta_ms`.
    pub speedup: f64,
    /// Skyband replay-rebuilds the delta arm needed (deletes that
    /// exhausted the erosion budget).
    pub rebuilds: u64,
    /// Post-mutation queries sampled per server arm.
    pub served_samples: usize,
    /// Median post-mutation served latency with maintained views on,
    /// milliseconds.
    pub served_views_ms: f64,
    /// Median post-mutation served latency with maintained views off
    /// (every sampled query recomputes), milliseconds.
    pub served_baseline_ms: f64,
    /// Sampled queries answered from the result cache, views-on arm.
    pub served_view_hits: usize,
}

/// The full mutation benchmark.
#[derive(Debug, Clone)]
pub struct MutationBench {
    /// Rows in the library arm's base table.
    pub rows: usize,
    /// Skyline dimensions (all MIN) in the library arm.
    pub dims: usize,
    /// Rows in the server arm's base table.
    pub server_rows: usize,
    /// One cell per mutation fraction, ascending.
    pub cells: Vec<MutationCell>,
    /// Whether the delta arm's final skyline equalled the recompute
    /// arm's in every cell (asserted, so always true in a written
    /// file).
    pub exact: bool,
    /// Whether the two server arms' sampled response bodies were
    /// byte-identical in every cell (likewise asserted).
    pub served_identical: bool,
}

/// The mutation fractions of the sweep.
pub const FRACTIONS: [f64; 3] = [0.01, 0.10, 0.50];

// ---------------------------------------------------------------------
// Library arm: MaintainedSkyline deltas vs per-mutation recompute.
// ---------------------------------------------------------------------

/// Outcome of one library-arm cell: timings plus the final skyline for
/// the exactness comparison.
struct LibraryCell {
    delta_ms: f64,
    recompute_ms: f64,
    rebuilds: u64,
    exact: bool,
}

fn min_spec(dims: usize) -> SkylineSpec {
    SkylineSpec::new((0..dims).map(SkylineDim::min).collect())
}

/// A deterministic interleaved mutation stream: even steps insert the
/// next pre-generated row, odd steps delete a pseudo-random live
/// position (a multiplicative recurrence, no RNG state needed).
enum Mutation {
    Insert(Row),
    DeleteAt(u64),
}

fn mutation_stream(inserts: &[Row], mutations: usize) -> Vec<Mutation> {
    let mut state = 0x5EED_u64;
    (0..mutations)
        .map(|i| {
            if i % 2 == 0 {
                Mutation::Insert(inserts[i / 2].clone())
            } else {
                state = state.wrapping_mul(31).wrapping_add(17);
                Mutation::DeleteAt(state)
            }
        })
        .collect()
}

fn run_library_cell(base: &[Row], inserts: &[Row], dims: usize, fraction: f64) -> LibraryCell {
    let mutations = ((base.len() as f64 * fraction) as usize).max(2);
    let stream = mutation_stream(inserts, mutations);

    // Delta arm: one skyband build, then O(band) work per mutation.
    let t0 = Instant::now();
    let mut maintained =
        MaintainedSkyline::new(min_spec(dims), SKYBAND_K, base).expect("build skyband");
    for m in &stream {
        match m {
            Mutation::Insert(row) => {
                maintained.apply_insert(row.clone());
            }
            Mutation::DeleteAt(state) => {
                if !maintained.is_empty() {
                    let pos = (*state as usize) % maintained.len();
                    maintained.apply_delete(pos).expect("delete in bounds");
                }
            }
        }
    }
    let delta_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Recompute arm: the same stream against a plain row vector with a
    // full BNL skyline after every mutation (what a cache that merely
    // invalidates on mutation ends up paying).
    let checker = DominanceChecker::complete(min_spec(dims));
    let mut rows = base.to_vec();
    let mut last = Vec::new();
    let t0 = Instant::now();
    for m in &stream {
        match m {
            Mutation::Insert(row) => rows.push(row.clone()),
            Mutation::DeleteAt(state) => {
                if !rows.is_empty() {
                    let pos = (*state as usize) % rows.len();
                    rows.remove(pos);
                }
            }
        }
        last = bnl_skyline(
            rows.iter().cloned(),
            &checker,
            &mut SkylineStats::default(),
            DominanceKernel::Scalar,
        );
    }
    let recompute_ms = t0.elapsed().as_secs_f64() * 1e3;

    LibraryCell {
        delta_ms,
        recompute_ms,
        rebuilds: maintained.rebuilds(),
        exact: maintained.skyline_rows() == last,
    }
}

// ---------------------------------------------------------------------
// Server arm: maintained views on vs off over the wire.
// ---------------------------------------------------------------------

const SKY: &str = "SELECT price, rating FROM hotels SKYLINE OF price MIN, rating MAX";

/// The deterministic anti-correlated-ish recurrence the server tests
/// use: cheap rows tend to have high ratings, so the skyline has real
/// depth.
fn hotel_rows(n: i64) -> Vec<Row> {
    (0..n)
        .map(|i| {
            let price = (i * 37) % 1000;
            let rating = ((999 - price) + (i * 13) % 200 - 100).max(0);
            Row::new(vec![
                Value::Int64(i),
                Value::Int64(price),
                Value::Int64(rating),
            ])
        })
        .collect()
}

fn start_hotel_server(rows: i64, maintained_views: bool) -> SkylineServer {
    // Single executor: the engine emits skyline rows in arrival order,
    // which is what lets the maintained-view install's byte-compare
    // succeed (see module docs).
    let session = SessionConfig::default().with_executors(1);
    let ctx = SessionContext::with_config(session.clone());
    let schema = Schema::new(vec![
        Field::new("id", DataType::Int64, false),
        Field::new("price", DataType::Int64, false),
        Field::new("rating", DataType::Int64, false),
    ]);
    ctx.register_table("hotels", schema, hotel_rows(rows))
        .expect("register hotels");
    let config = ServerConfig {
        session,
        maintained_views,
        ..ServerConfig::default()
    };
    SkylineServer::start_with_service(QueryService::with_session(ctx, config))
        .expect("start server")
}

struct ServedCell {
    samples: usize,
    views_ms: f64,
    baseline_ms: f64,
    view_hits: usize,
    identical: bool,
}

fn run_served_cell(server_rows: i64, fraction: f64, max_samples: usize) -> ServedCell {
    let mutations = ((server_rows as f64 * fraction) as usize).max(2);
    // Sample post-mutation queries at evenly spaced points rather than
    // after every mutation; `samples` is recorded in the cell so the
    // cap is visible in the written file.
    let samples = mutations.min(max_samples);
    let stride = mutations / samples;

    let views = start_hotel_server(server_rows, true);
    let baseline = start_hotel_server(server_rows, false);
    let mut views_client = ServerClient::connect(views.addr()).expect("connect");
    let mut baseline_client = ServerClient::connect(baseline.addr()).expect("connect");

    // Prime both caches; the views server installs its maintained view
    // on this cold miss.
    let prime_views = views_client.query(SKY).expect("prime");
    let prime_baseline = baseline_client.query(SKY).expect("prime");
    let mut identical = prime_views.rows == prime_baseline.rows;

    // The same deterministic mutation stream hits both servers: even
    // steps insert a fresh row, odd steps delete one live id.
    let mut next_id = server_rows;
    let mut live_ids: Vec<i64> = (0..server_rows).collect();
    let mut state = 0x5EED_u64;
    let mut views_ms = Vec::with_capacity(samples);
    let mut baseline_ms = Vec::with_capacity(samples);
    let mut view_hits = 0usize;
    for i in 0..mutations {
        if i % 2 == 0 {
            let price = (next_id * 41) % 1000;
            let rating = ((999 - price) + (next_id * 17) % 200 - 100).max(0);
            let spec = format!("{next_id},{price},{rating}");
            views_client.insert("hotels", &spec).expect("insert");
            baseline_client.insert("hotels", &spec).expect("insert");
            live_ids.push(next_id);
            next_id += 1;
        } else {
            state = state.wrapping_mul(31).wrapping_add(17);
            let victim = live_ids.swap_remove(state as usize % live_ids.len());
            let pred = format!("id = {victim}");
            views_client.delete("hotels", Some(&pred)).expect("delete");
            baseline_client
                .delete("hotels", Some(&pred))
                .expect("delete");
        }
        if i % stride == 0 && views_ms.len() < samples {
            let t0 = Instant::now();
            let v = views_client.query(SKY).expect("served query");
            views_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let t0 = Instant::now();
            let b = baseline_client.query(SKY).expect("served query");
            baseline_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            identical &= v.rows == b.rows;
            view_hits += (v.result_cache == "hit") as usize;
        }
    }
    views_ms.sort_by(|a, b| a.total_cmp(b));
    baseline_ms.sort_by(|a, b| a.total_cmp(b));
    ServedCell {
        samples: views_ms.len(),
        views_ms: median(&views_ms),
        baseline_ms: median(&baseline_ms),
        view_hits,
        identical,
    }
}

fn median(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[(sorted.len() - 1) / 2]
}

// ---------------------------------------------------------------------
// Sweep, JSON, entry points.
// ---------------------------------------------------------------------

/// Run the full benchmark. `quick` shrinks tables and sample counts
/// for CI smoke lanes.
pub fn run_mutation_bench(quick: bool) -> MutationBench {
    let rows = if quick { 600 } else { 3_000 };
    let server_rows: i64 = if quick { 400 } else { 2_000 };
    let max_samples = if quick { 6 } else { 24 };
    let dims = 3;

    let mut rng = StdRng::seed_from_u64(0x5EB7_0A12);
    let base = anti_correlated_rows(&mut rng, rows, dims);
    // Pre-generate enough insert rows for the largest fraction (every
    // other mutation inserts).
    let max_mutations = ((rows as f64 * FRACTIONS[FRACTIONS.len() - 1]) as usize).max(2);
    let inserts = anti_correlated_rows(&mut rng, max_mutations / 2 + 1, dims);

    let mut cells = Vec::with_capacity(FRACTIONS.len());
    let mut exact = true;
    let mut served_identical = true;
    for &fraction in &FRACTIONS {
        let lib = run_library_cell(&base, &inserts, dims, fraction);
        let served = run_served_cell(server_rows, fraction, max_samples);
        exact &= lib.exact;
        served_identical &= served.identical;
        cells.push(MutationCell {
            fraction,
            mutations: ((rows as f64 * fraction) as usize).max(2),
            delta_ms: lib.delta_ms,
            recompute_ms: lib.recompute_ms,
            speedup: lib.recompute_ms / lib.delta_ms.max(1e-9),
            rebuilds: lib.rebuilds,
            served_samples: served.samples,
            served_views_ms: served.views_ms,
            served_baseline_ms: served.baseline_ms,
            served_view_hits: served.view_hits,
        });
    }
    assert!(exact, "delta maintenance diverged from recompute");
    assert!(served_identical, "server arms served different bytes");
    MutationBench {
        rows,
        dims,
        server_rows: server_rows as usize,
        cells,
        exact,
        served_identical,
    }
}

/// Hand-rolled JSON (the workspace vendors no serde).
pub fn to_json(bench: &MutationBench) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"benchmark\": \"incremental_skyline_maintenance\",\n");
    out.push_str("  \"workload\": \"interleaved_insert_delete_mutations\",\n");
    let _ = writeln!(out, "  \"rows\": {},", bench.rows);
    let _ = writeln!(out, "  \"dims\": {},", bench.dims);
    let _ = writeln!(out, "  \"server_rows\": {},", bench.server_rows);
    let _ = writeln!(out, "  \"exact\": {},", bench.exact);
    let _ = writeln!(out, "  \"served_identical\": {},", bench.served_identical);
    out.push_str("  \"cells\": [\n");
    for (i, c) in bench.cells.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"fraction\": {:.2}, \"mutations\": {}, \"delta_ms\": {:.3}, \
             \"recompute_ms\": {:.3}, \"speedup\": {:.1}, \"rebuilds\": {}, \
             \"served_samples\": {}, \"served_views_ms\": {:.3}, \
             \"served_baseline_ms\": {:.3}, \"served_view_hits\": {}}}{}",
            c.fraction,
            c.mutations,
            c.delta_ms,
            c.recompute_ms,
            c.speedup,
            c.rebuilds,
            c.served_samples,
            c.served_views_ms,
            c.served_baseline_ms,
            c.served_view_hits,
            if i + 1 < bench.cells.len() { "," } else { "" },
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Run the benchmark and write `path`.
pub fn write_bench_pr10(path: &str, quick: bool) -> std::io::Result<MutationBench> {
    let bench = run_mutation_bench(quick);
    std::fs::write(path, to_json(&bench))?;
    Ok(bench)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed_enough() {
        let bench = MutationBench {
            rows: 100,
            dims: 3,
            server_rows: 50,
            cells: vec![MutationCell {
                fraction: 0.1,
                mutations: 10,
                delta_ms: 1.0,
                recompute_ms: 20.0,
                speedup: 20.0,
                rebuilds: 1,
                served_samples: 5,
                served_views_ms: 0.2,
                served_baseline_ms: 3.0,
                served_view_hits: 5,
            }],
            exact: true,
            served_identical: true,
        };
        let json = to_json(&bench);
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert!(json.contains("\"fraction\": 0.10"), "{json}");
        assert!(json.contains("\"served_view_hits\": 5"), "{json}");
    }

    #[test]
    fn smoke_bench_runs_end_to_end() {
        // A tiny end-to-end pass (even smaller than the quick grid) to
        // keep `cargo test` fast while covering both arms.
        let mut rng = StdRng::seed_from_u64(1);
        let base = anti_correlated_rows(&mut rng, 120, 3);
        let inserts = anti_correlated_rows(&mut rng, 40, 3);
        let lib = run_library_cell(&base, &inserts, 3, 0.25);
        assert!(lib.exact, "delta diverged from recompute");
        assert!(lib.delta_ms > 0.0 && lib.recompute_ms > 0.0);

        let served = run_served_cell(150, 0.1, 4);
        assert!(served.identical, "server arms diverged");
        assert!(served.samples > 0);
        // Single-executor sessions install the maintained view, so the
        // views arm answers sampled queries from the refreshed cache.
        assert_eq!(served.view_hits, served.samples);
    }
}
