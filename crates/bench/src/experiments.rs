//! The experiments of the paper's evaluation (§6.4, §6.5, Appendices C–E),
//! one function per figure; the Appendix D tables (3–12) are the relative
//! renderings of Figures 3–7 and are emitted alongside them.

use sparkline::Algorithm;
use sparkline_datagen::{airbnb, musicbrainz, skyline_query_for, store_sales, Variant};

use crate::report::Cell;
use crate::runner::{EvalContext, Metric};

/// A rendered experiment result (one chart/table of the paper).
pub struct Report {
    /// Experiment id (e.g. "fig3").
    pub id: String,
    /// Chart title (mirrors the paper's captions).
    pub title: String,
    /// X-axis label.
    pub x_label: &'static str,
    /// X-axis values.
    pub x_values: Vec<String>,
    /// One series per algorithm.
    pub series: Vec<(String, Vec<Cell>)>,
    /// Time or memory.
    pub metric: Metric,
    /// Whether to also render the Appendix D relative table.
    pub with_relative: bool,
}

/// All experiment ids, in paper order.
pub fn all_ids() -> Vec<&'static str> {
    vec![
        "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
        "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "ext9", "ext10",
    ]
}

/// Run one experiment by id.
pub fn run(id: &str, ctx: &mut EvalContext, quick: bool) -> Vec<Report> {
    match id {
        "fig3" => fig3(ctx, quick),
        "fig4" => fig4(ctx, quick),
        "fig5" => fig5(ctx, quick),
        "fig6" => fig6(ctx, quick),
        "fig7" => fig7(ctx, quick),
        "fig8" => fig8(ctx, quick),
        "fig9" => fig9(ctx, quick),
        "fig10" => fig10(ctx, quick),
        "fig11" => grid_dims_by_executors(ctx, quick, "fig11", DataSource::Airbnb),
        "fig12" => grid_dims_by_executors(ctx, quick, "fig12", DataSource::StoreSales5),
        "fig13" => fig13(ctx, quick),
        "fig14" => grid_executors_by_dims(ctx, quick, "fig14", DataSource::Airbnb, &[3, 4, 5, 6]),
        "fig15" => {
            grid_executors_by_dims(ctx, quick, "fig15", DataSource::StoreSales5, &[3, 4, 5, 6])
        }
        "fig16" => musicbrainz_dims_grid(ctx, quick, "fig16", Metric::Time),
        "fig17" => musicbrainz_dims_grid(ctx, quick, "fig17", Metric::Memory),
        "fig18" => musicbrainz_executors_grid(ctx, quick, "fig18", Metric::Time),
        "fig19" => musicbrainz_executors_grid(ctx, quick, "fig19", Metric::Memory),
        "ext9" => ext9_storage(quick),
        "ext10" => ext10_server(quick),
        other => panic!("unknown experiment '{other}'; known: {:?}", all_ids()),
    }
}

/// The algorithm series of a complete-data chart (§6.3: all four) or an
/// incomplete-data chart (the two applicable ones).
fn algorithms(variant: Variant) -> Vec<Algorithm> {
    match variant {
        Variant::Complete => Algorithm::paper_algorithms().to_vec(),
        Variant::Incomplete => Algorithm::incomplete_algorithms().to_vec(),
    }
}

/// Run a set of x-axis points for every algorithm.
///
/// `skip_after_timeout` is used for monotonically growing workloads
/// (input-size sweeps): once a series times out, larger points are marked
/// "t.o." without burning the full timeout again.
fn run_series(
    ctx: &EvalContext,
    algs: &[Algorithm],
    executors: usize,
    points: &[(String, String)],
    metric: Metric,
    skip_after_timeout: bool,
) -> Vec<(String, Vec<Cell>)> {
    let mut series = Vec::new();
    for &alg in algs {
        let mut cells = Vec::with_capacity(points.len());
        let mut skipping = false;
        for (x, sql) in points {
            if skipping {
                cells.push(Cell::Timeout);
                continue;
            }
            eprint!("    [{:<24}] x={x} ... ", alg.label());
            let m = ctx
                .run(sql, alg, executors)
                .unwrap_or_else(|e| panic!("query failed ({sql}): {e}"));
            if m.timed_out() {
                eprintln!("t.o.");
                skipping = skip_after_timeout;
                cells.push(Cell::Timeout);
            } else {
                eprintln!(
                    "{:.3}s ({} rows, {} batched / {} scalar tests, \
                     {} batches, peak {} rows in flight)",
                    m.secs.unwrap_or_default(),
                    m.rows,
                    m.batched_tests,
                    m.scalar_tests,
                    m.batches_emitted,
                    m.peak_rows_in_flight,
                );
                cells.push(Cell::from_measurement(&m, metric));
            }
        }
        series.push((alg.label().to_string(), cells));
    }
    series
}

fn dims_list(quick: bool) -> Vec<usize> {
    if quick {
        vec![1, 3, 6]
    } else {
        vec![1, 2, 3, 4, 5, 6]
    }
}

fn executors_list(ctx: &EvalContext, quick: bool) -> Vec<usize> {
    if quick {
        vec![2, 5]
    } else {
        ctx.settings().executors.clone()
    }
}

/// Which dataset a grid experiment runs on.
enum DataSource {
    Airbnb,
    StoreSales5,
}

impl DataSource {
    fn prepare(&self, ctx: &mut EvalContext, variant: Variant) -> (String, usize) {
        match self {
            DataSource::Airbnb => ctx.airbnb(variant),
            DataSource::StoreSales5 => {
                let size = ctx.settings().store_sales_sizes()[2];
                ctx.store_sales(size, variant)
            }
        }
    }

    fn dims(&self) -> &'static [(&'static str, &'static str)] {
        match self {
            DataSource::Airbnb => &airbnb::SKYLINE_DIMS,
            DataSource::StoreSales5 => &store_sales::SKYLINE_DIMS,
        }
    }
}

fn dim_query(table: &str, dims: &[(&str, &str)], d: usize, variant: Variant) -> String {
    skyline_query_for(table, dims, d, variant == Variant::Complete)
}

// ---------------------------------------------------------------------
// Figure 3 / Tables 3–4: dimensions vs time, Airbnb, 5 executors.
// ---------------------------------------------------------------------
fn fig3(ctx: &mut EvalContext, quick: bool) -> Vec<Report> {
    let mut out = Vec::new();
    for variant in [Variant::Complete, Variant::Incomplete] {
        let (table, rows) = ctx.airbnb(variant);
        let points: Vec<(String, String)> = dims_list(quick)
            .iter()
            .map(|&d| {
                (
                    d.to_string(),
                    dim_query(&table, &airbnb::SKYLINE_DIMS, d, variant),
                )
            })
            .collect();
        let series = run_series(ctx, &algorithms(variant), 5, &points, Metric::Time, false);
        out.push(Report {
            id: "fig3".into(),
            title: format!(
                "Figure 3 / Table {}: dimensions vs. execution time \
                 (dataset: {table}, {rows} tuples, 5 executors)",
                if variant == Variant::Complete { 3 } else { 4 }
            ),
            x_label: "number of dimensions",
            x_values: points.into_iter().map(|(x, _)| x).collect(),
            series,
            metric: Metric::Time,
            with_relative: true,
        });
    }
    out
}

// ---------------------------------------------------------------------
// Figure 4 / Tables 5–6: dimensions vs time, store_sales, 10 executors.
// Complete on the largest dataset; incomplete on the smallest (the paper
// uses a 10× smaller dataset there to avoid blanket timeouts).
// ---------------------------------------------------------------------
fn fig4(ctx: &mut EvalContext, quick: bool) -> Vec<Report> {
    let sizes = ctx.settings().store_sales_sizes();
    let mut out = Vec::new();
    for (variant, size, table_no) in [
        (Variant::Complete, sizes[3], 5),
        (Variant::Incomplete, sizes[0], 6),
    ] {
        let (table, rows) = ctx.store_sales(size, variant);
        let points: Vec<(String, String)> = dims_list(quick)
            .iter()
            .map(|&d| {
                (
                    d.to_string(),
                    dim_query(&table, &store_sales::SKYLINE_DIMS, d, variant),
                )
            })
            .collect();
        let series = run_series(ctx, &algorithms(variant), 10, &points, Metric::Time, false);
        out.push(Report {
            id: "fig4".into(),
            title: format!(
                "Figure 4 / Table {table_no}: dimensions vs. execution time \
                 (dataset: {table}, {rows} tuples, 10 executors)"
            ),
            x_label: "number of dimensions",
            x_values: points.into_iter().map(|(x, _)| x).collect(),
            series,
            metric: Metric::Time,
            with_relative: true,
        });
    }
    out
}

// ---------------------------------------------------------------------
// Figure 5 / Tables 7–8: input tuples vs time, store_sales, 6 dims,
// 3 executors.
// ---------------------------------------------------------------------
fn fig5(ctx: &mut EvalContext, quick: bool) -> Vec<Report> {
    tuples_sweep(ctx, quick, "fig5", 3, Metric::Time, true, 7)
}

fn tuples_sweep(
    ctx: &mut EvalContext,
    quick: bool,
    id: &str,
    executors: usize,
    metric: Metric,
    with_relative: bool,
    first_table_no: usize,
) -> Vec<Report> {
    let sizes = ctx.settings().store_sales_sizes();
    let sizes = if quick { sizes[..2].to_vec() } else { sizes };
    let mut out = Vec::new();
    for (variant, table_no) in [
        (Variant::Complete, first_table_no),
        (Variant::Incomplete, first_table_no + 1),
    ] {
        let mut points = Vec::new();
        for &size in &sizes {
            let (table, rows) = ctx.store_sales(size, variant);
            points.push((
                rows.to_string(),
                dim_query(&table, &store_sales::SKYLINE_DIMS, 6, variant),
            ));
        }
        let series = run_series(ctx, &algorithms(variant), executors, &points, metric, true);
        let table_part = if with_relative {
            format!(" / Table {table_no}")
        } else {
            String::new()
        };
        out.push(Report {
            id: id.into(),
            title: format!(
                "{}{table_part}: input tuples vs. {} (store_sales{}, 6 dims, \
                 {executors} executors)",
                figure_name(id),
                metric_name(metric),
                variant.suffix(),
            ),
            x_label: "number of input tuples",
            x_values: points.into_iter().map(|(x, _)| x).collect(),
            series,
            metric,
            with_relative,
        });
    }
    out
}

// ---------------------------------------------------------------------
// Figure 6 / Tables 9–10: executors vs time, Airbnb, 6 dims.
// ---------------------------------------------------------------------
fn fig6(ctx: &mut EvalContext, quick: bool) -> Vec<Report> {
    executors_sweep_airbnb(ctx, quick, "fig6", 6, Metric::Time, true, 9)
}

fn executors_sweep_airbnb(
    ctx: &mut EvalContext,
    quick: bool,
    id: &str,
    dims: usize,
    metric: Metric,
    with_relative: bool,
    first_table_no: usize,
) -> Vec<Report> {
    let executor_counts = executors_list(ctx, quick);
    let mut out = Vec::new();
    for (variant, table_no) in [
        (Variant::Complete, first_table_no),
        (Variant::Incomplete, first_table_no + 1),
    ] {
        let (table, rows) = ctx.airbnb(variant);
        let sql = dim_query(&table, &airbnb::SKYLINE_DIMS, dims, variant);
        let mut series: Vec<(String, Vec<Cell>)> = algorithms(variant)
            .iter()
            .map(|a| (a.label().to_string(), Vec::new()))
            .collect();
        for &e in &executor_counts {
            let points = vec![(e.to_string(), sql.clone())];
            let partial = run_series(ctx, &algorithms(variant), e, &points, metric, false);
            for ((_, cells), (_, new)) in series.iter_mut().zip(partial) {
                cells.extend(new);
            }
        }
        let table_part = if with_relative {
            format!(" / Table {table_no}")
        } else {
            String::new()
        };
        out.push(Report {
            id: id.into(),
            title: format!(
                "{}{table_part}: executors vs. {} (dataset: {table}, {rows} tuples, \
                 {dims} dims)",
                figure_name(id),
                metric_name(metric),
            ),
            x_label: "number of executors",
            x_values: executor_counts.iter().map(|e| e.to_string()).collect(),
            series,
            metric,
            with_relative,
        });
    }
    out
}

// ---------------------------------------------------------------------
// Figure 7 / Tables 11–12: executors vs time, store_sales (complete on
// the 10^7-equivalent, incomplete on the 5·10^6-equivalent), 6 dims.
// ---------------------------------------------------------------------
fn fig7(ctx: &mut EvalContext, quick: bool) -> Vec<Report> {
    executors_sweep_store_sales(ctx, quick, "fig7", 6, Metric::Time, true, Some(11))
}

fn executors_sweep_store_sales(
    ctx: &mut EvalContext,
    quick: bool,
    id: &str,
    dims: usize,
    metric: Metric,
    with_relative: bool,
    first_table_no: Option<usize>,
) -> Vec<Report> {
    let sizes = ctx.settings().store_sales_sizes();
    let executor_counts = executors_list(ctx, quick);
    let mut out = Vec::new();
    for (variant, size, table_no) in [
        (Variant::Complete, sizes[3], first_table_no),
        (Variant::Incomplete, sizes[2], first_table_no.map(|t| t + 1)),
    ] {
        let (table, rows) = ctx.store_sales(size, variant);
        let sql = dim_query(&table, &store_sales::SKYLINE_DIMS, dims, variant);
        let mut series: Vec<(String, Vec<Cell>)> = algorithms(variant)
            .iter()
            .map(|a| (a.label().to_string(), Vec::new()))
            .collect();
        for &e in &executor_counts {
            let points = vec![(e.to_string(), sql.clone())];
            let partial = run_series(ctx, &algorithms(variant), e, &points, metric, false);
            for ((_, cells), (_, new)) in series.iter_mut().zip(partial) {
                cells.extend(new);
            }
        }
        let table_part = match table_no {
            Some(t) => format!(" / Table {t}"),
            None => String::new(),
        };
        out.push(Report {
            id: id.into(),
            title: format!(
                "{}{table_part}: executors vs. {} (dataset: {table}, {rows} tuples, \
                 {dims} dims)",
                figure_name(id),
                metric_name(metric),
            ),
            x_label: "number of executors",
            x_values: executor_counts.iter().map(|e| e.to_string()).collect(),
            series,
            metric,
            with_relative,
        });
    }
    out
}

// ---------------------------------------------------------------------
// Figures 8–10 (Appendix C): memory.
// ---------------------------------------------------------------------
fn fig8(ctx: &mut EvalContext, quick: bool) -> Vec<Report> {
    executors_sweep_airbnb(ctx, quick, "fig8", 6, Metric::Memory, false, 0)
}

fn fig9(ctx: &mut EvalContext, quick: bool) -> Vec<Report> {
    // Paper's Figure 9 uses the 5·10^6-equivalent for both variants.
    let sizes = ctx.settings().store_sales_sizes();
    let executor_counts = executors_list(ctx, quick);
    let mut out = Vec::new();
    for variant in [Variant::Complete, Variant::Incomplete] {
        let (table, rows) = ctx.store_sales(sizes[2], variant);
        let sql = dim_query(&table, &store_sales::SKYLINE_DIMS, 6, variant);
        let mut series: Vec<(String, Vec<Cell>)> = algorithms(variant)
            .iter()
            .map(|a| (a.label().to_string(), Vec::new()))
            .collect();
        for &e in &executor_counts {
            let points = vec![(e.to_string(), sql.clone())];
            let partial = run_series(ctx, &algorithms(variant), e, &points, Metric::Memory, false);
            for ((_, cells), (_, new)) in series.iter_mut().zip(partial) {
                cells.extend(new);
            }
        }
        out.push(Report {
            id: "fig9".into(),
            title: format!(
                "Figure 9: executors vs. memory (dataset: {table}, {rows} tuples, 6 dims)"
            ),
            x_label: "number of executors",
            x_values: executor_counts.iter().map(|e| e.to_string()).collect(),
            series,
            metric: Metric::Memory,
            with_relative: false,
        });
    }
    out
}

fn fig10(ctx: &mut EvalContext, quick: bool) -> Vec<Report> {
    let executor_grid: &[usize] = if quick { &[3] } else { &[3, 5, 10] };
    let mut out = Vec::new();
    for &e in executor_grid {
        out.extend(tuples_sweep(
            ctx,
            quick,
            "fig10",
            e,
            Metric::Memory,
            false,
            0,
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Figures 11/12 (Appendix C): dims vs time grids over executor counts.
// ---------------------------------------------------------------------
fn grid_dims_by_executors(
    ctx: &mut EvalContext,
    quick: bool,
    id: &str,
    source: DataSource,
) -> Vec<Report> {
    let executor_grid: Vec<usize> = if quick { vec![2, 5] } else { vec![2, 3, 5, 10] };
    let mut out = Vec::new();
    for &e in &executor_grid {
        for variant in [Variant::Complete, Variant::Incomplete] {
            let (table, rows) = source.prepare(ctx, variant);
            let points: Vec<(String, String)> = dims_list(quick)
                .iter()
                .map(|&d| (d.to_string(), dim_query(&table, source.dims(), d, variant)))
                .collect();
            let series = run_series(ctx, &algorithms(variant), e, &points, Metric::Time, false);
            out.push(Report {
                id: id.into(),
                title: format!(
                    "{}: dimensions vs. time (dataset: {table}, {rows} tuples, \
                     {e} executors)",
                    figure_name(id)
                ),
                x_label: "number of dimensions",
                x_values: points.into_iter().map(|(x, _)| x).collect(),
                series,
                metric: Metric::Time,
                with_relative: false,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// Figure 13 (Appendix C): tuples vs time over executor counts.
// ---------------------------------------------------------------------
fn fig13(ctx: &mut EvalContext, quick: bool) -> Vec<Report> {
    let executor_grid: &[usize] = if quick { &[2] } else { &[2, 3, 5, 10] };
    let mut out = Vec::new();
    for &e in executor_grid {
        out.extend(tuples_sweep(ctx, quick, "fig13", e, Metric::Time, false, 0));
    }
    out
}

// ---------------------------------------------------------------------
// Figures 14/15 (Appendix C): executors vs time grids over dim counts.
// ---------------------------------------------------------------------
fn grid_executors_by_dims(
    ctx: &mut EvalContext,
    quick: bool,
    id: &str,
    source: DataSource,
    dim_grid: &[usize],
) -> Vec<Report> {
    let dim_grid: Vec<usize> = if quick {
        vec![dim_grid[0], *dim_grid.last().unwrap()]
    } else {
        dim_grid.to_vec()
    };
    let mut out = Vec::new();
    for &d in &dim_grid {
        match source {
            DataSource::Airbnb => {
                out.extend(executors_sweep_airbnb(
                    ctx,
                    quick,
                    id,
                    d,
                    Metric::Time,
                    false,
                    0,
                ));
            }
            DataSource::StoreSales5 => {
                // Figure 15 runs on the 5·10^6-equivalent dataset for both
                // variants.
                let sizes = ctx.settings().store_sales_sizes();
                let executor_counts = executors_list(ctx, quick);
                for variant in [Variant::Complete, Variant::Incomplete] {
                    let (table, rows) = ctx.store_sales(sizes[2], variant);
                    let sql = dim_query(&table, &store_sales::SKYLINE_DIMS, d, variant);
                    let mut series: Vec<(String, Vec<Cell>)> = algorithms(variant)
                        .iter()
                        .map(|a| (a.label().to_string(), Vec::new()))
                        .collect();
                    for &e in &executor_counts {
                        let points = vec![(e.to_string(), sql.clone())];
                        let partial =
                            run_series(ctx, &algorithms(variant), e, &points, Metric::Time, false);
                        for ((_, cells), (_, new)) in series.iter_mut().zip(partial) {
                            cells.extend(new);
                        }
                    }
                    out.push(Report {
                        id: id.into(),
                        title: format!(
                            "{}: executors vs. time (dataset: {table}, {rows} tuples, \
                             {d} dims)",
                            figure_name(id)
                        ),
                        x_label: "number of executors",
                        x_values: executor_counts.iter().map(|e| e.to_string()).collect(),
                        series,
                        metric: Metric::Time,
                        with_relative: false,
                    });
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Figures 16–19 (Appendix E): MusicBrainz complex queries.
// ---------------------------------------------------------------------
fn musicbrainz_dims_grid(
    ctx: &mut EvalContext,
    quick: bool,
    id: &str,
    metric: Metric,
) -> Vec<Report> {
    let executor_grid = executors_list(ctx, quick);
    let mut out = Vec::new();
    for &e in &executor_grid {
        for variant in [Variant::Complete, Variant::Incomplete] {
            let (table, rows) = ctx.musicbrainz(variant);
            let points: Vec<(String, String)> = dims_list(quick)
                .iter()
                .map(|&d| (d.to_string(), musicbrainz::skyline_query(variant, d)))
                .collect();
            let series = run_series(ctx, &algorithms(variant), e, &points, metric, false);
            out.push(Report {
                id: id.into(),
                title: format!(
                    "{}: dimensions vs. {} using complex queries \
                     (dataset: {table}, {rows} recordings, {e} executors)",
                    figure_name(id),
                    metric_name(metric),
                ),
                x_label: "number of dimensions",
                x_values: points.into_iter().map(|(x, _)| x).collect(),
                series,
                metric,
                with_relative: false,
            });
        }
    }
    out
}

fn musicbrainz_executors_grid(
    ctx: &mut EvalContext,
    quick: bool,
    id: &str,
    metric: Metric,
) -> Vec<Report> {
    let dim_grid = dims_list(quick);
    let executor_counts = executors_list(ctx, quick);
    let mut out = Vec::new();
    for &d in &dim_grid {
        for variant in [Variant::Complete, Variant::Incomplete] {
            let (table, rows) = ctx.musicbrainz(variant);
            let sql = musicbrainz::skyline_query(variant, d);
            let mut series: Vec<(String, Vec<Cell>)> = algorithms(variant)
                .iter()
                .map(|a| (a.label().to_string(), Vec::new()))
                .collect();
            for &e in &executor_counts {
                let points = vec![(e.to_string(), sql.clone())];
                let partial = run_series(ctx, &algorithms(variant), e, &points, metric, false);
                for ((_, cells), (_, new)) in series.iter_mut().zip(partial) {
                    cells.extend(new);
                }
            }
            out.push(Report {
                id: id.into(),
                title: format!(
                    "{}: executors vs. {} using complex queries \
                     (dataset: {table}, {rows} recordings, {d} dims)",
                    figure_name(id),
                    metric_name(metric),
                ),
                x_label: "number of executors",
                x_values: executor_counts.iter().map(|e| e.to_string()).collect(),
                series,
                metric,
                with_relative: false,
            });
        }
    }
    out
}

/// ext9: out-of-core columnar storage — filtered-skyline wall
/// clock per distribution over a disk table, whose scan skips blocks by
/// min/max and dominance, beside the same query over the rows in memory;
/// the disk scan's block and byte counters; and the out-of-core cell (a
/// query over a file ~8× the memory budget that must complete by
/// streaming one block at a time). Also writes the
/// machine-readable `BENCH_PR8.json`; set `BENCH_PR8_OUT` to redirect
/// the file.
fn ext9_storage(quick: bool) -> Vec<Report> {
    let path = std::env::var("BENCH_PR8_OUT").unwrap_or_else(|_| "BENCH_PR8.json".to_string());
    let bench = crate::storage_bench::write_bench_pr8(&path, quick)
        .unwrap_or_else(|e| panic!("ext9: cannot write {path}: {e}"));
    eprintln!("    wrote {path}");
    for c in &bench.scan_cells {
        eprintln!(
            "    [{} / {}] {:.0} rows/s (blocks: {} read, {} skipped min/max, \
             {} skipped dominance; {} bytes decoded)",
            c.distribution,
            c.mode,
            c.rows_per_sec,
            c.blocks_read,
            c.blocks_skipped_minmax,
            c.blocks_skipped_dominance,
            c.bytes_decoded
        );
    }
    let o = &bench.out_of_core;
    eprintln!(
        "    [out-of-core] {} result rows from a {} B file under a {} B budget \
         ({} budget denials)",
        o.result_rows, o.file_bytes, o.memory_budget, o.budget_denials
    );
    let distributions = ["correlated", "independent", "anti_correlated"];
    let series: Vec<(String, Vec<Cell>)> = distributions
        .iter()
        .map(|&distribution| {
            let cells = crate::storage_bench::MODES
                .iter()
                .map(|&mode| {
                    bench
                        .scan_cells
                        .iter()
                        .find(|c| c.distribution == distribution && c.mode == mode)
                        .map(|c| Cell::Value(c.secs))
                        .unwrap_or(Cell::NotApplicable)
                })
                .collect();
            (distribution.to_string(), cells)
        })
        .collect();
    let rows = bench.scan_cells.first().map(|c| c.rows).unwrap_or(0);
    vec![Report {
        id: "ext9".into(),
        title: format!(
            "Extension 9: filtered-skyline wall clock over the rows in memory \
             and on disk with block skipping ({rows} rows; see BENCH_PR8.json \
             for the block/byte counters and the out-of-core budget cell)"
        ),
        x_label: "input",
        x_values: crate::storage_bench::MODES
            .iter()
            .map(|m| m.to_string())
            .collect(),
        series,
        metric: Metric::Time,
        with_relative: false,
    }]
}

fn ext10_server(quick: bool) -> Vec<Report> {
    let path = std::env::var("BENCH_PR9_OUT").unwrap_or_else(|_| "BENCH_PR9.json".to_string());
    let bench = crate::server_bench::write_bench_pr9(&path, quick)
        .unwrap_or_else(|e| panic!("ext10: cannot write {path}: {e}"));
    eprintln!("    wrote {path}");
    for c in &bench.concurrency_cells {
        eprintln!(
            "    [{} clients] {:.0} qps, p50 {:.2} ms, p99 {:.2} ms \
             (result hits {:.0}%)",
            c.clients,
            c.qps,
            c.p50_ms,
            c.p99_ms,
            c.result_hit_rate * 100.0
        );
    }
    eprintln!(
        "    [cold vs hot] {:.2} ms cold, {:.3} ms hot ({:.0}x speedup); \
         byte-identical: {}",
        bench.cold_hot.cold_ms, bench.cold_hot.hot_ms, bench.cold_hot.speedup, bench.byte_identical
    );
    let latency = |f: fn(&crate::server_bench::ConcurrencyCell) -> f64| -> Vec<Cell> {
        bench
            .concurrency_cells
            .iter()
            .map(|c| Cell::Value(f(c) / 1e3))
            .collect()
    };
    vec![Report {
        id: "ext10".into(),
        title: format!(
            "Extension 10: multi-tenant query service latency by concurrent \
             clients ({} rows; see BENCH_PR9.json for throughput, cache hit \
             rates, and the cold-vs-hot result-cache cell)",
            bench.rows
        ),
        x_label: "clients",
        x_values: bench
            .concurrency_cells
            .iter()
            .map(|c| c.clients.to_string())
            .collect(),
        series: vec![
            ("p50 latency".to_string(), latency(|c| c.p50_ms)),
            ("p99 latency".to_string(), latency(|c| c.p99_ms)),
        ],
        metric: Metric::Time,
        with_relative: false,
    }]
}

fn figure_name(id: &str) -> String {
    format!("Figure {}", id.trim_start_matches("fig"))
}

fn metric_name(metric: Metric) -> &'static str {
    match metric {
        Metric::Time => "execution time",
        Metric::Memory => "memory consumption",
    }
}
