//! `paper_eval` — regenerate the tables and figures of the EDBT 2023
//! skyline paper's evaluation at reproduction scale, plus the two
//! extension experiments ext9 (disk scans with block skipping, writes
//! `BENCH_PR8.json`) and ext10 (concurrent clients of the TCP server,
//! writes `BENCH_PR9.json`).
//!
//! ```bash
//! # Everything (figures 3–19 + relative tables 3–12, ext9, ext10):
//! cargo run --release -p sparkline-bench --bin paper_eval -- --all
//!
//! # One experiment, reduced grid, CSV output:
//! cargo run --release -p sparkline-bench --bin paper_eval -- fig3 --quick --out results/
//!
//! # List experiments:
//! cargo run --release -p sparkline-bench --bin paper_eval -- list
//! ```
//!
//! Options: `--scale F` (dataset scale, default 1.0 ≙ 1:100 of the paper),
//! `--timeout SECS` (default 30), `--seed N`, `--quick` / `--smoke`
//! (reduced grids),
//! `--out DIR` (CSV dumps).

use std::io::Write;
use std::time::Duration;

use sparkline_bench::experiments::{all_ids, run};
use sparkline_bench::report::{format_relative_table, format_series_table, to_csv};
use sparkline_bench::{EvalContext, EvalSettings};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage_and_exit();
    }

    let mut settings = EvalSettings::default();
    let mut quick = false;
    let mut out_dir: Option<String> = None;
    let mut selected: Vec<String> = Vec::new();
    let mut all = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                settings.scale = next_value(&args, &mut i, "--scale");
            }
            "--timeout" => {
                let secs: f64 = next_value(&args, &mut i, "--timeout");
                settings.timeout = Duration::from_secs_f64(secs);
            }
            "--seed" => {
                settings.seed = next_value(&args, &mut i, "--seed");
            }
            // `--smoke` is the CI alias: same reduced grids, named for the
            // per-push smoke runs of ext9 and ext10.
            "--quick" | "--smoke" => quick = true,
            "--all" => all = true,
            "--out" => {
                i += 1;
                out_dir = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--out requires a directory");
                    std::process::exit(2);
                }));
            }
            "list" => {
                println!("available experiments: {}", all_ids().join(", "));
                println!("(fig3–fig7 also emit the Appendix D relative tables 3–12;");
                println!(
                    " ext9 is disk scans with block skipping, ext10 concurrent server clients)"
                );
                return;
            }
            "--help" | "-h" => usage_and_exit(),
            other if other.starts_with("fig") || other.starts_with("ext") => {
                selected.push(other.to_string())
            }
            other => {
                eprintln!("unknown argument '{other}'");
                usage_and_exit();
            }
        }
        i += 1;
    }

    let ids: Vec<String> = if all {
        all_ids().iter().map(|s| s.to_string()).collect()
    } else if selected.is_empty() {
        eprintln!("no experiments selected (use --all or name figures)");
        usage_and_exit();
    } else {
        selected
    };

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }

    println!(
        "# sparkline paper evaluation — scale {} (1.0 = 1:100 of the paper), \
         timeout {:?}, seed {}{}",
        settings.scale,
        settings.timeout,
        settings.seed,
        if quick { ", quick grids" } else { "" }
    );
    println!(
        "# Shapes (who wins, scaling, crossovers, timeouts) are the \
         reproduction target; absolute seconds are not.\n"
    );

    let mut ctx = EvalContext::new(settings);
    let started = std::time::Instant::now();
    for id in &ids {
        eprintln!("== running {id} ==");
        let reports = run(id, &mut ctx, quick);
        for (k, report) in reports.iter().enumerate() {
            println!(
                "{}",
                format_series_table(
                    &report.title,
                    report.x_label,
                    &report.x_values,
                    &report.series,
                    report.metric,
                )
            );
            if report.with_relative {
                println!(
                    "{}",
                    format_relative_table(
                        &report.title,
                        &report.x_values,
                        &report.series,
                        "reference",
                    )
                );
            }
            if let Some(dir) = &out_dir {
                let csv = to_csv(
                    &format!("{id}_{k}"),
                    report.x_label,
                    &report.x_values,
                    &report.series,
                    report.metric,
                );
                let path = format!("{dir}/{id}_{k}.csv");
                let mut f = std::fs::File::create(&path).expect("create csv");
                f.write_all(csv.as_bytes()).expect("write csv");
                eprintln!("  wrote {path}");
            }
        }
    }
    eprintln!("== done in {:.1?} ==", started.elapsed());
}

fn next_value<T: std::str::FromStr>(args: &[String], i: &mut usize, flag: &str) -> T {
    *i += 1;
    args.get(*i)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            eprintln!("{flag} requires a value");
            std::process::exit(2);
        })
}

fn usage_and_exit() -> ! {
    eprintln!(
        "usage: paper_eval [--all | fig3 fig4 ...] [--scale F] [--timeout SECS] \
         [--seed N] [--quick|--smoke] [--out DIR] | list"
    );
    std::process::exit(2);
}
