//! Command line of the benchmark. See `README.md`.
//!
//! `--workload W --seed N --seconds S --trace 0|1` runs one workload in
//! this process and prints, as the last line of standard output, the
//! result object of the driver's contract. Without `--workload` (or with
//! `--repeat N`) it runs one child process per workload and run, so that
//! every run has its own peak RSS.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use sparkline_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use sparkline_benchmark::stats::{median, quartiles};
use sparkline_benchmark::workload::WORKLOADS;
use sparkline_benchmark::{run_workload, served, RunArgs};

const USAGE: &str = "usage: sparkline-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--repeat N] [--scale F] [--smoke] [--observe-cold-view]";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
    scale: f64,
    observe_cold_view: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: 15.0,
        trace: false,
        repeat: None,
        scale: 1.0,
        observe_cold_view: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        let bad = |what: &str| format!("{flag}: {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = value()?.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => cli.seconds = value()?.parse().map_err(|_| bad("not a number"))?,
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--repeat" => cli.repeat = Some(value()?.parse().map_err(|_| bad("not a count"))?),
            "--scale" => cli.scale = value()?.parse().map_err(|_| bad("not a number"))?,
            "--smoke" => (cli.scale, cli.seconds) = (0.05, 1.0),
            "--observe-cold-view" => cli.observe_cold_view = true,
            _ => return Err(format!("unknown argument '{flag}'\n{USAGE}")),
        }
    }
    let in_range = cli.seconds > 0.0 && cli.seconds <= 60.0 && cli.scale > 0.0;
    if !in_range {
        return Err(format!(
            "--seconds must be in (0, 60] and --scale positive\n{USAGE}"
        ));
    }
    if let Some(w) = &cli.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "no workload named '{w}'; the workloads are {WORKLOADS:?}"
            ));
        }
    }
    Ok(cli)
}

/// SPKB and trace files go under the benchmark's own directory, wherever
/// in the checkout the command was started from.
fn out_dir() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn defs(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Run one workload here and print its table and result line.
fn run_here(workload: &str, cli: &Cli) -> ExitCode {
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds,
        scale: cli.scale,
        out_dir: out_dir(),
    };
    match run_workload(workload, &args, cli.trace) {
        Ok(result) => {
            print!("{}", result.table(workload, defs(cli.trace)));
            println!("{}", result.json_line(defs(cli.trace)));
            if result.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{workload}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The value of `"name": {"value": X` in a result line this program wrote.
fn value_in(line: &str, name: &str) -> Option<f64> {
    let rest = line.split(&format!("\"{name}\": {{\"value\": ")).nth(1)?;
    rest.split(',').next()?.parse().ok()
}

/// Run one workload in a child process; its table is echoed, its result
/// line returned. `None` when the child failed or found a wrong answer.
fn run_child(workload: &str, seed: u64, cli: &Cli, quiet: bool) -> Option<String> {
    let exe = std::env::current_exe().expect("own executable path");
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &cli.seconds.to_string(),
            "--scale",
            &cli.scale.to_string(),
        ])
        .args(["--trace", if cli.trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("start a child run");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (table, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    if !quiet {
        println!("{table}");
    }
    (output.status.success() && line.starts_with("{\"correct\": true")).then(|| line.to_string())
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn print_environment() {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!("nproc: {nproc}\ncpu: {cpu}");
    println!("rustc: {}", first_line_of("rustc", &["-V"]));
    println!("commit: {}", first_line_of("git", &["rev-parse", "HEAD"]));
}

/// `--repeat N`: N runs per workload, each with another seed; median,
/// quartiles and (Q3 − Q1) ÷ median per metric — the spread the driver
/// computes.
fn repeat(workloads: &[&str], n: usize, cli: &Cli) -> ExitCode {
    print_environment();
    let mut all_ok = true;
    for workload in workloads {
        let lines: Vec<String> = (0..n as u64)
            .filter_map(|i| run_child(workload, cli.seed + i, cli, true))
            .collect();
        all_ok &= lines.len() == n;
        println!(
            "== {workload}: {} of {n} runs correct, seeds {}..{}",
            lines.len(),
            cli.seed,
            cli.seed + n as u64
        );
        println!(
            "{:<34} {:>14} {:>14} {:>14} {:>8}  unit",
            "metric", "q1", "median", "q3", "spread"
        );
        for m in defs(cli.trace) {
            let values: Vec<f64> = lines.iter().filter_map(|l| value_in(l, m.name)).collect();
            let [q1, _, q3] = quartiles(&values);
            let mid = median(&values);
            let spread = if mid == 0.0 { 0.0 } else { (q3 - q1) / mid };
            println!(
                "{:<34} {q1:>14.4} {mid:>14.4} {q3:>14.4} {spread:>8.4}  {}",
                m.name, m.unit
            );
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if cli.observe_cold_view {
        println!("{:>8} {:>12} {:>14}", "rows", "collect_ms", "view_build_ms");
        for rows in [20_000, 50_000, 200_000] {
            match served::cold_view_observation(rows, cli.seed) {
                Ok((collect_ms, build_ms)) => {
                    println!("{rows:>8} {collect_ms:>12.1} {build_ms:>14.1}")
                }
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }
    let selected: Vec<&str> = match &cli.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    match (cli.repeat, &cli.workload) {
        (Some(n), _) => repeat(&selected, n, &cli),
        (None, Some(workload)) => run_here(workload, &cli),
        (None, None) => {
            // Every workload, each in its own process.
            let failed: Vec<&&str> = selected
                .iter()
                .filter(|w| run_child(w, cli.seed, &cli, false).is_none())
                .collect();
            if failed.is_empty() {
                ExitCode::SUCCESS
            } else {
                eprintln!("failed: {failed:?}");
                ExitCode::FAILURE
            }
        }
    }
}
