//! Rendering of experiment results: paper-style series tables (Figures)
//! and relative-time tables (Appendix D, Tables 3–12), plus CSV output.

use std::fmt::Write as _;

use crate::runner::{Measurement, Metric};

/// One rendered cell.
#[derive(Debug, Clone, Copy)]
pub enum Cell {
    /// A measured value.
    Value(f64),
    /// Timeout ("t.o." in the paper's tables).
    Timeout,
    /// Not measured / not applicable ("n.a.").
    NotApplicable,
}

impl Cell {
    /// Extract a cell from a measurement for the chosen metric.
    pub fn from_measurement(m: &Measurement, metric: Metric) -> Cell {
        if m.timed_out() {
            return Cell::Timeout;
        }
        match metric {
            Metric::Time => Cell::Value(m.secs.unwrap_or_default()),
            Metric::Memory => Cell::Value(m.peak_memory as f64 / (1024.0 * 1024.0)),
        }
    }

    fn render(&self, metric: Metric) -> String {
        match self {
            Cell::Value(v) => match metric {
                Metric::Time => format!("{v:.3}"),
                Metric::Memory => format!("{v:.2}"),
            },
            Cell::Timeout => "t.o.".to_string(),
            Cell::NotApplicable => "n.a.".to_string(),
        }
    }
}

/// Render a figure-style table: one row per series (algorithm), one
/// column per x value. `metric` controls units; time in seconds, memory
/// in MB.
pub fn format_series_table(
    title: &str,
    x_label: &str,
    x_values: &[String],
    series: &[(String, Vec<Cell>)],
    metric: Metric,
) -> String {
    let unit = match metric {
        Metric::Time => "execution time [s]",
        Metric::Memory => "peak memory [MB]",
    };
    let mut out = String::new();
    let _ = writeln!(out, "## {title}");
    let _ = writeln!(out, "({unit}; rows = algorithm, columns = {x_label})");
    let name_w = series
        .iter()
        .map(|(n, _)| n.len())
        .max()
        .unwrap_or(9)
        .max("algorithm".len());
    let col_w = x_values.iter().map(|x| x.len()).max().unwrap_or(6).max(8);
    let _ = write!(out, "{:<name_w$}", "algorithm");
    for x in x_values {
        let _ = write!(out, " | {x:>col_w$}");
    }
    out.push('\n');
    let _ = write!(out, "{}", "-".repeat(name_w));
    for _ in x_values {
        let _ = write!(out, "-+-{}", "-".repeat(col_w));
    }
    out.push('\n');
    for (name, cells) in series {
        let _ = write!(out, "{name:<name_w$}");
        for cell in cells {
            let _ = write!(out, " | {:>col_w$}", cell.render(metric));
        }
        out.push('\n');
    }
    out
}

/// Render an Appendix-D-style relative table: absolute values plus each
/// algorithm as a percentage of the reference series (100 %). `n.a.` for
/// columns where the reference timed out, as in the paper.
pub fn format_relative_table(
    title: &str,
    x_values: &[String],
    series: &[(String, Vec<Cell>)],
    reference_name: &str,
) -> String {
    let mut out = String::new();
    let Some((_, reference)) = series.iter().find(|(n, _)| n == reference_name) else {
        return format!("## {title}\n(reference series missing)\n");
    };
    let name_w = series.iter().map(|(n, _)| n.len()).max().unwrap_or(9);
    let col_w = x_values.iter().map(|x| x.len()).max().unwrap_or(6).max(8);
    let _ = writeln!(out, "## {title} — relative to '{reference_name}' (=100%)");
    for (name, cells) in series {
        let _ = write!(out, "{name:<name_w$}");
        for (cell, r) in cells.iter().zip(reference) {
            let rendered = match (cell, r) {
                (_, Cell::Timeout | Cell::NotApplicable) => "n.a.".to_string(),
                (Cell::Timeout, _) => "t.o.".to_string(),
                (Cell::NotApplicable, _) => "n.a.".to_string(),
                (Cell::Value(v), Cell::Value(rv)) if *rv > 0.0 => {
                    format!("{:.2}%", 100.0 * v / rv)
                }
                _ => "n.a.".to_string(),
            };
            let _ = write!(out, " | {rendered:>col_w$}");
        }
        out.push('\n');
    }
    out
}

/// Serialize a result grid as CSV (one line per series/x pair).
pub fn to_csv(
    experiment: &str,
    x_label: &str,
    x_values: &[String],
    series: &[(String, Vec<Cell>)],
    metric: Metric,
) -> String {
    let mut out = String::from("experiment,series,x_label,x,metric,value\n");
    let metric_name = match metric {
        Metric::Time => "time_s",
        Metric::Memory => "memory_mb",
    };
    for (name, cells) in series {
        for (x, cell) in x_values.iter().zip(cells) {
            let value = match cell {
                Cell::Value(v) => format!("{v}"),
                Cell::Timeout => "timeout".to_string(),
                Cell::NotApplicable => "".to_string(),
            };
            let _ = writeln!(
                out,
                "{experiment},{name},{x_label},{x},{metric_name},{value}"
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Vec<String>, Vec<(String, Vec<Cell>)>) {
        let x = vec!["1".to_string(), "2".to_string()];
        let series = vec![
            (
                "reference".to_string(),
                vec![Cell::Value(10.0), Cell::Timeout],
            ),
            (
                "distributed complete".to_string(),
                vec![Cell::Value(4.0), Cell::Value(8.0)],
            ),
        ];
        (x, series)
    }

    #[test]
    fn series_table_renders() {
        let (x, series) = sample();
        let t = format_series_table("Fig X", "dims", &x, &series, Metric::Time);
        assert!(t.contains("Fig X"));
        assert!(t.contains("t.o."));
        assert!(t.contains("4.000"));
    }

    #[test]
    fn relative_table_uses_reference() {
        let (x, series) = sample();
        let t = format_relative_table("Table X", &x, &series, "reference");
        assert!(t.contains("100.00%"), "{t}");
        assert!(t.contains("40.00%"), "{t}");
        // Column 2: reference timed out → n.a. for everyone.
        assert!(t.contains("n.a."), "{t}");
    }

    #[test]
    fn csv_output() {
        let (x, series) = sample();
        let csv = to_csv("fig3", "dims", &x, &series, Metric::Time);
        assert!(csv.contains("fig3,reference,dims,2,time_s,timeout"));
        assert!(csv.contains("fig3,distributed complete,dims,1,time_s,4"));
    }
}
