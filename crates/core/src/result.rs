//! Query results: rows plus the measurements the paper's evaluation
//! reports (wall time, dominance tests, peak memory).

use std::time::Duration;

use sparkline_common::{Row, SchemaRef, Value};
use sparkline_exec::MetricsSnapshot;

/// The outcome of executing a query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output schema.
    pub schema: SchemaRef,
    /// Result rows.
    pub rows: Vec<Row>,
    /// Execution counters (dominance tests, rows exchanged, ...).
    pub metrics: MetricsSnapshot,
    /// Wall-clock execution time (excludes parsing/planning).
    pub elapsed: Duration,
    /// Peak tracked memory including the per-executor overhead — the
    /// quantity plotted in the paper's Appendix C memory charts. Tracked
    /// are the buffers operators hold, each as it grows
    /// (`sparkline_exec::memory`: what breakers drain, skyline windows,
    /// aggregation and `DISTINCT` state, disk blocks), not
    /// [`rows`](Self::rows), which the caller holds. `EXPLAIN ANALYZE`
    /// prints it as `peak memory`.
    pub peak_memory_bytes: usize,
}

impl QueryResult {
    /// Number of result rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Rows rendered as sorted display strings (order-insensitive
    /// comparison helper used widely in tests).
    pub fn sorted_display(&self) -> Vec<String> {
        let mut v: Vec<String> = self.rows.iter().map(|r| r.to_string()).collect();
        v.sort();
        v
    }

    /// Pretty-print as an aligned text table (for examples and the CLI).
    pub fn format_table(&self) -> String {
        let headers: Vec<String> = self
            .schema
            .fields()
            .iter()
            .map(|f| f.name().to_string())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| {
                row.values()
                    .iter()
                    .enumerate()
                    .map(|(i, v)| {
                        let s = render(v);
                        if i < widths.len() {
                            widths[i] = widths[i].max(s.len());
                        }
                        s
                    })
                    .collect()
            })
            .collect();

        let mut out = String::new();
        let sep = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        sep(&mut out);
        out.push('|');
        for (h, w) in headers.iter().zip(&widths) {
            out.push_str(&format!(" {h:<w$} |"));
        }
        out.push('\n');
        sep(&mut out);
        for row in &cells {
            out.push('|');
            for (c, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {c:<w$} |"));
            }
            out.push('\n');
        }
        sep(&mut out);
        out
    }
}

fn render(v: &Value) -> String {
    v.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkline_common::{DataType, Field, Schema};

    #[test]
    fn table_formatting() {
        let result = QueryResult {
            schema: Schema::new(vec![
                Field::new("price", DataType::Int64, false),
                Field::new("rating", DataType::Int64, true),
            ])
            .into_ref(),
            rows: vec![
                Row::new(vec![Value::Int64(50), Value::Int64(9)]),
                Row::new(vec![Value::Int64(120), Value::Null]),
            ],
            metrics: MetricsSnapshot::default(),
            elapsed: Duration::from_millis(5),
            peak_memory_bytes: 0,
        };
        let t = result.format_table();
        assert!(t.contains("| price | rating |"), "{t}");
        assert!(t.contains("| 120   | NULL   |"), "{t}");
        assert_eq!(result.num_rows(), 2);
        assert_eq!(result.sorted_display().len(), 2);
    }
}
