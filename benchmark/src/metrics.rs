//! The metric registry: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` lists exactly these (a test compares them).

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Measured with tracing off; what a user of the system sees.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    lower("op_p50_ms", "ms"),
    higher("ops_per_s", "1/s"),
    lower("peak_rss_mb", "MB"),
    lower("hit_p50_ms", "ms"),
    lower("miss_p50_ms", "ms"),
    lower("mutation_p50_ms", "ms"),
];

/// Measured in the traced run, grouped by layer (= workspace crate).
pub const PER_LAYER: &[MetricDef] = &[
    lower("parser.parse_us", "us"),
    lower("analyzer.analyze_us", "us"),
    lower("optimizer.optimize_us", "us"),
    lower("physical.plan_us", "us"),
    lower("physical.scan_ms", "ms"),
    lower("physical.local_ms", "ms"),
    lower("physical.merge_ms", "ms"),
    lower("exec.rows_scanned", "count"),
    lower("exec.rows_exchanged", "count"),
    lower("exec.batches_emitted", "count"),
    lower("exec.peak_rows_in_flight", "count"),
    lower("exec.peak_tracked_bytes", "B"),
    higher("exec.prefilter_rows_dropped", "count"),
    higher("exec.partitions_pruned", "count"),
    lower("exec.merge_rounds", "count"),
    lower("exec.retries_attempted", "count"),
    lower("exec.degraded_paths", "count"),
    lower("skyline.dominance_tests", "count"),
    higher("skyline.simd_tests", "count"),
    lower("skyline.max_window", "count"),
    lower("skyline.result_rows", "count"),
    lower("skyline.tests_per_row", "ratio"),
    higher("skyline.global_survivor_share", "ratio"),
    lower("skyline.local_isolated_ms", "ms"),
    lower("skyline.ns_per_test", "ns"),
    lower("skyline.view_build_ms", "ms"),
    lower("skyline.view_insert_us", "us"),
    lower("skyline.view_delete_us", "us"),
    lower("skyline.view_rebuilds", "count"),
    higher("storage.write_mb_per_s", "MB/s"),
    lower("storage.bytes_per_row", "B/row"),
    lower("storage.open_ms", "ms"),
    lower("storage.read_block_us", "us"),
    lower("storage.decode_block_us", "us"),
    lower("storage.blocks_read", "count"),
    higher("storage.blocks_skipped_minmax", "count"),
    higher("storage.blocks_skipped_dominance", "count"),
    lower("storage.bytes_decoded", "B"),
    higher("storage.skip_share", "ratio"),
    lower("core.sql_us", "us"),
    lower("core.collect_ms", "ms"),
    lower("core.engine_elapsed_ms", "ms"),
    lower("core.insert_rows_ms", "ms"),
    lower("core.delete_where_ms", "ms"),
    lower("core.op_p90_ms", "ms"),
    lower("server.render_us", "us"),
    lower("server.service_hit_us", "us"),
    lower("server.service_miss_ms", "ms"),
    lower("server.service_mutation_ms", "ms"),
    lower("server.wire_self_us", "us"),
    lower("server.service_self_ms", "ms"),
    lower("server.mutation_self_ms", "ms"),
    higher("server.result_hits", "count"),
    lower("server.result_misses", "count"),
    higher("server.plan_hits", "count"),
    lower("server.plan_misses", "count"),
    higher("server.view_count", "count"),
    lower("server.reply_bytes", "B"),
    lower("server.op_p99_ms", "ms"),
    lower("trace.overhead_share", "ratio"),
    higher("trace.span_coverage", "ratio"),
];

/// Measured values by metric name. A metric that a workload does not
/// exercise (`storage.*` on an in-memory table) stays 0.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "metric '{name}' is not in the registry"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The outcome of one run of one workload.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Printed beside the metrics but not metrics themselves: `verify_s`,
    /// sample counts, per-class op counts.
    pub notes: Vec<(String, String)>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line of the driver's contract: every metric of `defs`.
    pub fn json_line(&self, defs: &[MetricDef]) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    self.metrics.get(m.name),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The table a person reads: one metric per line, with its unit.
    pub fn table(&self, workload: &str, defs: &[MetricDef]) -> String {
        let mut out = format!(
            "== {workload}: attempted {} failed {} failed_share {}\n",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for m in defs {
            out.push_str(&format!(
                "{:<34} {:>16.4} {}\n",
                m.name,
                self.metrics.get(m.name),
                m.unit
            ));
        }
        for (k, v) in &self.notes {
            out.push_str(&format!("  {k}: {v}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must name exactly the metrics the command prints,
    /// with the same units and directions.
    #[test]
    fn benchmark_json_lists_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
                m.name, m.unit
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"better\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for w in crate::workload::WORKLOADS {
            assert!(
                json.contains(&format!("{{\"name\": \"{w}\", \"why\":")),
                "workload {w}"
            );
        }
    }

    #[test]
    fn json_line_has_every_metric_with_all_digits() {
        let mut r = RunResult {
            attempted: 3,
            ..RunResult::default()
        };
        r.metrics.set("op_p50_ms", 1.203456789);
        let line = r.json_line(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"op_p50_ms\": {\"value\": 1.203456789, \"unit\": \"ms\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
    }
}
