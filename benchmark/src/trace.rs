//! Span recording for the traced run. Spans are taken by the benchmark's
//! own code around calls into each crate's public functions, kept in
//! memory, and written to `<out>/<workload>.trace.json` at exit.

use std::path::Path;
use std::time::Instant;

use crate::metrics::{Metrics, PER_LAYER};

/// The six calls every in-process op is split into, in order. Their spans
/// are the children of the op's own span and cover it but for the clock
/// reads between them.
pub const PIPELINE: [&str; 6] = [
    "parser.parse",
    "analyzer.analyze",
    "optimizer.optimize",
    "physical.plan",
    "physical.collect",
    "server.render",
];

#[derive(Debug, Clone)]
pub struct Span {
    pub op_id: u32,
    pub name: &'static str,
    /// Name of the span that caused this one; `None` for an op's root.
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_op: u32,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_op: 0,
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    pub fn new_op(&mut self) -> u32 {
        self.next_op += 1;
        self.next_op
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Close a span that began at `start_ns` (an op's root span, which
    /// encloses the spans recorded since).
    pub fn record(
        &mut self,
        op_id: u32,
        name: &'static str,
        parent: Option<&'static str>,
        start_ns: u64,
    ) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            op_id,
            name,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Run `f` as span `name` of op `op_id`.
    pub fn span<T>(
        &mut self,
        op_id: u32,
        name: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now_ns();
        let out = f();
        self.record(op_id, name, parent, start_ns);
        out
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn millis_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos() as f64 / 1e6)
            .collect()
    }

    /// Median over ops of (time covered by child spans ÷ the op's span).
    pub fn span_coverage(&self, root: &str) -> f64 {
        let shares: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == root && s.parent.is_none())
            .map(|op| {
                let children: u64 = self
                    .spans
                    .iter()
                    .filter(|c| c.op_id == op.op_id && c.parent == Some(op.name))
                    .map(Span::nanos)
                    .sum();
                children as f64 / op.nanos().max(1) as f64
            })
            .collect();
        crate::stats::median(&shares)
    }

    /// Write the spans and the metrics computed apart from them (marked
    /// `derived`: sub-tree, isolated-layer and served-depth measurements).
    pub fn write(
        &self,
        path: &Path,
        workload: &str,
        seed: u64,
        derived: &Metrics,
    ) -> std::io::Result<()> {
        let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            out.push_str(&format!(
                "{{\"op_id\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}{}\n",
                s.op_id,
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("], \"derived\": {");
        let entries: Vec<String> = PER_LAYER
            .iter()
            .map(|m| format!("\"{}\": {}", m.name, derived.get(m.name)))
            .collect();
        out.push_str(&entries.join(", "));
        out.push_str("}}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_cover_their_op() {
        let mut t = Tracer::default();
        let op = t.new_op();
        t.span(op, "op", None, || ());
        // Fabricate exact times: op 0..100, children 10..40 and 40..95.
        t.spans[0] = Span {
            op_id: op,
            name: "op",
            parent: None,
            start_ns: 0,
            end_ns: 100,
        };
        t.spans.push(Span {
            op_id: op,
            name: "a",
            parent: Some("op"),
            start_ns: 10,
            end_ns: 40,
        });
        t.spans.push(Span {
            op_id: op,
            name: "b",
            parent: Some("op"),
            start_ns: 40,
            end_ns: 95,
        });
        t.spans.push(Span {
            op_id: op + 1,
            name: "a",
            parent: Some("op"),
            start_ns: 0,
            end_ns: 50,
        });
        assert_eq!(t.span_coverage("op"), 0.85);
        assert_eq!(t.millis_of("a"), vec![30.0 / 1e6, 50.0 / 1e6]);
    }
}
