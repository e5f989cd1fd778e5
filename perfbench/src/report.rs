//! What a run reports: a human-readable block (every metric by name,
//! with its unit and sample count) and, as the last line of standard
//! output, one JSON object for machines.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (name, unit), reported by every untraced run.
/// Each workload's "operation" is its user-facing call: one cold
/// `compute_study` on `study`, one `Service::call` on `serve_*`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (name, unit), reported by every traced run. A
/// layer a workload does not exercise reads 0. `_ms` times are totals
/// over the run; `_us` times are means per operation.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("workloads.build_ms", "ms"),
    ("core.vrp_ms", "ms"),
    ("core.vrs_ms", "ms"),
    ("core.vrs_specialized", "count"),
    ("vm.lower_us", "us"),
    ("vm.exec_ms", "ms"),
    ("vm.trace_ms", "ms"),
    ("vm.batch_ms", "ms"),
    ("vm.steps", "count"),
    ("vm.msteps_per_s", "M/s"),
    ("sim.new_us", "us"),
    ("sim.feed_ms", "ms"),
    ("sim.mrec_per_s", "M/s"),
    ("sim.records", "count"),
    ("sim.cycles", "count"),
    ("sim.icache_misses", "count"),
    ("sim.dcache_misses", "count"),
    ("sim.l2_misses", "count"),
    ("sim.mispredicts", "count"),
    ("power.report_us", "us"),
    ("power.vrp_sw_savings_pct", "%"),
    ("lab.run_ms_p50", "ms"),
    ("lab.run_ms_max", "ms"),
    ("lab.pool_efficiency", "fraction"),
    ("lab.unattributed_frac", "fraction"),
    ("json.study_save_ms", "ms"),
    ("json.study_load_ms", "ms"),
    ("json.study_bytes", "bytes"),
    ("json.parse_us", "us"),
    ("json.render_us", "us"),
    ("program.decode_us", "us"),
    ("serve.digest_us", "us"),
    ("serve.compute_us", "us"),
    ("serve.wait_us", "us"),
    ("serve.computed", "count"),
    ("serve.result_hits", "count"),
    ("serve.evictions", "count"),
    ("serve.gate_rejects", "count"),
    ("serve.hit_ratio", "fraction"),
    ("trace.overhead_frac", "fraction"),
    ("trace.spans", "count"),
];

/// Per-layer values gathered by a traced run, keyed by metric name.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl Layers {
    /// Set a per-layer metric summarizing `samples` samples.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`] (a bug in this crate).
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown per-layer metric {name}");
        self.values.insert(name, (value, samples));
    }

    /// Every [`PER_LAYER`] metric, in catalogue order; unset ones read 0.
    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let (value, samples) = self.values.get(name).copied().unwrap_or((0.0, 0));
                Metric::new(name, value, unit, samples)
            })
            .collect()
    }
}

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured, with all its digits.
    pub value: f64,
    /// Unit (`s`, `ms`, `us`, `1/s`, `MB`, `count`, ...).
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: usize,
}

impl Metric {
    /// A metric summarizing `samples` samples.
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric { name, value, unit, samples }
    }
}

/// The result of one run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (study runs and loads, or service calls).
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// The metrics of this run (end-to-end untraced, per-layer traced).
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines: metrics under their per-workload names
    /// (`study_s`, `call_p50_us`, ...),
    /// stage tables, failure details.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Record that one attempted operation failed, and why (the first
    /// few reasons are kept for the report).
    pub fn fail(&mut self, why: impl Into<String>) {
        self.fail_many(1, why);
    }

    /// Record that `n` attempted operations failed for one reason.
    pub fn fail_many(&mut self, n: u64, why: impl Into<String>) {
        self.failed += n;
        if self.notes.iter().filter(|n| n.starts_with("FAIL")).count() < 20 {
            self.notes.push(format!("FAIL {}", why.into()));
        }
    }

    /// Failed over attempted operations.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// True when every operation passed its check.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Look a metric up by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The human-readable block.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ =
                writeln!(out, "  {:<24} {:>16.6} {:<9} (n={})", m.name, m.value, m.unit, m.samples);
        }
        let _ = writeln!(
            out,
            "  {:<24} {:>16.6} {:<9} ({}/{})",
            "fail_frac",
            self.fail_frac(),
            "fraction",
            self.failed,
            self.attempted
        );
        for note in &self.notes {
            let _ = writeln!(out, "  {note}");
        }
        out
    }

    /// The one-line JSON result.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.attempt(10);
        o.metrics.push(Metric::new("setup_s", 0.25, "s", 3));
        o.metrics.push(Metric::new("ops_per_s", 1234.0, "1/s", 10));
        let line = o.json_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"ops_per_s\": {\"value\": 1234.0, \"unit\": \"1/s\"}}}"
        );
        let parsed = og_json::parse(&line).expect("the result line is JSON");
        assert_eq!(parsed.get("attempted").and_then(|j| j.as_num()), Some(10.0));
    }

    #[test]
    fn a_failure_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.attempt(4);
        o.fail("digest mismatch");
        assert!(!o.correct());
        assert_eq!(o.fail_frac(), 0.25);
    }
}
