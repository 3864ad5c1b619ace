//! The benchmark's result line: one JSON object with the correctness
//! verdict, the attempted/failed operation counts and every metric by
//! name with its unit.

use crate::stats::valid_metric_name;
use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Measured value, with all its digits.
    pub value: f64,
    /// Unit label (`ms`, `s`, `count`, ...).
    pub unit: &'static str,
}

/// What one benchmark invocation reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// True when every correctness check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted (simulations submitted plus correctness
    /// checks on the cold workloads; requests on the warm one).
    pub attempted: u64,
    /// Operations that failed: simulation errors, `ok: false`
    /// responses and correctness-check mismatches.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Renders the result line. Non-finite values (which JSON cannot
    /// carry) are written as `-1` and mark the report incorrect.
    ///
    /// # Panics
    ///
    /// Panics on a metric name outside the grammar or a duplicate name:
    /// both are bugs in the benchmark itself.
    pub fn to_json(&self) -> String {
        let mut correct = self.correct;
        let mut body = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(valid_metric_name(m.name), "bad metric name {:?}", m.name);
            assert!(
                self.metrics[..i].iter().all(|o| o.name != m.name),
                "duplicate metric {:?}",
                m.name
            );
            let value = if m.value.is_finite() {
                m.value
            } else {
                correct = false;
                -1.0
            };
            if i > 0 {
                body.push_str(", ");
            }
            let _ = write!(
                body,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            correct && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            body
        )
    }
}

/// Every per-layer metric, in print order. Layers a workload does not
/// exercise stay `0` (for example `snapshot.*` on the cold workloads,
/// or `isa.*` and `cache.*` on the warm one, which executes nothing).
#[derive(Debug, Clone, Copy, Default)]
pub struct PerLayer {
    pub tensor_sample_us: f64,
    pub tensor_build_us: f64,
    pub tensor_build_fail_ratio: f64,
    pub isa_decode_us: f64,
    pub isa_exec_ns_per_inst: f64,
    pub isa_insts: f64,
    pub cache_setup_us: f64,
    pub cache_model_ns_per_access: f64,
    pub cache_accesses: f64,
    pub cache_l1d_miss_ratio: f64,
    pub cache_l2_miss_ratio: f64,
    pub hw_measure_ms: f64,
    pub predict_train_ms: f64,
    pub pool_wait_us: f64,
    pub pool_utilization: f64,
    pub backend_trial_us: f64,
    pub memo_fingerprint_us: f64,
    pub memo_lookup_us: f64,
    pub memo_hit_ratio: f64,
    pub memo_executions: f64,
    pub search_propose_us: f64,
    pub score_us_per_trial: f64,
    pub snapshot_load_ms: f64,
    pub snapshot_entries: f64,
    pub serve_frame_us: f64,
    pub trace_coverage: f64,
    pub trace_overhead: f64,
}

impl PerLayer {
    /// Appends every per-layer metric to `report`, plus `error_rate`
    /// computed from the report's own counts.
    pub fn push_into(&self, report: &mut Report) {
        let rows: [(&'static str, f64, &'static str); 27] = [
            ("tensor.sample_us", self.tensor_sample_us, "us"),
            ("tensor.build_us", self.tensor_build_us, "us"),
            (
                "tensor.build_fail_ratio",
                self.tensor_build_fail_ratio,
                "ratio",
            ),
            ("isa.decode_us", self.isa_decode_us, "us"),
            ("isa.exec_ns_per_inst", self.isa_exec_ns_per_inst, "ns"),
            ("isa.insts", self.isa_insts, "count"),
            ("cache.setup_us", self.cache_setup_us, "us"),
            (
                "cache.model_ns_per_access",
                self.cache_model_ns_per_access,
                "ns",
            ),
            ("cache.accesses", self.cache_accesses, "count"),
            ("cache.l1d_miss_ratio", self.cache_l1d_miss_ratio, "ratio"),
            ("cache.l2_miss_ratio", self.cache_l2_miss_ratio, "ratio"),
            ("hw.measure_ms", self.hw_measure_ms, "ms"),
            ("predict.train_ms", self.predict_train_ms, "ms"),
            ("pool.wait_us", self.pool_wait_us, "us"),
            ("pool.utilization", self.pool_utilization, "ratio"),
            ("backend.trial_us", self.backend_trial_us, "us"),
            ("memo.fingerprint_us", self.memo_fingerprint_us, "us"),
            ("memo.lookup_us", self.memo_lookup_us, "us"),
            ("memo.hit_ratio", self.memo_hit_ratio, "ratio"),
            ("memo.executions", self.memo_executions, "count"),
            ("search.propose_us", self.search_propose_us, "us"),
            ("score.us_per_trial", self.score_us_per_trial, "us"),
            ("snapshot.load_ms", self.snapshot_load_ms, "ms"),
            ("snapshot.entries", self.snapshot_entries, "count"),
            ("serve.frame_us", self.serve_frame_us, "us"),
            ("trace.coverage", self.trace_coverage, "ratio"),
            ("trace.overhead", self.trace_overhead, "ratio"),
        ];
        for (name, value, unit) in rows {
            report.push(name, value, unit);
        }
        let rate = report.failed as f64 / report.attempted.max(1) as f64;
        report.push("error_rate", rate, "ratio");
    }
}
