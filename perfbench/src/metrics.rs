//! The metric catalogue, latency samples, and the JSON result line.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by the untraced run of every workload:
/// `(name, unit)`. `request_*` is the latency of the unit of work the
/// workload's client waits for: one TCP query on `tcp-serial`, one 256-plan
/// batch on `scan-batch`, one 64-plan read burst on `rw-burst`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("request_p50_us", "us"),
    ("request_p90_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by the traced run of every workload:
/// `(name, unit)`. A layer the workload does not run reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Build: ZIndexBuilder and the RFDE fit, then serving start.
    ("build.build_s", "s"),
    ("build.density_fit_s", "s"),
    ("build.candidates_evaluated", "count"),
    ("build.leaf_count", "count"),
    ("build.index_bytes", "B"),
    ("serve.start_s", "s"),
    // Storage page scan and Z-index projection / look-ahead skipping.
    ("storage.points_scanned_per_result", "ratio"),
    ("storage.pages_scanned_per_plan", "count"),
    ("storage.ns_per_point_scanned", "ns"),
    ("zindex.bbs_checked_per_plan", "count"),
    ("zindex.leaves_skipped_per_plan", "count"),
    ("zindex.nodes_visited_per_plan", "count"),
    ("zindex.scan_share", "ratio"),
    // Engine: fused kernels, sharding and Auto.
    ("engine.fused_share", "ratio"),
    ("engine.shared_pages_per_batch", "count"),
    ("engine.shards_used_mean", "count"),
    ("engine.auto.range.sequential", "count"),
    ("engine.auto.range.fused", "count"),
    ("engine.auto.range.fused-parallel", "count"),
    ("engine.auto.point.sequential", "count"),
    ("engine.auto.point.fused", "count"),
    ("engine.auto.point.fused-parallel", "count"),
    ("engine.auto.knn.sequential", "count"),
    ("engine.auto.knn.fused", "count"),
    ("engine.auto.knn.fused-parallel", "count"),
    ("engine.auto.predicted_over_actual", "ratio"),
    ("engine.exec_p50_us", "us"),
    // Service: queue, window, workers and routing.
    ("service.queue_wait_p50_us", "us"),
    ("service.queue_wait_p99_us", "us"),
    ("service.route_p50_us", "us"),
    ("service.mean_batch_size", "count"),
    ("service.timer_cuts", "count"),
    ("service.capacity_cuts", "count"),
    ("service.window_end_us", "us"),
    ("service.degraded_batches", "count"),
    // Net: frames, sockets and the client.
    ("net.wire_p50_us", "us"),
    ("net.wire_p99_us", "us"),
    ("net.response_frame_bytes_mean", "B"),
    ("net.retries", "count"),
    ("net.reconnects", "count"),
    ("net.rejections", "count"),
    ("net.connections_severed", "count"),
    // Snapshot: VersionedIndex fork and publish.
    ("snapshot.apply_p50_us", "us"),
    ("snapshot.writer_lag_max_us", "us"),
    ("snapshot.epochs_published", "count"),
    ("snapshot.epochs_retired", "count"),
    ("snapshot.live_epochs_max", "count"),
    ("snapshot.rebuild_fallbacks", "count"),
    ("snapshot.epochs_per_read_burst", "count"),
    // Per-kind and write latencies of the untraced slices.
    ("range_p50_us", "us"),
    ("point_p50_us", "us"),
    ("knn_p50_us", "us"),
    ("write_p50_us", "us"),
    ("write_p90_us", "us"),
    ("error_rate", "ratio"),
    // Diagnostics.
    ("diag.request_p99_us", "us"),
    ("diag.write_p99_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Latency samples in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Sum of the samples in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Nearest-rank percentile `p` (0–100) in microseconds; 0 without
    /// samples.
    pub fn percentile_us(&self, p: f64) -> f64 {
        percentile(&self.0, p) / 1e3
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 when empty.
pub fn percentile(values: &[u64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of `values`; 0 when empty.
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one run measured: the values by metric name, plus the answer
/// accounting.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Plans (or write bursts) the run attempted.
    pub attempted: u64,
    /// Attempts that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<String, f64>,
    /// Provenance of the run: `(name, value)`, units in the names.
    pub provenance: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Whether every answer was right.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result object: every metric of the catalogue this run reports
    /// (per-layer when traced, end-to-end otherwise), in catalogue order.
    ///
    /// # Panics
    /// When an end-to-end metric was not measured: every workload must
    /// report all of them.
    pub fn result_json(&self, traced: bool) -> String {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|&(name, unit)| {
                let value = match self.values.get(name) {
                    Some(&value) => value,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric `{name}` was not measured"),
                };
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The provenance object, printed on the line before the result.
    pub fn provenance_json(&self) -> String {
        let fields: Vec<String> = self
            .provenance
            .iter()
            .map(|(name, value)| format!("\"{name}\": {}", number(*value)))
            .collect();
        format!("{{\"provenance\": {{{}}}}}", fields.join(", "))
    }
}

/// A JSON number: finite values with all their digits, anything else 0.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let values: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 90.0), 90.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&[7], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names must be unique");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!unit.is_empty() && unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn result_line_lists_the_catalogue() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for &(name, _) in END_TO_END {
            outcome.set(name, 1.5);
        }
        let line = outcome.result_json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        let traced = outcome.result_json(true);
        assert!(traced.contains("\"trace.overhead_pct\": {\"value\": 0, \"unit\": \"%\"}"));
    }
}
