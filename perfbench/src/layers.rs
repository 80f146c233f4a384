//! Per-layer counts, taken from the reports the program returns.

use std::collections::BTreeMap;
use wazi_core::{
    BatchReport, BuildReport, ChosenStrategy, ExecStats, PartitionDecision, SpatialIndex,
    StrategyDecisions, ZIndex,
};
use wazi_service::{QueryResponse, ServiceStats};

use crate::inputs::SetupSeconds;
use crate::metrics::{median_f64, percentile, Outcome};
use crate::trace::Trace;

/// Work counters summed over a run; batch-level work seen through service
/// responses is shared out evenly among the batch's queries.
#[derive(Debug, Clone, Copy, Default)]
struct WorkSum {
    nodes_visited: f64,
    bbs_checked: f64,
    pages_scanned: f64,
    points_scanned: f64,
    results: f64,
    leaves_skipped: f64,
    projection_ns: f64,
    scan_ns: f64,
}

impl WorkSum {
    fn add(&mut self, stats: &ExecStats, weight: f64) {
        self.nodes_visited += stats.nodes_visited as f64 * weight;
        self.bbs_checked += stats.bbs_checked as f64 * weight;
        self.pages_scanned += stats.pages_scanned as f64 * weight;
        self.points_scanned += stats.points_scanned as f64 * weight;
        self.results += stats.results as f64 * weight;
        self.leaves_skipped += stats.leaves_skipped as f64 * weight;
        self.projection_ns += stats.projection_ns as f64 * weight;
        self.scan_ns += stats.scan_ns as f64 * weight;
    }
}

/// Storage, Z-index and engine counters accumulated from `BatchReport`s
/// (engine called directly) or `QueryResponse`s (engine behind the
/// service).
#[derive(Debug, Clone, Default)]
pub struct EngineTally {
    plans: f64,
    batches: f64,
    fused_plans: f64,
    shards_used: f64,
    shared_pages: f64,
    work: WorkSum,
    auto: BTreeMap<String, f64>,
    predicted_over_actual: Vec<f64>,
    exec_ns: Vec<u64>,
}

fn choice_name(chosen: ChosenStrategy) -> &'static str {
    match chosen {
        ChosenStrategy::Sequential => "sequential",
        ChosenStrategy::Fused => "fused",
        ChosenStrategy::FusedParallel { .. } => "fused-parallel",
    }
}

/// The model's predicted cost of the strategy it chose over the measured
/// cost, when the quantitative model ran.
fn prediction_ratio(decision: &PartitionDecision) -> Option<f64> {
    let estimate = decision.estimate?;
    let predicted = match decision.chosen {
        ChosenStrategy::Sequential => estimate.sequential_ns,
        ChosenStrategy::Fused => estimate.fused_ns,
        ChosenStrategy::FusedParallel { .. } => estimate.fused_parallel_ns?,
    };
    (decision.actual_ns > 0).then(|| predicted as f64 / decision.actual_ns as f64)
}

impl EngineTally {
    fn add_decisions(&mut self, decisions: &StrategyDecisions, weight: f64) {
        for (kind, decision) in decisions.iter() {
            let key = format!("engine.auto.{kind}.{}", choice_name(decision.chosen));
            *self.auto.entry(key).or_default() += weight;
            if let Some(ratio) = prediction_ratio(&decision) {
                self.predicted_over_actual.push(ratio);
            }
        }
    }

    /// Adds one batch the engine executed directly.
    pub fn add_batch(&mut self, report: &BatchReport) {
        self.plans += report.len() as f64;
        self.batches += 1.0;
        self.fused_plans += report.total_fused() as f64;
        self.shards_used += report.shards_used as f64;
        self.shared_pages += report.shared_stats.pages_scanned as f64;
        self.work.add(&report.merged_stats(), 1.0);
        self.add_decisions(&report.strategy_chosen, 1.0);
        self.exec_ns.push(report.latency_ns);
    }

    /// Adds one service response. Its batch's counters are weighted by
    /// `1 / batch size`, so summing over every response of a batch counts
    /// the batch once; the engine time is sampled once per response.
    pub fn add_response(&mut self, response: &QueryResponse) {
        let batch = &response.batch;
        let share = 1.0 / batch.size.max(1) as f64;
        self.plans += 1.0;
        self.batches += share;
        self.fused_plans +=
            (batch.fused_queries + batch.fused_points + batch.fused_knn) as f64 * share;
        self.shards_used += batch.shards_used as f64 * share;
        self.shared_pages += batch.shared_stats.pages_scanned as f64 * share;
        self.work.add(&response.report.stats, 1.0);
        self.work.add(&batch.shared_stats, share);
        self.add_decisions(&batch.decisions, share);
        self.exec_ns.push(batch.latency_ns);
    }

    /// Writes the storage, Z-index and engine metrics.
    pub fn report(&self, outcome: &mut Outcome) {
        let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let w = &self.work;
        outcome.set(
            "storage.points_scanned_per_result",
            per(w.points_scanned, w.results),
        );
        outcome.set(
            "storage.pages_scanned_per_plan",
            per(w.pages_scanned, self.plans),
        );
        outcome.set(
            "storage.ns_per_point_scanned",
            per(w.scan_ns, w.points_scanned),
        );
        outcome.set(
            "zindex.bbs_checked_per_plan",
            per(w.bbs_checked, self.plans),
        );
        outcome.set(
            "zindex.leaves_skipped_per_plan",
            per(w.leaves_skipped, self.plans),
        );
        outcome.set(
            "zindex.nodes_visited_per_plan",
            per(w.nodes_visited, self.plans),
        );
        outcome.set(
            "zindex.scan_share",
            per(w.scan_ns, w.scan_ns + w.projection_ns),
        );
        outcome.set("engine.fused_share", per(self.fused_plans, self.plans));
        outcome.set(
            "engine.shared_pages_per_batch",
            per(self.shared_pages, self.batches),
        );
        outcome.set(
            "engine.shards_used_mean",
            per(self.shards_used, self.batches),
        );
        for (key, count) in &self.auto {
            outcome.set(key, count.round());
        }
        outcome.set(
            "engine.auto.predicted_over_actual",
            median_f64(&self.predicted_over_actual),
        );
        outcome.set("engine.exec_p50_us", percentile(&self.exec_ns, 50.0) / 1e3);
    }
}

/// What the build metrics need from a built index, kept before the index
/// is moved into a service or a versioned wrapper.
#[derive(Debug, Clone, Copy)]
pub struct BuildFacts {
    report: BuildReport,
    leaf_count: usize,
    index_bytes: usize,
}

impl BuildFacts {
    /// Reads the facts off a built index.
    pub fn of(index: &ZIndex) -> Self {
        BuildFacts {
            report: *index.build_report(),
            leaf_count: index.leaf_count(),
            index_bytes: index.size_bytes(),
        }
    }
}

/// Writes the build metrics: the measured `ZIndexBuilder::build` and
/// serving-start times (medians over set-ups) and the kept index's own
/// `BuildReport`.
pub fn report_build(outcome: &mut Outcome, facts: &BuildFacts, setup: &SetupSeconds) {
    outcome.set("build.build_s", median_f64(&setup.build));
    outcome.set("serve.start_s", median_f64(&setup.serve));
    outcome.set(
        "build.density_fit_s",
        facts.report.density_fit_ns as f64 / 1e9,
    );
    outcome.set(
        "build.candidates_evaluated",
        facts.report.candidates_evaluated as f64,
    );
    outcome.set("build.leaf_count", facts.leaf_count as f64);
    outcome.set("build.index_bytes", facts.index_bytes as f64);
}

/// Writes the service metrics: the counters of the final `ServiceStats`,
/// and the queue wait and routing time from the spans of
/// [`record_response`].
pub fn report_service(outcome: &mut Outcome, stats: &ServiceStats, trace: &Trace) {
    outcome.set("service.mean_batch_size", stats.mean_batch_size());
    outcome.set("service.timer_cuts", stats.flushed_on_timer as f64);
    outcome.set("service.capacity_cuts", stats.flushed_on_capacity as f64);
    outcome.set("service.window_end_us", stats.window_ns as f64 / 1e3);
    outcome.set("service.degraded_batches", stats.degraded_batches as f64);
    outcome.set("net.connections_severed", stats.connections_severed as f64);
    let queue = trace.lengths("service.queue");
    let route = trace.self_times("service.total");
    outcome.set("service.queue_wait_p50_us", percentile(&queue, 50.0) / 1e3);
    outcome.set("service.queue_wait_p99_us", percentile(&queue, 99.0) / 1e3);
    outcome.set("service.route_p50_us", percentile(&route, 50.0) / 1e3);
}

/// Records a response's own timings as children of the span around the
/// service call: `service.total`, and inside it `service.queue` followed by
/// `engine.batch`. The self time of `service.total` is the routing time.
pub fn record_response(trace: &mut Trace, parent: usize, response: &QueryResponse) {
    let total = trace.reported("service.total", parent, 0, response.total_ns);
    trace.reported("service.queue", total, 0, response.queue_ns);
    trace.reported(
        "engine.batch",
        total,
        response.queue_ns,
        response.batch.latency_ns,
    );
}
