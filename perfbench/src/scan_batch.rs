//! `scan-batch`: one thread calls `QueryEngine::execute_batch` (default
//! `Auto`) on 256-plan batches at 0.1024 % over a 1M-point WaZI index
//! (closed loop, no service or wire).

use std::time::{Duration, Instant};

use wazi_core::{Query, QueryEngine};
use wazi_workload::generate_mixed_batch;

use crate::args::Args;
use crate::check::{corrupt, fingerprint, mismatches, reference_fingerprints};
use crate::inputs::{repeated_setup, sub_seed, Dataset, Scale, REGION, SCAN_SELECTIVITY};
use crate::layers::{report_build, BuildFacts, EngineTally};
use crate::metrics::{peak_rss_mb, Outcome};
use crate::trace::{in_traced_slice, Trace};
use crate::{measured, Timing, WARMUP};

/// Runs the workload.
pub fn run(args: &Args, scale: &Scale) -> (Outcome, Trace) {
    let data = Dataset::generate(scale.large_points, scale, args.seed);
    let batches: Vec<Vec<Query>> = (0..scale.scan_batches)
        .map(|b| {
            generate_mixed_batch(
                REGION,
                scale.scan_batch_len,
                SCAN_SELECTIVITY,
                sub_seed(args.seed, 100 + b as u64),
            )
        })
        .collect();
    let mut trace = Trace::new(Instant::now());
    let (index, setup) = repeated_setup(
        scale.setups,
        args.trace.then_some(&mut trace),
        || data.build(),
        drop,
    );
    let engine = QueryEngine::new(&index);

    let origin = Instant::now();
    let deadline = WARMUP + Duration::from_secs_f64(args.seconds);
    let mut timing = Timing::default();
    let mut tally = EngineTally::default();
    let mut recorded = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut request = 0u64;
    while origin.elapsed() < deadline {
        let b = (request % batches.len() as u64) as usize;
        let at = origin.elapsed();
        let measuring = measured(at).is_some();
        let traced = measuring && in_traced_slice(args.trace, at);
        let start = Instant::now();
        let result = engine.execute_batch(&batches[b]);
        let end = Instant::now();
        attempted += batches[b].len() as u64;
        match result {
            Ok(report) => {
                let ns = (end - start).as_nanos() as u64;
                timing.record(at, traced, ns, report.len() as u64);
                let first_plan = b * scale.scan_batch_len;
                recorded.extend(
                    report
                        .reports
                        .iter()
                        .enumerate()
                        .map(|(i, r)| (first_plan + i, fingerprint(&r.output))),
                );
                if args.trace && measuring {
                    tally.add_batch(&report);
                }
                if traced {
                    let span = trace.span("engine.execute_batch", start, end, None, request);
                    trace.reported("engine.batch", span, 0, report.latency_ns);
                }
            }
            Err(_) => failed += batches[b].len() as u64,
        }
        request += 1;
    }
    let rss_mb = peak_rss_mb();

    let plans: Vec<Query> = batches.concat();
    let mut reference = reference_fingerprints(&index, &plans).expect("solo sequential execution");
    if args.corrupt_reference {
        corrupt(&mut reference);
    }
    failed += mismatches(&recorded, &reference);

    let mut outcome = Outcome {
        attempted,
        failed,
        ..Outcome::default()
    };
    timing.report(&mut outcome, rss_mb, &setup.setup);
    report_build(&mut outcome, &BuildFacts::of(&index), &setup);
    tally.report(&mut outcome);
    outcome.provenance = vec![
        ("dataset_points", data.points.len() as f64),
        ("training_queries", data.training.len() as f64),
        ("distinct_plans", plans.len() as f64),
        ("samples", timing.untraced.len() as f64),
    ];
    (outcome, trace)
}
