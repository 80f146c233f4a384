//! `rw-burst`: a 1M-point `VersionedIndex` over WaZI behind a default
//! versioned `Service`. A closed-loop reader submits bursts of 64 mixed
//! plans and waits for every answer, while an open-loop writer applies a
//! 32-op write burst every 4 ms through `Service::apply_write`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wazi_core::{Query, SnapshotSource, VersionedIndex, WriteOp, ZIndexBuilder};
use wazi_geom::Point;
use wazi_service::{QueryResponse, Service, ServiceError, Submit};
use wazi_workload::{generate_mixed_batch, mixed_read_write_schedule, RwStep};

use crate::args::Args;
use crate::check::{canonical, corrupt, fingerprint, mismatches, solo_answers};
use crate::inputs::{repeated_setup, sub_seed, Dataset, Scale, REGION, SERVE_SELECTIVITY};
use crate::layers::{record_response, report_build, report_service, BuildFacts, EngineTally};
use crate::metrics::{peak_rss_mb, Outcome, Samples};
use crate::trace::{in_traced_slice, Trace};
use crate::{measured, Timing, WARMUP};

/// What the writer thread measured.
#[derive(Default)]
struct WriterLog {
    /// Write-burst latencies from due time to completion, untraced slices.
    untraced: Samples,
    /// `Service::apply_write` call times, all slices.
    apply: Samples,
    /// Largest delay between a burst's due time and its start.
    lag_max: Duration,
    /// Indexes of the bursts that were applied.
    applied: Vec<usize>,
    /// Bursts that failed.
    failed: u64,
    trace: Option<Trace>,
}

/// One answer of a burst, between its submission and its receipt.
type Answer = (Instant, Result<QueryResponse, ServiceError>, Instant);

/// Submits `plans` and waits for every answer.
fn burst(service: &Service, plans: &[Query]) -> Vec<Answer> {
    let tickets: Vec<_> = plans
        .iter()
        .map(|query| (Instant::now(), service.submit(query.clone())))
        .collect();
    tickets
        .into_iter()
        .map(|(submitted, submit)| {
            let answer = match submit {
                Ok(Submit::Accepted(ticket)) => ticket.wait(),
                Ok(Submit::Rejected) => Err(ServiceError::Closed),
                Err(err) => Err(err),
            };
            (submitted, answer, Instant::now())
        })
        .collect()
}

/// The point set after replaying the applied write bursts onto `points`.
fn replay(points: &[Point], writes: &[Vec<WriteOp>], applied: &[usize]) -> Vec<Point> {
    let key = |p: &Point| (p.x.to_bits(), p.y.to_bits());
    let mut inserted: Vec<Option<Point>> = Vec::new();
    let mut live: HashMap<(u64, u64), Vec<usize>> = HashMap::new();
    for &b in applied {
        for op in &writes[b] {
            match op {
                WriteOp::Insert(p) => {
                    live.entry(key(p)).or_default().push(inserted.len());
                    inserted.push(Some(*p));
                }
                WriteOp::Delete(p) => {
                    if let Some(slot) = live.get_mut(&key(p)).and_then(Vec::pop) {
                        inserted[slot] = None;
                    }
                }
                WriteOp::Maintain => {}
            }
        }
    }
    points
        .iter()
        .copied()
        .chain(inserted.into_iter().flatten())
        .collect()
}

/// Runs the workload.
pub fn run(args: &Args, scale: &Scale) -> (Outcome, Trace) {
    let data = Dataset::generate(scale.large_points, scale, args.seed);
    let bursts: Vec<Vec<Query>> = (0..scale.read_bursts)
        .map(|b| {
            generate_mixed_batch(
                REGION,
                scale.read_burst_len,
                SERVE_SELECTIVITY,
                sub_seed(args.seed, 200 + b as u64),
            )
        })
        .collect();
    let write_bursts = ((WARMUP.as_secs_f64() + args.seconds) / scale.write_period.as_secs_f64())
        .ceil() as usize
        + 16;
    let writes: Vec<Vec<WriteOp>> = mixed_read_write_schedule(
        REGION,
        write_bursts,
        0,
        scale.write_burst_len,
        SERVE_SELECTIVITY,
        sub_seed(args.seed, 5),
    )
    .into_iter()
    .filter_map(|step| match step {
        RwStep::Writes(ops) => Some(ops),
        RwStep::Queries(_) => None,
    })
    .collect();
    let closing = generate_mixed_batch(
        REGION,
        scale.closing_plans,
        SERVE_SELECTIVITY,
        sub_seed(args.seed, 6),
    );

    let mut trace = Trace::new(Instant::now());
    let mut facts = None;
    let (service, setup) = repeated_setup(
        scale.setups,
        args.trace.then_some(&mut trace),
        || {
            let (index, mut times) = data.build();
            facts = Some(BuildFacts::of(&index));
            let source: Arc<dyn SnapshotSource> = Arc::new(VersionedIndex::new(index));
            let service = Service::builder_versioned(source).start();
            times.ready = Instant::now();
            (service, times)
        },
        |old| {
            old.shutdown();
        },
    );

    let origin = Instant::now();
    let deadline = WARMUP + Duration::from_secs_f64(args.seconds);
    let stop = AtomicBool::new(false);
    let mut timing = Timing::default();
    let mut tally = EngineTally::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut epochs_per_burst, mut live_epochs_max) = (Vec::new(), 0u64);
    let writer_trace = args.trace.then(|| trace.sibling());
    let writer = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut log = WriterLog {
                trace: writer_trace,
                ..WriterLog::default()
            };
            for (b, ops) in writes.iter().enumerate() {
                let due = origin + scale.write_period * b as u32;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let start = Instant::now();
                let result = service.apply_write(ops);
                let end = Instant::now();
                if result.is_err() {
                    log.failed += 1;
                    continue;
                }
                log.applied.push(b);
                let at = due - origin;
                if measured(at).is_none() {
                    continue;
                }
                log.lag_max = log.lag_max.max(start - due);
                log.apply.push((end - start).as_nanos() as u64);
                if in_traced_slice(args.trace, at) {
                    if let Some(trace) = log.trace.as_mut() {
                        let write = trace.span("snapshot.write", due, end, None, b as u64);
                        trace.span("snapshot.apply", start, end, Some(write), b as u64);
                    }
                } else {
                    log.untraced.push((end - due).as_nanos() as u64);
                }
            }
            log
        });

        let mut request = 0u64;
        while origin.elapsed() < deadline {
            let plans = &bursts[(request % bursts.len() as u64) as usize];
            let at = origin.elapsed();
            let measuring = measured(at).is_some();
            let traced = measuring && in_traced_slice(args.trace, at);
            let start = Instant::now();
            let answers = burst(&service, plans);
            let end = Instant::now();
            attempted += plans.len() as u64;
            let versions = service.version_stats().expect("a versioned service");
            live_epochs_max = live_epochs_max.max(versions.live_epochs());
            let parent = traced.then(|| trace.span("service.burst", start, end, None, request));
            let mut epochs = Vec::new();
            let mut answered = 0;
            for (submitted, answer, received) in answers {
                let Ok(response) = answer else {
                    failed += 1;
                    continue;
                };
                // A response may only read a published version.
                if response.batch.epoch > versions.current_epoch {
                    failed += 1;
                }
                epochs.push(response.batch.epoch);
                answered += 1;
                if args.trace && measuring {
                    tally.add_response(&response);
                }
                if let Some(parent) = parent {
                    let ticket =
                        trace.span("service.ticket", submitted, received, Some(parent), request);
                    record_response(&mut trace, ticket, &response);
                }
            }
            timing.record(at, traced, (end - start).as_nanos() as u64, answered);
            epochs.sort_unstable();
            epochs.dedup();
            epochs_per_burst.push(epochs.len() as f64);
            request += 1;
        }
        stop.store(true, Ordering::Release);
        writer.join().expect("the writer thread finished")
    });
    let rss_mb = peak_rss_mb();

    // The final snapshot must answer a closing burst exactly like WaZI
    // built afresh from the replayed point set.
    let final_epoch = service
        .version_stats()
        .expect("a versioned service")
        .current_epoch;
    let mut recorded = Vec::new();
    for (plan, (_, answer, _)) in burst(&service, &closing).into_iter().enumerate() {
        match answer {
            Ok(response) if response.batch.epoch == final_epoch => {
                recorded.push((plan, fingerprint(&canonical(&response.report.output))));
            }
            _ => failed += 1,
        }
    }
    attempted += closing.len() as u64 + writer.applied.len() as u64 + writer.failed;
    failed += writer.failed;
    let versions = service.version_stats().expect("a versioned service");
    let stats = service.shutdown();
    let fresh = ZIndexBuilder::wazi().build(
        replay(&data.points, &writes, &writer.applied),
        &data.training,
    );
    let mut reference: Vec<u64> = solo_answers(&fresh, &closing)
        .expect("solo sequential execution")
        .iter()
        .map(|output| fingerprint(&canonical(output)))
        .collect();
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
    report_build(&mut outcome, &facts.expect("a set-up ran"), &setup);
    tally.report(&mut outcome);
    report_service(&mut outcome, &stats, &trace);
    outcome.set("write_p50_us", writer.untraced.percentile_us(50.0));
    outcome.set("write_p90_us", writer.untraced.percentile_us(90.0));
    outcome.set("diag.write_p99_us", writer.untraced.percentile_us(99.0));
    outcome.set("snapshot.apply_p50_us", writer.apply.percentile_us(50.0));
    outcome.set(
        "snapshot.writer_lag_max_us",
        writer.lag_max.as_nanos() as f64 / 1e3,
    );
    outcome.set(
        "snapshot.epochs_published",
        versions.snapshots_published as f64,
    );
    outcome.set("snapshot.epochs_retired", versions.epochs_retired as f64);
    outcome.set("snapshot.live_epochs_max", live_epochs_max as f64);
    outcome.set(
        "snapshot.rebuild_fallbacks",
        versions.rebuild_fallbacks as f64,
    );
    outcome.set(
        "snapshot.epochs_per_read_burst",
        epochs_per_burst.iter().sum::<f64>() / epochs_per_burst.len().max(1) as f64,
    );
    if let Some(writer_trace) = writer.trace {
        trace.absorb(writer_trace);
    }
    outcome.provenance = vec![
        ("dataset_points", data.points.len() as f64),
        ("training_queries", data.training.len() as f64),
        (
            "distinct_plans",
            (bursts.len() * scale.read_burst_len) as f64,
        ),
        ("write_bursts_applied", writer.applied.len() as f64),
        ("samples", timing.untraced.len() as f64),
    ];
    (outcome, trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_applies_only_the_applied_bursts() {
        let base = vec![Point::new(0.1, 0.1)];
        let a = Point::new(0.2, 0.2);
        let b = Point::new(0.3, 0.3);
        let writes = vec![
            vec![WriteOp::Insert(a), WriteOp::Insert(b), WriteOp::Maintain],
            vec![WriteOp::Delete(a), WriteOp::Maintain],
            vec![WriteOp::Delete(b)],
        ];
        assert_eq!(replay(&base, &writes, &[0, 1]), vec![base[0], b]);
        assert_eq!(replay(&base, &writes, &[0, 2]), vec![base[0], a]);
        assert_eq!(replay(&base, &writes, &[]), base);
    }
}
