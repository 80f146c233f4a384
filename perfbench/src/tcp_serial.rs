//! `tcp-serial`: one `Client` sends one query at a time over loopback TCP
//! to a default `Service` over a 100k-point WaZI index (closed loop).

use std::sync::Arc;
use std::time::{Duration, Instant};

use wazi_core::{Query, SpatialIndex, ZIndex};
use wazi_net::{Client, ClientConfig, Frame, FrameBody, Server};
use wazi_service::Service;
use wazi_workload::generate_mixed_batch;

use crate::args::Args;
use crate::check::{corrupt, fingerprint, mismatches, reference_fingerprints};
use crate::inputs::{repeated_setup, sub_seed, Dataset, Scale, REGION, SERVE_SELECTIVITY};
use crate::layers::{record_response, report_build, report_service, BuildFacts, EngineTally};
use crate::metrics::{peak_rss_mb, percentile, Outcome, Samples};
use crate::trace::{in_traced_slice, Trace};
use crate::{measured, Timing, WARMUP};

/// What one set-up leaves ready to serve.
struct Stack {
    index: Arc<ZIndex>,
    server: Server,
    client: Client,
}

fn kind(query: &Query) -> usize {
    match query {
        Query::Range { .. } => 0,
        Query::Point(_) => 1,
        Query::Knn { .. } => 2,
    }
}

/// Runs the workload.
pub fn run(args: &Args, scale: &Scale) -> (Outcome, Trace) {
    let data = Dataset::generate(scale.small_points, scale, args.seed);
    let plans = generate_mixed_batch(
        REGION,
        scale.tcp_plans,
        SERVE_SELECTIVITY,
        sub_seed(args.seed, 3),
    );
    let mut trace = Trace::new(Instant::now());
    let (stack, setup) = repeated_setup(
        scale.setups,
        args.trace.then_some(&mut trace),
        || {
            let (index, mut times) = data.build();
            let index = Arc::new(index);
            let service = Service::builder(Arc::clone(&index) as Arc<dyn SpatialIndex>).start();
            let server = Server::bind(service, "127.0.0.1:0").expect("bind a loopback port");
            let config = ClientConfig {
                jitter_seed: sub_seed(args.seed, 4),
                ..ClientConfig::default()
            };
            let client =
                Client::connect(server.local_addr(), config).expect("connect to the server");
            times.ready = Instant::now();
            (
                Stack {
                    index,
                    server,
                    client,
                },
                times,
            )
        },
        |old| {
            drop(old.client);
            old.server.shutdown();
        },
    );

    let origin = Instant::now();
    let deadline = WARMUP + Duration::from_secs_f64(args.seconds);
    let mut timing = Timing::default();
    let mut by_kind: [Samples; 3] = Default::default();
    let mut tally = EngineTally::default();
    let (mut frame_bytes, mut frames) = (0u64, 0u64);
    let mut recorded = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut request = 0u64;
    while origin.elapsed() < deadline {
        let plan = (request % plans.len() as u64) as usize;
        let query = plans[plan].clone();
        let at = origin.elapsed();
        let measuring = measured(at).is_some();
        let traced = measuring && in_traced_slice(args.trace, at);
        let start = Instant::now();
        let result = stack.client.request(query);
        let end = Instant::now();
        attempted += 1;
        let Ok(response) = result else {
            failed += 1;
            request += 1;
            continue;
        };
        let ns = (end - start).as_nanos() as u64;
        timing.record(at, traced, ns, 1);
        recorded.push((plan, fingerprint(&response.report.output)));
        if args.trace && measuring {
            tally.add_response(&response);
        }
        if traced {
            let span = trace.span("net.request", start, end, None, request);
            record_response(&mut trace, span, &response);
            let frame = Frame {
                request_id: request,
                body: FrameBody::Response(Box::new(response)),
            };
            frame_bytes += frame.encode().len() as u64;
            frames += 1;
        } else if measuring {
            by_kind[kind(&plans[plan])].push(ns);
        }
        request += 1;
    }
    let rss_mb = peak_rss_mb();

    let mut outcome = Outcome::default();
    outcome.set("net.retries", stack.client.retries() as f64);
    outcome.set("net.reconnects", stack.client.reconnects() as f64);
    outcome.set("net.rejections", stack.client.rejections_seen() as f64);
    drop(stack.client);
    let stats = stack.server.shutdown();

    let mut reference =
        reference_fingerprints(stack.index.as_ref(), &plans).expect("solo sequential execution");
    if args.corrupt_reference {
        corrupt(&mut reference);
    }
    failed += mismatches(&recorded, &reference);
    outcome.attempted = attempted;
    outcome.failed = failed;

    timing.report(&mut outcome, rss_mb, &setup.setup);
    outcome.set("range_p50_us", by_kind[0].percentile_us(50.0));
    outcome.set("point_p50_us", by_kind[1].percentile_us(50.0));
    outcome.set("knn_p50_us", by_kind[2].percentile_us(50.0));
    report_build(&mut outcome, &BuildFacts::of(&stack.index), &setup);
    tally.report(&mut outcome);
    report_service(&mut outcome, &stats, &trace);
    let wire = trace.self_times("net.request");
    outcome.set("net.wire_p50_us", percentile(&wire, 50.0) / 1e3);
    outcome.set("net.wire_p99_us", percentile(&wire, 99.0) / 1e3);
    outcome.set(
        "net.response_frame_bytes_mean",
        frame_bytes as f64 / frames.max(1) as f64,
    );
    outcome.provenance = vec![
        ("dataset_points", data.points.len() as f64),
        ("training_queries", data.training.len() as f64),
        ("distinct_plans", plans.len() as f64),
        ("samples", timing.untraced.len() as f64),
    ];
    (outcome, trace)
}
