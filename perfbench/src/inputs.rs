//! Inputs generated from the seed, the run's scale, and the timed set-up.

use std::time::{Duration, Instant};
use wazi_core::{ZIndex, ZIndexBuilder};
use wazi_geom::{Point, Rect};
use wazi_workload::{generate_dataset_with_seed, generate_queries_with_seed, Region};

use crate::trace::Trace;

/// Every workload runs on the New York check-in profile.
pub const REGION: Region = Region::NewYork;
/// Selectivity of the training queries and of the served plans: 0.0064 %.
pub const SERVE_SELECTIVITY: f64 = 0.000_064;
/// Selectivity of the `scan-batch` plans: 0.1024 %.
pub const SCAN_SELECTIVITY: f64 = 0.001_024;

/// Sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Points behind the TCP service (`tcp-serial`).
    pub small_points: usize,
    /// Points behind the engine and the versioned service.
    pub large_points: usize,
    /// Check-in range queries WaZI is trained on.
    pub training_queries: usize,
    /// Set-ups timed per run; the median is reported.
    pub setups: usize,
    /// Distinct plans `tcp-serial` cycles through.
    pub tcp_plans: usize,
    /// Distinct batches `scan-batch` cycles through.
    pub scan_batches: usize,
    /// Plans per `scan-batch` batch.
    pub scan_batch_len: usize,
    /// Distinct read bursts `rw-burst` cycles through.
    pub read_bursts: usize,
    /// Plans per read burst.
    pub read_burst_len: usize,
    /// Ops per write burst (the last one a `Maintain`).
    pub write_burst_len: usize,
    /// Time between the due times of two write bursts.
    pub write_period: Duration,
    /// Plans in the closing burst checked against a fresh build.
    pub closing_plans: usize,
}

impl Scale {
    /// The measured scale.
    pub const FULL: Scale = Scale {
        small_points: 100_000,
        large_points: 1_000_000,
        training_queries: 2_000,
        setups: 3,
        tcp_plans: 4_096,
        scan_batches: 32,
        scan_batch_len: 256,
        read_bursts: 64,
        read_burst_len: 64,
        write_burst_len: 32,
        write_period: Duration::from_millis(4),
        closing_plans: 256,
    };

    /// A few thousand points, for the benchmark's own tests.
    pub const TINY: Scale = Scale {
        small_points: 3_000,
        large_points: 6_000,
        training_queries: 100,
        setups: 2,
        tcp_plans: 64,
        scan_batches: 4,
        scan_batch_len: 32,
        read_bursts: 4,
        read_burst_len: 16,
        write_burst_len: 8,
        write_period: Duration::from_millis(4),
        closing_plans: 32,
    };
}

/// Independent sub-seed number `stream` of `seed` (SplitMix64).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The data points and WaZI's training queries for one run.
pub struct Dataset {
    /// Indexed points.
    pub points: Vec<Point>,
    /// Training range queries (check-ins at [`SERVE_SELECTIVITY`]).
    pub training: Vec<Rect>,
}

impl Dataset {
    /// Generates `n` points and the training queries from `seed`.
    pub fn generate(n: usize, scale: &Scale, seed: u64) -> Dataset {
        Dataset {
            points: generate_dataset_with_seed(REGION, n, sub_seed(seed, 1)),
            training: generate_queries_with_seed(
                REGION,
                scale.training_queries,
                SERVE_SELECTIVITY,
                sub_seed(seed, 2),
            ),
        }
    }

    /// Builds WaZI over a copy of the points, made before the set-up
    /// starts. The returned times end at the build; a workload that then
    /// starts serving moves `ready` on.
    pub fn build(&self) -> (ZIndex, SetupTimes) {
        let points = self.points.clone();
        let start = Instant::now();
        let index = ZIndexBuilder::wazi().build(points, &self.training);
        let built = Instant::now();
        let times = SetupTimes {
            start,
            build: built - start,
            density_fit_ns: index.build_report().density_fit_ns,
            built,
            ready: built,
        };
        (index, times)
    }
}

/// When the steps of one set-up ran.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Set-up start, with the generated inputs in hand.
    pub start: Instant,
    /// Time `ZIndexBuilder::build` took.
    pub build: Duration,
    /// Density-fit time the build reported (`BuildReport::density_fit_ns`).
    pub density_fit_ns: u64,
    /// End of the build.
    pub built: Instant,
    /// Ready to serve: service, server and client started, where the
    /// workload has them.
    pub ready: Instant,
}

/// What the repeated set-ups of one run took, in seconds.
#[derive(Debug, Clone, Default)]
pub struct SetupSeconds {
    /// Whole set-ups.
    pub setup: Vec<f64>,
    /// `ZIndexBuilder::build` calls.
    pub build: Vec<f64>,
    /// From built to ready to serve.
    pub serve: Vec<f64>,
}

/// Runs `setup` `times` times and keeps the last result; each earlier one
/// is torn down by `teardown` before the next set-up starts. A traced run
/// records each set-up as a `setup` span with `build.build` (and inside it
/// the reported `build.density_fit`) and `serve.start` children.
pub fn repeated_setup<T>(
    times: usize,
    trace: Option<&mut Trace>,
    mut setup: impl FnMut() -> (T, SetupTimes),
    mut teardown: impl FnMut(T),
) -> (T, SetupSeconds) {
    let mut seconds = SetupSeconds::default();
    let mut spans = Vec::new();
    let mut kept = None;
    for _ in 0..times.max(1) {
        if let Some(previous) = kept.take() {
            teardown(previous);
        }
        let (value, at) = setup();
        seconds.setup.push((at.ready - at.start).as_secs_f64());
        seconds.build.push(at.build.as_secs_f64());
        seconds.serve.push((at.ready - at.built).as_secs_f64());
        spans.push(at);
        kept = Some(value);
    }
    if let Some(trace) = trace {
        for (request, at) in spans.into_iter().enumerate() {
            let request = request as u64;
            let setup = trace.span("setup", at.start, at.ready, None, request);
            let build = trace.span(
                "build.build",
                at.built - at.build,
                at.built,
                Some(setup),
                request,
            );
            trace.reported("build.density_fit", build, 0, at.density_fit_ns);
            trace.span("serve.start", at.built, at.ready, Some(setup), request);
        }
    }
    (kept.expect("at least one set-up ran"), seconds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        let a = Dataset::generate(500, &Scale::TINY, 3);
        let b = Dataset::generate(500, &Scale::TINY, 3);
        let c = Dataset::generate(500, &Scale::TINY, 4);
        assert_eq!(a.points, b.points);
        assert_eq!(a.training, b.training);
        assert_ne!(a.points, c.points);
        assert_ne!(sub_seed(1, 1), sub_seed(1, 2));
    }

    #[test]
    fn repeated_setup_keeps_the_last_and_tears_down_the_rest() {
        let origin = Instant::now();
        let mut trace = Trace::new(origin);
        let mut built = 0;
        let mut torn = Vec::new();
        let (kept, seconds) = repeated_setup(
            3,
            Some(&mut trace),
            || {
                built += 1;
                let times = SetupTimes {
                    start: origin,
                    build: Duration::from_millis(1),
                    density_fit_ns: 10,
                    built: origin + Duration::from_millis(1),
                    ready: origin + Duration::from_millis(3),
                };
                (built, times)
            },
            |old| torn.push(old),
        );
        assert_eq!(kept, 3);
        assert_eq!(torn, vec![1, 2]);
        assert_eq!(seconds.setup, vec![0.003; 3]);
        assert_eq!(seconds.serve, vec![0.002; 3]);
        assert_eq!(trace.lengths("build.density_fit"), vec![10; 3]);
        assert_eq!(trace.self_times("setup"), vec![0; 3]);
    }
}
