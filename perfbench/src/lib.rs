//! End-to-end and per-layer benchmark of the WaZI workspace.
//!
//! One command runs one named workload from a seed, checks every answer,
//! and prints the end-to-end metrics (untraced run) or the per-layer
//! metrics (traced run) as the last line of its output. See `README.md`
//! beside this crate for the workloads, the metrics and how to run it.

pub mod args;
pub mod check;
pub mod inputs;
pub mod layers;
pub mod metrics;
pub mod rw_burst;
pub mod scan_batch;
pub mod tcp_serial;
pub mod trace;

use std::path::{Path, PathBuf};
use std::time::Duration;

use args::{Args, Workload};
use inputs::Scale;
use metrics::{median_f64, Outcome, Samples};

/// Requests starting this early in the timed loop warm caches and lazy
/// set-up and are not measured.
pub const WARMUP: Duration = Duration::from_secs(1);

/// The measured phase is cut into chunks of this length; end-to-end
/// latencies and throughput are the median over chunks, so a short stall
/// of the host moves one chunk, not the result.
pub const CHUNK: Duration = Duration::from_secs(1);

/// How far past `WARMUP` a request starting `at` into the timed loop is,
/// or `None` during warm-up.
pub fn measured(at: Duration) -> Option<Duration> {
    at.checked_sub(WARMUP)
}

/// Plans answered and latencies of the untraced requests of one chunk.
#[derive(Debug, Default)]
struct Chunk {
    latencies: Samples,
    plans: u64,
}

impl Chunk {
    fn qps(&self) -> f64 {
        self.plans as f64 * 1e9 / self.latencies.sum_ns().max(1) as f64
    }
}

/// Closed-loop request timings of one run, split into the untraced and the
/// traced slices (a run without tracing has only untraced ones).
#[derive(Debug, Default)]
pub struct Timing {
    /// Latencies of the requests in untraced slices.
    pub untraced: Samples,
    chunks: Vec<Chunk>,
    untraced_plans: u64,
    traced_ns: u64,
    traced_plans: u64,
}

impl Timing {
    /// Records one request starting `at` into the timed loop that took `ns`
    /// and answered `plans` plans; requests during warm-up are dropped.
    pub fn record(&mut self, at: Duration, traced: bool, ns: u64, plans: u64) {
        let Some(at) = measured(at) else { return };
        if traced {
            self.traced_ns += ns;
            self.traced_plans += plans;
            return;
        }
        self.untraced.push(ns);
        self.untraced_plans += plans;
        let chunk = (at.as_nanos() / CHUNK.as_nanos()) as usize;
        if self.chunks.len() <= chunk {
            self.chunks.resize_with(chunk + 1, Chunk::default);
        }
        self.chunks[chunk].latencies.push(ns);
        self.chunks[chunk].plans += plans;
    }

    /// Writes the end-to-end metrics, `diag.request_p99_us` and, when
    /// traced slices ran, `trace.overhead_pct`. Throughput is plans answered
    /// per second the client spent waiting for answers.
    pub fn report(&self, outcome: &mut Outcome, peak_rss_mb: f64, setup_s: &[f64]) {
        let chunks: Vec<&Chunk> = self
            .chunks
            .iter()
            .filter(|c| !c.latencies.is_empty())
            .collect();
        let over_chunks = |f: &dyn Fn(&Chunk) -> f64| {
            median_f64(&chunks.iter().map(|c| f(c)).collect::<Vec<_>>())
        };
        outcome.set("setup_s", median_f64(setup_s));
        outcome.set("qps", over_chunks(&Chunk::qps));
        outcome.set(
            "request_p50_us",
            over_chunks(&|c| c.latencies.percentile_us(50.0)),
        );
        outcome.set(
            "request_p90_us",
            over_chunks(&|c| c.latencies.percentile_us(90.0)),
        );
        outcome.set("peak_rss_mb", peak_rss_mb);
        outcome.set("diag.request_p99_us", self.untraced.percentile_us(99.0));
        if self.traced_plans > 0 {
            let rate = |plans: u64, ns: u64| plans as f64 * 1e9 / ns.max(1) as f64;
            let untraced = rate(self.untraced_plans, self.untraced.sum_ns());
            let traced = rate(self.traced_plans, self.traced_ns);
            outcome.set("trace.overhead_pct", (untraced - traced) / untraced * 100.0);
        }
    }
}

/// The repository root: the parent of this crate's directory.
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark crate sits inside the repository")
}

/// The first 13 hex digits (52 bits, exact in a JSON number) of the
/// checked-out git revision, or 0 when the tree is not a git checkout.
fn git_rev_prefix() -> f64 {
    let git = repo_root().join(".git");
    let read = |path: PathBuf| std::fs::read_to_string(path).ok();
    let rev = read(git.join("HEAD")).and_then(|head| match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(name) => read(git.join(name))
            .map(|r| r.trim().to_string())
            .or_else(|| {
                read(git.join("packed-refs"))?
                    .lines()
                    .find(|line| line.ends_with(name))
                    .and_then(|line| line.split(' ').next())
                    .map(str::to_string)
            }),
    });
    rev.and_then(|rev| u64::from_str_radix(rev.get(..13)?, 16).ok())
        .map_or(0.0, |prefix| prefix as f64)
}

/// A 52-bit FNV-1a hash of the measured sources (`crates/` and this
/// crate's `src/`), which identifies the revision where git cannot.
fn source_hash() -> f64 {
    fn collect(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name() != Some("target".as_ref()) {
                    collect(&path, files);
                }
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let root = repo_root();
    let mut files = Vec::new();
    collect(&root.join("crates"), &mut files);
    collect(&root.join("perfbench").join("src"), &mut files);
    files.sort();
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for file in files {
        let name = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .into_owned();
        let bytes = std::fs::read(&file).unwrap_or_default();
        for byte in name.bytes().chain(bytes) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    (hash >> 12) as f64
}

/// Where a traced run writes its spans: under the build directory (`CARGO_TARGET_DIR`, else this crate's `target/`), one
/// file per workload, replaced by the workload's next traced run.
fn trace_path(args: &Args) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join("target"),
        PathBuf::from,
    );
    target
        .join("perfbench-traces")
        .join(format!("{}.jsonl", args.workload.name()))
}

/// Runs the workload `args` names and returns what it measured, stamped
/// with its provenance. A traced run also writes its spans to a file.
pub fn run(args: &Args) -> std::io::Result<Outcome> {
    let scale = if args.tiny { Scale::TINY } else { Scale::FULL };
    let (mut outcome, trace) = match args.workload {
        Workload::TcpSerial => tcp_serial::run(args, &scale),
        Workload::ScanBatch => scan_batch::run(args, &scale),
        Workload::RwBurst => rw_burst::run(args, &scale),
    };
    outcome.set(
        "error_rate",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut provenance = vec![
        ("git_rev_prefix", git_rev_prefix()),
        ("source_fnv52", source_hash()),
        ("available_parallelism", parallelism as f64),
        ("seed", args.seed as f64),
        ("run_seconds", args.seconds),
        ("traced", f64::from(u8::from(args.trace))),
        ("tiny", f64::from(u8::from(args.tiny))),
    ];
    provenance.append(&mut outcome.provenance);
    outcome.provenance = provenance;
    if args.trace {
        let path = trace_path(args);
        trace.write(&path, &outcome.provenance_json())?;
        eprintln!("spans written to {}", path.display());
    }
    Ok(outcome)
}
