//! Tiny-scale runs of the benchmark binary: every workload prints every
//! metric of its run with its unit, a corrupted reference fails the run,
//! and `BENCHMARK.json` declares exactly the metrics the binary prints.

use std::path::Path;
use std::process::{Command, Output};

use wazi_perfbench::args::Workload;
use wazi_perfbench::metrics::{END_TO_END, PER_LAYER};

fn run(workload: Workload, trace: bool, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wazi-perfbench"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "3",
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .args(extra)
        .output()
        .expect("the benchmark binary runs")
}

fn last_line(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .expect("the run printed a result")
        .to_string()
}

/// The value the result line gives metric `name`, checking its unit.
fn value(line: &str, name: &str, unit: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let start = line
        .find(&key)
        .unwrap_or_else(|| panic!("`{name}` missing from {line}"))
        + key.len();
    let rest = &line[start..];
    let end = rest.find(',').expect("a unit follows the value");
    assert!(
        rest[end..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
        "`{name}` lacks unit `{unit}`"
    );
    rest[..end].parse().expect("a number")
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let output = run(workload, trace, &[]);
            assert!(output.status.success(), "{}: {output:?}", workload.name());
            let line = last_line(&output);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            assert!(line.contains(", \"failed\": 0, \"metrics\": {"), "{line}");
            let catalogue = if trace { PER_LAYER } else { END_TO_END };
            for &(name, unit) in catalogue {
                let v = value(&line, name, unit);
                assert!(v.is_finite(), "{}: `{name}` = {v}", workload.name());
                if !trace {
                    assert!(v > 0.0, "{}: end-to-end `{name}` is {v}", workload.name());
                }
            }
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(stdout.contains("{\"provenance\": {\"git_rev_prefix\": "));
        }
    }
}

#[test]
fn a_corrupted_reference_fails_the_run() {
    for workload in Workload::ALL {
        let output = run(workload, false, &["--corrupt-reference"]);
        assert_eq!(output.status.code(), Some(1), "{}", workload.name());
        let line = last_line(&output);
        assert!(line.starts_with("{\"correct\": false, "), "{line}");
        assert!(!line.contains("\"failed\": 0,"), "{line}");
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_wazi-perfbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1"])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}

#[test]
fn benchmark_json_declares_the_printed_metrics() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let compact: String = text.split_whitespace().collect();
    for workload in Workload::ALL {
        assert!(compact.contains(&format!("{{\"name\":\"{}\",\"why\":", workload.name())));
    }
    for &(name, unit) in END_TO_END {
        assert!(
            compact.contains(&format!(
                "{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":"
            )),
            "end-to-end `{name}` [{unit}] missing"
        );
    }
    for &(name, unit) in PER_LAYER {
        assert!(
            compact.contains(&format!(
                "{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":"
            )),
            "per-layer `{name}` [{unit}] missing"
        );
    }
    let declared = compact.matches("\"better\":").count();
    assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
}
