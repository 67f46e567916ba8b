//! Runs the benchmark binary at `--smoke` size: all four workloads, traced
//! and untraced, and holds its output against `BENCHMARK.json`.

use stackbench::harness::json::Json;
use stackbench::harness::metrics::{self, MetricDef};
use std::process::Command;
use std::time::{Duration, Instant};

const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

fn declared() -> Json {
    let text =
        std::fs::read_to_string(BENCHMARK_JSON).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> Vec<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn assert_mirrors(list: &Json, defs: &[MetricDef]) {
    let entries = list.as_arr().expect("a list");
    assert_eq!(entries.len(), defs.len());
    for (entry, def) in entries.iter().zip(defs) {
        let field = |k: &str| {
            entry
                .get(k)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        assert_eq!(field("name"), def.name);
        assert_eq!(field("unit"), def.unit, "{}", def.name);
        assert_eq!(field("better"), def.better.as_str(), "{}", def.name);
        assert_eq!(
            entry.get("bound").and_then(Json::as_f64),
            def.bound,
            "{}",
            def.name
        );
    }
}

#[test]
fn benchmark_json_mirrors_the_catalogue() {
    let doc = declared();
    assert_mirrors(
        doc.get("end_to_end").expect("end_to_end"),
        metrics::END_TO_END,
    );
    assert_mirrors(doc.get("per_layer").expect("per_layer"), metrics::PER_LAYER);
    let workloads = names(doc.get("workloads").expect("workloads"));
    let shapes: Vec<&str> = stackbench::harness::workloads::ALL
        .iter()
        .map(|s| s.name)
        .collect();
    assert_eq!(workloads, shapes);
    for name in workloads
        .iter()
        .chain(&names(doc.get("end_to_end").unwrap()))
    {
        assert!(metrics::valid_name(name), "{name}");
    }
    let seconds = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}

/// Every metric of `expected`, finite, in `run`'s metrics and nothing else.
fn assert_metrics(run: &Json, expected: &[String]) {
    let metrics = run.get("metrics").and_then(Json::as_obj).expect("metrics");
    let got: Vec<&String> = metrics.iter().map(|(k, _)| k).collect();
    assert_eq!(got, expected.iter().collect::<Vec<_>>());
    for (name, entry) in metrics {
        let value = entry.get("value").and_then(Json::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{name}: {value:?}");
        assert!(entry.get("unit").and_then(Json::as_str).is_some(), "{name}");
    }
}

#[test]
fn smoke_run_prints_every_declared_metric_and_fails_nothing() {
    let doc = declared();
    let end_to_end = names(doc.get("end_to_end").unwrap());
    let per_layer = names(doc.get("per_layer").unwrap());
    let began = Instant::now();
    // Ambient knobs that would fail every FETCH and flip the client codec:
    // the benchmark must scrub them before the stack reads them.
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--smoke", "--trace", "1", "--seed", "7"])
        .env("RE_FAULT", "fetch.next=error")
        .env("RE_TRANSPORT", "binary")
        .output()
        .expect("the benchmark starts");
    let took = began.elapsed();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "exit {:?}\n{stdout}\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        took < Duration::from_secs(20),
        "the smoke run took {took:?}"
    );
    let all = Json::parse(stdout.lines().last().expect("a last line")).expect("JSON last");
    let runs = all.get("runs").and_then(Json::as_arr).expect("runs");
    assert_eq!(runs.len(), 8, "four workloads, untraced and traced");
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .expect("workload");
        assert_eq!(
            run.get("correct").and_then(Json::as_bool),
            Some(true),
            "{workload}"
        );
        assert_eq!(
            run.get("failed").and_then(Json::as_f64),
            Some(0.0),
            "{workload}"
        );
        assert!(run.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let traced = run.get("trace").and_then(Json::as_f64) == Some(1.0);
        assert_metrics(run, if traced { &per_layer } else { &end_to_end });
        let metrics = run.get("metrics").unwrap();
        if traced {
            let ratio = metrics.get("failed_ratio").and_then(|m| m.get("value"));
            assert_eq!(ratio.and_then(Json::as_f64), Some(0.0), "{workload}");
        } else {
            for name in &end_to_end {
                let v = metrics
                    .get(name)
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64);
                assert!(v.is_some_and(|v| v > 0.0), "{workload} {name}: {v:?}");
            }
        }
        // The ambient knobs set above were scrubbed, and say so.
        let scrubbed = names_of_strings(run.get("scrubbed_env").expect("scrubbed_env"));
        assert!(scrubbed.contains(&"RE_FAULT".to_string()));
        assert_eq!(run.get("seed").and_then(Json::as_f64), Some(7.0));
        // The CPU the run was confined to, or null if it could not be.
        assert!(run.get("pinned_cpu").is_some(), "{workload}");
    }
}

fn names_of_strings(list: &Json) -> Vec<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|s| s.as_str().expect("a string").to_string())
        .collect()
}

#[test]
fn one_workload_ends_with_the_contract_line() {
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--workload",
            "deep-scan",
            "--seed",
            "3",
            "--seconds",
            "0.3",
            "--trace",
            "0",
            "--smoke",
        ])
        .output()
        .expect("the benchmark starts");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = Json::parse(stdout.lines().last().expect("a last line")).expect("JSON last");
    let keys: Vec<&str> = line
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_metrics(&line, &names(declared().get("end_to_end").unwrap()));
    for (_, entry) in line.get("metrics").and_then(Json::as_obj).unwrap() {
        let keys: Vec<&str> = entry
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["value", "unit"]);
    }
}

#[test]
fn unknown_workloads_and_flags_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--frobnicate"],
        &["--trace", "2"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(args)
            .arg("--smoke")
            .output()
            .expect("the benchmark starts");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
