//! Tiny-scale smoke test: every workload of `BENCHMARK.json`, untraced
//! and traced, runs to completion, passes its output checks with no
//! failed operation, and emits exactly the metrics `BENCHMARK.json`
//! names, each with its unit.
//!
//! Run with `cargo test --release --manifest-path e2ebench/Cargo.toml`.

use std::process::Command;

use serde::Value;

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Obj(pairs) => serde::obj_get(pairs, key).unwrap_or_else(|e| panic!("{key}: {e}")),
        other => panic!("expected an object holding {key}, got {other:?}"),
    }
}

fn str_of(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn items(v: &Value) -> &[Value] {
    match v {
        Value::Arr(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

/// `(name, unit)` of every metric listed under `key`.
fn listed(key: &str) -> Vec<(String, String)> {
    items(field(&benchmark(), key))
        .iter()
        .map(|m| {
            (
                str_of(field(m, "name")).to_owned(),
                str_of(field(m, "unit")).to_owned(),
            )
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_smartpick_e2ebench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--scale", "tiny"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the result line is JSON")
}

fn check(workload: &str, trace: &str, list: &str) {
    let result = run(workload, trace);
    assert!(
        matches!(field(&result, "correct"), Value::Bool(true)),
        "{workload}: output checks failed"
    );
    assert!(
        matches!(field(&result, "failed"), Value::Num(n) if *n == 0.0),
        "{workload}: operations failed"
    );
    assert!(matches!(field(&result, "attempted"), Value::Num(n) if *n >= 1.0));
    let Value::Obj(metrics) = field(&result, "metrics") else {
        panic!("metrics is an object")
    };
    let expected = listed(list);
    assert_eq!(
        metrics.len(),
        expected.len(),
        "{workload}: exactly the {list} metrics"
    );
    for (name, unit) in expected {
        let m = field(field(&result, "metrics"), &name);
        assert!(
            matches!(field(m, "value"), Value::Num(v) if v.is_finite()),
            "{workload}: {name}"
        );
        assert_eq!(str_of(field(m, "unit")), unit, "{workload}: unit of {name}");
    }
}

fn workloads() -> Vec<String> {
    items(field(&benchmark(), "workloads"))
        .iter()
        .map(|w| str_of(field(w, "name")).to_owned())
        .collect()
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric() {
    for w in workloads() {
        check(&w, "0", "end_to_end");
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric() {
    for w in workloads() {
        check(&w, "1", "per_layer");
    }
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_smartpick_e2ebench"))
        .args([
            "--workload",
            "no-such",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
