//! The suite end to end at smoke size: `--quick` through all five
//! workloads with nothing failed, and the driver's result lines carrying
//! every name `BENCHMARK.json` declares.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Value;
use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_aon-benchmark");

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn declared(b: &Value, list: &str) -> Vec<String> {
    b.get(list)
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect()
}

#[test]
fn quick_suite_passes_all_five_workloads() {
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-quick-{}.json", std::process::id()));
    let run = Command::new(BIN).arg("--quick").arg("--out").arg(&out).output().unwrap();
    assert!(
        run.status.success(),
        "--quick failed:\n{}\n{}",
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );
    let file = json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    std::fs::remove_file(&out).unwrap();

    let b = benchmark_json();
    assert!(file.get("host").and_then(|h| h.get("cpu_model")).is_some(), "no host block");
    for w in declared(&b, "workloads") {
        let block = file.get("workloads").and_then(|ws| ws.get(&w)).expect("workload in file");
        assert_eq!(block.get("correct").and_then(Value::as_bool), Some(true), "{w}");
        assert_eq!(block.get("failed").and_then(Value::as_f64), Some(0.0), "{w}: failed_share");
        for m in declared(&b, "end_to_end") {
            let v = block.get("end_to_end").and_then(|e| e.get(&m)).expect("metric in file");
            assert!(v.get("value").and_then(Value::as_f64).unwrap() > 0.0, "{w} {m} is 0");
            assert!(!v.get("samples").unwrap().numbers().is_empty(), "{w} {m}: no samples");
        }
        assert!(!block.get("per_layer").unwrap().members().is_empty(), "{w}: no layers");
    }
}

/// One driver-style run; returns the names in its result line.
fn result_names(workload: &str, trace: &str) -> Vec<String> {
    let run = Command::new(BIN)
        .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace])
        .arg("--quick")
        .output()
        .unwrap();
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    let stdout = String::from_utf8(run.stdout).unwrap();
    let line = json::parse(stdout.lines().last().unwrap()).expect("result line parses");
    let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
    assert!(line.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    let metrics = line.get("metrics").unwrap().members();
    for (name, m) in metrics {
        assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}: no value");
        assert!(m.get("unit").and_then(Value::as_str).is_some(), "{name}: no unit");
    }
    metrics.iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn result_lines_carry_every_declared_name() {
    let b = benchmark_json();
    for workload in ["fr_1k_keepalive", "mixed_5k_oneshot"] {
        assert_eq!(result_names(workload, "0"), declared(&b, "end_to_end"));
        assert_eq!(result_names(workload, "1"), declared(&b, "per_layer"));
    }
}

#[test]
fn an_unknown_workload_is_refused() {
    let run = Command::new(BIN)
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .unwrap();
    assert_eq!(run.status.code(), Some(2));
    assert!(run.stdout.is_empty());
}
