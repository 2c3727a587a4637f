//! All five workloads from one command: each run is a child process of
//! this binary on the driver's own command line, so the suite measures
//! exactly what the driver measures; the results are printed by name and
//! written, with the host fingerprint, as one result file.

use crate::json::{self, num, nums, quote, Value};
use crate::spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::median;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

pub struct Args {
    pub seed: u64,
    pub seconds: u64,
    /// Untraced runs per workload, on seeds `seed..seed + runs`.
    pub runs: u64,
    pub quick: bool,
    pub out: Option<PathBuf>,
}

/// A child's result line and the samples line before it.
struct Child {
    result: Value,
    samples: Value,
}

fn child(workload: &str, seed: u64, args: &Args, traced: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev().filter(|l| !l.trim().is_empty());
    let result = lines.next().ok_or_else(|| format!("{workload}: no result line"))?;
    let samples = lines.find_map(|l| l.strip_prefix("samples ")).unwrap_or("{}");
    Ok(Child {
        result: json::parse(result).map_err(|e| format!("{workload}: result line: {e}"))?,
        samples: json::parse(samples).map_err(|e| format!("{workload}: samples line: {e}"))?,
    })
}

fn metric_value(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

fn count(result: &Value, key: &str) -> u64 {
    result.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64
}

fn print_row(workload: &str, metric: &str, value: f64, unit: &str, better: Better) {
    println!("{workload:<20} {metric:<36} {value:>16.4} {unit} ({})", better.label());
}

pub fn run(args: &Args) -> ExitCode {
    match run_all(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Whether every run was correct; `Err` when a run or the file failed.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    let mut blocks = Vec::new();
    println!("{:<20} {:<36} {:>16} unit (better)", "workload", "metric", "value");
    for w in &WORKLOADS {
        let untraced = (0..args.runs)
            .map(|r| child(w.name, args.seed + r, args, false))
            .collect::<Result<Vec<_>, _>>()?;
        let traced = child(w.name, args.seed, args, true)?;
        let results = untraced.iter().map(|c| &c.result).chain([&traced.result]);
        let correct =
            results.clone().all(|r| r.get("correct").and_then(Value::as_bool) == Some(true));
        let attempted: u64 = results.clone().map(|r| count(r, "attempted")).sum();
        let failed: u64 = results.map(|r| count(r, "failed")).sum();
        all_correct &= correct;

        let mut e2e = Vec::new();
        for m in &END_TO_END {
            let per_run: Vec<f64> =
                untraced.iter().map(|c| metric_value(&c.result, m.name)).collect();
            // Several runs: the runs are the samples. One run: its windows.
            let samples = match untraced.as_slice() {
                [only] => only.samples.get(m.name).map(Value::numbers).unwrap_or_default(),
                _ => per_run.clone(),
            };
            let value = median(&per_run);
            print_row(w.name, m.name, value, m.unit, m.better);
            e2e.push(format!(
                "        {}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                quote(m.name),
                num(value),
                quote(m.unit),
                nums(&samples)
            ));
        }
        let mut layers = Vec::new();
        for m in PER_LAYER.iter().filter(|m| m.on.applies(&w.kind)) {
            let value = metric_value(&traced.result, m.name);
            print_row(w.name, m.name, value, m.unit, m.better);
            layers.push(format!(
                "        {}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                num(value),
                quote(m.unit)
            ));
        }
        println!(
            "{:<20} {:<36} {:>16} of {attempted} attempted{}",
            w.name,
            "failed",
            failed,
            if correct { "" } else { "  ** INCORRECT **" }
        );
        blocks.push(format!(
            "    {}: {{\n      \"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed},\n      \"end_to_end\": {{\n{}\n      }},\n      \"per_layer\": {{\n{}\n      }}\n    }}",
            quote(w.name),
            e2e.join(",\n"),
            layers.join(",\n")
        ));
    }

    let file = format!(
        "{{\n  \"host\": {},\n  \"seed\": {}, \"seconds\": {}, \"runs\": {}, \"quick\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        crate::host::fingerprint(),
        args.seed,
        args.seconds,
        args.runs,
        args.quick,
        blocks.join(",\n")
    );
    let path = args.out.clone().unwrap_or_else(|| crate::out_dir().join("result.json"));
    path.parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, file))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}
