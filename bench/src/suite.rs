//! The whole ladder in one command: every workload in a process of its
//! own (so peak RSS and allocator state do not leak between them), once
//! untraced and once traced, folded into one ladder file.

use crate::metrics::{END_TO_END, RUNGS, TRACED};
use crate::stats::Summary;
use crate::workloads::WORKLOADS;
use crate::{read_json, results_dir, write_result};
use serde_json::{json, Map, Value};
use std::io::Write;
use std::process::Command;

/// Runs one workload as a child and returns the details it wrote.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let trace_flag = if trace { "1" } else { "0" };
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", trace_flag])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} --trace {trace_flag} exited with {}",
            out.status
        ));
    }
    read_json(&results_dir().join(format!("run-{workload}-trace{trace_flag}.json")))
}

fn pick(details: &Value, names: impl Iterator<Item = &'static str>) -> Value {
    let mut m = Map::new();
    for name in names {
        if let Some(v) = details.get("metrics").and_then(|x| x.get(name)) {
            m.insert(name.to_string(), v.clone());
        }
    }
    Value::Object(m)
}

/// Runs every workload and returns the ladder, or what went wrong.
pub fn run(seed: u64, seconds: f64) -> Result<Value, String> {
    let mut workloads = Map::new();
    let mut rung_samples: Vec<Vec<f64>> = vec![Vec::new(); RUNGS.len()];
    let mut problems = Vec::new();
    for (name, _) in WORKLOADS {
        eprintln!("== {name}");
        let plain = child(name, seed, seconds, false)?;
        let traced = child(name, seed, seconds, true)?;
        for d in [&plain, &traced] {
            let (_, failed) = attempted_failed(d);
            if failed > 0 || d.get("correct").and_then(Value::as_bool) != Some(true) {
                problems.push(format!("{name}: {failed} failed ops"));
            }
        }
        for (i, r) in RUNGS.iter().enumerate() {
            let v = traced.get("metrics").and_then(|m| m.get(r.0));
            rung_samples[i].extend(v.and_then(|v| v.get("value")).and_then(Value::as_f64));
        }
        workloads.insert(
            name.to_string(),
            json!({
                "attempted": plain.get("attempted").cloned(),
                "failed_share": {
                    let (attempted, failed) = attempted_failed(&plain);
                    failed as f64 / attempted.max(1) as f64
                },
                "end_to_end": pick(&plain, END_TO_END.iter().map(|m| m.0)),
                "traced": pick(&traced, TRACED.iter().map(|m| m.0)),
                "diagnostics": plain.get("diagnostics").cloned(),
            }),
        );
    }
    // A rung is measured beside every workload; the ladder keeps the
    // median of those eight runs, with their quartiles.
    let mut rungs = Map::new();
    for (r, samples) in RUNGS.iter().zip(rung_samples) {
        rungs.insert(r.0.to_string(), Summary::of(samples).to_json(r.1));
    }
    let ladder = json!({
        "commit": std::env::var("BENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        "seed": seed,
        "seconds": seconds,
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "workloads": Value::Object(workloads),
        "rungs": Value::Object(rungs),
    });
    print(&ladder);
    append_history(&ladder);
    if problems.is_empty() {
        Ok(ladder)
    } else {
        Err(problems.join("; "))
    }
}

/// `(attempted, failed)` of a run's details.
fn attempted_failed(details: &Value) -> (u64, u64) {
    let get = |k| details.get(k).and_then(Value::as_u64).unwrap_or(0);
    (get("attempted"), get("attempted").saturating_sub(get("ok")))
}

fn print(ladder: &Value) {
    let summary = |v: Option<&Value>| v.and_then(Summary::from_json);
    println!("\nend-to-end (quiet quartile of the windows; setup_s: median) [q1, q3], tracing off");
    for (name, _) in WORKLOADS {
        let w = ladder.get("workloads").and_then(|w| w.get(name));
        let failed = w
            .and_then(|w| w.get("failed_share"))
            .and_then(Value::as_f64);
        println!(
            "  {name}  failed_share = {} ratio",
            failed.unwrap_or(f64::NAN)
        );
        for (metric, unit, _, _) in END_TO_END {
            if let Some(s) = summary(
                w.and_then(|w| w.get("end_to_end"))
                    .and_then(|e| e.get(metric)),
            ) {
                println!(
                    "    {metric:<14} {:>12.4} {unit:<5} [{:.4}, {:.4}] n={}",
                    s.value, s.q1, s.q3, s.n
                );
            }
        }
    }
    println!("\nrungs (median of the runs beside each workload [q1, q3])");
    for (metric, unit, _) in RUNGS {
        if let Some(s) = summary(ladder.get("rungs").and_then(|r| r.get(metric))) {
            println!(
                "  {metric:<40} {:>12.4} {unit:<6} [{:.4}, {:.4}]",
                s.value, s.q1, s.q3
            );
        }
    }
    println!("\ntraced pass, per workload (columns in the order above)");
    for (metric, unit, _) in TRACED {
        let cells: Vec<String> = WORKLOADS
            .iter()
            .map(|(name, _)| {
                let w = ladder.get("workloads").and_then(|w| w.get(name));
                let v = w.and_then(|w| w.get("traced")).and_then(|t| t.get(metric));
                format!("{:>11.4}", summary(v).map_or(f64::NAN, |s| s.value))
            })
            .collect();
        println!("  {metric:<40} {unit:<6}{}", cells.join(" "));
    }
}

/// One line per suite run: enough to plot a trajectory across commits.
fn append_history(ladder: &Value) {
    let mut medians = Map::new();
    for (name, _) in WORKLOADS {
        let e2e = ladder
            .get("workloads")
            .and_then(|w| w.get(name))
            .and_then(|w| w.get("end_to_end"));
        let mut m = Map::new();
        for (metric, _, _, _) in END_TO_END {
            let v = e2e.and_then(|e| e.get(metric)).and_then(|s| s.get("value"));
            m.insert(metric.to_string(), v.cloned().unwrap_or(Value::Null));
        }
        medians.insert(name.to_string(), Value::Object(m));
    }
    let line = json!({
        "commit": ladder.get("commit").cloned(),
        "seed": ladder.get("seed").cloned(),
        "seconds": ladder.get("seconds").cloned(),
        "nproc": ladder.get("nproc").cloned(),
        "workloads": Value::Object(medians),
    });
    let path = results_dir().join("history.jsonl");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| writeln!(f, "{}", serde_json::to_string(&line).expect("serializes")));
    if let Err(e) = appended {
        eprintln!("could not append to {}: {e}", path.display());
    }
}

/// Writes `ladder` under the results directory and says where.
pub fn save(ladder: &Value, name: &str) {
    write_result(name, ladder);
    println!("\nwrote {}", results_dir().join(name).display());
}
