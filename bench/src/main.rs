//! `bench_ladder`: the repository's benchmark of record.
//!
//! ```text
//! bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of stdout is its result
//! bench/run.sh [--seed <n>] [--seconds <s>] [--smoke] [--out <file>]
//!     the whole ladder: every workload untraced and traced, one child each
//! bench/run.sh --aa [--seed <n>] [--seconds <s>]
//!     the ladder twice on the same build; fails unless every row is `same`
//! bench/run.sh --compare A.json B.json
//!     one row per (workload, end-to-end metric), A being the base
//! ```
//!
//! Every layer is measured from outside, through public items only; the
//! list in `bench/README.md` is the API this package needs to compile.

mod compare;
mod counters;
mod gen;
mod measure;
mod metrics;
mod rungs;
mod stats;
mod suite;
mod trace;
mod workloads;

use measure::{RunArgs, RunOutput};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{
    app_place::AppPlace, app_timing::AppTiming, fleet_mixed::FleetMixed,
    gpu_wavefront::GpuWavefront, sched_host::SchedHost, stream_serving::StreamServing, xfer::Xfer,
    Closed, GATED, WORKLOADS,
};

/// Where result files go: `bench/results` under the current directory,
/// which `bench/run.sh` makes the root of the checkout.
pub fn results_dir() -> PathBuf {
    PathBuf::from("bench/results")
}

pub fn write_result(name: &str, value: &Value) {
    let dir = results_dir();
    let text = serde_json::to_string_pretty(value).expect("serializes");
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(name), text));
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", dir.join(name).display());
    }
}

pub fn read_json(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

fn run_workload(args: &RunArgs) -> Result<RunOutput, String> {
    Ok(match args.workload.as_str() {
        "sched_host" => measure::run::<Closed<SchedHost>>(args),
        "gpu_wavefront" => measure::run::<Closed<GpuWavefront>>(args),
        "xfer_recopy" => measure::run::<Closed<Xfer<true>>>(args),
        "xfer_resident" => measure::run::<Closed<Xfer<false>>>(args),
        "stream_serving" => measure::run::<StreamServing>(args),
        "fleet_mixed" => measure::run::<FleetMixed>(args),
        "app_timing" => measure::run::<Closed<AppTiming>>(args),
        "app_place" => measure::run::<Closed<AppPlace>>(args),
        other => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!(
                "unknown workload {other}; known: {}",
                names.join(", ")
            ));
        }
    })
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        aa: false,
        out: None,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => cli.trace = value()? == "1",
            "--out" => cli.out = Some(value()?),
            "--compare" => cli.compare = Some((value()?, value()?)),
            "--aa" => cli.aa = true,
            // A twentieth of every window, verification on.
            "--smoke" => cli.seconds = 1.0,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(cli)
}

fn main_inner(cli: Cli) -> Result<(), String> {
    if let Some((a, b)) = &cli.compare {
        let rows = compare::rows(&read_json(Path::new(a))?, &read_json(Path::new(b))?);
        compare::print(&rows);
        return Ok(());
    }
    if let Some(workload) = cli.workload {
        let args = RunArgs {
            workload,
            seed: cli.seed,
            seconds: cli.seconds,
            trace: cli.trace,
        };
        let out = run_workload(&args)?;
        let file = format!("run-{}-trace{}.json", args.workload, args.trace as u8);
        write_result(&file, &out.details(&args));
        for (name, s) in &out.metrics {
            eprintln!(
                "{name} = {} {} [{}, {}] n={}",
                s.value,
                metrics::unit_of(name),
                s.q1,
                s.q3,
                s.n
            );
        }
        println!("{}", out.contract_line());
        return Ok(());
    }
    let default_name = format!("ladder-seed{}.json", cli.seed);
    if cli.aa {
        let a = suite::run(cli.seed, cli.seconds)?;
        suite::save(&a, &format!("aa-a-seed{}.json", cli.seed));
        let b = suite::run(cli.seed, cli.seconds)?;
        suite::save(&b, &format!("aa-b-seed{}.json", cli.seed));
        let rows = compare::rows(&a, &b);
        compare::print(&rows);
        // Held to `same`: the workloads the driver gates. The other rows
        // are printed for the reader.
        let moved = rows
            .iter()
            .filter(|r| GATED.contains(&r.workload) && r.verdict != compare::Verdict::Same)
            .count();
        return if moved == 0 {
            Ok(())
        } else {
            Err(format!(
                "{moved} gated rows differ between two runs of the same build"
            ))
        };
    }
    let ladder = suite::run(cli.seed, cli.seconds)?;
    suite::save(&ladder, cli.out.as_deref().unwrap_or(&default_name));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(main_inner) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_ladder: {e}");
            ExitCode::FAILURE
        }
    }
}
