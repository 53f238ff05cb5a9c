//! The protocol one run follows, the same for every workload.
//!
//! * `--trace 0`: generate inputs; set up; warm up untimed; measure
//!   [`WINDOWS`] windows with all tracing off; read peak RSS; then set up
//!   several more times (the median of all set-ups is `setup_s`). Prints
//!   the end-to-end metrics.
//! * `--trace 1`: one set-up and warm-up; one untraced repetition; three
//!   traced repetitions, with spans, and the public counters read between
//!   them; then every rung. Prints the per-layer metrics and writes
//!   `trace-<workload>.json`.
//!
//! A window (or repetition) is one `drive` call, so an op belongs to the
//! window that issued and completed it. All windows are fractions of
//! `--seconds`: a shorter run shortens every window by the same factor.
//!
//! The reference box is a few cores of a shared host that sometimes takes
//! the CPU away for a while. The gated figures are therefore the quiet
//! quartile of many short windows (see [`fold_windows`]), not the median
//! of a few long ones; the share of the box `/proc/stat` reports as
//! stolen during each window is kept as a diagnostic.

use crate::counters::{traced_metrics, Counters};
use crate::metrics::{per_layer, unit_of, END_TO_END};
use crate::rungs;
use crate::stats::{fold_windows, latency_diagnostics, quantile, sorted, Summary};
use crate::trace::{durations_ms, self_ms_per_op, spans_to_json, Recorder, Span, Tally, ROOT};
use crate::workloads::Workload;
use serde_json::{json, Map, Value};
use std::time::{Duration, Instant};

/// Measured windows of an untraced run, `--seconds / WINDOWS` each: long
/// enough for a dozen ops of the slowest workload, short enough that a
/// burst of host activity spoils some windows and not the run.
pub const WINDOWS: usize = 40;
/// Untimed windows before them.
const WARM_WINDOWS: usize = 2;
/// The traced pass works in repetitions of `--seconds / 16`.
const TRACED_REPS: usize = 3;
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 256;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct RunOutput {
    pub tally: Tally,
    /// `(name, summary)` of every metric this kind of run reports.
    pub metrics: Vec<(String, Summary)>,
    /// Diagnostics that are written to the results file but not gated.
    pub diagnostics: Value,
}

impl RunOutput {
    /// No op errored or produced a wrong output.
    pub fn correct(&self) -> bool {
        self.tally.errored + self.tally.incorrect == 0
    }

    /// The one-line result the driver reads.
    pub fn contract_line(&self) -> String {
        let mut metrics = Map::new();
        for (name, s) in &self.metrics {
            metrics.insert(
                name.clone(),
                json!({"value": s.value, "unit": unit_of(name)}),
            );
        }
        let line = json!({
            "correct": self.correct(),
            "attempted": self.tally.attempted,
            "failed": self.tally.failed(),
            "metrics": Value::Object(metrics),
        });
        serde_json::to_string(&line).expect("serializes")
    }

    /// Everything behind the line: quartiles, sample counts, diagnostics.
    pub fn details(&self, args: &RunArgs) -> Value {
        let mut metrics = Map::new();
        for (name, s) in &self.metrics {
            metrics.insert(name.clone(), s.to_json(unit_of(name)));
        }
        json!({
            "workload": args.workload.as_str(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "correct": self.correct(),
            "attempted": self.tally.attempted,
            "ok": self.tally.ok,
            "errored": self.tally.errored,
            "refused": self.tally.refused,
            "incorrect": self.tally.incorrect,
            "metrics": Value::Object(metrics),
            "diagnostics": self.diagnostics.clone(),
        })
    }
}

fn fraction(seconds: f64, num: f64, den: f64) -> Duration {
    Duration::from_secs_f64(seconds * num / den)
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kib / 1024.0
}

/// CPU seconds the host has taken from this VM since boot, summed over
/// cores; 0 where the kernel does not say.
fn steal_secs() -> f64 {
    const USER_HZ: f64 = 100.0;
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |jiffies| jiffies / USER_HZ)
}

/// One `drive` call and what it cost.
struct Rep {
    rec: Recorder,
    secs: f64,
    /// Share of the box's CPU time the host took during the repetition.
    steal: f64,
}

fn repetition<W: Workload>(w: &mut W, window: Duration, tracing: bool) -> Rep {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let stolen = steal_secs();
    let mut rec = Recorder::new(tracing);
    w.drive(window, &mut rec);
    let secs = rec.now() as f64 / 1e9;
    Rep {
        rec,
        secs,
        steal: (steal_secs() - stolen) / (secs * cores),
    }
}

/// Sets the workload up once, timing it; warm ops go to `tally`.
fn timed_setup<W: Workload>(inputs: &W::Inputs, tally: &mut Tally) -> (W, f64) {
    let mut rec = Recorder::new(false);
    let t = Instant::now();
    let w = W::setup(inputs, &mut rec);
    let secs = t.elapsed().as_secs_f64();
    tally.add(&rec.ops);
    (w, secs)
}

pub fn run<W: Workload>(args: &RunArgs) -> RunOutput {
    let inputs = W::generate(args.seed);
    let mut tally = Tally::default();
    let out = if args.trace {
        traced::<W>(args, &inputs, &mut tally)
    } else {
        untraced::<W>(args, &inputs, &mut tally)
    };
    tally.check();
    RunOutput { tally, ..out }
}

fn untraced<W: Workload>(args: &RunArgs, inputs: &W::Inputs, tally: &mut Tally) -> RunOutput {
    let s = args.seconds;
    let window = fraction(s, 1.0, WINDOWS as f64);
    let (mut w, first_setup) = timed_setup::<W>(inputs, tally);
    let mut measure = |w: &mut W| {
        let rep = repetition(w, window, false);
        tally.add(&rep.rec.ops);
        rep
    };
    for _ in 0..WARM_WINDOWS {
        measure(&mut w);
    }
    let reps: Vec<Rep> = (0..WINDOWS).map(|_| measure(&mut w)).collect();
    // Peak RSS is read while the process has held one instance of the
    // workload, as a user's would; the set-ups repeated for `setup_s`
    // come after, until a tenth of the run length is spent on them.
    let rss = rss_peak_mib();
    drop(w);
    let budget = fraction(s, 1.0, 10.0);
    let started = Instant::now();
    let mut setups = vec![first_setup];
    while setups.len() < MAX_SETUPS && (setups.len() < MIN_SETUPS || started.elapsed() < budget) {
        setups.push(timed_setup::<W>(inputs, tally).1);
    }

    let (counts, latencies): (Vec<usize>, Vec<Vec<f64>>) =
        reps.iter().map(|r| r.rec.ok_ops()).unzip();
    let secs: Vec<f64> = reps.iter().map(|r| r.secs).collect();
    let steal: Vec<f64> = reps.iter().map(|r| r.steal).collect();
    let pass = fold_windows(&counts, &secs, &latencies);
    let metrics = vec![
        ("ops_per_s", pass.ops_per_s),
        ("lat_p50_ms", pass.lat_p50_ms),
        ("setup_s", Summary::of(setups)),
        ("rss_peak_mib", Summary::single(rss)),
    ];
    debug_assert!(metrics
        .iter()
        .map(|m| m.0)
        .eq(END_TO_END.iter().map(|m| m.0)));
    RunOutput {
        tally: *tally,
        metrics: metrics
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        diagnostics: json!({
            "lat_p90_ms": pass.lat_p90_ms.to_json("ms"),
            "latency": latency_diagnostics(latencies.into_iter().flatten().collect()),
            "ops_per_window": counts,
            "steal_share_per_window": steal,
        }),
    }
}

fn traced<W: Workload>(args: &RunArgs, inputs: &W::Inputs, tally: &mut Tally) -> RunOutput {
    let s = args.seconds;
    let window = fraction(s, 1.0, 16.0);
    let (mut w, _) = timed_setup::<W>(inputs, tally);
    tally.add(&repetition(&mut w, window, false).rec.ops);

    // One repetition with tracing off, to price the tracing itself.
    let plain = repetition(&mut w, window, false);
    tally.add(&plain.rec.ops);
    let plain_rate = plain.rec.ok_ops().0 as f64 / plain.secs;

    // The traced repetitions, the public counters read around each.
    let mut samples: Vec<(f64, Counters)> = vec![(0.0, w.counters())];
    let mut spans: Vec<Span> = Vec::new();
    let (mut ops, mut ok, mut secs) = (0, 0, 0.0);
    for rep_no in 0..TRACED_REPS as u64 {
        let rep = repetition(&mut w, window, true);
        tally.add(&rep.rec.ops);
        ops += rep.rec.ops.len() as u64;
        ok += rep.rec.ok_ops().0;
        // Op ids and clocks restart per repetition; keep both unique.
        let (id_base, t_base) = (rep_no << 40, (secs * 1e9) as u64);
        spans.extend(rep.rec.spans.iter().map(|sp| Span {
            op_id: sp.op_id + id_base,
            start_ns: sp.start_ns + t_base,
            end_ns: sp.end_ns + t_base,
            ..*sp
        }));
        secs += rep.secs;
        samples.push((secs, w.counters()));
    }
    drop(w);
    let (before, after) = (&samples[0].1, &samples[TRACED_REPS].1);

    // Every per-layer metric is reported by every run; the ones this
    // workload never exercises stay 0.
    let mut values: Vec<(String, Summary)> = per_layer()
        .map(|m| (m.0.to_string(), Summary::single(0.0)))
        .collect();
    let mut set = |name: &str, v: Summary| {
        values
            .iter_mut()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the registry"))
            .1 = v;
    };
    for (name, v) in traced_metrics(before, after, ops, secs) {
        set(&name, Summary::single(v));
    }
    for (span, ms) in self_ms_per_op(&spans) {
        let name = if span == ROOT { "harness" } else { span };
        if name != "late" {
            set(&format!("bench.span.{name}_self_ms"), Summary::single(ms));
        }
    }
    let traced_rate = ok as f64 / secs;
    set(
        "bench.trace_overhead_ratio",
        Summary::single(plain_rate / traced_rate),
    );
    let late = sorted(durations_ms(&spans, "late"));
    if !late.is_empty() {
        set(
            "bench.gen_late_p99_ms",
            Summary::single(quantile(&late, 0.99)),
        );
    }
    if !after.tenants.is_empty() {
        let calls_us = durations_ms(&spans, "submit")
            .into_iter()
            .map(|ms| ms * 1e3);
        set(
            "hf-core.fleet.submit_call_us",
            Summary::of(calls_us.collect()),
        );
    }
    let rungs_started = Instant::now();
    for (name, v) in rungs::run_all(args.seed, fraction(s, 1.0, 128.0)) {
        set(name, v);
    }
    eprintln!("rungs took {:.2} s", rungs_started.elapsed().as_secs_f64());

    let trace_file = json!({
        "workload": args.workload.as_str(),
        "seed": args.seed,
        "spans": spans_to_json(&spans),
        "counter_samples": Value::Array(samples.iter().map(|(t, c)| json!({
            "t_s": *t,
            "counters": c.to_json(),
        })).collect()),
    });
    crate::write_result(&format!("trace-{}.json", args.workload), &trace_file);

    RunOutput {
        tally: *tally,
        metrics: values,
        diagnostics: json!({
            "traced_ops": ops,
            "traced_seconds": secs,
            "untraced_ops_per_s": plain_rate,
            "traced_ops_per_s": traced_rate,
        }),
    }
}
