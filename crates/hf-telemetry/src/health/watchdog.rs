//! The straggler/hang watchdog: a monitor thread over a flight recorder.

use super::events::{HealthEvent, HealthVerdict};
use super::recorder::FlightRecorder;
use hf_core::{lifecycle_now_ns, Completion};
use parking_lot::Mutex;
use serde_json::{Map, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Watchdog thresholds. Defaults suit tests and interactive use; raise
/// them for production-sized runs.
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// Monitor poll period.
    pub poll: Duration,
    /// Quiet time before a `Warn`.
    pub warn_after: Duration,
    /// Quiet time before a `Stall`.
    pub stall_after: Duration,
    /// Quiet time before a `Hang`.
    pub hang_after: Duration,
    /// A task is a straggler when its runtime exceeds
    /// `straggler_factor ×` its learned EWMA estimate…
    pub straggler_factor: f64,
    /// …and also exceeds this absolute floor (filters noise on
    /// microsecond tasks).
    pub straggler_min: Duration,
    /// Quiet time after which the watchdog cancels the run
    /// (`None` = observe only, never cancel).
    pub cancel_after: Option<Duration>,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            poll: Duration::from_millis(10),
            warn_after: Duration::from_millis(100),
            stall_after: Duration::from_millis(500),
            hang_after: Duration::from_secs(5),
            straggler_factor: 4.0,
            straggler_min: Duration::from_millis(50),
            cancel_after: None,
        }
    }
}

/// One armed run, tracked by the monitor thread.
struct ArmedRun {
    handle: Completion,
    label: String,
    level: HealthVerdict,
    last_events: u64,
    last_progress_ns: u64,
    flagged: Vec<u32>,
    cancelled: bool,
    done: bool,
}

struct WatchInner {
    recorder: Arc<FlightRecorder>,
    config: WatchdogConfig,
    shutdown: AtomicBool,
    runs: Mutex<Vec<ArmedRun>>,
    events: Mutex<Vec<HealthEvent>>,
}

impl WatchInner {
    /// One monitor tick: pump the recorder, then walk armed runs.
    fn tick(&self) {
        self.recorder.pump();
        let now = lifecycle_now_ns();
        let cfg = &self.config;
        let mut runs = self.runs.lock();
        let mut out = Vec::new();
        for run in runs.iter_mut() {
            if run.done {
                continue;
            }
            let run_id = run.handle.run_id();
            if run.handle.is_done() {
                run.done = true;
                if run.level > HealthVerdict::Healthy {
                    out.push(HealthEvent::Recovered {
                        run_id,
                        from: run.level,
                        t_ns: now,
                    });
                    run.level = HealthVerdict::Healthy;
                }
                continue;
            }
            let progress = self.recorder.run_progress(run_id);
            if let Some(p) = &progress {
                if p.events > run.last_events {
                    run.last_events = p.events;
                    run.last_progress_ns = now;
                    if run.level > HealthVerdict::Healthy {
                        out.push(HealthEvent::Recovered {
                            run_id,
                            from: run.level,
                            t_ns: now,
                        });
                        run.level = HealthVerdict::Healthy;
                    }
                }
            }
            let idle_ns = now.saturating_sub(run.last_progress_ns);
            let idle = Duration::from_nanos(idle_ns);
            let target = if idle >= cfg.hang_after {
                HealthVerdict::Hang
            } else if idle >= cfg.stall_after {
                HealthVerdict::Stall
            } else if idle >= cfg.warn_after {
                HealthVerdict::Warn
            } else {
                HealthVerdict::Healthy
            };
            // Escalate one rung at a time so every level is visible.
            while run.level < target {
                run.level = match run.level {
                    HealthVerdict::Healthy => HealthVerdict::Warn,
                    HealthVerdict::Warn => HealthVerdict::Stall,
                    _ => HealthVerdict::Hang,
                };
                out.push(HealthEvent::Escalated {
                    run_id,
                    level: run.level,
                    idle_ns,
                    t_ns: now,
                });
            }
            // Straggler scan: in-flight tasks far past their estimate.
            if let Some(p) = &progress {
                for &(task, ref name, started_ns) in &p.inflight {
                    if run.flagged.contains(&task) {
                        continue;
                    }
                    let runtime_ns = now.saturating_sub(started_ns);
                    if runtime_ns < cfg.straggler_min.as_nanos() as u64 {
                        continue;
                    }
                    let est = self
                        .recorder
                        .exec_estimate(&run.label, task)
                        .unwrap_or(cfg.straggler_min.as_nanos() as f64);
                    if runtime_ns as f64 > cfg.straggler_factor * est {
                        run.flagged.push(task);
                        out.push(HealthEvent::Straggler {
                            run_id,
                            task,
                            name: name.to_string(),
                            runtime_ns,
                            estimate_ns: est as u64,
                            t_ns: now,
                        });
                    }
                }
            }
            if let Some(deadline) = cfg.cancel_after {
                if !run.cancelled && idle >= deadline {
                    run.cancelled = true;
                    run.handle.cancel();
                    out.push(HealthEvent::DeadlineCancelled { run_id, t_ns: now });
                }
            }
        }
        drop(runs);
        if !out.is_empty() {
            self.events.lock().extend(out);
        }
    }

    fn verdict(&self) -> HealthVerdict {
        self.runs
            .lock()
            .iter()
            .filter(|r| !r.done)
            .map(|r| r.level)
            .max()
            .unwrap_or(HealthVerdict::Healthy)
    }
}

/// Straggler/hang watchdog: a monitor thread that pumps a
/// [`FlightRecorder`] and watches armed runs for quiet windows and
/// stragglers, escalating structured [`HealthEvent`]s.
pub struct Watchdog {
    inner: Arc<WatchInner>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Watchdog {
    /// Spawns the monitor thread.
    pub fn spawn(recorder: Arc<FlightRecorder>, config: WatchdogConfig) -> Arc<Self> {
        let inner = Arc::new(WatchInner {
            recorder,
            config,
            shutdown: AtomicBool::new(false),
            runs: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
        });
        let monitor = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name("hf-watchdog".into())
            .spawn(move || {
                // Sleep in short slices so Drop's join never waits a full
                // (possibly long) poll period for the thread to notice
                // shutdown.
                let slice = monitor.config.poll.min(Duration::from_millis(20));
                let mut slept = Duration::ZERO;
                while !monitor.shutdown.load(Ordering::Acquire) {
                    std::thread::sleep(slice);
                    slept += slice;
                    if slept >= monitor.config.poll {
                        slept = Duration::ZERO;
                        monitor.tick();
                    }
                }
            })
            .expect("spawn watchdog thread");
        Arc::new(Self {
            inner,
            thread: Mutex::new(Some(handle)),
        })
    }

    /// Arms the watchdog for `fut`'s run. `label` names the run in
    /// events and must match the graph name for straggler estimates to
    /// resolve. Already-done or ready futures (run id 0) are ignored.
    pub fn arm(&self, fut: &Completion, label: &str) {
        if fut.run_id() == 0 || fut.is_done() {
            return;
        }
        let now = lifecycle_now_ns();
        self.inner.runs.lock().push(ArmedRun {
            handle: fut.clone(),
            label: label.to_string(),
            level: HealthVerdict::Healthy,
            last_events: 0,
            last_progress_ns: now,
            flagged: Vec::new(),
            cancelled: false,
            done: false,
        });
    }

    /// Worst current severity across armed, unfinished runs.
    pub fn verdict(&self) -> HealthVerdict {
        self.inner.verdict()
    }

    /// All health events observed so far, in order.
    pub fn events(&self) -> Vec<HealthEvent> {
        self.inner.events.lock().clone()
    }

    /// Forces one monitor tick now (tests, scrape handlers).
    pub fn tick_now(&self) {
        self.inner.tick();
    }

    /// The `/health` document: overall verdict, per-run state, events.
    pub fn health_json(&self) -> Value {
        let mut o = Map::new();
        o.insert(
            "verdict".into(),
            Value::Str(self.verdict().name().to_string()),
        );
        let now = lifecycle_now_ns();
        let runs = self.inner.runs.lock();
        o.insert(
            "runs".into(),
            Value::Array(
                runs.iter()
                    .map(|r| {
                        let mut ro = Map::new();
                        ro.insert("run_id".into(), Value::UInt(r.handle.run_id()));
                        ro.insert("label".into(), Value::Str(r.label.clone()));
                        ro.insert("level".into(), Value::Str(r.level.name().to_string()));
                        ro.insert("done".into(), Value::Bool(r.done));
                        ro.insert("cancelled".into(), Value::Bool(r.cancelled));
                        ro.insert(
                            "idle_ns".into(),
                            Value::UInt(if r.done {
                                0
                            } else {
                                now.saturating_sub(r.last_progress_ns)
                            }),
                        );
                        Value::Object(ro)
                    })
                    .collect(),
            ),
        );
        drop(runs);
        o.insert(
            "events".into(),
            Value::Array(self.events().iter().map(HealthEvent::to_json).collect()),
        );
        Value::Object(o)
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.thread.lock().take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_escalates_and_recovers() {
        let recorder = FlightRecorder::shared();
        let wd = Watchdog::spawn(
            Arc::clone(&recorder),
            WatchdogConfig {
                poll: Duration::from_secs(3600), // tick manually
                warn_after: Duration::from_nanos(1),
                stall_after: Duration::from_nanos(2),
                hang_after: Duration::from_secs(3600),
                ..WatchdogConfig::default()
            },
        );
        // Arm a synthetic run via a never-completing handle substitute:
        // use a real executor run? Simpler: recorder-only escalation needs
        // a Completion handle, so drive a real (blocked) run in the executor
        // integration tests; here exercise verdict bookkeeping directly.
        assert_eq!(wd.verdict(), HealthVerdict::Healthy);
        assert!(wd.events().is_empty());
    }

}
