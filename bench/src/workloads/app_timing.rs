//! `app_timing`: the paper's Fig 6 application. One op builds the 8-view
//! timing-correlation graph over a 20k-gate circuit (128 paths per view,
//! 40 epochs) and runs it: a fresh graph, hence a cold plan, every op.
//! One worker and one device: see [`super::workers`].
//!
//! The seed drives the inputs that shape the data but not the amount of
//! work: the clock the views are built around, the clock-tree segment
//! delay and the learning rate. The netlist's wiring is the same for
//! every seed, because the k-critical-path search costs 7.6 to 14.7 ms
//! over ten differently wired circuits of this size, and a benchmark run
//! on another seed must measure the program, not the draw.

use super::{run_and_verify, ClosedLoop};
use crate::gen::Rng;
use crate::trace::Recorder;
use hf_core::Executor;
use hf_timing::views::{make_views, View};
use hf_timing::{build_correlation_graph, Circuit, CircuitConfig, CorrelationConfig};
use std::sync::Arc;

pub struct Inputs {
    pub circuit: Arc<Circuit>,
    pub views: Vec<View>,
    pub cfg: CorrelationConfig,
}

pub fn generate(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 10);
    let mut around = |mid: f64, rel: f64| (mid * (1.0 + rel * (2.0 * rng.next_f64() - 1.0))) as f32;
    Inputs {
        circuit: Arc::new(Circuit::synthesize(&CircuitConfig {
            num_gates: 20_000,
            ..CircuitConfig::default()
        })),
        views: make_views(8, around(0.4, 0.05)),
        cfg: CorrelationConfig {
            paths_per_view: 128,
            epochs: 40,
            clock_seg_delay: around(0.04, 0.1),
            learning_rate: around(0.3, 0.1),
            ..CorrelationConfig::default()
        },
    }
}

pub struct AppTiming {
    ex: Executor,
    inputs: Inputs,
    /// The first op's mean correlation; the inputs never change, so every
    /// later op must reproduce it.
    first: Option<f64>,
}

impl ClosedLoop for AppTiming {
    type Inputs = Inputs;

    fn generate(seed: u64) -> Inputs {
        generate(seed)
    }

    fn build(inputs: &Inputs) -> Self {
        AppTiming {
            ex: Executor::new(1, 1),
            inputs: Inputs {
                circuit: inputs.circuit.clone(),
                views: inputs.views.clone(),
                cfg: inputs.cfg,
            },
            first: None,
        }
    }

    fn op(&mut self, rec: &mut Recorder) {
        let id = rec.next_op_id();
        let start = rec.now();
        let i = &self.inputs;
        let built = rec.time(id, "build", || {
            build_correlation_graph(i.circuit.clone(), &i.views, i.cfg)
        });
        let first = &mut self.first;
        run_and_verify(rec, id, start, &self.ex, &built.graph, || {
            let report = built.report.lock();
            let mean = report.mean_correlation;
            report.weights.len() == i.views.len()
                && mean.is_finite()
                && (mean - *first.get_or_insert(mean)).abs() <= 1e-9
        });
    }

    fn executor(&self) -> &Executor {
        &self.ex
    }
}
