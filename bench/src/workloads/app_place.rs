//! `app_place`: the paper's Fig 9 application. One op is a detailed
//! placement of 10k cells and 10k nets (locality 40, 5 iterations, window
//! 6, 4 matchers): what `detailed_place` does, taken apart so that graph
//! build, submit and wait each get a span. One worker and one device: see
//! [`super::workers`].

use super::{run_and_verify, ClosedLoop};
use crate::gen::Rng;
use crate::trace::Recorder;
use hf_core::Executor;
use hf_place::graph::GraphConfig;
use hf_place::{build_placement_graph, detailed_place_sequential, PlacementConfig, PlacementDb};

pub struct Inputs {
    pub db: PlacementDb,
    pub cfg: GraphConfig,
    /// HPWL after each iteration of the sequential reference.
    pub reference: Vec<u64>,
}

pub fn generate(seed: u64) -> Inputs {
    let db = PlacementDb::synthesize(&PlacementConfig {
        num_cells: 10_000,
        num_nets: 10_000,
        locality: 40,
        seed,
        ..PlacementConfig::default()
    });
    let cfg = GraphConfig {
        iterations: 5,
        window_cap: 6,
        matchers: 4,
        seed: Rng::new(seed, 9).next_u64(),
        ..GraphConfig::default()
    };
    let reference = detailed_place_sequential(db.clone(), cfg).hpwl_trace;
    Inputs { db, cfg, reference }
}

pub struct AppPlace {
    ex: Executor,
    db: PlacementDb,
    cfg: GraphConfig,
    reference: Vec<u64>,
}

impl ClosedLoop for AppPlace {
    type Inputs = Inputs;

    fn generate(seed: u64) -> Inputs {
        generate(seed)
    }

    fn build(inputs: &Inputs) -> Self {
        AppPlace {
            ex: Executor::new(1, 1),
            db: inputs.db.clone(),
            cfg: inputs.cfg,
            reference: inputs.reference.clone(),
        }
    }

    fn op(&mut self, rec: &mut Recorder) {
        let id = rec.next_op_id();
        let start = rec.now();
        let (g, run) = rec.time(id, "build", || {
            build_placement_graph(self.db.clone(), self.cfg)
        });
        run_and_verify(rec, id, start, &self.ex, &g, || {
            *run.hpwl_trace.lock() == self.reference && run.db.read().check_legal().is_ok()
        });
    }

    fn executor(&self) -> &Executor {
        &self.ex
    }
}
