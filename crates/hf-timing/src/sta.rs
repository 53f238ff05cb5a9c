//! Static timing analysis: arrival/required/slack propagation.
//!
//! The classic OpenTimer-style forward/backward sweep: arrival times
//! propagate forward as a longest-path computation in (topological) id
//! order; required times propagate backward from the clock constraint in
//! reverse id order; slack = required − arrival. All quantities are per-view (the view's
//! corner scales delays; its mode sets the clock period).

use crate::netlist::Circuit;
use crate::views::View;

/// Per-gate timing quantities for one view.
#[derive(Debug, Clone)]
pub struct TimingReport {
    /// Latest signal arrival time per gate (ns).
    pub arrival: Vec<f32>,
    /// Required arrival time per gate (ns).
    pub required: Vec<f32>,
    /// Slack per gate: `required - arrival` (ns).
    pub slack: Vec<f32>,
    /// Worst negative slack over primary outputs (0 if none negative).
    pub wns: f32,
}

/// Effective delay of gate `g` under `view`: its nominal delay, scaled.
#[inline]
pub fn gate_delay(c: &Circuit, g: usize, view: &View) -> f32 {
    c.nominal[g] * view.corner.delay_scale
}

/// Every gate's [`gate_delay`] under `view`, in one pass.
pub(crate) fn gate_delays(c: &Circuit, view: &View) -> Vec<f32> {
    let scale = view.corner.delay_scale;
    c.nominal.iter().map(|d| d * scale).collect()
}

/// Runs a full forward/backward STA sweep for one view.
pub fn run_sta(c: &Circuit, view: &View) -> TimingReport {
    let n = c.num_gates();
    let delay = gate_delays(c, view);
    let mut arrival = vec![0.0f32; n];

    // Forward: longest-path arrival propagation in id (topological) order.
    for g in 0..n {
        let at_in = c.fanin(g).iter().map(|&f| arrival[f as usize]);
        arrival[g] = at_in.fold(0.0f32, f32::max) + delay[g];
    }

    // Backward: required times from the clock constraint at endpoints.
    let period = view.mode.clock_period;
    let mut required = vec![f32::INFINITY; n];
    for &po in &c.primary_outputs {
        required[po as usize] = period;
    }
    for g in (0..n).rev() {
        // required(g) = min over fanouts s of required(s) - delay(s).
        let rq = c
            .fanout(g)
            .iter()
            .map(|&s| required[s as usize] - delay[s as usize]);
        required[g] = rq.fold(required[g], f32::min);
    }
    // Gates with no path to an output keep required = +inf -> slack +inf;
    // clamp to the period for sane reporting.
    for r in required.iter_mut().filter(|r| !r.is_finite()) {
        *r = period;
    }

    let slack: Vec<f32> = required.iter().zip(&arrival).map(|(r, a)| r - a).collect();

    let wns = c
        .primary_outputs
        .iter()
        .map(|&po| slack[po as usize])
        .fold(0.0f32, f32::min);

    TimingReport {
        arrival,
        required,
        slack,
        wns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{CircuitConfig, Gate, GateKind};
    use crate::views::{Corner, Mode};

    fn test_view(scale: f32, period: f32) -> View {
        View {
            corner: Corner {
                name: "test".into(),
                delay_scale: scale,
                ocv: 0.05,
            },
            mode: Mode {
                name: "func".into(),
                clock_period: period,
            },
            seed: 0,
        }
    }

    /// Hand-built circuit: in0 -> inv -> and <- in1, and -> out.
    /// Arrival(out) = delay(inv) + delay(and).
    fn tiny() -> Circuit {
        use GateKind::{And, Input, Inv, Output};
        let gates = [Input, Input, Inv, And, Output].map(|kind| Gate {
            kind,
            delay_factor: 1.0,
        });
        let fanin = [vec![], vec![], vec![0], vec![2, 1], vec![3]];
        Circuit::new(gates.to_vec(), &fanin, vec![0, 1], vec![4])
    }

    #[test]
    fn arrival_is_longest_path() {
        let c = tiny();
        let v = test_view(1.0, 1.0);
        let r = run_sta(&c, &v);
        let expect = GateKind::Inv.base_delay() + GateKind::And.base_delay();
        assert!((r.arrival[4] - expect).abs() < 1e-6);
        // Through the short side (in1 -> and) arrival would be smaller:
        // longest path must win.
        assert!(r.arrival[3] > GateKind::And.base_delay());
    }

    #[test]
    fn slack_positive_under_loose_clock_negative_under_tight() {
        let c = tiny();
        let loose = run_sta(&c, &test_view(1.0, 1.0));
        assert!(loose.wns == 0.0);
        assert!(loose.slack[4] > 0.0);

        let tight = run_sta(&c, &test_view(1.0, 0.001));
        assert!(tight.wns < 0.0);
    }

    #[test]
    fn corner_scaling_scales_arrivals() {
        let c = tiny();
        let a = run_sta(&c, &test_view(1.0, 1.0));
        let b = run_sta(&c, &test_view(2.0, 1.0));
        assert!((b.arrival[4] - 2.0 * a.arrival[4]).abs() < 1e-6);
    }

    /// On any synthesized circuit, arrival computed by the sweep equals a
    /// reference longest-path recurrence.
    #[test]
    fn matches_reference_longest_path() {
        let c = Circuit::synthesize(&CircuitConfig {
            num_gates: 400,
            ..Default::default()
        });
        let v = test_view(1.1, 1.0);
        let r = run_sta(&c, &v);
        // Reference: process gates in id order (ids are topological by
        // construction).
        let mut reference = vec![0.0f32; c.num_gates()];
        #[allow(clippy::needless_range_loop)] // builds reference[g] from reference[<g]
        for g in 0..c.num_gates() {
            let at = c
                .fanin(g)
                .iter()
                .map(|&f| reference[f as usize])
                .fold(0.0f32, f32::max);
            reference[g] = at + gate_delay(&c, g, &v);
        }
        for (g, (a, want)) in r.arrival.iter().zip(&reference).enumerate() {
            assert!((a - want).abs() < 1e-5, "gate {g}: {a} vs {want}");
        }
    }

    /// Slack at every gate on a path is bounded by the endpoint slack
    /// (monotonicity sanity), and required >= arrival + slack identity.
    #[test]
    fn slack_identity() {
        let c = Circuit::synthesize(&CircuitConfig {
            num_gates: 300,
            ..Default::default()
        });
        let r = run_sta(&c, &test_view(1.0, 0.5));
        for g in 0..c.num_gates() {
            assert!((r.slack[g] - (r.required[g] - r.arrival[g])).abs() < 1e-6);
        }
    }
}
