//! Property-based tests for the timing substrate.

use hf_timing::views::{make_views, Corner, Mode, View};
use hf_timing::{k_critical_paths, run_sta, Circuit, CircuitConfig};
use proptest::prelude::*;

fn arb_view() -> impl Strategy<Value = View> {
    (0.5f32..2.0, 0.1f32..2.0, 0.0f32..0.2).prop_map(|(scale, period, ocv)| View {
        corner: Corner {
            name: "p".into(),
            delay_scale: scale,
            ocv,
        },
        mode: Mode {
            name: "m".into(),
            clock_period: period,
        },
        seed: 0,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arrival times from the levelized sweep equal the reference
    /// longest-path recurrence on random circuits and views, and slack
    /// identity holds.
    #[test]
    fn sta_matches_reference(
        gates in 50usize..400,
        seed in any::<u64>(),
        view in arb_view(),
    ) {
        let c = Circuit::synthesize(&CircuitConfig {
            num_gates: gates,
            seed,
            ..Default::default()
        });
        let r = run_sta(&c, &view);
        let mut reference = vec![0.0f32; c.num_gates()];
        #[allow(clippy::needless_range_loop)] // builds reference[g] from reference[<g]
        for g in 0..c.num_gates() {
            let at = c.fanin[g]
                .iter()
                .map(|&f| reference[f as usize])
                .fold(0.0f32, f32::max);
            reference[g] = at + hf_timing::sta::gate_delay(&c, g, &view);
        }
        for (g, want) in reference.iter().enumerate() {
            prop_assert!((r.arrival[g] - want).abs() < 1e-4);
            prop_assert!((r.slack[g] - (r.required[g] - r.arrival[g])).abs() < 1e-4);
        }
        // WNS is the worst endpoint slack (when negative).
        let worst = c.primary_outputs.iter()
            .map(|&po| r.slack[po as usize])
            .fold(f32::INFINITY, f32::min);
        if worst < 0.0 {
            prop_assert!((r.wns - worst).abs() < 1e-5);
        } else {
            prop_assert_eq!(r.wns, 0.0);
        }
    }

    /// Critical paths come out in descending delay order, are valid
    /// PI→PO walks, and the top path's delay equals the max PO arrival.
    #[test]
    fn critical_paths_are_consistent(
        gates in 50usize..300,
        seed in any::<u64>(),
        k in 1usize..20,
    ) {
        let c = Circuit::synthesize(&CircuitConfig {
            num_gates: gates,
            seed,
            ..Default::default()
        });
        let view = &make_views(1, 0.5)[0];
        let r = run_sta(&c, view);
        let paths = k_critical_paths(&c, view, k);
        prop_assert!(!paths.is_empty());
        for w in paths.windows(2) {
            prop_assert!(w[0].delay >= w[1].delay - 1e-5);
        }
        for p in &paths {
            prop_assert!(c.primary_inputs.contains(&p.gates[0]));
            prop_assert!(c.primary_outputs.contains(p.gates.last().unwrap()));
            for e in p.gates.windows(2) {
                prop_assert!(c.fanout[e[0] as usize].contains(&e[1]));
            }
        }
        let max_po_arrival = c.primary_outputs.iter()
            .map(|&po| r.arrival[po as usize])
            .fold(0.0f32, f32::max);
        prop_assert!((paths[0].delay - max_po_arrival).abs() < 1e-4,
            "top path {} vs max arrival {}", paths[0].delay, max_po_arrival);
    }
}
