//! Pins the bits of the timing answers on the `app_timing` benchmark's
//! inputs: the 20k-gate default circuit, eight views at a 0.4 ns base
//! clock, 128 paths per view.
//!
//! A change to the netlist layout or the path search must leave these
//! digests alone. The launch primary input of each path is left out: two
//! paths that differ only in it tie exactly (inputs have zero delay), and
//! which of them ranks first is the search's tie rule, not its answer.

use hf_timing::views::make_views;
use hf_timing::{k_critical_paths, run_sta, Circuit, CircuitConfig};

/// 64-bit FNV-1a over 32-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn circuit() -> Circuit {
    Circuit::synthesize(&CircuitConfig {
        num_gates: 20_000,
        ..CircuitConfig::default()
    })
}

#[test]
fn critical_paths_digest_is_pinned() {
    let c = circuit();
    let mut h = Fnv::new();
    for view in &make_views(8, 0.4) {
        let paths = k_critical_paths(&c, view, 128);
        assert_eq!(paths.len(), 128);
        for p in &paths {
            h.word(p.delay.to_bits());
            h.word(p.slack.to_bits());
            h.word(p.gates.len() as u32);
            for &g in &p.gates[1..] {
                h.word(g);
            }
        }
    }
    assert_eq!(h.0, PATHS_DIGEST, "paths digest {:#018x}", h.0);
}

#[test]
fn sta_digest_is_pinned() {
    let c = circuit();
    let views = make_views(8, 0.4);
    let mut h = Fnv::new();
    for view in [&views[0], &views[4]] {
        let r = run_sta(&c, view);
        for (a, q) in r.arrival.iter().zip(&r.required) {
            h.word(a.to_bits());
            h.word(q.to_bits());
        }
    }
    assert_eq!(h.0, STA_DIGEST, "sta digest {:#018x}", h.0);
}

const PATHS_DIGEST: u64 = 0x23e2_3655_786b_7595;
const STA_DIGEST: u64 = 0xe77c_709c_b22c_7e1d;
