//! Pins the answers of the placement application on the `app_place`
//! benchmark's inputs: 10k cells, 10k nets, locality 40, five iterations,
//! window 6, four matchers.
//!
//! A change to the database layout, the conflict graph or the matching
//! must leave these digests alone.

use hf_core::Executor;
use hf_place::{detailed_place, detailed_place_sequential, PlaceConfig};
use hf_place::{PlacementConfig, PlacementDb};

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

    fn wide(&mut self, w: u64) {
        self.word(w as u32);
        self.word((w >> 32) as u32);
    }
}

fn inputs() -> (PlacementDb, PlaceConfig) {
    let db = PlacementDb::synthesize(&PlacementConfig {
        num_cells: 10_000,
        num_nets: 10_000,
        locality: 40,
        seed: 1,
        ..PlacementConfig::default()
    });
    let cfg = PlaceConfig {
        iterations: 5,
        window_cap: 6,
        matchers: 4,
        seed: 0x5EED,
        ..PlaceConfig::default()
    };
    (db, cfg)
}

#[test]
fn conflict_graph_digest_is_pinned() {
    let (db, _) = inputs();
    let (offsets, neighbors) = db.netlist.conflict_adjacency();
    let mut h = Fnv::new();
    for &w in offsets.iter().chain(neighbors.iter()) {
        h.word(w);
    }
    assert_eq!(h.0, CONFLICT_DIGEST, "conflict digest {:#018x}", h.0);
}

#[test]
fn placement_digest_is_pinned() {
    let (db, cfg) = inputs();
    let seq = detailed_place_sequential(db.clone(), cfg);
    let par = detailed_place(&Executor::new(1, 1), db, cfg).expect("placement runs");
    assert_eq!(par.hpwl_trace, seq.hpwl_trace);
    assert_eq!(par.db.cells, seq.db.cells);
    let mut h = Fnv::new();
    h.wide(seq.hpwl_before);
    for &hpwl in &seq.hpwl_trace {
        h.wide(hpwl);
    }
    for c in &seq.db.cells {
        h.word(c.x);
        h.word(c.y);
        h.word(u32::from(c.fixed));
    }
    assert_eq!(h.0, PLACEMENT_DIGEST, "placement digest {:#018x}", h.0);
}

const CONFLICT_DIGEST: u64 = 0x1e50_48ed_f7e6_cf8c;
const PLACEMENT_DIGEST: u64 = 0x5c52_1e40_f36f_49f7;
