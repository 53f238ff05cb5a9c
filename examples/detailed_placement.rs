//! VLSI detailed placement — the paper's second application (§IV-B,
//! Figs 7–8).
//!
//! Synthesizes a bigblue4-like placement, runs the matching-based
//! detailed-placement algorithm (GPU maximal independent set →
//! sequential partitioning → parallel bipartite matching) as a flattened
//! Heteroflow task graph, and prints the HPWL trajectory. Also verifies
//! the parallel run against the sequential reference.
//!
//! Run: `cargo run --release --example detailed_placement -- [cells] [iters]`

use heteroflow::place::{
    detailed_place, detailed_place_sequential, PlaceConfig, PlacementConfig, PlacementDb,
};
use heteroflow::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let cells: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2_000);
    let iters: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(5);

    println!("synthesizing {cells}-cell placement ...");
    let db_cfg = PlacementConfig {
        num_cells: cells,
        num_nets: cells,
        locality: 40, // loose nets leave room for improvement
        ..Default::default()
    };
    let db = PlacementDb::synthesize(&db_cfg);
    db.check_legal()
        .expect("generator produces legal placements");
    println!(
        "layout: {} rows x {} sites, {} nets, HPWL {}",
        db.num_rows,
        db.sites_per_row,
        db.netlist.num_nets(),
        db.total_hpwl()
    );

    let cfg = PlaceConfig {
        iterations: iters,
        window_cap: 6,
        matchers: 4,
        ..Default::default()
    };

    let executor = Executor::new(4, 2);
    let t0 = std::time::Instant::now();
    let out = detailed_place(&executor, db.clone(), cfg).expect("placement graph runs");
    let elapsed = t0.elapsed();

    println!("\n=== detailed placement ({iters} iterations, {elapsed:.2?}) ===");
    println!("HPWL before: {}", out.hpwl_before);
    for (it, h) in out.hpwl_trace.iter().enumerate() {
        let gain = 100.0 * (out.hpwl_before as f64 - *h as f64) / out.hpwl_before as f64;
        println!("  iter {it:>2}: HPWL {h}  ({gain:+.2}%)");
    }
    out.db.check_legal().expect("placement stays legal");

    // The Heteroflow-parallel run is bit-identical to the sequential
    // reference: same priorities, exact kernels, independent windows.
    let seq = detailed_place_sequential(db, cfg);
    assert_eq!(seq.hpwl_trace, out.hpwl_trace, "parallel == sequential");
    println!(
        "\nverified against sequential reference: final HPWL {} ({:.2}% improvement)",
        out.hpwl_after,
        100.0 * (out.hpwl_before as f64 - out.hpwl_after as f64) / out.hpwl_before as f64
    );
}
