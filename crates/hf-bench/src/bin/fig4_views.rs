//! Figure 4: required timing-analysis views vs technology node.
//!
//! "The required analysis views in terms of corners and modes increase
//! exponentially as the technology node advances" (§IV-A). Prints the
//! corners/modes/views table and the growth factor per node.
//!
//! Usage: `cargo run -p hf-bench --bin fig4_views [--json]`

use hf_bench::Args;
use hf_timing::view_growth_table;

fn main() {
    let args = Args::parse();
    let table = view_growth_table();

    if args.flag("json") {
        let rows: Vec<serde_json::Value> = table
            .iter()
            .map(|r| {
                serde_json::json!({
                    "node_nm": r.node_nm,
                    "corners": r.corners,
                    "modes": r.modes,
                    "views": r.views(),
                })
            })
            .collect();
        let json = serde_json::to_string_pretty(&rows).expect("serializable");
        println!("{json}");
        return;
    }

    println!("=== Fig 4: analysis views vs technology node ===");
    println!(
        "{:>8} {:>9} {:>7} {:>7} {:>9}",
        "node", "corners", "modes", "views", "growth"
    );
    let mut prev: Option<u32> = None;
    for r in &table {
        let growth = match prev {
            Some(p) => format!("{:.2}x", r.views() as f64 / p as f64),
            None => "-".to_string(),
        };
        println!(
            "{:>6}nm {:>9} {:>7} {:>7} {:>9}",
            r.node_nm,
            r.corners,
            r.modes,
            r.views(),
            growth
        );
        prev = Some(r.views());
    }
    let total_growth = table.last().expect("non-empty").views() as f64
        / table.first().expect("non-empty").views() as f64;
    println!("\n180nm -> 7nm view growth: {total_growth:.0}x (exponential trend)");
}
