//! Streaming serving loop: a resident [`Session`] pipelines epochs so
//! the next round's H2D transfers overlap the current round's kernels.
//!
//! The graph models one inference-style round: a feature vector feeds a
//! scoring kernel on one device, while a large table is re-pulled
//! (chunked H2D) onto another. A control edge orders the table upload
//! before the kernel *within* each round — the kernel must score against
//! this round's table — so a plain `run()` pays copy then compute
//! serially. With `run_stream`, the submission preamble — freeze,
//! placement, fusion — is paid once, device residency stays warm across
//! rounds, and epoch N+1's chunked H2D copies execute while epoch N's
//! kernel still occupies its device. (Kernel occupancy is modeled with a
//! sleep on the device engine: as on a real GPU, a running kernel holds
//! its device without consuming host CPU, which is what the copy engine
//! overlaps.)
//!
//! The example *asserts* the pipelining via the stitched trace: it finds
//! a kernel span of epoch N wall-overlapping an H2D chunk span of epoch
//! N+1 (the interleaving is a race the scheduler usually wins, so a few
//! attempts are allowed).
//!
//! Run: `cargo run --release --example stream_serving`

use heteroflow::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const FEATURES: usize = 1 << 13; // scoring-kernel input (f32)
const TABLE: usize = 1 << 21; // chunked re-pull per round (f32)
const OCCUPANCY_MS: u64 = 8; // modeled kernel occupancy per round
const EPOCHS: usize = 6;
const ATTEMPTS: usize = 10;

fn main() {
    for attempt in 1..=ATTEMPTS {
        if let Some((k_epoch, kernel_span, chunk_span)) = serve_once() {
            println!(
                "pipelining observed on attempt {attempt}: epoch {} kernel \
                 [{}..{}us] overlaps epoch {} H2D chunks [{}..{}us]",
                k_epoch,
                kernel_span.0,
                kernel_span.1,
                k_epoch + 1,
                chunk_span.0,
                chunk_span.1,
            );
            return;
        }
    }
    panic!("no cross-epoch overlap observed in {ATTEMPTS} attempts");
}

/// A wall-clock extent in trace microseconds.
type ExtentUs = (u64, u64);

/// One serving campaign: opens a depth-2 stream, submits `EPOCHS` rounds
/// with per-round input mutation, checks the results, and scans the trace
/// for an epoch-N kernel span overlapping an epoch-N+1 chunk span.
/// Returns `(N, kernel_extent_us, chunk_extent_us)` on success.
fn serve_once() -> Option<(u64, ExtentUs, ExtentUs)> {
    let trace = TraceCollector::shared();
    let ex = Executor::builder(2, 2)
        .copy_chunk_threshold(64 * 1024)
        .copy_lanes(2)
        .tracer(Arc::clone(&trace))
        .build();

    // Branch A: small pull -> scoring kernel (the per-round compute).
    // Branch B: large pull, re-copied every round (the per-round data).
    // The control edge B -> kernel orders copy before compute within a
    // round but carries no data, so placement keeps the groups on
    // different devices.
    let features: HostVec<f32> = HostVec::from_vec(vec![1.0; FEATURES]);
    let table: HostVec<f32> = HostVec::from_vec(vec![0.5; TABLE]);
    let g = Heteroflow::new("serving_round");
    let pf = g.pull("pull_features", &features);
    let k = g.kernel("score", &[&pf], |cfg, args| {
        let v = args.slice_mut::<f32>(0).expect("features");
        for t in cfg.threads() {
            if t < v.len() {
                v[t] = v[t].mul_add(1.5, 0.25);
            }
        }
        // Device occupancy: holds this engine (not the host CPU) so the
        // kernel span is wide on the trace.
        std::thread::sleep(Duration::from_millis(OCCUPANCY_MS));
    });
    k.cover(FEATURES, 256);
    pf.precede(&k);
    let pt = g.pull("pull_table", &table);
    pt.precede(&k);

    let session = ex.run_stream(&g).expect("open stream");
    let futures: Vec<_> = (0..EPOCHS)
        .map(|e| {
            let table = table.clone();
            // Fresh table bytes each round: the chunked H2D must really
            // run every epoch (no elision).
            session.submit_with(move || {
                table.write()[0] = e as f32;
            })
        })
        .collect();
    for (e, f) in futures.iter().enumerate() {
        f.wait()
            .unwrap_or_else(|err| panic!("epoch {e} failed: {err}"));
    }
    session.close();
    drop(ex);

    let spans = trace.spans();
    // Kernel spans and H2D chunk spans, both tagged with their epoch.
    // Span names stay epoch-free; the epoch rides as a field.
    let kernels: Vec<_> = spans
        .iter()
        .filter(|s| s.cat == SpanCat::Task && s.name == "score" && s.epoch.is_some())
        .collect();
    let chunks: Vec<_> = spans
        .iter()
        .filter(|s| {
            matches!(s.track, Track::Device(_))
                && s.cat == SpanCat::Task
                && s.name.contains("#c")
                && s.epoch.is_some()
        })
        .collect();
    assert_eq!(kernels.len(), EPOCHS, "one kernel span per epoch");
    assert!(!chunks.is_empty(), "chunked H2D produced no chunk spans");

    for kspan in &kernels {
        let ke = kspan.epoch.expect("filtered");
        let next: Vec<_> = chunks.iter().filter(|c| c.epoch == Some(ke + 1)).collect();
        if next.is_empty() {
            continue;
        }
        let first = next.iter().map(|c| c.start_us).min().expect("non-empty");
        let last = next.iter().map(|c| c.end_us()).max().expect("non-empty");
        if kspan.start_us < last && first < kspan.end_us() {
            return Some((ke, (kspan.start_us, kspan.end_us()), (first, last)));
        }
    }
    None
}
