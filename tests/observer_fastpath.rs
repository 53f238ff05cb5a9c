//! Observer-disabled fast path: with a flight recorder *installed but
//! disabled*, the executor emits zero lifecycle events and adds no
//! per-task allocation over running with no observer at all.
//!
//! A counting global allocator measures whole-process allocations around
//! identical workloads. The recorder's event count is the direct check
//! that nothing passes the `is_active` gate; the allocation budget bounds
//! whatever else an open gate would cost. Emission itself is cheap by
//! construction — an event is a timestamp plus reference-count bumps of
//! the graph's and the task's shared names, no allocation — and the last
//! test holds the *enabled* path to that.

use heteroflow::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Blocks and requested bytes currently held (wrapping: a block freed
/// here may predate the counters' first read, only deltas mean anything).
static LIVE_BLOCKS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BLOCKS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BLOCKS.fetch_sub(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const TASKS: usize = 512;

/// Serializes the tests: both measure the process-wide allocation
/// counter, so concurrent runs would pollute each other's deltas.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn host_graph(name: &str) -> Heteroflow {
    let g = Heteroflow::new(name);
    for i in 0..TASKS {
        g.host(&format!("t{i}"), || {
            std::hint::black_box(0u64);
        });
    }
    g
}

/// Allocations during one cached re-run of `g` on `ex` (min of 3, to
/// shave scheduler noise).
fn measure(ex: &Executor, g: &Heteroflow) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..3 {
        let before = ALLOCS.load(Ordering::SeqCst);
        ex.run(g).wait().expect("runs");
        best = best.min(ALLOCS.load(Ordering::SeqCst) - before);
    }
    best
}

#[test]
fn disabled_recorder_adds_no_events_and_no_allocation() {
    let _guard = SERIAL.lock().unwrap();
    // Baseline: no observer installed at all.
    let ex_base = Executor::new(2, 0);
    let g_base = host_graph("fastpath_base");
    ex_base.run(&g_base).wait().expect("warmup"); // freeze + place once
    let baseline = measure(&ex_base, &g_base);

    // Same workload with a disabled flight recorder installed.
    let recorder = FlightRecorder::shared();
    recorder.set_enabled(false);
    let ex_rec = Executor::builder(2, 0).observer(recorder.clone()).build();
    let g_rec = host_graph("fastpath_rec");
    ex_rec.run(&g_rec).wait().expect("warmup");
    let with_disabled = measure(&ex_rec, &g_rec);

    assert_eq!(
        recorder.events_recorded(),
        0,
        "disabled recorder must see zero lifecycle events"
    );
    assert!(recorder.summaries().is_empty());

    // Emission would cost >= 3 allocations per task (Arc'd name per
    // event, several events per task); allow generous scheduler noise
    // well below that.
    let budget = baseline + (TASKS as u64);
    assert!(
        with_disabled <= budget,
        "disabled-recorder run allocated {with_disabled}, baseline {baseline} \
         (budget {budget}) — lifecycle emission is leaking past the is_active gate"
    );
}

/// Flipping the recorder on makes the same executor emit — the gate is
/// the recorder's enabled flag, not installation time.
#[test]
fn enabling_recorder_turns_emission_on() {
    let _guard = SERIAL.lock().unwrap();
    let recorder = FlightRecorder::shared();
    recorder.set_enabled(false);
    let ex = Executor::builder(2, 0).observer(recorder.clone()).build();
    let g = host_graph("fastpath_toggle");
    ex.run(&g).wait().expect("runs");
    assert_eq!(recorder.events_recorded(), 0);

    recorder.set_enabled(true);
    ex.run(&g).wait().expect("runs");
    // RunStart/RunEnd plus per-task ready/started/finished.
    assert!(
        recorder.events_recorded() >= (TASKS as u64) * 3,
        "enabled recorder captures lifecycle events, got {}",
        recorder.events_recorded()
    );
}

/// Enabled, the recorder sees every event and still costs less than one
/// allocation per task: event names are shared with the frozen graph.
#[test]
fn enabled_recorder_allocates_less_than_once_per_task() {
    let _guard = SERIAL.lock().unwrap();
    let ex_base = Executor::new(2, 0);
    let g_base = host_graph("fastpath_base2");
    ex_base.run(&g_base).wait().expect("warmup");
    let baseline = measure(&ex_base, &g_base);

    let recorder = FlightRecorder::shared();
    let ex_rec = Executor::builder(2, 0).observer(recorder.clone()).build();
    let g_rec = host_graph("fastpath_enabled");
    ex_rec.run(&g_rec).wait().expect("warmup");
    let with_enabled = measure(&ex_rec, &g_rec);

    assert!(
        recorder.events_recorded() >= (TASKS as u64) * 3 * 4,
        "all four runs recorded"
    );
    let budget = baseline + (TASKS as u64);
    assert!(
        with_enabled <= budget,
        "enabled-recorder run allocated {with_enabled}, baseline {baseline} \
         (budget {budget}) — lifecycle events are allocating per task again"
    );
}

/// `(bytes, blocks)` the process holds right now.
fn live() -> (i64, i64) {
    (
        LIVE_BYTES.load(Ordering::SeqCst) as i64,
        LIVE_BLOCKS.load(Ordering::SeqCst) as i64,
    )
}

/// What a graph costs to hold: the builder keeps one allocation per name,
/// closure and edge list, the frozen snapshot adds a cache line per node
/// and two arrays per graph — not a second copy of every node — and a
/// cached re-run allocates nothing that scales with the task count.
#[test]
fn host_wavefront_footprint_per_task() {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    let _guard = SERIAL.lock().unwrap();
    const SIDE: usize = 48;
    let tasks = (SIDE * SIDE) as f64;
    let ex = Executor::new(1, 0);

    let start = live();
    // The shape the benchmark of record runs: every task checks its two
    // predecessors' cells and stamps its own.
    let cells: Arc<Vec<AtomicU64>> =
        Arc::new((0..SIDE * SIDE).map(|_| AtomicU64::new(0)).collect());
    let run = Arc::new(AtomicU64::new(1));
    let bad = Arc::new(AtomicBool::new(false));
    let g = Heteroflow::new("footprint");
    let mut handles: Vec<HostTask> = Vec::with_capacity(SIDE * SIDE);
    for i in 0..SIDE {
        for j in 0..SIDE {
            let (cells, run, bad) = (cells.clone(), run.clone(), bad.clone());
            let t = g.host(&format!("c{i}_{j}"), move || {
                let r = run.load(Ordering::Relaxed);
                let up = i == 0 || cells[(i - 1) * SIDE + j].load(Ordering::Acquire) == r;
                let left = j == 0 || cells[i * SIDE + j - 1].load(Ordering::Acquire) == r;
                if !(up && left) {
                    bad.store(true, Ordering::Relaxed);
                }
                cells[i * SIDE + j].store(r, Ordering::Release);
            });
            if i > 0 {
                t.succeed(&handles[(i - 1) * SIDE + j]);
            }
            if j > 0 {
                t.succeed(&handles[i * SIDE + j - 1]);
            }
            handles.push(t);
        }
    }
    drop(handles);
    let built = live();
    ex.run(&g).wait().expect("first run");
    let ran = live();
    assert!(!bad.load(Ordering::Relaxed));

    let per_task =
        |a: (i64, i64), b: (i64, i64)| ((b.0 - a.0) as f64 / tasks, (b.1 - a.1) as f64 / tasks);
    let (build_bytes, build_blocks) = per_task(start, built);
    let (run_bytes, run_blocks) = per_task(built, ran);
    let (bytes, blocks) = per_task(start, ran);
    println!(
        "per task: build {build_bytes:.0} B / {build_blocks:.2} blocks, \
         first run +{run_bytes:.0} B / +{run_blocks:.2} blocks, held {bytes:.0} B / {blocks:.2} blocks"
    );
    assert!(
        bytes <= 520.0,
        "build + first run hold {bytes:.0} B per task"
    );
    assert!(
        blocks <= 5.0,
        "build + first run hold {blocks:.2} blocks per task"
    );
    assert!(
        run_blocks <= 0.1,
        "the first run alone adds {run_blocks:.2} blocks per task"
    );
    let rerun = measure(&ex, &g);
    assert!(
        rerun < 64,
        "a cached re-run allocated {rerun} times for {tasks} tasks"
    );
}
