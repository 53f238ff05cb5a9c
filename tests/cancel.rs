//! Cancellation and timeout semantics of the run-control API:
//! `RunFuture::cancel`, `wait_timeout`, `is_done`, and their interaction
//! with in-flight rounds and GPU streams.

use heteroflow::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn gpu_lane(g: &Heteroflow, name: &str, data: &HostVec<i32>) {
    let p = g.pull(&format!("{name}_pull"), data);
    let k = g.kernel(&format!("{name}_k"), &[&p], |cfg, args| {
        let xs = args.slice_mut::<i32>(0).unwrap();
        for i in cfg.threads() {
            if i < xs.len() {
                xs[i] += 1;
            }
        }
    });
    k.block_x(64);
    let s = g.push(&format!("{name}_push"), &p, data);
    p.precede(&k);
    k.precede(&s);
}

/// Cancelling a long multi-round run settles it promptly with
/// `HfError::Cancelled`, counts it in the stats, and leaves the executor
/// fully usable.
#[test]
fn cancel_mid_run_settles_with_cancelled() {
    let ex = Executor::new(2, 1);
    let g = Heteroflow::new("long");
    let x: HostVec<i32> = HostVec::from_vec(vec![1; 64]);
    // A slow host tick plus a GPU lane: cancellation must reach both the
    // worker path and ops pending on the device stream.
    g.host("tick", || std::thread::sleep(Duration::from_micros(200)));
    gpu_lane(&g, "lane", &x);

    let fut = ex.run_n(&g, 1_000_000);
    std::thread::sleep(Duration::from_millis(20));
    assert!(!fut.is_done());
    fut.cancel();
    let res = fut
        .wait_timeout(Duration::from_secs(10))
        .expect("cancelled run must settle, not hang");
    assert_eq!(res, Err(HfError::Cancelled));
    assert!(fut.is_done());
    assert!(ex.snapshot().cancelled >= 1);

    // The executor takes new work afterwards.
    let g2 = Heteroflow::new("after");
    let ran = Arc::new(AtomicUsize::new(0));
    let r = Arc::clone(&ran);
    g2.host("fine", move || {
        r.store(1, Ordering::SeqCst);
    });
    ex.run(&g2).wait().unwrap();
    assert_eq!(ran.load(Ordering::SeqCst), 1);
}

/// `wait_timeout` returns `None` while the run is in flight and the
/// result once it finishes; a finished future answers immediately.
#[test]
fn wait_timeout_expires_then_succeeds() {
    let ex = Executor::new(2, 0);
    let gate = Arc::new(AtomicBool::new(false));
    let g = Heteroflow::new("gated");
    let gate2 = Arc::clone(&gate);
    g.host("gated", move || {
        while !gate2.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    let fut = ex.run(&g);
    assert_eq!(fut.wait_timeout(Duration::from_millis(50)), None);
    assert!(!fut.is_done());
    gate.store(true, Ordering::Release);
    assert_eq!(fut.wait(), Ok(()));
    assert!(fut.is_done());
    assert_eq!(fut.wait_timeout(Duration::ZERO), Some(Ok(())));
}

/// The future is multi-wait: repeated waits and waits through clones all
/// observe the same result.
#[test]
fn double_wait_and_clones_agree() {
    let ex = Executor::new(2, 0);
    let g = Heteroflow::new("multi");
    g.host("t", || {});
    let fut = ex.run(&g);
    let clone = fut.clone();
    assert_eq!(fut.wait(), Ok(()));
    assert_eq!(fut.wait(), Ok(()));
    assert_eq!(clone.wait(), Ok(()));
    assert_eq!(clone.wait_timeout(Duration::ZERO), Some(Ok(())));
}

/// Cancelling after completion is a no-op: the settled result stays, and
/// nothing is counted as cancelled.
#[test]
fn cancel_after_complete_is_noop() {
    let ex = Executor::new(2, 0);
    let g = Heteroflow::new("done");
    let count = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&count);
    g.host("t", move || {
        c.fetch_add(1, Ordering::SeqCst);
    });
    let fut = ex.run(&g);
    assert_eq!(fut.wait(), Ok(()));
    fut.cancel();
    assert_eq!(fut.wait(), Ok(()));
    assert!(fut.is_done());
    assert_eq!(count.load(Ordering::SeqCst), 1);
    assert_eq!(ex.snapshot().cancelled, 0);
}

/// A cancelled GPU-heavy run never reports success for skipped work and
/// never corrupts data: each element is either fully updated by a
/// completed round or untouched.
#[test]
fn cancel_preserves_data_integrity() {
    let ex = Executor::new(2, 2);
    let x: HostVec<i32> = HostVec::from_vec(vec![0; 64]);
    let g = Heteroflow::new("integrity");
    gpu_lane(&g, "lane", &x);
    let fut = ex.run_n(&g, 100_000);
    std::thread::sleep(Duration::from_millis(10));
    fut.cancel();
    let res = fut
        .wait_timeout(Duration::from_secs(10))
        .expect("must settle");
    assert_eq!(res, Err(HfError::Cancelled));
    // Rounds are atomic: all elements advanced the same number of times.
    let v = x.read();
    assert!(
        v.iter().all(|&e| e == v[0]),
        "partial round became visible after cancel: {:?}...",
        &v[..8]
    );
}
