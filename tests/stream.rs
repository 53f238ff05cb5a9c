//! Streaming epoch execution: the `Executor::run_stream` / `Session` /
//! `EpochFuture` surface.
//!
//! Covers the streaming contract end to end: per-epoch exactly-once
//! execution, double-buffered pull residency under per-epoch input
//! mutation, backpressure at the configured in-flight depth, mid-stream
//! cancellation of a single epoch, device loss mid-stream (the stream
//! keeps serving on the survivors), and `wait_for_all` quiescing busy
//! streams without blocking on idle open ones.

use heteroflow::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const DEADLINE: Duration = Duration::from_secs(30);

/// In/out saxpy-style lane: pull `x`, double on device, push into `out`,
/// then a host sink snapshots `out`. The sink is a *body* node (downstream
/// of the push), so the epoch gate orders snapshots by epoch.
struct Lane {
    g: Heteroflow,
    x: HostVec<i32>,
    snapshots: Arc<Mutex<Vec<Vec<i32>>>>,
    kernel_runs: Arc<AtomicUsize>,
}

fn lane(n: usize) -> Lane {
    let x: HostVec<i32> = HostVec::from_vec(vec![0; n]);
    let out: HostVec<i32> = HostVec::from_vec(vec![0; n]);
    let snapshots: Arc<Mutex<Vec<Vec<i32>>>> = Arc::default();
    let kernel_runs = Arc::new(AtomicUsize::new(0));

    let g = Heteroflow::new("stream_lane");
    let p = g.pull("pull_x", &x);
    let runs = Arc::clone(&kernel_runs);
    let k = g.kernel("double", &[&p], move |cfg, args| {
        let v = args.slice_mut::<i32>(0).unwrap();
        for t in cfg.threads() {
            if t < v.len() {
                v[t] *= 2;
            }
        }
        runs.fetch_add(1, Ordering::Relaxed);
    });
    k.cover(n, 64);
    let s = g.push("push_out", &p, &out);
    let snaps = Arc::clone(&snapshots);
    let out2 = out.clone();
    let sink = g.host("sink", move || {
        snaps.lock().unwrap().push(out2.read().clone());
    });
    p.precede(&k);
    k.precede(&s);
    s.precede(&sink);
    Lane {
        g,
        x,
        snapshots,
        kernel_runs,
    }
}

/// Every submitted epoch executes the graph exactly once, epochs are
/// numbered in submission order, and closing the stream releases the
/// graph for ordinary `run` calls (which queue behind the open session).
#[test]
fn epochs_execute_exactly_once() {
    const EPOCHS: usize = 8;
    let ex = Executor::new(2, 2);
    let l = lane(64);
    l.x.write().iter_mut().for_each(|v| *v = 3);

    let session = ex.run_stream(&l.g).expect("open stream");
    assert_eq!(session.depth(), 2);
    let futs: Vec<_> = (0..EPOCHS).map(|_| session.submit()).collect();
    for (e, f) in futs.iter().enumerate() {
        assert_eq!(f.epoch(), Some(e as u64));
        assert_eq!(f.run_id(), session.run_id());
        f.wait_timeout(DEADLINE)
            .unwrap_or_else(|| panic!("epoch {e} hung"))
            .unwrap_or_else(|e2| panic!("epoch {e} failed: {e2}"));
        assert!(f.is_done());
    }
    session.close();

    assert_eq!(l.kernel_runs.load(Ordering::Relaxed), EPOCHS);
    let snaps = l.snapshots.lock().unwrap();
    assert_eq!(snaps.len(), EPOCHS);
    for (e, s) in snaps.iter().enumerate() {
        assert!(
            s.iter().all(|&v| v == 6),
            "epoch {e} snapshot wrong: {:?}...",
            &s[..4]
        );
    }
    drop(snaps);

    // Closed stream rejects further epochs; the graph is free again.
    assert!(matches!(
        session.submit().wait(),
        Err(HfError::StreamClosed)
    ));
    ex.run(&l.g).wait().expect("post-close sequential run");
    assert_eq!(l.kernel_runs.load(Ordering::Relaxed), EPOCHS + 1);
}

/// Double-buffer correctness: each epoch's input is written via
/// `submit_with` while the previous epoch's kernels are still free to be
/// running, and every epoch must observe exactly its own inputs. The
/// transfer is chunked (small copy threshold) so epoch N+1's H2D really
/// is in flight while epoch N's body executes.
#[test]
fn double_buffered_inputs_never_leak_across_epochs() {
    const N: usize = 4096;
    const EPOCHS: usize = 12;
    let ex = Executor::builder(2, 2).copy_chunk_threshold(1024).build();
    let l = lane(N);

    let session = ex
        .run_stream_with(&l.g, StreamConfig { depth: 2 })
        .expect("open stream");
    let futs: Vec<_> = (0..EPOCHS)
        .map(|e| {
            let x = l.x.clone();
            session.submit_with(move || {
                x.write().iter_mut().for_each(|v| *v = e as i32 + 1);
            })
        })
        .collect();
    for (e, f) in futs.iter().enumerate() {
        f.wait_timeout(DEADLINE)
            .unwrap_or_else(|| panic!("epoch {e} hung"))
            .unwrap_or_else(|e2| panic!("epoch {e} failed: {e2}"));
    }
    session.close();

    let snaps = l.snapshots.lock().unwrap();
    assert_eq!(snaps.len(), EPOCHS);
    for (e, s) in snaps.iter().enumerate() {
        let want = 2 * (e as i32 + 1);
        assert!(
            s.iter().all(|&v| v == want),
            "epoch {e} read another epoch's inputs: got {:?}..., want {want}",
            &s[..4]
        );
    }
}

/// Backpressure: with depth 1, a second `submit` blocks until the
/// in-flight epoch completes.
#[test]
fn submit_applies_backpressure_at_depth() {
    let ex = Executor::new(2, 1);
    let release = Arc::new(AtomicBool::new(false));
    let x: HostVec<i32> = HostVec::from_vec(vec![1; 16]);

    let g = Heteroflow::new("backpressure");
    let p = g.pull("pull", &x);
    let rel = Arc::clone(&release);
    let k = g.kernel("block", &[&p], move |_cfg, _args| {
        while !rel.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    k.block_x(16);
    p.precede(&k);

    let session = ex
        .run_stream_with(&g, StreamConfig { depth: 1 })
        .expect("open stream");
    let f0 = session.submit();

    let second_submitted = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&second_submitted);
    let f1 = std::thread::scope(|scope| {
        let h = scope.spawn(|| {
            let f = session.submit();
            flag.store(true, Ordering::Release);
            f
        });
        // The first epoch's kernel is parked; depth 1 must hold the
        // second submission back the whole time.
        std::thread::sleep(Duration::from_millis(200));
        assert!(
            !second_submitted.load(Ordering::Acquire),
            "submit returned while depth-1 stream was full"
        );
        release.store(true, Ordering::Release);
        h.join().expect("submitter thread")
    });
    assert!(second_submitted.load(Ordering::Acquire));
    f0.wait_timeout(DEADLINE).expect("epoch 0 hung").unwrap();
    f1.wait_timeout(DEADLINE).expect("epoch 1 hung").unwrap();
    session.close();
}

/// Cancelling one mid-stream epoch resolves it with `Cancelled`, skips
/// its body, and leaves later epochs untouched.
#[test]
fn cancel_of_one_epoch_leaves_later_epochs_correct() {
    let ex = Executor::new(2, 1);
    let release = Arc::new(AtomicBool::new(false));
    let kernel_runs = Arc::new(AtomicUsize::new(0));
    let x: HostVec<i32> = HostVec::from_vec(vec![1; 16]);

    let g = Heteroflow::new("cancel_one");
    let p = g.pull("pull", &x);
    let rel = Arc::clone(&release);
    let runs = Arc::clone(&kernel_runs);
    let k = g.kernel("gate", &[&p], move |_cfg, _args| {
        // Epoch bodies are serialized by the gate, so the first body
        // execution is epoch 0's; park it until released.
        if runs.fetch_add(1, Ordering::SeqCst) == 0 {
            while !rel.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    });
    k.block_x(16);
    p.precede(&k);

    let session = ex
        .run_stream_with(&g, StreamConfig { depth: 3 })
        .expect("open stream");
    let f0 = session.submit();
    let f1 = session.submit();
    let f2 = session.submit();

    f1.cancel();
    release.store(true, Ordering::Release);

    assert_eq!(
        f0.wait_timeout(DEADLINE).expect("epoch 0 hung"),
        Ok(()),
        "epoch 0 must be unaffected"
    );
    assert_eq!(
        f1.wait_timeout(DEADLINE).expect("epoch 1 hung"),
        Err(HfError::Cancelled),
        "cancelled epoch resolves alone"
    );
    assert_eq!(
        f2.wait_timeout(DEADLINE).expect("epoch 2 hung"),
        Ok(()),
        "epochs after the cancelled one still run"
    );
    session.close();

    // Epoch 1's body never executed: only epochs 0 and 2 ran the kernel.
    assert_eq!(kernel_runs.load(Ordering::SeqCst), 2);
    assert!(ex.snapshot().cancelled >= 1);
}

/// Chaos: a device dies mid-stream. In-flight epochs either fail over
/// within the epoch or fail alone with a structured error; the session
/// re-places subsequent epochs on the survivors and the stream keeps
/// serving — the final epoch must succeed.
#[test]
fn device_loss_mid_stream_keeps_serving_on_survivors() {
    const EPOCHS: usize = 10;
    let ex = Executor::builder(2, 2)
        .retry_policy(RetryPolicy::new(3))
        .build();
    ex.gpu_runtime()
        .set_fault_plan(Some(FaultPlan::seeded(0x57e4).lose_device(1, 3)));

    // Two independent lanes => two placement groups => both devices in
    // play, so the dying device is hosting live work.
    let bufs: Vec<HostVec<i32>> = (0..2).map(|_| HostVec::from_vec(vec![3; 64])).collect();
    let g = Heteroflow::new("stream_chaos");
    for (i, b) in bufs.iter().enumerate() {
        let p = g.pull(&format!("pull_{i}"), b);
        let k = g.kernel(&format!("double_{i}"), &[&p], |cfg, args| {
            let xs = args.slice_mut::<i32>(0).unwrap();
            for t in cfg.threads() {
                if t < xs.len() {
                    xs[t] *= 2;
                }
            }
        });
        k.block_x(64);
        p.precede(&k);
    }

    let session = ex.run_stream(&g).expect("open stream");
    let futs: Vec<_> = (0..EPOCHS).map(|_| session.submit()).collect();
    let results: Vec<_> = futs
        .iter()
        .enumerate()
        .map(|(e, f)| {
            f.wait_timeout(DEADLINE)
                .unwrap_or_else(|| panic!("epoch {e} hung after device loss"))
        })
        .collect();
    session.close();

    for (e, r) in results.iter().enumerate() {
        assert!(
            !matches!(r, Err(HfError::Cancelled)),
            "uncancelled epoch {e} ended Cancelled"
        );
    }
    assert_eq!(
        results.last().unwrap(),
        &Ok(()),
        "stream did not recover onto the survivor"
    );
    assert!(ex.snapshot().devices_lost >= 1);
}

/// `wait_for_all` quiesces open streams: it returns only after every
/// submitted epoch finished — and an *idle* open session must not block
/// it.
#[test]
fn wait_for_all_quiesces_open_streams() {
    let ex = Executor::new(2, 2);
    let l = lane(256);
    l.x.write().iter_mut().for_each(|v| *v = 1);

    let session = ex.run_stream(&l.g).expect("open stream");
    let futs: Vec<_> = (0..6).map(|_| session.submit()).collect();
    ex.wait_for_all();
    for (e, f) in futs.iter().enumerate() {
        assert!(
            f.is_done(),
            "wait_for_all returned with epoch {e} in flight"
        );
    }

    // The session is still open but idle: wait_for_all must not block.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            ex.wait_for_all();
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(5))
            .expect("wait_for_all blocked on an idle open stream");
    });
    session.close();
}
