//! `run*` and `Session` are two clients of one epoch driver: what must
//! hold across the two front ends, and what `run*` must keep although
//! it now runs on the session's machinery — results and counters equal
//! to a depth-1 session's, residency shared through the graph at depth
//! 1, `wait_for_all` covering the gaps between a run's rounds, and a
//! lifecycle stream without epoch events.

use heteroflow::prelude::*;
use std::sync::Arc;

const LANES: usize = 3;
const N: usize = 256;

/// `LANES` independent pull → kernel (+lane index) → push lanes.
fn lanes_graph(name: &str) -> (Heteroflow, Vec<HostVec<i32>>) {
    let g = Heteroflow::new(name);
    let mut sinks = Vec::new();
    for lane in 0..LANES {
        let x = HostVec::from_vec((0..N as i32).map(|i| i * (lane as i32 + 1)).collect());
        let out = HostVec::from_vec(vec![0i32; N]);
        let p = g.pull(&format!("pull{lane}"), &x);
        let k = g.kernel(&format!("add{lane}"), &[&p], move |cfg, args| {
            let v = args.slice_mut::<i32>(0).unwrap();
            for t in cfg.threads() {
                if t < v.len() {
                    v[t] += lane as i32 + 1;
                }
            }
        });
        k.cover(N, 64);
        let s = g.push(&format!("push{lane}"), &p, &out);
        p.precede(&k);
        k.precede(&s);
        sinks.push(out);
    }
    (g, sinks)
}

/// The counters a pass over the graph moves, whichever client drove it.
fn pass_counters(s: &StatsSnapshot) -> [u64; 5] {
    [
        s.tasks_executed,
        s.fused,
        s.rounds,
        s.bytes_h2d,
        s.transfers_elided,
    ]
}

/// Three rounds of `run_n` and three epochs of a depth-1 session are the
/// same work: byte-identical sinks, identical counters.
#[test]
fn run_n_equals_a_depth1_session() {
    let ex_run = Executor::new(2, 2);
    let (g_run, sinks_run) = lanes_graph("equiv");
    ex_run.run_n(&g_run, 3).wait().expect("run_n");

    let ex_sess = Executor::new(2, 2);
    let (g_sess, sinks_sess) = lanes_graph("equiv");
    let session = ex_sess
        .run_stream_with(&g_sess, StreamConfig { depth: 1 })
        .expect("session opens");
    for e in 0..3 {
        let fut = session.submit();
        assert_eq!(fut.epoch(), Some(e));
        fut.wait().expect("epoch");
    }
    session.close();

    for (a, b) in sinks_run.iter().zip(&sinks_sess) {
        assert_eq!(*a.read(), *b.read());
        assert_ne!(*a.read(), vec![0; N], "the lanes ran");
    }
    let (run, sess) = (ex_run.snapshot(), ex_sess.snapshot());
    assert_eq!(pass_counters(&run), pass_counters(&sess));
    assert_eq!(run.rounds, 3);
    assert_eq!(run.tasks_executed, 3 * 3 * LANES as u64);
}

/// pull → push, no kernel, so the pull's residency survives the pass.
fn copy_graph() -> (Heteroflow, HostVec<i32>, HostVec<i32>) {
    let x = HostVec::from_vec((0..N as i32).collect());
    let out = HostVec::from_vec(vec![0i32; N]);
    let g = Heteroflow::new("copy");
    let p = g.pull("pull", &x);
    let s = g.push("push", &p, &out);
    p.precede(&s);
    (g, x, out)
}

/// A depth-1 session keeps residency on the graph itself, so the `run`
/// after it finds the pull resident; a depth-2 session's ring is private,
/// and the `run` after it must still move the current bytes.
#[test]
fn residency_is_shared_at_depth_1_and_private_at_depth_2() {
    let ex = Executor::new(2, 1);
    let (g, _x, out) = copy_graph();
    let session = ex
        .run_stream_with(&g, StreamConfig { depth: 1 })
        .expect("opens");
    session.submit().wait().expect("epoch");
    session.close();
    let before = ex.snapshot();
    ex.run(&g).wait().expect("run after depth-1 session");
    let after = ex.snapshot();
    assert_eq!(after.transfers_elided, before.transfers_elided + 1);
    assert_eq!(after.bytes_h2d, before.bytes_h2d);
    assert_eq!(*out.read(), (0..N as i32).collect::<Vec<_>>());

    let (g, x, out) = copy_graph();
    let session = ex
        .run_stream_with(&g, StreamConfig { depth: 2 })
        .expect("opens");
    session.submit().wait().expect("epoch");
    session.close();
    x.write().iter_mut().for_each(|v| *v += 7);
    ex.run(&g).wait().expect("run after depth-2 session");
    assert_eq!(*out.read(), (7..N as i32 + 7).collect::<Vec<_>>());
}

/// The in-flight count is handed from round to round without a gap:
/// `wait_for_all`, entered after `run_n` returned, never comes back
/// while the run's future is unresolved.
#[test]
fn wait_for_all_never_sees_a_gap_between_rounds() {
    let ex = Arc::new(Executor::new(2, 0));
    let g = Heteroflow::new("one_task");
    g.host("tick", || {});
    for rep in 0..100 {
        let fut = ex.run_n(&g, 500);
        let ex2 = Arc::clone(&ex);
        let waiter = std::thread::spawn(move || ex2.wait_for_all());
        waiter.join().expect("waiter");
        assert!(
            fut.is_done(),
            "wait_for_all returned mid-run (repetition {rep})"
        );
        fut.wait().expect("run_n");
    }
    assert_eq!(ex.snapshot().rounds, 100 * 500);
}

/// `fused` moved by each of `epochs` epochs of `session`, one at a time.
fn fused_per_epoch(ex: &Executor, session: &Session, epochs: usize) -> Vec<u64> {
    (0..epochs)
        .map(|_| {
            let before = ex.snapshot().fused;
            session.submit().wait().expect("epoch");
            ex.snapshot().fused - before
        })
        .collect()
}

/// Fusion never chains a prologue pull into a gated body kernel: a
/// depth-1 session fuses pull→kernel and kernel→push in every lane, a
/// depth-2 session only kernel→push — also on the re-placement it adopts
/// after a device failover.
#[test]
fn fusion_never_crosses_the_epoch_gate() {
    let lanes = LANES as u64;
    let ex = Executor::new(2, 2);
    let (g, _sinks) = lanes_graph("depth1");
    let session = ex
        .run_stream_with(&g, StreamConfig { depth: 1 })
        .expect("opens");
    assert_eq!(fused_per_epoch(&ex, &session, 3), [2 * lanes; 3]);
    session.close();

    let (g, _sinks) = lanes_graph("depth2");
    let session = ex
        .run_stream_with(&g, StreamConfig { depth: 2 })
        .expect("opens");
    assert_eq!(fused_per_epoch(&ex, &session, 2), [lanes; 2]);
    // Device 1 runs its lane's pull, then is lost at the kernel: that
    // epoch fails over onto device 0, and the run keeps its re-placement.
    ex.gpu_runtime()
        .set_fault_plan(Some(FaultPlan::seeded(1).lose_device(1, 1)));
    session
        .submit()
        .wait()
        .expect("the failover recovers the epoch");
    assert_eq!(ex.snapshot().devices_lost, 1);
    assert_eq!(fused_per_epoch(&ex, &session, 3), [lanes; 3]);
    session.close();
}

/// A `run*` call is one run to an observer, however many rounds it
/// takes: one `RunStart`, one `RunEnd`, no epoch events, no epoch tag.
#[test]
fn run_n_emits_no_epoch_events() {
    let recorder = FlightRecorder::shared();
    let ex = Executor::builder(2, 1).observer(recorder.clone()).build();
    let (g, _sinks) = lanes_graph("lifecycle");
    let fut = ex.run_n(&g, 2);
    fut.wait().expect("run_n");
    recorder.pump();

    let dump = recorder.dump_run_json(fut.run_id()).expect("run retained");
    let events = dump
        .get("events")
        .and_then(|e| e.as_array())
        .expect("events");
    let count = |phase: &str| {
        events
            .iter()
            .filter(|e| e.get("phase").and_then(|p| p.as_str()) == Some(phase))
            .count()
    };
    assert_eq!(count("run_start"), 1);
    assert_eq!(count("run_end"), 1);
    assert_eq!(count("epoch_start") + count("epoch_end"), 0);
    assert_eq!(count("finished"), 2 * 3 * LANES, "both rounds recorded");
    assert!(events.iter().all(|e| e.get("epoch").is_none()));
}
