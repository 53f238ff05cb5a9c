//! The one-caller invariant: a worker calls a host task's closure without
//! a lock, so no two calls of one task may overlap, and each pass over a
//! graph must enter each of its host tasks exactly once. Every body here
//! records its own entries and overlaps, under every way a graph's passes
//! can run close together: concurrent clients, pipelined session epochs,
//! a failover replay beside the next epoch, fleet tenants sharing a graph,
//! and a retried panic.

use heteroflow::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What one host task's body saw: how often it ran, and how often it was
/// entered while another call of it was still running.
#[derive(Default)]
struct Probe {
    busy: AtomicBool,
    overlaps: AtomicUsize,
    runs: AtomicUsize,
}

impl Probe {
    /// Enters, lingers long enough that a second caller would overlap,
    /// then `during` (which may panic), then leaves.
    fn visit(&self, during: impl FnOnce(usize)) {
        self.visit_for(Duration::ZERO, during);
    }

    /// `visit`, lingering `linger` longer.
    fn visit_for(&self, linger: Duration, during: impl FnOnce(usize)) {
        if self.busy.swap(true, Ordering::SeqCst) {
            self.overlaps.fetch_add(1, Ordering::SeqCst);
        }
        let run = self.runs.fetch_add(1, Ordering::SeqCst);
        for _ in 0..8 {
            std::thread::yield_now();
        }
        if !linger.is_zero() {
            std::thread::sleep(linger);
        }
        self.busy.store(false, Ordering::SeqCst);
        during(run);
    }

    fn assert_ran(&self, what: &str, runs: usize) {
        assert_eq!(self.overlaps.load(Ordering::SeqCst), 0, "{what}: overlaps");
        assert_eq!(self.runs.load(Ordering::SeqCst), runs, "{what}: runs");
    }
}

/// Adds a host task that visits a fresh probe.
fn probed(g: &Heteroflow, name: &str) -> (HostTask, Arc<Probe>) {
    let probe = Arc::new(Probe::default());
    let p = Arc::clone(&probe);
    (g.host(name, move || p.visit(|_| {})), probe)
}

/// A source, four parallel middles and a sink: both workers stay busy.
fn fan(g: &Heteroflow) -> Vec<Arc<Probe>> {
    let (src, a) = probed(g, "src");
    let (sink, z) = probed(g, "sink");
    let mut probes = vec![a, z];
    for i in 0..4 {
        let (mid, p) = probed(g, &format!("mid{i}"));
        src.precede(&mid);
        mid.precede(&sink);
        probes.push(p);
    }
    probes
}

#[test]
fn concurrent_clients_never_overlap_a_body() {
    let ex = Executor::new(2, 1);
    let g = Heteroflow::new("clients");
    let probes = fan(&g);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| ex.run_n(&g, 25).wait().expect("run_n"));
        }
    });
    for p in &probes {
        p.assert_ran("4 clients x 25 rounds", 100);
    }
}

#[test]
fn pipelined_epochs_never_overlap_a_body() {
    let ex = Executor::new(2, 1);
    let g = Heteroflow::new("session");
    let x: HostVec<i32> = HostVec::from_vec(vec![1; 64]);
    let (before, prologue) = probed(&g, "before");
    let pull = g.pull("pull", &x);
    let kernel = g.kernel("touch", &[&pull], |_, args| {
        args.slice_mut::<i32>(0).expect("pulled")[0] += 1;
    });
    kernel.cover(1, 1);
    let (after, body) = probed(&g, "after");
    before.precede(&pull);
    pull.precede(&kernel);
    kernel.precede(&after);
    let session = ex
        .run_stream_with(&g, StreamConfig { depth: 2 })
        .expect("opens");
    let epochs: Vec<_> = (0..50).map(|_| session.submit()).collect();
    for e in epochs {
        e.wait().expect("epoch");
    }
    session.close();
    prologue.assert_ran("prologue host task", 50);
    body.assert_ran("body host task", 50);
}

/// A host task that sleeps on the runs `sleepy` picks.
fn sleeper(g: &Heteroflow, name: &str, sleepy: fn(usize) -> bool) -> HostTask {
    let runs = AtomicUsize::new(0);
    g.host(name, move || {
        if sleepy(runs.fetch_add(1, Ordering::SeqCst)) {
            std::thread::sleep(Duration::from_millis(40));
        }
    })
}

#[test]
fn a_failover_replay_never_overlaps_the_next_epoch() {
    // Epoch 0: the pull placed on device 0 fails at once (device lost),
    // and `held` starts after that, behind `slow`, so it is skipped and
    // replays once the pass drains. Epoch 1's `held` starts at once, while
    // its pulls wait behind `late`. Were epoch 1 admitted on epoch 0's
    // skipped prologue, the two calls of `held` would overlap.
    let ex = Executor::new(4, 2);
    ex.gpu_runtime()
        .set_fault_plan(Some(FaultPlan::seeded(7).lose_device(0, 0)));
    let g = Heteroflow::new("failover");
    let late = sleeper(&g, "late", |run| run > 0);
    let slow = sleeper(&g, "slow", |run| run == 0);
    let probe = Arc::new(Probe::default());
    let p = Arc::clone(&probe);
    let held = g.host("held", move || {
        p.visit_for(Duration::from_millis(40), |_| {})
    });
    slow.precede(&held);
    let xs: Vec<HostVec<i32>> = (0..2).map(|_| HostVec::from_vec(vec![1; 64])).collect();
    for (i, x) in xs.iter().enumerate() {
        let pull = g.pull(&format!("pull{i}"), x);
        let kernel = g.kernel(&format!("touch{i}"), &[&pull], |_, args| {
            args.slice_mut::<i32>(0).expect("pulled")[0] += 1;
        });
        kernel.cover(1, 1);
        late.precede(&pull);
        pull.precede(&kernel);
    }
    let session = ex
        .run_stream_with(&g, StreamConfig { depth: 2 })
        .expect("opens");
    let epochs: Vec<_> = (0..2).map(|_| session.submit()).collect();
    for e in epochs {
        let done = e.wait_timeout(Duration::from_secs(10));
        assert_eq!(done.expect("epoch hung"), Ok(()));
    }
    session.close();
    probe.assert_ran("replayed prologue host task", 2);
    assert_eq!(ex.snapshot().devices_lost, 1);
}

#[test]
fn fleet_tenants_sharing_a_graph_never_overlap_a_body() {
    let fleet = Fleet::new(
        Executor::new(2, 0),
        FleetConfig {
            max_inflight: 2,
            ..FleetConfig::default()
        },
    );
    let alpha = fleet.register("alpha", TenantConfig::default());
    let beta = fleet.register("beta", TenantConfig::default());
    let g = Heteroflow::new("shared");
    let probes = fan(&g);
    let mut futures = Vec::new();
    for _ in 0..20 {
        for tenant in [&alpha, &beta] {
            futures.push(fleet.submit(tenant, &g).expect("no quotas configured"));
        }
    }
    for f in futures {
        f.wait().expect("tenant run");
    }
    for p in &probes {
        p.assert_ran("2 tenants x 20 submissions", 40);
    }
}

#[test]
fn a_retried_panic_never_overlaps_its_retry() {
    let ex = Executor::builder(2, 0)
        .retry_policy(RetryPolicy::new(3))
        .build();
    let g = Heteroflow::new("retry");
    let flaky = Arc::new(Probe::default());
    let f = Arc::clone(&flaky);
    // Every first attempt fails; `resume_unwind` skips the panic hook,
    // so the expected failures print nothing.
    let task = g.host("flaky", move || {
        f.visit(|run| {
            if run % 2 == 0 {
                std::panic::resume_unwind(Box::new("first attempt"));
            }
        })
    });
    let (next, after) = probed(&g, "next");
    task.precede(&next);
    ex.run_n(&g, 10).wait().expect("every retry succeeds");
    flaky.assert_ran("panicking task", 20);
    after.assert_ran("its successor", 10);
    assert_eq!(ex.snapshot().retries, 10);
}
