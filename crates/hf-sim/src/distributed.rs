//! Distributed execution exploration — the paper's future work.
//!
//! "Future work will focus on distributing our scheduler based on [46]
//! (DtCraft)" (§VI). This module explores that direction in the
//! discrete-event setting: a [`Cluster`] of CPU-GPU nodes executes a
//! partitioned task graph; dependency edges that cross the partition pay
//! a network transfer (latency + bytes/bandwidth). The partitioner and
//! the cluster simulator let the repository quantify when distribution
//! pays off — the question a real distributed Heteroflow would face.

use crate::result::SimResult;
use hf_core::{GraphInfo, TaskKind};
use hf_gpu::{CostModel, SimDuration};
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// One machine in the cluster.
#[derive(Debug, Clone, Copy)]
pub struct NodeSpec {
    /// CPU workers.
    pub cores: usize,
    /// GPU devices.
    pub gpus: u32,
}

/// A cluster of nodes joined by a uniform network.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Member machines.
    pub nodes: Vec<NodeSpec>,
    /// Network bandwidth in bytes/second (10 GbE ≈ 1.25e9).
    pub net_bytes_per_sec: f64,
    /// Per-message latency.
    pub net_latency: SimDuration,
    /// Device-op cost model (shared by all nodes).
    pub cost: CostModel,
    /// Bytes assumed for a cross-node message when the producing task
    /// declares no payload (host-task results).
    pub default_message_bytes: usize,
}

impl Cluster {
    /// A homogeneous cluster of `n` nodes.
    pub fn homogeneous(n: usize, cores: usize, gpus: u32) -> Self {
        Self {
            nodes: vec![NodeSpec { cores, gpus }; n.max(1)],
            net_bytes_per_sec: 1.25e9,
            net_latency: SimDuration::from_micros(50),
            cost: CostModel::default(),
            default_message_bytes: 4096,
        }
    }
}

/// Result of a cluster simulation.
#[derive(Debug, Clone, Serialize)]
pub struct ClusterResult {
    /// End-to-end makespan in seconds.
    pub makespan_secs: f64,
    /// Cross-node messages sent.
    pub messages: usize,
    /// Bytes moved over the network.
    pub net_bytes: u64,
    /// Busy seconds per node (all workers summed).
    pub node_busy_secs: Vec<f64>,
    /// The underlying per-node utilization-style summary.
    pub tasks: usize,
}

/// Partitions the graph across `node_count` nodes: tasks are taken in
/// topological order and packed into contiguous blocks of roughly equal
/// modeled work — cheap, deterministic, and edge-friendly for layered
/// graphs (successive layers mostly co-locate).
pub fn partition_by_work(
    info: &GraphInfo,
    node_count: usize,
    cost: &CostModel,
    host_cost: impl Fn(usize) -> SimDuration,
) -> Vec<usize> {
    let n = info.nodes.len();
    let node_count = node_count.max(1);
    let work_of = |id: usize| -> f64 {
        let node = &info.nodes[id];
        match node.kind {
            TaskKind::Host => host_cost(id).as_secs_f64(),
            TaskKind::Pull => cost.h2d(node.bytes).as_secs_f64(),
            TaskKind::Push => cost.d2h(node.bytes).as_secs_f64(),
            TaskKind::Kernel => cost.kernel(node.effective_work_units()).as_secs_f64(),
            TaskKind::Placeholder => 0.0,
        }
    };
    // Topological order via Kahn.
    let mut indeg: Vec<usize> = info.nodes.iter().map(|x| x.num_deps).collect();
    let mut queue: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut topo = Vec::with_capacity(n);
    while let Some(u) = queue.pop_front() {
        topo.push(u);
        for &v in &info.nodes[u].successors {
            indeg[v] -= 1;
            if indeg[v] == 0 {
                queue.push_back(v);
            }
        }
    }
    let total: f64 = (0..n).map(work_of).sum();
    let per_node = (total / node_count as f64).max(f64::MIN_POSITIVE);

    let mut assignment = vec![0usize; n];
    let mut node = 0usize;
    let mut acc = 0.0f64;
    for &t in &topo {
        let w = work_of(t);
        // Advance to the next node *before* overflowing the quota (keeps
        // equal-work graphs exactly balanced).
        if acc + w > per_node * 1.0001 && acc > 0.0 && node + 1 < node_count {
            node += 1;
            acc = 0.0;
        }
        assignment[t] = node;
        acc += w;
    }
    assignment
}

/// Affinity partitioner: a task with predecessors joins the node of its
/// heaviest predecessor (pipelines stay together, minimizing cut edges);
/// source tasks are spread by the work-balance quota. Much better than
/// [`partition_by_work`] for graphs of parallel pipelines (the Fig 5
/// multi-view shape).
pub fn partition_by_affinity(
    info: &GraphInfo,
    node_count: usize,
    cost: &CostModel,
    host_cost: impl Fn(usize) -> SimDuration,
) -> Vec<usize> {
    let n = info.nodes.len();
    let node_count = node_count.max(1);
    let work_of = |id: usize| -> f64 {
        let node = &info.nodes[id];
        match node.kind {
            TaskKind::Host => host_cost(id).as_secs_f64(),
            TaskKind::Pull => cost.h2d(node.bytes).as_secs_f64(),
            TaskKind::Push => cost.d2h(node.bytes).as_secs_f64(),
            TaskKind::Kernel => cost.kernel(node.effective_work_units()).as_secs_f64(),
            TaskKind::Placeholder => 0.0,
        }
    };

    // Predecessor lists (info stores successors).
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (u, node) in info.nodes.iter().enumerate() {
        for &v in &node.successors {
            preds[v].push(u);
        }
    }

    let mut indeg: Vec<usize> = info.nodes.iter().map(|x| x.num_deps).collect();
    let mut queue: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut assignment = vec![usize::MAX; n];
    let mut node_load = vec![0.0f64; node_count];

    while let Some(u) = queue.pop_front() {
        let target = if preds[u].is_empty() {
            // Source: least-loaded node.
            node_load
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite loads"))
                .map(|(i, _)| i)
                .expect("node_count > 0")
        } else {
            // Inherit the heaviest predecessor's node.
            preds[u]
                .iter()
                .max_by(|&&a, &&b| {
                    work_of(a)
                        .partial_cmp(&work_of(b))
                        .expect("finite work")
                })
                .map(|&p| assignment[p])
                .expect("non-empty preds")
        };
        assignment[u] = target;
        node_load[target] += work_of(u);
        for &v in &info.nodes[u].successors {
            indeg[v] -= 1;
            if indeg[v] == 0 {
                queue.push_back(v);
            }
        }
    }
    assignment
}

/// Simulates the partitioned graph on the cluster. Within a node the
/// model matches [`crate::simulate`] (workers + exclusive devices,
/// asynchronous GPU dispatch folded into the op span); across nodes,
/// a dependency edge adds `latency + bytes/bandwidth` after the producer
/// finishes.
pub fn simulate_cluster(
    info: &GraphInfo,
    cluster: &Cluster,
    assignment: &[usize],
    host_cost: impl Fn(usize) -> SimDuration,
) -> ClusterResult {
    let n = info.nodes.len();
    assert_eq!(assignment.len(), n, "one node per task");
    for &a in assignment {
        assert!(a < cluster.nodes.len(), "assignment to unknown node {a}");
    }

    let dur_of = |id: usize| -> u64 {
        let node = &info.nodes[id];
        match node.kind {
            TaskKind::Host => host_cost(id).as_nanos(),
            TaskKind::Pull => cluster.cost.h2d(node.bytes).as_nanos(),
            TaskKind::Push => cluster.cost.d2h(node.bytes).as_nanos(),
            TaskKind::Kernel => cluster
                .cost
                .kernel(node.effective_work_units())
                .as_nanos(),
            TaskKind::Placeholder => 0,
        }
    };
    let is_gpu = |id: usize| {
        matches!(
            info.nodes[id].kind,
            TaskKind::Pull | TaskKind::Push | TaskKind::Kernel
        )
    };
    let message_ns = |id: usize| -> u64 {
        let bytes = if info.nodes[id].bytes > 0 {
            info.nodes[id].bytes
        } else {
            cluster.default_message_bytes
        };
        cluster.net_latency.as_nanos()
            + SimDuration::from_secs_f64(bytes as f64 / cluster.net_bytes_per_sec).as_nanos()
    };

    // Per-node worker pools and GPU slots.
    let mut workers: Vec<BinaryHeap<Reverse<u64>>> = cluster
        .nodes
        .iter()
        .map(|s| (0..s.cores.max(1)).map(|_| Reverse(0u64)).collect())
        .collect();
    let mut gpu_free: Vec<Vec<u64>> = cluster
        .nodes
        .iter()
        .map(|s| vec![0u64; s.gpus as usize])
        .collect();
    let mut node_busy = vec![0u64; cluster.nodes.len()];

    let mut indeg: Vec<usize> = info.nodes.iter().map(|x| x.num_deps).collect();
    let mut ready: VecDeque<(usize, u64)> = (0..n)
        .filter(|&i| indeg[i] == 0)
        .map(|i| (i, 0u64))
        .collect();
    let mut completions: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut makespan = 0u64;
    let mut executed = 0usize;
    let mut messages = 0usize;
    let mut net_bytes = 0u64;

    loop {
        while let Some((id, ready_at)) = ready.pop_front() {
            let node = assignment[id];
            let dur = dur_of(id);
            let Reverse(wt) = workers[node].pop().expect("non-empty pool");
            let start = ready_at.max(wt);
            let finish = if is_gpu(id) && !gpu_free[node].is_empty() {
                // Occupy the node's earliest-free device; the worker only
                // pays a dispatch overhead.
                let (gi, &gt) = gpu_free[node]
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &t)| t)
                    .expect("node has GPUs");
                let op_start = start.max(gt);
                let fin = op_start + dur;
                gpu_free[node][gi] = fin;
                workers[node].push(Reverse(start + 5_000));
                node_busy[node] += dur;
                fin
            } else {
                // Host task (or GPU task on a GPU-less node: runs on CPU
                // at the same modeled cost — a degraded but legal config).
                let fin = start + dur;
                workers[node].push(Reverse(fin));
                node_busy[node] += dur;
                fin
            };
            completions.push(Reverse((finish, id)));
            makespan = makespan.max(finish);
            executed += 1;
        }
        match completions.pop() {
            None => break,
            Some(Reverse((t, id))) => {
                for &s in &info.nodes[id].successors {
                    indeg[s] -= 1;
                    if indeg[s] == 0 {
                        // Cross-node edges pay the network.
                        let mut avail = t;
                        if assignment[s] != assignment[id] {
                            let m = message_ns(id);
                            avail += m;
                            messages += 1;
                            net_bytes += if info.nodes[id].bytes > 0 {
                                info.nodes[id].bytes as u64
                            } else {
                                cluster.default_message_bytes as u64
                            };
                        }
                        ready.push_back((s, avail));
                    }
                }
            }
        }
    }
    debug_assert_eq!(executed, n);

    ClusterResult {
        makespan_secs: SimDuration::from_nanos(makespan).as_secs_f64(),
        messages,
        net_bytes,
        node_busy_secs: node_busy
            .iter()
            .map(|&b| SimDuration::from_nanos(b).as_secs_f64())
            .collect(),
        tasks: executed,
    }
}

/// Convenience: the single-node baseline for speedup comparisons.
pub fn single_node_baseline(
    info: &GraphInfo,
    cores: usize,
    gpus: u32,
    cost: CostModel,
    host_cost: impl Fn(usize) -> SimDuration,
) -> SimResult {
    let m = crate::machine::Machine::new(cores, gpus).with_cost(cost);
    crate::des::simulate(
        info,
        &m,
        host_cost,
    )
    .expect("baseline simulates")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_core::Heteroflow;

    fn fan(n: usize) -> GraphInfo {
        let g = Heteroflow::new("fan");
        for i in 0..n {
            g.host(&format!("t{i}"), || {});
        }
        g.info().expect("acyclic")
    }

    fn chain(n: usize) -> GraphInfo {
        let g = Heteroflow::new("chain");
        let mut prev = None;
        for i in 0..n {
            let t = g.host(&format!("t{i}"), || {});
            if let Some(p) = &prev {
                t.succeed(p);
            }
            prev = Some(t);
        }
        g.info().expect("acyclic")
    }

    const MS: SimDuration = SimDuration::from_millis(1);

    #[test]
    fn partition_balances_work() {
        let info = fan(40);
        let asg = partition_by_work(&info, 4, &CostModel::default(), |_| MS);
        let mut counts = [0usize; 4];
        for &a in &asg {
            counts[a] += 1;
        }
        for &c in &counts {
            assert!((8..=12).contains(&c), "unbalanced: {counts:?}");
        }
    }

    #[test]
    fn independent_work_scales_with_nodes() {
        let info = fan(64);
        let one = Cluster::homogeneous(1, 4, 0);
        let four = Cluster::homogeneous(4, 4, 0);
        let a1 = partition_by_work(&info, 1, &one.cost, |_| MS);
        let a4 = partition_by_work(&info, 4, &four.cost, |_| MS);
        let r1 = simulate_cluster(&info, &one, &a1, |_| MS);
        let r4 = simulate_cluster(&info, &four, &a4, |_| MS);
        let speedup = r1.makespan_secs / r4.makespan_secs;
        assert!(speedup > 3.0, "got {speedup:.2}x");
        assert_eq!(r4.messages, 0, "independent tasks need no messages");
    }

    #[test]
    fn chains_pay_the_network_and_do_not_benefit() {
        let info = chain(32);
        let one = Cluster::homogeneous(1, 4, 0);
        let four = Cluster::homogeneous(4, 4, 0);
        let a1 = partition_by_work(&info, 1, &one.cost, |_| MS);
        let a4 = partition_by_work(&info, 4, &four.cost, |_| MS);
        let r1 = simulate_cluster(&info, &one, &a1, |_| MS);
        let r4 = simulate_cluster(&info, &four, &a4, |_| MS);
        // A pure chain: distribution can only add network time.
        assert!(r4.makespan_secs >= r1.makespan_secs);
        assert_eq!(r4.messages, 3, "one message per partition boundary");
        assert!(r4.net_bytes > 0);
    }

    #[test]
    fn cluster_matches_single_node_model_for_one_node() {
        let info = fan(24);
        let cluster = Cluster::homogeneous(1, 3, 0);
        let asg = vec![0usize; 24];
        let r = simulate_cluster(&info, &cluster, &asg, |_| MS);
        let baseline = single_node_baseline(&info, 3, 0, cluster.cost, |_| MS);
        assert!(
            (r.makespan_secs - baseline.makespan_secs).abs() < 1e-9,
            "{} vs {}",
            r.makespan_secs,
            baseline.makespan_secs
        );
    }

    #[test]
    fn affinity_keeps_pipelines_together() {
        // 8 independent 4-task pipelines: affinity partitioning across 4
        // nodes must produce zero cross-node messages (each pipeline
        // whole on one node), unlike the block partitioner.
        let g = Heteroflow::new("pipes");
        for i in 0..8 {
            let a = g.host(&format!("a{i}"), || {});
            let b = g.host(&format!("b{i}"), || {});
            let c = g.host(&format!("c{i}"), || {});
            let d = g.host(&format!("d{i}"), || {});
            a.precede(&b);
            b.precede(&c);
            c.precede(&d);
        }
        let info = g.info().expect("acyclic");
        let cluster = Cluster::homogeneous(4, 2, 0);
        let asg = partition_by_affinity(&info, 4, &cluster.cost, |_| MS);
        let r = simulate_cluster(&info, &cluster, &asg, |_| MS);
        assert_eq!(r.messages, 0, "affinity cut a pipeline");
        // Load is spread: every node got two pipelines.
        let mut per_node = [0usize; 4];
        for &a in &asg {
            per_node[a] += 1;
        }
        assert_eq!(per_node, [8, 8, 8, 8]);
    }

    #[test]
    fn gpu_tasks_use_node_devices() {
        use hf_core::data::HostVec;
        let g = Heteroflow::new("gpu");
        let d: HostVec<u8> = HostVec::from_vec(vec![0; 1 << 20]);
        for i in 0..4 {
            let p = g.pull(&format!("p{i}"), &d);
            let k = g.kernel(&format!("k{i}"), &[&p], |_, _| {});
            k.cover(1024, 128).work_units(1e6);
            p.precede(&k);
        }
        let info = g.info().expect("acyclic");
        let cluster = Cluster::homogeneous(2, 2, 1);
        let asg = partition_by_work(&info, 2, &cluster.cost, |_| MS);
        let r = simulate_cluster(&info, &cluster, &asg, |_| MS);
        assert_eq!(r.tasks, 8);
        assert!(r.makespan_secs > 0.0);
        // Both nodes did GPU work.
        assert!(r.node_busy_secs.iter().all(|&b| b > 0.0));
    }
}
