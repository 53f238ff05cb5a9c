//! Schedule-validity tests over the simulator: every simulated schedule
//! must itself be a legal schedule, fused chains included.

use hf_core::data::HostVec;
use hf_core::placement::device_placement;
use hf_core::{FrozenGraph, Heteroflow, Plan};
use hf_gpu::SimDuration;
use hf_sim::{simulate, Machine, SchedulerMode};

/// `lanes` copies of `h → p → k → s`, where `p`, `k` and `s` fuse into
/// one chain headed by `p`.
fn mixed_graph(lanes: usize) -> std::sync::Arc<FrozenGraph> {
    let g = Heteroflow::new("mixed");
    for lane in 0..lanes {
        let d: HostVec<u32> = HostVec::from_vec(vec![0; 1024]);
        let h = g.host(&format!("h{lane}"), || {});
        let p = g.pull(&format!("p{lane}"), &d);
        let k = g.kernel(&format!("k{lane}"), &[&p], |_, _| {});
        k.cover(1024, 128).work_units(5e5);
        let s = g.push(&format!("s{lane}"), &p, &d);
        h.precede(&p);
        p.precede(&k);
        k.precede(&s);
    }
    g.freeze().expect("acyclic")
}

fn plan(graph: &FrozenGraph, machine: &Machine, fusion: bool) -> Plan {
    let placement = device_placement(graph, machine.gpus, &machine.cost).expect("placeable");
    Plan::from_placement(graph, placement, fusion)
}

#[test]
fn schedule_respects_dependencies_and_devices() {
    let graph = mixed_graph(6);
    let host = SimDuration::from_micros(100);
    for (cores, gpus) in [(1usize, 1u32), (2, 2), (8, 4)] {
        let modes = [SchedulerMode::Unified, SchedulerMode::DedicatedGpuWorkers];
        for (fusion, mode) in [false, true]
            .into_iter()
            .flat_map(|f| modes.map(|m| (f, m)))
        {
            let machine = Machine::new(cores, gpus).with_mode(mode);
            let plan = plan(&graph, &machine, fusion);
            let (result, spans) = simulate(&graph, &plan, &machine, |_| host);
            let at = format!("({cores},{gpus}) {mode:?} fusion={fusion}");

            assert_eq!(spans.len(), graph.num_tasks());
            assert_eq!(result.tasks, graph.num_tasks());

            // 1) Every dependency edge: successor starts at/after
            // predecessor finishes.
            let mut span_of = vec![None; graph.num_tasks()];
            for s in &spans {
                span_of[s.node] = Some(s);
            }
            let span_of: Vec<_> = span_of.into_iter().map(|s| s.expect("scheduled")).collect();
            for u in 0..graph.num_tasks() {
                for &v in graph.successors(u) {
                    let (vs, uf) = (span_of[v as usize].start_ns, span_of[u].finish_ns);
                    assert!(vs >= uf, "{at}: edge {u}->{v} violated: {vs} < {uf}");
                }
            }

            // 2) Device exclusivity: ops on the same GPU never overlap.
            for d in 0..gpus {
                let mut ops: Vec<(u64, u64)> = spans
                    .iter()
                    .filter(|s| s.device == Some(d))
                    .map(|s| (s.start_ns, s.finish_ns))
                    .collect();
                ops.sort_unstable();
                for w in ops.windows(2) {
                    assert!(w[1].0 >= w[0].1, "{at}: device {d} ops overlap: {w:?}");
                }
            }

            // 3) A chain runs back to back on its head's device, under
            // the head's dispatching worker.
            let heads: Vec<usize> = (0..graph.num_tasks())
                .filter(|&i| plan.placement().device_of[i].is_some() && !plan.is_member(i))
                .collect();
            for &head in &heads {
                let chain: Vec<usize> = plan.chain(head).collect();
                assert_eq!(chain.len(), if fusion { 3 } else { 1 }, "{at}");
                for pair in chain.windows(2) {
                    let (a, b) = (span_of[pair[0]], span_of[pair[1]]);
                    assert!(plan.is_member(b.node), "{at}");
                    assert_eq!(b.start_ns, a.finish_ns, "{at}: {} waits", b.name);
                    assert_eq!((b.device, b.worker), (a.device, a.worker), "{at}");
                }
            }

            // 4) Workers pay the host costs plus one dispatch per chain
            // (a bound worker's dispatches are the device's time).
            let dispatches = if mode == SchedulerMode::Unified {
                heads.len()
            } else {
                0
            };
            let busy =
                host.as_nanos() * 6 + machine.dispatch_overhead.as_nanos() * dispatches as u64;
            let busy = SimDuration::from_nanos(busy).as_secs_f64();
            assert_eq!(result.cpu_busy_secs, busy, "{at}");

            // 5) Makespan equals the latest finish.
            let last = spans.iter().map(|s| s.finish_ns).max().expect("non-empty");
            assert_eq!(result.makespan().as_nanos(), last, "{at}");
        }
    }
}

#[test]
fn spans_serialize_for_gantt_export() {
    let graph = mixed_graph(2);
    let machine = Machine::new(2, 1);
    let plan = plan(&graph, &machine, true);
    let (_, spans) = simulate(&graph, &plan, &machine, |_| SimDuration::from_micros(10));
    let json = serde_json::to_string(&spans).expect("serializable");
    assert!(json.contains("\"start_ns\""));
    assert!(json.contains("k0"));
}
