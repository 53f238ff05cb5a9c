//! Schedule-validity tests over the traced simulator: every simulated
//! schedule must itself be a legal schedule.

use hf_core::data::HostVec;
use hf_core::Heteroflow;
use hf_gpu::SimDuration;
use hf_sim::{simulate_traced, Machine};

fn mixed_graph(lanes: usize) -> std::sync::Arc<hf_core::FrozenGraph> {
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

#[test]
fn schedule_respects_dependencies_and_devices() {
    let graph = mixed_graph(6);
    for (cores, gpus) in [(1usize, 1u32), (2, 2), (8, 4)] {
        let (result, spans) = simulate_traced(
            &graph,
            &Machine::new(cores, gpus),
            |_| SimDuration::from_micros(100),
        )
        .expect("simulates");

        assert_eq!(spans.len(), graph.num_tasks());

        // 1) Every dependency edge: successor starts at/after predecessor
        // finishes.
        let mut span_of = vec![None; graph.num_tasks()];
        for s in &spans {
            span_of[s.node] = Some((s.start_ns, s.finish_ns));
        }
        for u in 0..graph.num_tasks() {
            let (_, uf) = span_of[u].expect("scheduled");
            for &v in graph.successors(u) {
                let (vs, _) = span_of[v as usize].expect("scheduled");
                assert!(
                    vs >= uf,
                    "({cores},{gpus}): edge {u}->{v} violated: {vs} < {uf}"
                );
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
                assert!(
                    w[1].0 >= w[0].1,
                    "({cores},{gpus}): device {d} ops overlap: {w:?}"
                );
            }
        }

        // 3) Makespan equals the latest finish.
        let last = spans.iter().map(|s| s.finish_ns).max().expect("non-empty");
        assert_eq!(result.makespan().as_nanos(), last);
    }
}

#[test]
fn spans_serialize_for_gantt_export() {
    let graph = mixed_graph(2);
    let (_, spans) = simulate_traced(
        &graph,
        &Machine::new(2, 1),
        |_| SimDuration::from_micros(10),
    )
    .expect("simulates");
    let json = serde_json::to_string(&spans).expect("serializable");
    assert!(json.contains("\"start_ns\""));
    assert!(json.contains("k0"));
}
