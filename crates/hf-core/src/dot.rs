//! Graph visualization in the standard DOT format (§III-A.6).
//!
//! `Heteroflow::dump` emits a Graphviz description of the task graph so
//! users can render it with `dot`, Python Graphviz, or viz.js — "graph
//! visualization largely facilitates testing and debugging of Heteroflow
//! applications" (Listing 11).

use crate::graph::{Builder, Heteroflow, TaskKind};
use crate::placement::device_placement;
use std::collections::{BTreeMap, BTreeSet};

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn style(kind: TaskKind) -> &'static str {
    match kind {
        TaskKind::Host => "shape=ellipse",
        TaskKind::Pull => "shape=house, style=filled, fillcolor=lightskyblue",
        TaskKind::Push => "shape=invhouse, style=filled, fillcolor=lightsalmon",
        TaskKind::Kernel => "shape=box3d, style=filled, fillcolor=palegreen",
        TaskKind::Placeholder => "shape=ellipse, style=dashed",
    }
}

/// The one emitter: every node once, then every edge. `decorate` may give
/// a node a second label line and extra attributes; with `device_of`,
/// host tasks stay at top level and GPU tasks sit in one cluster per
/// device.
fn emit(
    b: &Builder,
    decorate: &dyn Fn(usize) -> Option<(String, &'static str)>,
    device_of: Option<&[Option<u32>]>,
) -> String {
    let node = |pad: &str, i: usize| {
        let (line, attrs) = match decorate(i) {
            Some((line, attrs)) => (format!("\\n{line}"), format!(", {attrs}")),
            None => Default::default(),
        };
        let (name, style) = (escape(&b.nodes[i].name), style(b.nodes[i].work.kind()));
        format!("{pad}n{i} [label=\"{name}{line}\", {style}{attrs}];\n")
    };
    let device = |i: usize| device_of.and_then(|d| d[i]);
    let on = |d: Option<u32>| (0..b.nodes.len()).filter(move |&i| device(i) == d);
    let mut out = format!("digraph \"{}\" {{\n  rankdir=TB;\n", escape(&b.name));
    on(None).for_each(|i| out += &node("  ", i));
    let devices: BTreeSet<u32> = (0..b.nodes.len()).filter_map(device).collect();
    for d in devices {
        out += &format!("  subgraph cluster_gpu{d} {{\n    label=\"GPU {d}\"; style=rounded;\n");
        on(Some(d)).for_each(|i| out += &node("    ", i));
        out += "  }\n";
    }
    for (i, n) in b.nodes.iter().enumerate() {
        out.extend(n.succ.iter().map(|s| format!("  n{i} -> n{s};\n")));
    }
    out + "}\n"
}

impl Heteroflow {
    /// Renders the graph as a DOT digraph string.
    pub fn dump(&self) -> String {
        emit(&self.shared.builder.lock(), &|_| None, None)
    }

    /// Renders the graph as DOT with static-analysis findings overlaid
    /// (see [`Heteroflow::analyze`]). Tasks in an unordered shared-buffer
    /// access pair (`HF002`) are outlined red and bold; dead transfers —
    /// a push no kernel feeds (`HF004`) or a pull nothing consumes
    /// (`HF005`) — are dashed and grayed out. Affected labels carry the
    /// diagnostic code so a rendered graph is self-explanatory.
    pub fn dump_analyzed(&self) -> String {
        let mut marks: BTreeMap<usize, BTreeSet<&'static str>> = BTreeMap::new();
        for d in &self.analyze().diagnostics {
            if matches!(d.code, "HF002" | "HF004" | "HF005") {
                for &t in &d.task_ids {
                    marks.entry(t).or_default().insert(d.code);
                }
            }
        }
        let decorate = |i: usize| {
            let codes = marks.get(&i)?;
            // Racy outrank dead: red outline wins when both apply.
            let attrs = if codes.contains(&"HF002") {
                "color=red, penwidth=2"
            } else {
                "style=dashed, color=gray50, fontcolor=gray40"
            };
            Some((Vec::from_iter(codes.iter().copied()).join(","), attrs))
        };
        emit(&self.shared.builder.lock(), &decorate, None)
    }

    /// Renders the graph as DOT with GPU tasks grouped into one cluster
    /// per device, as assigned by Algorithm 1 at the given GPU count —
    /// shows where the scheduler would place every task.
    pub fn dump_placed(&self, num_gpus: u32) -> Result<String, crate::HfError> {
        let cost = hf_gpu::CostModel::default();
        let placement = device_placement(&self.info()?, num_gpus, &cost)?;
        let b = self.shared.builder.lock();
        Ok(emit(&b, &|_| None, Some(&placement.device_of)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::HostVec;

    #[test]
    fn dot_contains_all_tasks_and_edges() {
        let g = Heteroflow::new("fig3");
        let x: HostVec<i32> = HostVec::new();
        let h1 = g.host("host1", || {});
        let p1 = g.pull("pull1", &x);
        let k1 = g.kernel("kernel1", &[&p1], |_, _| {});
        let s1 = g.push("push1", &p1, &x);
        h1.precede(&p1);
        p1.precede(&k1);
        k1.precede(&s1);
        let dot = g.dump();
        assert!(dot.starts_with("digraph \"fig3\""));
        for name in ["host1", "pull1", "kernel1", "push1"] {
            assert!(dot.contains(name), "missing {name}");
        }
        assert_eq!(dot.matches(" -> ").count(), 3);
        assert!(dot.contains("shape=house"), "pull style missing");
        assert!(dot.contains("shape=box3d"), "kernel style missing");
        assert!(dot.contains("shape=invhouse"), "push style missing");
    }

    #[test]
    fn dot_escapes_quotes() {
        let g = Heteroflow::new("q\"uote");
        g.host("na\"me", || {});
        let dot = g.dump();
        assert!(dot.contains("q\\\"uote"));
        assert!(dot.contains("na\\\"me"));
    }

    #[test]
    fn dump_placed_clusters_by_device() {
        let g = Heteroflow::new("placed");
        let x: HostVec<u8> = HostVec::from_vec(vec![0; 1024]);
        let h = g.host("host", || {});
        for i in 0..4 {
            let p = g.pull(&format!("p{i}"), &x);
            let k = g.kernel(&format!("k{i}"), &[&p], |_, _| {});
            h.precede(&p);
            p.precede(&k);
        }
        let dot = g.dump_placed(2).expect("placeable");
        assert!(dot.contains("cluster_gpu0"));
        assert!(dot.contains("cluster_gpu1"));
        assert!(dot.contains("\"host\""));
        // All 9 tasks and 8 edges survive.
        assert_eq!(dot.matches(" -> ").count(), 8);
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
        for i in 0..4 {
            assert!(dot.contains(&format!("p{i}")));
            assert!(dot.contains(&format!("k{i}")));
        }
    }

    #[test]
    fn dump_analyzed_colors_racy_pairs_and_dead_nodes() {
        let g = Heteroflow::new("lint");
        let x: HostVec<i32> = HostVec::from_vec(vec![0; 16]);
        // Two unordered pushes to `x` race (HF002); an unconsumed pull of
        // a second buffer is dead (HF005).
        let p = g.pull("p", &x);
        let k = g.kernel("k", &[&p], |_, _| {});
        let s1 = g.push("s1", &p, &x);
        let s2 = g.push("s2", &p, &x);
        p.precede(&k);
        k.precede(&s1);
        k.precede(&s2);
        let y: HostVec<i32> = HostVec::from_vec(vec![0; 16]);
        g.pull("dead", &y);
        let dot = g.dump_analyzed();
        assert!(dot.contains("color=red"), "racy pair not colored: {dot}");
        assert!(dot.contains("HF002"), "racy label missing code: {dot}");
        assert!(dot.contains("style=dashed"), "dead node not dashed: {dot}");
        assert!(dot.contains("HF005"), "dead label missing code: {dot}");
        // Ordered, consumed tasks keep their plain styling.
        assert!(dot.contains("\"k\""), "kernel node missing");
    }

    #[test]
    fn dump_analyzed_of_clean_graph_matches_dump() {
        let g = Heteroflow::new("clean");
        let x: HostVec<i32> = HostVec::from_vec(vec![0; 16]);
        let p = g.pull("p", &x);
        let k = g.kernel("k", &[&p], |_, _| {});
        let s = g.push("s", &p, &x);
        p.precede(&k);
        k.precede(&s);
        assert_eq!(g.dump_analyzed(), g.dump());
    }
}
