//! Graph visualization in the standard DOT format (§III-A.6).
//!
//! `Heteroflow::dump` emits a Graphviz description of the task graph so
//! users can render it with `dot`, Python Graphviz, or viz.js — "graph
//! visualization largely facilitates testing and debugging of Heteroflow
//! applications" (Listing 11).

use crate::graph::{Heteroflow, TaskKind};

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

impl Heteroflow {
    /// Renders the graph as a DOT digraph string: every node once, then
    /// every edge.
    pub fn dump(&self) -> String {
        let b = self.shared.builder.lock();
        let mut out = format!("digraph \"{}\" {{\n  rankdir=TB;\n", escape(&b.name));
        for (i, n) in b.nodes.iter().enumerate() {
            let (name, style) = (escape(&n.name), style(n.work.kind()));
            out += &format!("  n{i} [label=\"{name}\", {style}];\n");
        }
        for (i, n) in b.nodes.iter().enumerate() {
            out.extend(n.succ.iter().map(|s| format!("  n{i} -> n{s};\n")));
        }
        out + "}\n"
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
}
