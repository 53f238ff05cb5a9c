//! Task handles: lightweight, typed wrappers over graph nodes.
//!
//! "Each time users create a task, the heteroflow object adds a node to
//! its task graph and returns a *task handle* ... a lightweight class
//! object that wraps a pointer to a graph node" (§III-A.1). Handles let
//! users refine task attributes (kernel launch shapes) and add dependency
//! links, while hiding the internal graph storage.

use crate::graph::{GraphShared, TaskKind, Work};
use hf_gpu::GridDim;
use parking_lot::Mutex;
use std::sync::Arc;

/// An untyped handle to a graph node. The typed handles ([`HostTask`],
/// [`PullTask`], [`PushTask`], [`KernelTask`]) deref to this.
#[derive(Clone)]
pub struct TaskRef {
    pub(crate) graph: Arc<GraphShared>,
    pub(crate) id: usize,
}

impl std::fmt::Debug for TaskRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Task")
            .field("id", &self.id)
            .field("name", &self.name())
            .field("kind", &self.kind())
            .finish()
    }
}

impl TaskRef {
    /// Node index within its graph.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Task name.
    pub fn name(&self) -> String {
        self.graph.builder.lock().nodes[self.id].name.to_string()
    }

    /// Task category.
    pub fn kind(&self) -> TaskKind {
        self.graph.builder.lock().nodes[self.id].work.kind()
    }

    /// Number of outgoing dependency links.
    pub fn num_successors(&self) -> usize {
        self.graph.builder.lock().nodes[self.id].succ.len()
    }

    /// Number of incoming dependency links.
    pub fn num_dependents(&self) -> usize {
        self.graph.builder.lock().nodes[self.id].pred.len()
    }

    /// True while the task is an unassigned placeholder.
    pub fn is_placeholder(&self) -> bool {
        self.kind() == TaskKind::Placeholder
    }

    /// Forces this task to run **before** `other` (a preceding link).
    /// Returns `&self` so links can be chained.
    pub fn precede(&self, other: &impl AsTask) -> &Self {
        let o = other.as_task();
        assert!(
            Arc::ptr_eq(&self.graph, &o.graph),
            "tasks belong to different Heteroflow graphs"
        );
        self.graph.builder.lock().add_edge(self.id, o.id);
        self
    }

    /// Forces this task to run **after** `other` (a succeeding link).
    pub fn succeed(&self, other: &impl AsTask) -> &Self {
        let o = other.as_task();
        assert!(
            Arc::ptr_eq(&self.graph, &o.graph),
            "tasks belong to different Heteroflow graphs"
        );
        self.graph.builder.lock().add_edge(o.id, self.id);
        self
    }

    /// Precedes every task in the list, like the paper's variadic
    /// `precede(push_x, push_y)`.
    pub fn precede_all(&self, others: &[&dyn AsTask]) -> &Self {
        for o in others {
            self.precede(&o.as_task());
        }
        self
    }

    /// Succeeds every task in the list.
    pub fn succeed_all(&self, others: &[&dyn AsTask]) -> &Self {
        for o in others {
            self.succeed(&o.as_task());
        }
        self
    }

    /// Renames the task (shows up in DOT dumps).
    pub fn rename(&self, name: &str) -> &Self {
        let mut b = self.graph.builder.lock();
        b.nodes[self.id].name = Arc::from(name);
        b.touch();
        self
    }

    /// Assigns host work to a placeholder created via
    /// [`crate::Heteroflow::placeholder`]. Panics if the task already has
    /// work.
    pub fn assign_host<F>(&self, f: F) -> &Self
    where
        F: FnMut() + Send + 'static,
    {
        let mut b = self.graph.builder.lock();
        let node = &mut b.nodes[self.id];
        assert!(
            matches!(node.work, Work::Empty),
            "task '{}' already has work assigned",
            node.name
        );
        node.work = Work::Host(Arc::new(Mutex::new(f)));
        b.touch();
        self
    }
}

/// Conversion into an untyped [`TaskRef`]; implemented by every handle so
/// `precede`/`succeed` accept any task type uniformly ("Heteroflow's task
/// interface is uniform", §III-A.5).
pub trait AsTask {
    /// The untyped handle.
    fn as_task(&self) -> TaskRef;
}

impl AsTask for TaskRef {
    fn as_task(&self) -> TaskRef {
        self.clone()
    }
}

macro_rules! typed_handle {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone)]
        pub struct $name(pub(crate) TaskRef);

        impl std::ops::Deref for $name {
            type Target = TaskRef;
            fn deref(&self) -> &TaskRef {
                &self.0
            }
        }

        impl AsTask for $name {
            fn as_task(&self) -> TaskRef {
                self.0.clone()
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.0.fmt(f)
            }
        }
    };
}

typed_handle!(
    /// Handle to a host (CPU) task.
    HostTask
);
impl HostTask {
    /// Declares that this host task **reads** `buf`, for the static
    /// analyzer ([`crate::Heteroflow::analyze`]). Host closures are opaque
    /// to the library, so without declarations the race lint (HF002) only
    /// sees pull/push accesses; declaring accesses lets it also catch a
    /// host task racing a push or another host task on the same
    /// [`HostVec`]. Purely advisory — execution is unaffected.
    pub fn reads<T>(&self, buf: &crate::data::HostVec<T>) -> &Self {
        let mut b = self.0.graph.builder.lock();
        let id = buf.buffer_id();
        let node = b.nodes[self.0.id].attrs.get_or_insert_with(Default::default);
        if !node.reads.contains(&id) {
            node.reads.push(id);
            b.touch();
        }
        self
    }

    /// Declares that this host task **writes** `buf` — see
    /// [`HostTask::reads`].
    pub fn writes<T>(&self, buf: &crate::data::HostVec<T>) -> &Self {
        let mut b = self.0.graph.builder.lock();
        let id = buf.buffer_id();
        let node = b.nodes[self.0.id].attrs.get_or_insert_with(Default::default);
        if !node.writes.contains(&id) {
            node.writes.push(id);
            b.touch();
        }
        self
    }
}

typed_handle!(
    /// Handle to a pull (H2D copy) task.
    PullTask
);
typed_handle!(
    /// Handle to a push (D2H copy) task.
    PushTask
);
typed_handle!(
    /// Handle to a kernel (GPU offload) task. Exposes the launch-shape
    /// builder methods of Listing 1 (`.block_x(256).grid_x((N+255)/256)`).
    KernelTask
);

impl KernelTask {
    fn with_cfg(&self, f: impl FnOnce(&mut hf_gpu::LaunchConfig)) -> &Self {
        let mut b = self.0.graph.builder.lock();
        f(&mut b.nodes[self.0.id].attrs.get_or_insert_with(Default::default).cfg);
        b.touch();
        self
    }

    /// Sets the grid X dimension (blocks).
    pub fn grid_x(&self, x: u32) -> &Self {
        self.with_cfg(|c| c.grid.x = x)
    }

    /// Sets the grid Y dimension.
    pub fn grid_y(&self, y: u32) -> &Self {
        self.with_cfg(|c| c.grid.y = y)
    }

    /// Sets the grid Z dimension.
    pub fn grid_z(&self, z: u32) -> &Self {
        self.with_cfg(|c| c.grid.z = z)
    }

    /// Sets the full grid.
    pub fn grid(&self, g: GridDim) -> &Self {
        self.with_cfg(|c| c.grid = g)
    }

    /// Sets the block X dimension (threads per block).
    pub fn block_x(&self, x: u32) -> &Self {
        self.with_cfg(|c| c.block.x = x)
    }

    /// Sets the block Y dimension.
    pub fn block_y(&self, y: u32) -> &Self {
        self.with_cfg(|c| c.block.y = y)
    }

    /// Sets the block Z dimension.
    pub fn block_z(&self, z: u32) -> &Self {
        self.with_cfg(|c| c.block.z = z)
    }

    /// Sets the full block.
    pub fn block(&self, b: GridDim) -> &Self {
        self.with_cfg(|c| c.block = b)
    }

    /// Sets dynamic shared memory bytes per block.
    pub fn shm(&self, bytes: u32) -> &Self {
        self.with_cfg(|c| c.shm = bytes)
    }

    /// Covers at least `n` linear threads with blocks of `block_x`
    /// threads — shorthand for the Listing 1 idiom.
    pub fn cover(&self, n: usize, block_x: u32) -> &Self {
        self.with_cfg(|c| *c = hf_gpu::LaunchConfig::cover(n, block_x))
    }

    /// Declares the kernel's modeled cost in abstract work units (used by
    /// the device cost model and by placement, identically).
    pub fn work_units(&self, units: f64) -> &Self {
        let mut b = self.0.graph.builder.lock();
        b.nodes[self.0.id].attrs.get_or_insert_with(Default::default).work_units = units;
        b.touch();
        self
    }

    /// Current launch configuration.
    pub fn launch_config(&self) -> hf_gpu::LaunchConfig {
        let b = self.0.graph.builder.lock();
        b.nodes[self.0.id].attrs.as_ref().map(|a| a.cfg).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::HostVec;
    use crate::graph::Heteroflow;

    #[test]
    fn handle_metadata() {
        let g = Heteroflow::new("t");
        let a = g.host("alpha", || {});
        assert_eq!(a.name(), "alpha");
        assert_eq!(a.kind(), TaskKind::Host);
        assert_eq!(a.id(), 0);
        a.rename("beta");
        assert_eq!(a.name(), "beta");
    }

    #[test]
    fn precede_succeed_symmetry() {
        let g = Heteroflow::new("t");
        let a = g.host("a", || {});
        let b = g.host("b", || {});
        let c = g.host("c", || {});
        a.precede(&b);
        c.succeed(&b);
        assert_eq!(a.num_successors(), 1);
        assert_eq!(b.num_dependents(), 1);
        assert_eq!(b.num_successors(), 1);
        assert_eq!(c.num_dependents(), 1);
    }

    #[test]
    fn precede_all_mixed_types() {
        let g = Heteroflow::new("t");
        let x: HostVec<i32> = HostVec::from_vec(vec![1, 2]);
        let h = g.host("h", || {});
        let p = g.pull("p", &x);
        let k = g.kernel("k", &[&p], |_, _| {});
        let s = g.push("s", &p, &x);
        h.precede_all(&[&p, &k]);
        k.succeed(&p).precede(&s);
        assert_eq!(h.num_successors(), 2);
        assert_eq!(k.num_dependents(), 2);
    }

    #[test]
    fn kernel_launch_builder() {
        let g = Heteroflow::new("t");
        let x: HostVec<i32> = HostVec::from_vec(vec![0; 1000]);
        let p = g.pull("p", &x);
        let k = g.kernel("k", &[&p], |_, _| {});
        k.block_x(256).grid_x(4).shm(1024).work_units(5.0);
        let cfg = k.launch_config();
        assert_eq!(cfg.block.x, 256);
        assert_eq!(cfg.grid.x, 4);
        assert_eq!(cfg.shm, 1024);
        k.cover(65536, 256);
        assert_eq!(k.launch_config().grid.x, 256);
    }

    #[test]
    #[should_panic(expected = "different Heteroflow")]
    fn cross_graph_edge_panics() {
        let g1 = Heteroflow::new("g1");
        let g2 = Heteroflow::new("g2");
        let a = g1.host("a", || {});
        let b = g2.host("b", || {});
        a.precede(&b);
    }

    #[test]
    #[should_panic(expected = "already has work")]
    fn double_assign_panics() {
        let g = Heteroflow::new("t");
        let p = g.placeholder("p");
        p.assign_host(|| {});
        p.assign_host(|| {});
    }
}
