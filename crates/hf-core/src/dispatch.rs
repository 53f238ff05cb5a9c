//! GPU dispatch: the device side of a GPU task, from its submission to its
//! completion callback (§III-C).
//!
//! A worker hands a ready GPU task to [`submit`]. The task and the members
//! fused behind it form a *chain*, which gets one [`ChainState`] that all
//! its ops share. Every op is built first ([`prepare`]: any error aborts
//! before a single enqueue), then the ops go back to back onto one of the
//! worker's streams for the device ([`Streams`] says which), followed by one
//! stream-ordered completion callback ([`ChainState::settle`]). Every op
//! skips once the chain failed or the run was cancelled, and draws its
//! fault *before* its effect, so the callback can finish the completed
//! prefix normally and send only the failed suffix to the retry policy.
//!
//! Every byte is copied once per direction, with no buffer in between: a
//! pull borrows the host bytes ([`HostSource::with_bytes`]) and copies
//! them into the device arena; a push hands the arena bytes to its sink.
//!
//! **Pulls** keep their device buffer and its residency in a [`PullState`],
//! the only code that changes either. A pull that finds its source still
//! at the version the buffer holds elides: no copy, no fault draw. A
//! versioned source larger than `copy_chunk_threshold` is *pipelined*: an
//! open op on the task's stream elides or drops residency and records the
//! source's `(len, version)`; one op per chunk, dealt round-robin over the
//! copy-lane streams, borrows the source again, checks it is still at the
//! recorded version and copies its own span (so chunks interleave with
//! other streams' kernels on the device engine); a join op back on the
//! task's stream publishes residency and completes the task exactly once.
//! Host tasks may write the source between chunks, so the *one-version
//! rule* holds the buffer together: a chunk that sees another version
//! copies nothing and marks the transfer torn, and the join of a torn
//! transfer copies the whole span again under a single borrow
//! (`transfers_torn`). A source without a version cannot be checked this
//! way and takes the single-op path whatever its size.
//!
//! **Pushes** are always one op, arena → sink under the sink's one write
//! lock: the returned version describes exactly the bytes the device
//! holds (so a push may revalidate residency), and failover sees a push
//! either not started or complete, never half-written.

use crate::data::{HostSink, HostSource};
use crate::error::HfError;
use crate::executor::ExecInner;
use crate::graph::{GpuNode, Work};
use crate::lifecycle::LifecyclePhase;
use crate::topology::Topology;
use hf_gpu::stream::ExecFn;
use hf_gpu::{
    ArenaView, CostModel, Device, DevicePtr, Event, FaultSite, GpuError, KernelArgs, OpLabel,
    OpReport, ScopedDeviceContext, Stream,
};
use hf_sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use hf_sync::sync::Mutex;
use std::sync::Arc;

/// A worker's device streams, created on first use. A chain headed by a
/// pull rides the device's first copy lane, any other chain the compute
/// stream, so a copy runs between two kernels of an unrelated chain, not
/// after the whole chain. Stream order is never a dependency: a chain is
/// dispatched only after its join counter released it, so a stream only
/// keeps each chain's own ops and completion callback in order.
pub(crate) struct Streams {
    /// One per device — "each worker keeps a per-thread CUDA stream"
    /// (§III-C).
    streams: Vec<Option<Stream>>,
    /// Copy lanes per device; a chunked pull also deals its chunks
    /// round-robin across them.
    copy_streams: Vec<Vec<Stream>>,
}

impl Streams {
    pub(crate) fn new(n_gpus: usize) -> Self {
        Self {
            streams: (0..n_gpus).map(|_| None).collect(),
            copy_streams: (0..n_gpus).map(|_| Vec::new()).collect(),
        }
    }

    fn stream(&mut self, device: &Device) -> Stream {
        self.streams[device.id() as usize]
            .get_or_insert_with(|| Stream::new(device))
            .clone()
    }

    fn copy_lanes(&mut self, lanes: usize, device: &Device) -> &[Stream] {
        let slot = &mut self.copy_streams[device.id() as usize];
        if slot.is_empty() {
            slot.extend((0..lanes).map(|_| Stream::new(device)));
        }
        slot
    }
}

/// Dispatches the GPU task `head` of `topo` and the chain fused behind it
/// (§III-C "task fusing") from worker `worker`: builds every op, then
/// enqueues them on one of the worker's [`Streams`] for the head's device
/// with one completion callback. `Ok` means the callback now owns the
/// chain's completion.
pub(crate) fn submit(
    inner: &Arc<ExecInner>,
    streams: &mut Streams,
    worker: usize,
    topo: &Arc<Topology>,
    head: usize,
) -> Result<(), HfError> {
    let dev_id = topo.plan.placement().device_of[head].ok_or_else(|| HfError::NoGpus {
        task: topo.frozen.nodes[head].name.to_string(),
    })?;
    let dev = inner.gpu.device(dev_id)?;
    let _ctx = ScopedDeviceContext::new(dev_id);
    let chain = Arc::new(ChainState {
        inner: Arc::clone(inner),
        topo: Arc::clone(topo),
        dev,
        nodes: topo.plan.chain(head).collect(),
        done: AtomicUsize::new(0),
        error: Mutex::new(None),
    });
    let ops = chain
        .nodes
        .iter()
        .map(|&id| prepare(&chain, id))
        .collect::<Result<Vec<_>, _>>()?;
    let members = (chain.nodes.len() - 1) as u64;
    if members > 0 {
        inner.stats.fused.add(worker, members);
        // Members never pass through `execute`; account for them.
        inner.stats.tasks_executed.add(worker, members);
    }

    let stream = match topo.frozen.nodes[head].work {
        Work::Pull { .. } => streams.copy_lanes(inner.copy_lanes, &chain.dev)[0].clone(),
        _ => streams.stream(&chain.dev),
    };
    // Dispatched events fire before the first op is enqueued: the
    // engine may complete (and emit Finished for) the chain the
    // moment an op lands on the stream.
    let chain_head = Some(head as u32);
    if inner.lc_active() {
        let worker = Some(worker as u32);
        for &nid in &chain.nodes {
            let phase = LifecyclePhase::Dispatched;
            inner.emit_task(topo, phase, nid, worker, chain_head, true, None);
        }
    }
    // Label ops with task name/kind only when a device trace sink is
    // installed; the engine drops the label unused when tracing is
    // off.
    let tracing = inner.gpu.tracing_enabled();
    for (&nid, op) in chain.nodes.iter().zip(ops) {
        let label = tracing.then(|| {
            let n = &topo.frozen.nodes[nid];
            OpLabel {
                name: Arc::clone(&n.name),
                tag: n.work.kind() as u32,
                epoch: topo.ctx.epoch,
            }
        });
        match op {
            PreparedOp::Single(f) => stream.exec_labeled(label, f),
            PreparedOp::ChunkedPull(pull) => {
                let lanes = streams.copy_lanes(inner.copy_lanes, &chain.dev);
                pull.enqueue_chunked(&stream, lanes, label);
            }
        }
    }
    stream.host_fn(move || chain.settle());
    Ok(())
}

/// One submitted GPU chain: what every op of it needs, and the progress
/// its ops record on the device engine thread for the stream's completion
/// callback to consume. Each op holds it with the id of its own node.
struct ChainState {
    inner: Arc<ExecInner>,
    topo: Arc<Topology>,
    dev: Device,
    /// The head, then every member fused behind it, in dispatch order.
    nodes: Vec<usize>,
    /// Ops completed so far: the length of the chain's completed prefix.
    done: AtomicUsize,
    /// The chain's first failure.
    error: Mutex<Option<HfError>>,
}

impl ChainState {
    fn task(&self, node: usize) -> &str {
        &self.topo.frozen.nodes[node].name
    }

    /// True when an op should do nothing: an earlier op of the chain
    /// failed, the run already failed, or the caller cancelled —
    /// cooperative cancellation propagated into ops already enqueued.
    fn skip(&self) -> bool {
        self.error.lock().is_some() || self.topo.stopped()
    }

    /// Records the chain's first failure; its later ops then skip.
    fn fail(&self, e: HfError) {
        self.error.lock().get_or_insert(e);
    }

    /// Records `e`, raised by an op of `node`, as that task's failure and
    /// hands it back for the engine.
    fn fail_op(&self, node: usize, e: GpuError) -> GpuError {
        self.fail(HfError::TaskFailed {
            task: self.task(node).to_string(),
            source: e.clone(),
        });
        e
    }

    /// An op's fault draw; every op makes it before its effect.
    fn draw(&self, node: usize, site: FaultSite) -> Result<(), GpuError> {
        self.dev
            .fault_check(site)
            .map_err(|e| self.fail_op(node, e))
    }

    /// One more op of the chain completed.
    fn done(&self) {
        self.done.fetch_add(1, Ordering::Release);
    }

    /// The completion callback's body, run once every op has: finishes
    /// the completed prefix, and hands the failed member with the suffix
    /// that never ran to the retry policy.
    fn settle(&self) {
        let err = self.error.lock().take();
        let done = self.done.load(Ordering::Acquire);
        let (topo, head) = (&self.topo, Some(self.nodes[0] as u32));
        let (prefix, rest) = self.nodes.split_at(done);
        let finish = |nodes: &[usize], ok| {
            let nodes = nodes.iter().copied();
            self.inner.finish_nodes(topo, nodes, None, head, ok, None);
        };
        match err {
            // `done < len` without an error means ops were skipped by
            // cancellation — finish unsuccessfully so a failover (if
            // one is pending) replays them.
            None => finish(&self.nodes, rest.is_empty()),
            Some(e) => {
                finish(prefix, true);
                let suffix = rest.iter().copied();
                self.inner
                    .fail_task(topo, rest[0], suffix, None, head, e, None);
            }
        }
    }
}

/// What [`prepare`] built for one chain node.
enum PreparedOp {
    /// One stream op, enqueued on the chain's stream.
    Single(ExecFn),
    /// A pull to pipeline over the copy lanes ([`Pull::enqueue_chunked`]).
    ChunkedPull(Arc<Pull>),
}

/// Builds the device op for GPU node `id` of `chain` (without enqueueing
/// it). A pull to pipeline comes back as a descriptor that [`submit`]
/// enqueues across the copy lanes.
fn prepare(chain: &Arc<ChainState>, id: usize) -> Result<PreparedOp, HfError> {
    let frozen = &*chain.topo.frozen;
    let node = &frozen.nodes[id];
    match &node.work {
        Work::Pull { source } => prepare_pull(chain, id, source),
        Work::Push { source_pull, sink } => prepare_push(chain, id, *source_pull, sink),
        Work::Kernel { func, sources } => {
            let mut ptrs = Vec::with_capacity(sources.len());
            for &s in sources.iter() {
                let p = chain.topo.pull_state(s).lock().ptr().ok_or_else(|| {
                    HfError::SourceNotPulled {
                        kernel: node.name.to_string(),
                        pull: frozen.nodes[s].name.to_string(),
                    }
                })?;
                debug_assert_eq!(
                    p.device,
                    chain.dev.id(),
                    "placement must co-locate kernels with their pulls"
                );
                ptrs.push(p);
            }
            let gpu = frozen.gpu(id).ok_or_else(|| HfError::NoGpus {
                task: node.name.to_string(),
            })?;
            let cfg = gpu.cfg;
            let work_units = GpuNode::priced_work_units(gpu.work_units, &gpu.cfg);
            let (func, sources) = (Arc::clone(func), Arc::clone(sources));
            let chain = Arc::clone(chain);
            Ok(PreparedOp::Single(Box::new(move |view, cost| {
                if chain.skip() {
                    return Ok(OpReport::default());
                }
                chain.draw(id, FaultSite::Kernel)?;
                // Kernels take mutable views of their sources with no
                // declared access modes, so assume every source buffer
                // is mutated: its device bytes no longer match any
                // host version. (A faulted kernel above never ran, so
                // residency survives the retry.)
                for &s in sources.iter() {
                    chain.topo.pull_state(s).lock().invalidate();
                }
                let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    func(&cfg, &mut KernelArgs::new(view, &ptrs));
                }));
                if res.is_err() {
                    chain.fail(HfError::TaskPanicked {
                        task: chain.task(id).to_string(),
                    });
                    return Ok(OpReport::default());
                }
                let duration = cost.kernel(work_units);
                chain.done();
                Ok(OpReport {
                    duration,
                    kernels: 1,
                    ..Default::default()
                })
            })))
        }
        Work::Empty | Work::Host(_) => Err(HfError::NoGpus {
            task: node.name.to_string(),
        }),
    }
}

/// Chunks are copying towards the version the open op recorded.
const COPYING: u8 = 0;
/// The open op found the buffer resident; chunks and join copy nothing.
const ELIDED: u8 = 1;
/// A chunk saw another version; the join copies the whole span again.
const TORN: u8 = 2;

/// One execution of a pull task.
struct Pull {
    chain: Arc<ChainState>,
    node: usize,
    src: Arc<dyn HostSource>,
    ptr: DevicePtr,
    /// Pipelined pulls only. Every op of a transfer runs on its device's
    /// one engine thread, in the order the stream events impose, so these
    /// are loads and stores in program order; they are atomics only to
    /// make the op closures `Send`, hence `Relaxed` throughout.
    phase: AtomicU8,
    version: AtomicU64,
    len: AtomicUsize,
}

/// Builds the op of pull `node`, in a device buffer sized for the
/// source's *current* length ([`PullState::buffer`]).
fn prepare_pull(
    chain: &Arc<ChainState>,
    node: usize,
    source: &Arc<dyn HostSource>,
) -> Result<PreparedOp, HfError> {
    let bytes = source.byte_len();
    let ptr = chain.topo.pull_state(node).lock().buffer(&chain.dev, bytes);
    let ptr = ptr.map_err(|e| HfError::TaskFailed {
        task: chain.task(node).to_string(),
        source: e,
    })?;
    let pull = Arc::new(Pull {
        chain: Arc::clone(chain),
        node,
        src: Arc::clone(source),
        ptr,
        phase: AtomicU8::new(COPYING),
        version: AtomicU64::new(0),
        len: AtomicUsize::new(0),
    });
    if bytes > chain.inner.copy_chunk_threshold && source.version().is_some() {
        return Ok(PreparedOp::ChunkedPull(pull));
    }
    Ok(PreparedOp::Single(Box::new(move |view, cost| {
        if pull.chain.skip() {
            return Ok(OpReport::default());
        }
        if pull.resident() {
            pull.elide();
            return Ok(OpReport::default());
        }
        pull.copy_whole(view, cost)
    })))
}

impl Pull {
    /// True when the device buffer already holds the source's current
    /// version. Otherwise the buffer is about to be overwritten, so its
    /// residency is dropped here: a fault between two chunks must not
    /// leave a half-written buffer looking current. (The version it held
    /// can never match the source again, so nothing is lost.)
    fn resident(&self) -> bool {
        let host = self.src.version();
        let mut st = self.chain.topo.pull_state(self.node).lock();
        if st.is_current(self.ptr, host) {
            return true;
        }
        st.invalidate();
        false
    }

    /// Completes the task without a copy (and so without a fault draw).
    fn elide(&self) {
        self.chain.inner.stats.transfers_elided.incr();
        self.chain.done();
    }

    /// Completes the task after `n` bytes of `version` reached the buffer.
    /// A partial fill (the host shrank since prepare) stays non-resident.
    fn finish(&self, n: usize, version: Option<u64>) {
        let whole = n == self.ptr.len as usize;
        let version = version.filter(|_| whole);
        self.chain
            .topo
            .pull_state(self.node)
            .lock()
            .publish(self.ptr, version);
        self.chain.inner.stats.bytes_h2d.add(n as u64);
        self.chain.done();
    }

    /// The whole transfer as one op: fault draw, one borrow of the source,
    /// one copy host → arena (all-or-nothing), residency, completion.
    fn copy_whole(&self, view: &mut ArenaView<'_>, cost: &CostModel) -> Result<OpReport, GpuError> {
        self.chain.draw(self.node, FaultSite::H2d)?;
        let mut copied = Ok((0, None));
        self.src.with_bytes(&mut |b, version| {
            copied = view.copy_in(self.ptr, b).map(|()| (b.len(), version));
        });
        let (n, version) = copied.map_err(|e| self.chain.fail_op(self.node, e))?;
        self.finish(n, version);
        Ok(h2d_report(n, cost))
    }

    /// Enqueues the pipelined form: open on `stream`, the chunks dealt
    /// round-robin over `lanes`, join on `stream`. A lane is FIFO, so it
    /// waits for the open op once and signals once after its last chunk:
    /// `chunks + 3·lanes + 3` engine ops in all. Chunk ops carry the
    /// label `name#cN`; the join carries the task's own.
    fn enqueue_chunked(
        self: &Arc<Self>,
        stream: &Stream,
        lanes: &[Stream],
        label: Option<OpLabel>,
    ) {
        let chunk = self.chain.inner.copy_chunk_threshold;
        let total = self.ptr.len as usize;
        let n_chunks = total.div_ceil(chunk);
        let lanes = &lanes[..lanes.len().min(n_chunks)];

        let pull = Arc::clone(self);
        stream.exec(Box::new(move |_, _| pull.open()));
        let opened = Event::new();
        stream.record_event(&opened);
        for lane in lanes {
            lane.wait_event(&opened);
        }
        for i in 0..n_chunks {
            let off = i * chunk;
            let len = chunk.min(total - off);
            let pull = Arc::clone(self);
            let chunk_label = label.as_ref().map(|l| OpLabel {
                name: Arc::from(format!("{}#c{i}", l.name)),
                tag: l.tag,
                epoch: l.epoch,
            });
            lanes[i % lanes.len()].exec_labeled(
                chunk_label,
                Box::new(move |view, cost| pull.chunk(view, cost, off, len)),
            );
        }
        for lane in lanes {
            let drained = Event::new();
            lane.record_event(&drained);
            stream.wait_event(&drained);
        }
        let pull = Arc::clone(self);
        stream.exec_labeled(label, Box::new(move |view, cost| pull.join(view, cost)));
    }

    fn open(&self) -> Result<OpReport, GpuError> {
        if self.chain.skip() {
            return Ok(OpReport::default());
        }
        if self.resident() {
            self.phase.store(ELIDED, Ordering::Relaxed);
            return Ok(OpReport::default());
        }
        let (mut len, mut version) = (0, None);
        self.src
            .with_bytes(&mut |b, v| (len, version) = (b.len(), v));
        let dst = self.ptr.len as usize;
        if len > dst {
            let e = GpuError::SizeMismatch { dst, src: len };
            return Err(self.chain.fail_op(self.node, e));
        }
        self.len.store(len, Ordering::Relaxed);
        match version {
            Some(v) => self.version.store(v, Ordering::Relaxed),
            // Nothing for the chunks to check against: leave it to the join.
            None => self.phase.store(TORN, Ordering::Relaxed),
        }
        Ok(OpReport::default())
    }

    fn chunk(
        &self,
        view: &mut ArenaView<'_>,
        cost: &CostModel,
        off: usize,
        len: usize,
    ) -> Result<OpReport, GpuError> {
        if self.chain.skip() || self.phase.load(Ordering::Relaxed) != COPYING {
            return Ok(OpReport::default());
        }
        self.chain.draw(self.node, FaultSite::H2d)?;
        let opened = Some(self.version.load(Ordering::Relaxed));
        let mut copied = Ok(0);
        self.src.with_bytes(&mut |b, version| {
            if version != opened {
                self.phase.store(TORN, Ordering::Relaxed);
                return;
            }
            // At the open version the source may still be shorter than
            // the buffer sized at prepare; copy the part that exists.
            let end = (off + len).min(b.len());
            if off < end {
                let span = DevicePtr {
                    device: self.ptr.device,
                    offset: self.ptr.offset + off as u64,
                    len: (end - off) as u64,
                    capacity: (end - off) as u64,
                };
                copied = view.copy_in(span, &b[off..end]).map(|()| end - off);
            }
        });
        let n = copied.map_err(|e| self.chain.fail_op(self.node, e))?;
        Ok(h2d_report(n, cost))
    }

    fn join(&self, view: &mut ArenaView<'_>, cost: &CostModel) -> Result<OpReport, GpuError> {
        if self.chain.skip() {
            return Ok(OpReport::default());
        }
        match self.phase.load(Ordering::Relaxed) {
            ELIDED => self.elide(),
            TORN => {
                self.chain.inner.stats.transfers_torn.incr();
                return self.copy_whole(view, cost);
            }
            // Every chunk copied from the open version; they reported
            // their own bytes and durations to the device.
            _ => self.finish(
                self.len.load(Ordering::Relaxed),
                Some(self.version.load(Ordering::Relaxed)),
            ),
        }
        Ok(OpReport::default())
    }
}

fn h2d_report(n: usize, cost: &CostModel) -> OpReport {
    OpReport {
        duration: cost.h2d(n),
        h2d_bytes: n as u64,
        ..Default::default()
    }
}

/// Builds the op of push `node`: the buffer of pull `pull_id` → `sink`.
fn prepare_push(
    chain: &Arc<ChainState>,
    node: usize,
    pull_id: usize,
    sink: &Arc<dyn HostSink>,
) -> Result<PreparedOp, HfError> {
    let pull_node = &chain.topo.frozen.nodes[pull_id];
    let ptr =
        chain
            .topo
            .pull_state(pull_id)
            .lock()
            .ptr()
            .ok_or_else(|| HfError::PushBeforePull {
                push: chain.task(node).to_string(),
                pull: pull_node.name.to_string(),
            })?;
    debug_assert_eq!(chain.dev.id(), ptr.device);
    // Revalidation is only sound for an in-place round trip (push back
    // into the pull's own storage): versions are per-buffer counters, so
    // a foreign sink's version must never validate the source's residency.
    let same_buffer = matches!(&pull_node.work, Work::Pull { source }
        if source.source_id().is_some() && source.source_id() == sink.sink_id());
    let (chain, sink) = (Arc::clone(chain), Arc::clone(sink));
    Ok(PreparedOp::Single(Box::new(move |view, cost| {
        if chain.skip() {
            return Ok(OpReport::default());
        }
        chain.draw(node, FaultSite::D2h)?;
        let bytes = view.bytes(ptr).map_err(|e| chain.fail_op(node, e))?;
        let n = bytes.len();
        let version = sink.store_bytes_versioned(bytes);
        // The host now mirrors the device buffer exactly, so the next
        // pull of unchanged host data may elide its copy.
        if version.is_some() && same_buffer {
            chain.topo.pull_state(pull_id).lock().publish(ptr, version);
        }
        chain.inner.stats.bytes_d2h.add(n as u64);
        chain.done();
        Ok(OpReport {
            duration: cost.d2h(n),
            d2h_bytes: n as u64,
            ..Default::default()
        })
    })))
}

/// Runtime state of a pull node: its current device buffer plus the
/// residency record that lets unchanged re-pulls skip the H2D copy.
///
/// The buffer persists across rounds and submissions for as long as the
/// frozen snapshot lives; dropping the snapshot (graph mutation or
/// executor teardown) returns it to the owning device's pool.
#[derive(Debug, Default)]
pub(crate) struct PullState {
    ptr: Option<DevicePtr>,
    /// Host-source version whose bytes the device buffer currently holds.
    /// `None` means the device copy is invalid (never copied, source is
    /// unversioned, a kernel mutated the buffer, or retry/failover/
    /// cancellation tore it down) and the next pull must copy.
    resident_version: Option<u64>,
    /// The device owning `ptr`, which its `free` goes to.
    device: Option<Device>,
}

impl PullState {
    /// The buffer for `bytes` of the source on `device`. The current one is
    /// kept when it is on `device` and its reserved capacity fits: a
    /// changed length only adjusts `len` (and drops residency). Otherwise
    /// it is released and a new one allocated.
    fn buffer(&mut self, device: &Device, bytes: usize) -> Result<DevicePtr, GpuError> {
        match (self.ptr.as_mut(), &self.device) {
            (Some(p), Some(d)) if d.same_device(device) && bytes as u64 <= p.capacity => {
                if p.len as usize != bytes {
                    p.len = bytes as u64;
                    self.resident_version = None;
                }
                Ok(*p)
            }
            _ => {
                self.release();
                let p = device.alloc(bytes)?;
                self.ptr = Some(p);
                self.device = Some(device.clone());
                Ok(p)
            }
        }
    }

    /// Frees the buffer to the device that owns it, and resets.
    /// Best-effort: a dead or lost device rejects the free; its arena died
    /// with it.
    pub(crate) fn release(&mut self) {
        if let (Some(p), Some(d)) = (self.ptr.take(), self.device.take()) {
            let _ = d.free(p);
        }
        self.resident_version = None;
    }

    /// Resets without freeing: the buffer's device is lost, and its arena
    /// with it.
    pub(crate) fn forget(&mut self) {
        self.ptr = None;
        self.device = None;
        self.resident_version = None;
    }

    /// Drops residency only: the buffer's bytes are about to stop matching
    /// any host version.
    fn invalidate(&mut self) {
        self.resident_version = None;
    }

    /// Records that buffer `ptr` holds `version`, unless the buffer was
    /// replaced meanwhile.
    fn publish(&mut self, ptr: DevicePtr, version: Option<u64>) {
        if self.ptr == Some(ptr) {
            self.resident_version = version;
        }
    }

    /// True when `ptr` is still the buffer and holds `version`.
    fn is_current(&self, ptr: DevicePtr, version: Option<u64>) -> bool {
        version.is_some() && self.resident_version == version && self.ptr == Some(ptr)
    }

    pub(crate) fn ptr(&self) -> Option<DevicePtr> {
        self.ptr
    }

    /// The device whose buffer holds exactly `version`: where a pull of a
    /// source at `version` would elide.
    pub(crate) fn warm_device(&self, version: u64) -> Option<u32> {
        let warm = self.resident_version == Some(version);
        self.ptr.filter(|_| warm).map(|p| p.device)
    }
}

impl Drop for PullState {
    fn drop(&mut self) {
        self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_gpu::{GpuConfig, GpuRuntime};

    impl PullState {
        /// A state whose buffer `ptr` holds `version`, with no device to
        /// free it to.
        pub(crate) fn resident(ptr: DevicePtr, version: u64) -> Self {
            Self {
                ptr: Some(ptr),
                resident_version: Some(version),
                device: None,
            }
        }
    }

    fn devices() -> (Device, Device) {
        let config = GpuConfig {
            memory_per_device: 1 << 20,
            ..GpuConfig::default()
        };
        let rt = GpuRuntime::new(2, config);
        (rt.device(0).unwrap(), rt.device(1).unwrap())
    }

    fn in_use(d: &Device) -> usize {
        d.pool_stats().bytes_in_use
    }

    #[test]
    fn buffer_is_reused_while_capacity_fits() {
        let (d0, _) = devices();
        let mut st = PullState::default();
        let p = st.buffer(&d0, 1000).unwrap();
        st.publish(p, Some(7));
        assert!(st.is_current(p, Some(7)));
        // Same length: same buffer, still resident.
        assert_eq!(st.buffer(&d0, 1000).unwrap(), p);
        assert!(st.is_current(p, Some(7)));
        // Another length within the capacity: same block, residency gone.
        let q = st.buffer(&d0, 600).unwrap();
        assert_eq!((q.offset, q.capacity, q.len), (p.offset, p.capacity, 600));
        assert_eq!(st.ptr(), Some(q));
        assert!(!st.is_current(q, Some(7)));
        assert_eq!(st.warm_device(7), None);
        assert_eq!(d0.pool_stats().allocs, 1);
    }

    #[test]
    fn buffer_moves_on_another_device_or_outgrown_capacity() {
        let (d0, d1) = devices();
        let mut st = PullState::default();
        let p = st.buffer(&d0, 1000).unwrap();
        st.publish(p, Some(1));
        assert_eq!(st.warm_device(1), Some(0));
        assert_eq!(in_use(&d0), p.capacity as usize);
        // Outgrown: the old block goes back to d0's pool.
        let q = st.buffer(&d0, p.capacity as usize + 1).unwrap();
        assert_ne!(q.capacity, p.capacity);
        assert_eq!(in_use(&d0), q.capacity as usize);
        assert_eq!(st.warm_device(1), None);
        // Another device: the block goes back to d0, the new one is d1's.
        st.publish(q, Some(2));
        let r = st.buffer(&d1, 1000).unwrap();
        assert_eq!(r.device, 1);
        assert_eq!(in_use(&d0), 0);
        assert_eq!(in_use(&d1), r.capacity as usize);
        assert_eq!(st.warm_device(2), None);
    }

    #[test]
    fn forget_frees_nothing() {
        let (d0, _) = devices();
        let mut st = PullState::default();
        let p = st.buffer(&d0, 1000).unwrap();
        st.forget();
        assert_eq!(st.ptr(), None);
        drop(st);
        assert_eq!(in_use(&d0), p.capacity as usize);
        assert_eq!(d0.pool_stats().frees, 0);
    }

    #[test]
    fn release_and_drop_free_once() {
        let (d0, _) = devices();
        let mut st = PullState::default();
        st.buffer(&d0, 1000).unwrap();
        st.release();
        assert_eq!(st.ptr(), None);
        assert_eq!(in_use(&d0), 0);
        drop(st);
        assert_eq!(d0.pool_stats().frees, 1);
        // A buffer still held when the state drops is freed by the drop.
        let mut st = PullState::default();
        st.buffer(&d0, 1000).unwrap();
        drop(st);
        assert_eq!(in_use(&d0), 0);
        assert_eq!(d0.pool_stats().frees, 2);
    }
}
