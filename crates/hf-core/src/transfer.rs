//! The transfer engine: the device ops behind pull and push tasks.
//!
//! Every byte is copied once per direction, with no buffer in between: a
//! pull borrows the host bytes ([`HostSource::with_bytes`]) and copies
//! them into the device arena; a push hands the arena bytes to its sink.
//!
//! **Pulls** record `(device, ptr, resident_version)` in the pull's
//! [`crate::graph::PullState`] after a whole copy, and a pull that finds
//! its source still at the resident version elides: no copy, no fault
//! draw. A versioned source larger than `copy_chunk_threshold` is
//! *pipelined*: an open op on the task's stream elides or drops residency
//! and records the source's `(len, version)`; one op per chunk, dealt
//! round-robin over the copy-lane streams, borrows the source again,
//! checks it is still at the recorded version and copies its own span (so
//! chunks interleave with other streams' kernels on the device engine);
//! a join op back on the task's stream publishes residency and completes
//! the task exactly once. Host tasks may write the source between chunks,
//! so the *one-version rule* holds the buffer together: a chunk that sees
//! another version copies nothing and marks the transfer torn, and the
//! join of a torn transfer copies the whole span again under a single
//! borrow (`transfers_torn`). The device buffer therefore always holds
//! exactly one version's bytes. A source without a version cannot be
//! checked this way and takes the single-op path whatever its size.
//!
//! **Pushes** are always one op, arena → sink under the sink's one write
//! lock. That is already a single pass; it is also what makes push
//! revalidation sound (the returned version describes exactly the bytes
//! the device holds) and what lets failover treat a push as either not
//! started or complete, never half-written.
//!
//! Every op draws its fault before its effect and records a failure in
//! the chain's [`ChainState`], which turns the chain's remaining ops —
//! the other chunks and the join included — into no-ops; the chain's
//! completion callback then retries the task as a whole.

use crate::data::{HostSink, HostSource};
use crate::error::HfError;
use crate::executor::ExecInner;
use crate::graph::Work;
use crate::topology::Topology;
use crate::worker::ChainState;
use hf_gpu::stream::ExecFn;
use hf_gpu::{
    ArenaView, CostModel, Device, DevicePtr, Event, FaultSite, GpuError, OpLabel, OpReport, Stream,
};
use hf_sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

/// What `Worker::prepare_op` produced for one chain node.
pub(crate) enum PreparedOp {
    /// One stream op, enqueued on the worker's main per-device stream.
    Single(ExecFn),
    /// A pull to pipeline over the copy lanes ([`Pull::enqueue_chunked`]).
    ChunkedPull(Arc<Pull>),
}

/// Drops a pull's residency: its device bytes are about to stop matching
/// any host version (a kernel is going to write them).
pub(crate) fn clear_residency(topo: &Topology, pull: usize) {
    topo.pull_state(pull).lock().resident_version = None;
}

/// What every op of one transfer task needs: where to record failure and
/// completion, and whom to account the bytes to.
struct Ctx {
    inner: Arc<ExecInner>,
    topo: Arc<Topology>,
    chain: Arc<ChainState>,
    dev: Device,
    node: usize,
}

impl Ctx {
    fn new(
        inner: &Arc<ExecInner>,
        topo: &Arc<Topology>,
        chain: &Arc<ChainState>,
        dev: &Device,
        node: usize,
    ) -> Self {
        Self {
            inner: Arc::clone(inner),
            topo: Arc::clone(topo),
            chain: Arc::clone(chain),
            dev: dev.clone(),
            node,
        }
    }

    fn task(&self) -> &str {
        &self.topo.frozen.nodes[self.node].name
    }

    fn skip(&self) -> bool {
        self.chain.skip(&self.topo)
    }

    /// Records `e` as the chain's failure and hands it back for the engine.
    fn fail(&self, e: GpuError) -> GpuError {
        self.chain.fail(HfError::TaskFailed {
            task: self.task().to_string(),
            source: e.clone(),
        });
        e
    }

    /// The op's fault draw; callers make it before the op's effect.
    fn draw(&self, site: FaultSite) -> Result<(), GpuError> {
        self.dev.fault_check(site).map_err(|e| self.fail(e))
    }

    /// Sets `pull`'s resident version, unless its buffer moved meanwhile.
    fn publish(&self, pull: usize, ptr: DevicePtr, version: Option<u64>) {
        let mut st = self.topo.pull_state(pull).lock();
        if st.ptr == Some(ptr) {
            st.resident_version = version;
        }
    }
}

/// Chunks are copying towards the version the open op recorded.
const COPYING: u8 = 0;
/// The open op found the buffer resident; chunks and join copy nothing.
const ELIDED: u8 = 1;
/// A chunk saw another version; the join copies the whole span again.
const TORN: u8 = 2;

/// One execution of a pull task.
pub(crate) struct Pull {
    cx: Ctx,
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

/// Builds the op of pull `id`, (re)using or (re)allocating its device
/// buffer for the source's *current* size — stateful. A same-device
/// buffer whose reserved capacity still fits is kept: a changed length
/// only adjusts `len` (and drops residency); a changed device or an
/// outgrown capacity reallocates.
pub(crate) fn prepare_pull(
    inner: &Arc<ExecInner>,
    topo: &Arc<Topology>,
    id: usize,
    source: &Arc<dyn HostSource>,
    device: &Device,
    chain: &Arc<ChainState>,
) -> Result<PreparedOp, HfError> {
    let bytes = source.byte_len();
    let ptr = {
        let mut st = topo.pull_state(id).lock();
        match (st.ptr, &st.device) {
            (Some(mut p), Some(d)) if d.same_device(device) && bytes as u64 <= p.capacity => {
                if p.len as usize != bytes {
                    p.len = bytes as u64;
                    st.ptr = Some(p);
                    st.resident_version = None;
                }
                p
            }
            _ => {
                if let (Some(p), Some(d)) = (st.ptr.take(), st.device.take()) {
                    // Best-effort: a dead or lost device rejects the free;
                    // its arena died with it.
                    let _ = d.free(p);
                }
                st.resident_version = None;
                let p = device.alloc(bytes).map_err(|e| HfError::TaskFailed {
                    task: topo.frozen.nodes[id].name.to_string(),
                    source: e,
                })?;
                st.ptr = Some(p);
                st.device = Some(device.clone());
                p
            }
        }
    };
    let pull = Arc::new(Pull {
        cx: Ctx::new(inner, topo, chain, device, id),
        src: Arc::clone(source),
        ptr,
        phase: AtomicU8::new(COPYING),
        version: AtomicU64::new(0),
        len: AtomicUsize::new(0),
    });
    if bytes > inner.copy_chunk_threshold && source.version().is_some() {
        return Ok(PreparedOp::ChunkedPull(pull));
    }
    Ok(PreparedOp::Single(Box::new(move |view, cost| {
        if pull.cx.skip() {
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
        let mut st = self.cx.topo.pull_state(self.cx.node).lock();
        if host.is_some() && st.resident_version == host && st.ptr == Some(self.ptr) {
            return true;
        }
        st.resident_version = None;
        false
    }

    /// Completes the task without a copy (and so without a fault draw).
    fn elide(&self) {
        self.cx.inner.stats.transfers_elided.incr();
        self.cx.chain.done.fetch_add(1, Ordering::Release);
    }

    /// Completes the task after `n` bytes of `version` reached the buffer.
    /// A partial fill (the host shrank since prepare) stays non-resident.
    fn finish(&self, n: usize, version: Option<u64>) {
        let whole = n == self.ptr.len as usize;
        self.cx
            .publish(self.cx.node, self.ptr, version.filter(|_| whole));
        self.cx.inner.stats.bytes_h2d.add(n as u64);
        self.cx.chain.done.fetch_add(1, Ordering::Release);
    }

    /// The whole transfer as one op: fault draw, one borrow of the source,
    /// one copy host → arena (all-or-nothing), residency, completion.
    fn copy_whole(&self, view: &mut ArenaView<'_>, cost: &CostModel) -> Result<OpReport, GpuError> {
        self.cx.draw(FaultSite::H2d)?;
        let mut copied = Ok((0, None));
        self.src.with_bytes(&mut |b, version| {
            copied = view.copy_in(self.ptr, b).map(|()| (b.len(), version));
        });
        let (n, version) = copied.map_err(|e| self.cx.fail(e))?;
        self.finish(n, version);
        Ok(h2d_report(n, cost))
    }

    /// Enqueues the pipelined form: open on `stream`, the chunks dealt
    /// round-robin over `lanes`, join on `stream`. A lane is FIFO, so it
    /// waits for the open op once and signals once after its last chunk:
    /// `chunks + 3·lanes + 3` engine ops in all. Chunk ops carry the
    /// label `name#cN`; the join carries the task's own.
    pub(crate) fn enqueue_chunked(
        self: &Arc<Self>,
        stream: &Stream,
        lanes: &[Stream],
        label: Option<OpLabel>,
    ) {
        let chunk = self.cx.inner.copy_chunk_threshold;
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
        if self.cx.skip() {
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
            return Err(self.cx.fail(GpuError::SizeMismatch { dst, src: len }));
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
        if self.cx.skip() || self.phase.load(Ordering::Relaxed) != COPYING {
            return Ok(OpReport::default());
        }
        self.cx.draw(FaultSite::H2d)?;
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
        let n = copied.map_err(|e| self.cx.fail(e))?;
        Ok(h2d_report(n, cost))
    }

    fn join(&self, view: &mut ArenaView<'_>, cost: &CostModel) -> Result<OpReport, GpuError> {
        if self.cx.skip() {
            return Ok(OpReport::default());
        }
        match self.phase.load(Ordering::Relaxed) {
            ELIDED => self.elide(),
            TORN => {
                self.cx.inner.stats.transfers_torn.incr();
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

/// Builds the op of push `id`: the buffer of pull `pull_id` → `sink`.
pub(crate) fn prepare_push(
    inner: &Arc<ExecInner>,
    topo: &Arc<Topology>,
    id: usize,
    pull_id: usize,
    sink: &Arc<dyn HostSink>,
    device: &Device,
    chain: &Arc<ChainState>,
) -> Result<PreparedOp, HfError> {
    let pull_node = &topo.frozen.nodes[pull_id];
    let ptr = topo
        .pull_state(pull_id)
        .lock()
        .ptr
        .ok_or_else(|| HfError::PushBeforePull {
            push: topo.frozen.nodes[id].name.to_string(),
            pull: pull_node.name.to_string(),
        })?;
    debug_assert_eq!(device.id(), ptr.device);
    // Revalidation is only sound for an in-place round trip (push back
    // into the pull's own storage): versions are per-buffer counters, so
    // a foreign sink's version must never validate the source's residency.
    let same_buffer = matches!(&pull_node.work, Work::Pull { source }
        if source.source_id().is_some() && source.source_id() == sink.sink_id());
    let cx = Ctx::new(inner, topo, chain, device, id);
    let sink = Arc::clone(sink);
    Ok(PreparedOp::Single(Box::new(move |view, cost| {
        if cx.skip() {
            return Ok(OpReport::default());
        }
        cx.draw(FaultSite::D2h)?;
        let bytes = view.bytes(ptr).map_err(|e| cx.fail(e))?;
        let n = bytes.len();
        let version = sink.store_bytes_versioned(bytes);
        // The host now mirrors the device buffer exactly, so the next
        // pull of unchanged host data may elide its copy.
        if version.is_some() && same_buffer {
            cx.publish(pull_id, ptr, version);
        }
        cx.inner.stats.bytes_d2h.add(n as u64);
        cx.chain.done.fetch_add(1, Ordering::Release);
        Ok(OpReport {
            duration: cost.d2h(n),
            d2h_bytes: n as u64,
            ..Default::default()
        })
    })))
}
