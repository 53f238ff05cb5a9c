//! Stateful host-side data binding for pull and push tasks.
//!
//! The paper binds pull/push tasks to host memory through `std::span`
//! captured in a "stateful tuple" (Listings 3–6): the span is *re-formed at
//! execution time*, so a host task that resizes the vector beforehand is
//! seen by the pull task. Rust cannot alias user memory across threads
//! safely, so the library provides [`HostVec<T>`] — a shared, lockable
//! vector — as the binding endpoint. The stateful property is identical:
//! pull reads the vector's *current* contents when the copy executes, and
//! push writes back into the vector at execution time.
//!
//! Every [`HostVec`] additionally carries a **monotonic version counter**,
//! bumped whenever a write guard is taken. Pull tasks record the version
//! they copied to the device; on re-execution with an unchanged version
//! (and unchanged placement) the H2D copy is *elided* because the device
//! bytes are already current — see the executor's residency tracking.

use hf_gpu::copy_bytes;
use hf_gpu::plain::{self, Plain};
use hf_sync::atomic::{AtomicU64, Ordering};
use hf_sync::sync::RwLock;
use std::sync::Arc;

struct Shared<T> {
    data: RwLock<Vec<T>>,
    /// Bumped (under the write lock) every time a write guard is handed
    /// out. Conservative: taking the guard counts as a mutation even if
    /// nothing is written, which can only cause a redundant copy, never a
    /// stale one.
    version: AtomicU64,
}

/// A shared host vector bindable to pull and push tasks.
///
/// Clones share the same storage (`Arc` inside). Host tasks mutate it
/// through [`HostVec::write`]; pull tasks copy its bytes (under the read
/// lock) when they execute; push tasks overwrite it when they execute.
///
/// ```
/// use hf_core::data::HostVec;
/// let x: HostVec<i32> = HostVec::new();
/// x.write().resize(4, 7);
/// assert_eq!(x.read().as_slice(), &[7, 7, 7, 7]);
/// ```
pub struct HostVec<T> {
    inner: Arc<Shared<T>>,
}

impl<T> Clone for HostVec<T> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Default for HostVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for HostVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("HostVec")
            .field(&*self.inner.data.read())
            .finish()
    }
}

impl<T> HostVec<T> {
    /// Creates an empty shared vector.
    pub fn new() -> Self {
        Self::from_vec(Vec::new())
    }

    /// Creates from existing contents.
    pub fn from_vec(v: Vec<T>) -> Self {
        Self {
            inner: Arc::new(Shared {
                data: RwLock::new(v),
                version: AtomicU64::new(0),
            }),
        }
    }

    /// Read guard over the contents.
    pub fn read(&self) -> hf_sync::sync::RwLockReadGuard<'_, Vec<T>> {
        self.inner.data.read()
    }

    /// Write guard over the contents. Taking the guard bumps the version
    /// counter, invalidating any device-resident copy of this vector.
    pub fn write(&self) -> hf_sync::sync::RwLockWriteGuard<'_, Vec<T>> {
        let guard = self.inner.data.write();
        // Bumped under the write lock so a concurrent versioned read
        // cannot pair the new version with the old bytes.
        self.inner.version.fetch_add(1, Ordering::Release);
        guard
    }

    /// Current value of the monotonic version counter.
    pub fn version(&self) -> u64 {
        self.inner.version.load(Ordering::Acquire)
    }

    /// Current element count.
    pub fn len(&self) -> usize {
        self.inner.data.read().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.inner.data.read().is_empty()
    }

    /// Stable identity of the shared storage: equal across clones, unique
    /// across distinct vectors, for as long as any clone lives. This is
    /// the same value [`HostSource::source_id`] / [`HostSink::sink_id`]
    /// report, and what [`crate::HostTask::reads`] /
    /// [`crate::HostTask::writes`] declare to the static analyzer.
    pub(crate) fn buffer_id(&self) -> usize {
        Arc::as_ptr(&self.inner) as *const () as usize
    }
}

impl<T: Clone> HostVec<T> {
    /// Clones the contents out.
    pub fn to_vec(&self) -> Vec<T> {
        self.inner.data.read().clone()
    }
}

impl<T> From<Vec<T>> for HostVec<T> {
    fn from(v: Vec<T>) -> Self {
        Self::from_vec(v)
    }
}

/// Anything a pull task can read host bytes from at execution time.
pub trait HostSource: Send + Sync + 'static {
    /// Lends the current bytes and their version to `f` for the duration
    /// of the call — the one read the transfer engine copies from, when
    /// the H2D copy executes (this is what makes pull tasks stateful). The
    /// version must describe exactly these bytes; a source that tracks
    /// none lends `None`.
    fn with_bytes(&self, f: &mut dyn FnMut(&[u8], Option<u64>));
    /// Current byte length (used to size the device allocation).
    fn byte_len(&self) -> usize;
    /// Monotonic version of the contents, if the source tracks one.
    /// Sources returning `None` are never elided. The default tracks
    /// nothing.
    fn version(&self) -> Option<u64> {
        None
    }
    /// Stable identity of the underlying storage, if the source has one.
    /// Two sources with the same id share the same bytes (e.g. clones of
    /// one [`HostVec`]). Used to carry device residency across graph
    /// re-freezes: a re-frozen pull of the same storage inherits the old
    /// snapshot's warm device buffer. Sources returning `None` never
    /// carry residency over. The default tracks nothing.
    fn source_id(&self) -> Option<usize> {
        None
    }
}

/// Anything a push task can write device bytes back into at execution
/// time.
pub trait HostSink: Send + Sync + 'static {
    /// Overwrites the host storage with the device bytes.
    fn store_bytes(&self, bytes: &[u8]);
    /// Overwrites the host storage and returns the resulting version, if
    /// the sink tracks one. After a push the host and device bytes agree,
    /// so a pull of the same buffer may treat the returned version as
    /// device-resident.
    fn store_bytes_versioned(&self, bytes: &[u8]) -> Option<u64> {
        self.store_bytes(bytes);
        None
    }
    /// Stable identity of the underlying storage, if the sink has one —
    /// the counterpart of [`HostSource::source_id`]. Two endpoints with
    /// the same id share bytes; the static analyzer uses it to pair push
    /// writes with pull/host accesses of the same buffer. The default
    /// tracks nothing.
    fn sink_id(&self) -> Option<usize> {
        None
    }
}

impl<T: Plain> HostSource for HostVec<T> {
    fn with_bytes(&self, f: &mut dyn FnMut(&[u8], Option<u64>)) {
        // Version read under the read lock: a writer bumps before its
        // guard is granted, so the pair is consistent, and writers wait
        // for as long as `f` runs.
        let guard = self.inner.data.read();
        let version = self.inner.version.load(Ordering::Acquire);
        f(plain::as_bytes(guard.as_slice()), Some(version));
    }

    fn byte_len(&self) -> usize {
        self.inner.data.read().len() * std::mem::size_of::<T>()
    }

    fn version(&self) -> Option<u64> {
        Some(HostVec::version(self))
    }

    fn source_id(&self) -> Option<usize> {
        // The shared allocation's address: stable and unique for as long
        // as any clone (and thus any pull task holding the source) lives.
        Some(self.buffer_id())
    }
}

/// A push copies in place, under one write guard (one version bump): the
/// vector is cut or grown to the pushed length, then the prefix it shares
/// with the old contents is written over them by [`copy_bytes`], on two
/// cores from [`hf_gpu::copy::SPLIT`] bytes up. Length and bytes end as
/// `clear` + `extend_from_slice` would leave them; a trailing partial
/// element is dropped.
impl<T: Plain> HostSink for HostVec<T> {
    fn store_bytes(&self, bytes: &[u8]) {
        self.store_bytes_versioned(bytes);
    }

    fn store_bytes_versioned(&self, bytes: &[u8]) -> Option<u64> {
        let mut guard = self.write();
        let elems: &[T] =
            plain::from_bytes(&bytes[..bytes.len() - bytes.len() % std::mem::size_of::<T>()]);
        let common = guard.len().min(elems.len());
        guard.truncate(common);
        guard.extend_from_slice(&elems[common..]);
        copy_bytes(
            plain::as_bytes_mut(&mut guard[..common]),
            plain::as_bytes(&elems[..common]),
        );
        // Read back under the still-held write lock: this is the version
        // that describes exactly the bytes just stored.
        Some(self.inner.version.load(Ordering::Acquire))
    }

    fn sink_id(&self) -> Option<usize> {
        Some(self.buffer_id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `src` lends, copied out.
    fn lent(src: &dyn HostSource) -> (Vec<u8>, Option<u64>) {
        let mut out = (Vec::new(), None);
        src.with_bytes(&mut |b, v| out = (b.to_vec(), v));
        out
    }

    #[test]
    fn stateful_resize_is_visible_to_source() {
        let v: HostVec<i32> = HostVec::new();
        let src: &dyn HostSource = &v.clone();
        assert_eq!(src.byte_len(), 0);
        v.write().resize(3, 5);
        assert_eq!(src.byte_len(), 12);
        assert_eq!(lent(src).0, plain::as_bytes(&[5i32, 5, 5]));
    }

    #[test]
    fn sink_overwrites_contents() {
        let v: HostVec<u32> = HostVec::from_vec(vec![1, 2, 3, 4, 5]);
        let sink: &dyn HostSink = &v.clone();
        sink.store_bytes(plain::as_bytes(&[9u32, 8]));
        assert_eq!(v.to_vec(), vec![9, 8]);
    }

    #[test]
    fn sink_in_place_matches_clear_and_extend() {
        let big = hf_gpu::copy::SPLIT / 4 + 3;
        for old in [0, 3, big - 5, big] {
            for new in [0, 2, big - 5, big, big + 9] {
                let pushed: Vec<u32> = (0..new as u32).map(|i| i ^ 0x5A5A_5A5A).collect();
                // A trailing partial element is dropped.
                let mut bytes = plain::as_bytes(&pushed).to_vec();
                bytes.push(0xFF);
                let v = HostVec::from_vec(vec![7u32; old]);
                let version = v.store_bytes_versioned(&bytes);
                assert!(v.to_vec() == pushed, "{old} -> {new} elements");
                assert_eq!(version, Some(v.version()));
            }
        }
    }

    #[test]
    fn clones_share_storage() {
        let a: HostVec<f32> = HostVec::new();
        let b = a.clone();
        a.write().push(1.5);
        assert_eq!(b.to_vec(), vec![1.5]);
        assert!(!a.is_empty());
    }

    #[test]
    fn write_bumps_version() {
        let v: HostVec<i32> = HostVec::from_vec(vec![1]);
        let v0 = v.version();
        {
            let _g = v.write();
        }
        assert_eq!(v.version(), v0 + 1);
        // Reads do not bump.
        drop(v.read());
        let _ = v.to_vec();
        assert_eq!(v.version(), v0 + 1);
    }

    #[test]
    fn versioned_read_and_store_agree() {
        let v: HostVec<i32> = HostVec::from_vec(vec![3, 4]);
        let (bytes, ver) = lent(&v);
        assert_eq!(ver, Some(v.version()));
        assert_eq!(bytes, plain::as_bytes(&[3i32, 4]));

        let sink: &dyn HostSink = &v.clone();
        let stored = sink.store_bytes_versioned(plain::as_bytes(&[7i32]));
        assert_eq!(stored, Some(v.version()), "store returns the new version");
        assert_eq!(v.to_vec(), vec![7]);
    }

    #[test]
    fn clones_share_version_counter() {
        let a: HostVec<u8> = HostVec::new();
        let b = a.clone();
        let v0 = a.version();
        b.write().push(1);
        assert_eq!(a.version(), v0 + 1);
    }

    #[test]
    fn buffer_id_matches_source_and_sink_ids() {
        let v: HostVec<u32> = HostVec::new();
        let src: &dyn HostSource = &v.clone();
        let sink: &dyn HostSink = &v.clone();
        assert_eq!(src.source_id(), Some(v.buffer_id()));
        assert_eq!(sink.sink_id(), Some(v.buffer_id()));
        assert_eq!(v.clone().buffer_id(), v.buffer_id());
    }

    #[test]
    fn source_id_identifies_shared_storage() {
        let a: HostVec<u8> = HostVec::new();
        let b = a.clone();
        let c: HostVec<u8> = HostVec::new();
        let (sa, sb, sc): (&dyn HostSource, &dyn HostSource, &dyn HostSource) = (&a, &b, &c);
        assert!(sa.source_id().is_some());
        assert_eq!(sa.source_id(), sb.source_id());
        assert_ne!(sa.source_id(), sc.source_id());
    }
}
