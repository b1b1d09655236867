//! Out-of-core storage tier for the GOFMM serving stack.
//!
//! The compressed operator's interaction panels and ULV factor blocks are
//! frozen after construction, which makes them ideal for spill-to-disk
//! storage: write each per-node block once into a page-aligned file, then
//! fault blocks back in on demand behind a bounded LRU resident set. An
//! operator larger than RAM can then keep serving `apply`/`solve` with peak
//! resident panel memory capped by an explicit `resident_budget`.
//!
//! The crate is deliberately std-only (the build container is offline) and
//! GOFMM-agnostic at the I/O layer: consumers describe their blocks via the
//! [`Blob`] trait (encode/decode to little-endian bytes) and address them by
//! a `(class, node)` key, where `class` names a block family (see
//! [`classes`]) and `node` is the heap index of the owning tree node.
//!
//! # File layout
//!
//! ```text
//! page 0          : magic "GFMMSTR1", format version (u32 LE), zero padding
//! page 1..        : blobs, each starting on a 4096-byte boundary
//! index           : u64 count, then per entry (u32 class, u32 node,
//!                   u64 offset, u64 len)
//! trailer (16 B)  : u64 index offset, magic "GFMMIDX1"
//! ```
//!
//! [`StoreWriter`] produces the file in one append-only pass;
//! [`FilePanelStore`] opens it read-only, loads the index, and serves
//! [`FilePanelStore::get`] requests through the LRU cache. A miss reads the
//! blob into a per-thread reused buffer and decodes it from there.

#![deny(missing_docs)]

use std::any::Any;
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Blob alignment inside a store file. Every blob starts on a boundary of
/// this many bytes so reads never straddle a page for small blocks.
pub const PAGE: u64 = 4096;

const HEADER_MAGIC: &[u8; 8] = b"GFMMSTR1";
const INDEX_MAGIC: &[u8; 8] = b"GFMMIDX1";
/// Version 2: ULV node blobs hold blocked compact-WY rotations.
const FORMAT_VERSION: u32 = 3;

/// Well-known blob classes used by the GOFMM crates. The store itself does
/// not interpret these; they only namespace the `(class, node)` key space so
/// the evaluator and the factorization can share one file.
pub mod classes {
    /// Packed far-field (S2S) interaction panel of a tree node.
    pub const S2S: u16 = 1;
    /// Packed near-field (L2L) interaction panel of a leaf.
    pub const L2L: u16 = 2;
    /// ULV factor block (rotation + trailing elimination) of a tree node.
    pub const ULV_NODE: u16 = 3;
    /// Left factor of a rank-truncated (tuned) far panel: `left * right`
    /// replaces the dense [`S2S`] panel after `Evaluator::tune`.
    pub const S2S_LEFT: u16 = 4;
    /// Right factor of a rank-truncated (tuned) far panel.
    pub const S2S_RIGHT: u16 = 5;
    /// Left factor of a rank-truncated (tuned) near panel (see [`S2S_LEFT`]).
    pub const L2L_LEFT: u16 = 6;
    /// Right factor of a rank-truncated (tuned) near panel.
    pub const L2L_RIGHT: u16 = 7;
    /// Serialized compression configuration (persistence header).
    pub const CONFIG: u16 = 10;
    /// Serialized partition tree (persistence header).
    pub const TREE: u16 = 11;
    /// Serialized interaction lists (persistence header).
    pub const LISTS: u16 = 12;
    /// Serialized per-node skeleton bases (persistence header).
    pub const BASES: u16 = 13;
    /// Per-node ULV dimensions, kept resident by a reopened factor.
    pub const ULV_DIMS: u16 = 14;
    /// ULV factorization metadata (regularization, stats).
    pub const ULV_META: u16 = 15;
    /// Tuned per-node effective far lists (`Evaluator::tune` dropped
    /// far blocks); absent when the persisted operator was never tuned.
    pub const TUNED_FAR: u16 = 16;
    /// Tune statistics snapshot persisted alongside a tuned operator.
    pub const TUNE_META: u16 = 17;
}

/// Errors surfaced by the storage tier.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// An operating-system I/O failure, with the path and OS message.
    Io(String),
    /// The file exists but is not a valid store (bad magic, truncated
    /// index, or a blob that fails to decode).
    Corrupt(String),
    /// No blob was written under the requested `(class, node)` key.
    Missing {
        /// Blob class of the missed lookup.
        class: u16,
        /// Node index of the missed lookup.
        node: u32,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(msg) => write!(f, "store I/O error: {msg}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt store file: {msg}"),
            StoreError::Missing { class, node } => {
                write!(f, "store has no blob for class {class} node {node}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(path: &Path, op: &str, e: std::io::Error) -> StoreError {
    StoreError::Io(format!("{op} {}: {e}", path.display()))
}

/// A value that can be spilled to and faulted back from a panel store.
///
/// Implementations must be deterministic: `decode(encode(x)) == x`
/// bit-for-bit, since the serving stack asserts bit-identity between
/// in-memory and file-backed operators.
pub trait Blob: Sized + Send + Sync + 'static {
    /// Append the little-endian serialized form of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Reconstruct a value from bytes produced by [`Blob::encode`].
    fn decode(bytes: &[u8]) -> Result<Self, StoreError>;
    /// Approximate heap footprint of the decoded value, charged against the
    /// store's `resident_budget` while the value is cached.
    fn resident_bytes(&self) -> usize;
}

// ---------------------------------------------------------------------------
// Little-endian codec helpers shared by every Blob implementation.
// ---------------------------------------------------------------------------

/// Append-only little-endian encoder used by [`Blob::encode`] impls.
pub struct ByteWriter<'a> {
    out: &'a mut Vec<u8>,
}

impl<'a> ByteWriter<'a> {
    /// Wrap an output buffer.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        ByteWriter { out }
    }

    /// Write a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    /// Write a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Write an `f64` by bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.out.extend_from_slice(v);
    }

    /// Write a length-prefixed `usize` slice.
    pub fn usize_slice(&mut self, v: &[usize]) {
        self.usize(v.len());
        for &x in v {
            self.usize(x);
        }
    }
}

/// Cursor-based little-endian decoder used by [`Blob::decode`] impls. Every
/// read is bounds-checked and returns [`StoreError::Corrupt`] on truncation.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wrap an input buffer with the cursor at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Read the next `n` bytes as one borrowed slice (no length prefix):
    /// the whole-payload read of a slice decoder.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.buf.len() - self.pos < n {
            return Err(StoreError::Corrupt(format!(
                "blob truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a `usize` written by [`ByteWriter::usize`].
    pub fn usize(&mut self) -> Result<usize, StoreError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| StoreError::Corrupt(format!("usize overflow: {v}")))
    }

    /// Read an `f64` by bit pattern.
    pub fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], StoreError> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Read a length-prefixed `usize` slice.
    pub fn usize_slice(&mut self) -> Result<Vec<usize>, StoreError> {
        let n = self.usize()?;
        // Capacity only for what the remaining bytes can hold: a hostile
        // length fails on truncation instead of allocating.
        let mut v = Vec::with_capacity(n.min(self.remaining() / 8));
        for _ in 0..n {
            v.push(self.usize()?);
        }
        Ok(v)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fail with [`StoreError::Corrupt`] if any input bytes remain.
    pub fn finish(self) -> Result<(), StoreError> {
        if self.remaining() != 0 {
            return Err(StoreError::Corrupt(format!(
                "blob has {} trailing bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct IndexEntry {
    class: u16,
    node: u32,
    offset: u64,
    len: u64,
}

/// Single-pass, append-only store file producer.
///
/// `put` each blob once (duplicate keys are rejected), then call
/// [`StoreWriter::finish`] to append the index and trailer. A file without a
/// trailer is treated as corrupt by [`FilePanelStore::open`], so a crashed
/// writer can never be mistaken for a complete store.
pub struct StoreWriter {
    path: PathBuf,
    file: File,
    offset: u64,
    index: Vec<IndexEntry>,
    seen: HashMap<(u16, u32), ()>,
    scratch: Vec<u8>,
}

impl StoreWriter {
    /// Create (truncating) a store file at `path`.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let path = path.into();
        let file = File::create(&path).map_err(|e| io_err(&path, "create", e))?;
        let mut w = StoreWriter {
            path,
            file,
            offset: 0,
            index: Vec::new(),
            seen: HashMap::new(),
            scratch: Vec::new(),
        };
        let mut header = vec![0u8; PAGE as usize];
        header[..8].copy_from_slice(HEADER_MAGIC);
        header[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        w.write_all(&header)?;
        Ok(w)
    }

    fn write_all(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.file
            .write_all(bytes)
            .map_err(|e| io_err(&self.path, "write", e))?;
        self.offset += bytes.len() as u64;
        Ok(())
    }

    fn pad_to_page(&mut self) -> Result<(), StoreError> {
        let rem = self.offset % PAGE;
        if rem != 0 {
            let pad = vec![0u8; (PAGE - rem) as usize];
            self.write_all(&pad)?;
        }
        Ok(())
    }

    /// Append one blob under `(class, node)`. Panics if the key was already
    /// written — store layout is decided at spill time, duplicates are a
    /// caller bug.
    pub fn put(&mut self, class: u16, node: u32, blob: &impl Blob) -> Result<(), StoreError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        blob.encode(&mut scratch);
        let result = self.put_raw(class, node, &scratch);
        self.scratch = scratch;
        result
    }

    /// Append pre-encoded bytes under `(class, node)` — the clone-free path
    /// for callers that serialize borrowed data themselves (read back with
    /// `FilePanelStore::read_raw`). Panics on a duplicate key, like
    /// [`StoreWriter::put`].
    pub fn put_raw(&mut self, class: u16, node: u32, bytes: &[u8]) -> Result<(), StoreError> {
        assert!(
            self.seen.insert((class, node), ()).is_none(),
            "duplicate store key (class {class}, node {node})"
        );
        let entry = IndexEntry {
            class,
            node,
            offset: self.offset,
            len: bytes.len() as u64,
        };
        self.write_all(bytes)?;
        self.pad_to_page()?;
        self.index.push(entry);
        Ok(())
    }

    /// Total blob payload bytes written so far (excluding padding/index).
    pub fn payload_bytes(&self) -> u64 {
        self.index.iter().map(|e| e.len).sum()
    }

    /// Append the index and trailer, flush, and close the file.
    pub fn finish(mut self) -> Result<(), StoreError> {
        let index_offset = self.offset;
        let mut buf = Vec::with_capacity(8 + self.index.len() * 24);
        let mut w = ByteWriter::new(&mut buf);
        w.u64(self.index.len() as u64);
        for e in &self.index {
            w.u32(e.class as u32);
            w.u32(e.node);
            w.u64(e.offset);
            w.u64(e.len);
        }
        w.u64(index_offset);
        buf.extend_from_slice(INDEX_MAGIC);
        self.write_all(&buf)?;
        self.file
            .sync_all()
            .map_err(|e| io_err(&self.path, "sync", e))?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Read side: FilePanelStore with an LRU resident set
// ---------------------------------------------------------------------------

/// Monotonic counters published by a [`FilePanelStore`]; see
/// [`StoreStatsSnapshot`] for the read-side view.
#[derive(Default)]
struct StoreStats {
    faults: AtomicU64,
    hits: AtomicU64,
    evictions: AtomicU64,
    bytes_read: AtomicU64,
    resident: AtomicU64,
    peak_resident: AtomicU64,
}

/// Point-in-time view of a store's fault/eviction counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStatsSnapshot {
    /// Lookups that missed the resident set and read from disk.
    pub faults: u64,
    /// Lookups served from the resident set.
    pub hits: u64,
    /// Blobs evicted to stay under the resident budget.
    pub evictions: u64,
    /// Total bytes read from disk (blob payload, not padding).
    pub bytes_read: u64,
    /// Decoded bytes currently held in the resident set.
    pub resident_bytes: u64,
    /// High-water mark of `resident_bytes` over the store's lifetime.
    pub peak_resident_bytes: u64,
}

struct CacheSlot {
    value: Arc<dyn Any + Send + Sync>,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct LruCache {
    map: HashMap<(u16, u32), CacheSlot>,
    tick: u64,
}

thread_local! {
    /// The calling thread's grow-only fault read buffer: a faulted blob's
    /// bytes land here, are decoded, and the buffer is kept for the next
    /// fault. It is taken out of the cell for the fault and put back after,
    /// so a nested fault would only grow a buffer of its own.
    static FAULT_BUF: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// Read-only store file with per-node demand faulting behind an LRU
/// resident set bounded by `resident_budget` bytes.
///
/// A fault is a `seek` + `read_exact` of the blob's bytes under the file
/// lock, into the calling thread's reused read buffer, then one
/// [`Blob::decode`] from that buffer into the value the resident set caches.
/// The buffer grows to the largest blob the thread has faulted and holds at
/// most one blob's bytes; like a per-fault read `Vec`, it sits outside
/// `resident_budget`, which counts decoded values only.
///
/// Lookups take one internal lock for the full fault (disk read + decode),
/// which keeps the resident accounting exact: the budget is never exceeded
/// by concurrent in-flight faults. Blobs larger than the whole budget are
/// served transiently — decoded, returned, and never cached — so a
/// pathologically small budget degrades to re-reading, not to failure.
pub struct FilePanelStore {
    path: PathBuf,
    file: Mutex<File>,
    index: HashMap<(u16, u32), (u64, u64)>,
    budget: usize,
    cache: Mutex<LruCache>,
    stats: StoreStats,
}

impl fmt::Debug for FilePanelStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FilePanelStore")
            .field("path", &self.path)
            .field("entries", &self.index.len())
            .field("resident_budget", &self.budget)
            .finish()
    }
}

impl FilePanelStore {
    /// Open a finished store file and load its index. `resident_budget` is
    /// the cap, in decoded bytes, on the LRU resident set.
    pub fn open(path: impl Into<PathBuf>, resident_budget: usize) -> Result<Self, StoreError> {
        let path = path.into();
        let mut file = File::open(&path).map_err(|e| io_err(&path, "open", e))?;

        let mut header = [0u8; 12];
        file.read_exact(&mut header)
            .map_err(|e| io_err(&path, "read header of", e))?;
        if &header[..8] != HEADER_MAGIC {
            return Err(StoreError::Corrupt(format!(
                "{}: bad header magic",
                path.display()
            )));
        }
        let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(StoreError::Corrupt(format!(
                "{}: unsupported format version {version}",
                path.display()
            )));
        }

        let end = file
            .seek(SeekFrom::End(0))
            .map_err(|e| io_err(&path, "seek", e))?;
        if end < PAGE + 16 {
            return Err(StoreError::Corrupt(format!(
                "{}: file too short for a trailer",
                path.display()
            )));
        }
        let mut trailer = [0u8; 16];
        file.seek(SeekFrom::Start(end - 16))
            .map_err(|e| io_err(&path, "seek", e))?;
        file.read_exact(&mut trailer)
            .map_err(|e| io_err(&path, "read trailer of", e))?;
        if &trailer[8..] != INDEX_MAGIC {
            return Err(StoreError::Corrupt(format!(
                "{}: missing index trailer (incomplete write?)",
                path.display()
            )));
        }
        let index_offset = u64::from_le_bytes(trailer[..8].try_into().unwrap());
        if index_offset < PAGE || index_offset > end - 16 {
            return Err(StoreError::Corrupt(format!(
                "{}: index offset {index_offset} out of range",
                path.display()
            )));
        }
        let mut index_bytes = vec![0u8; (end - 16 - index_offset) as usize];
        file.seek(SeekFrom::Start(index_offset))
            .map_err(|e| io_err(&path, "seek", e))?;
        file.read_exact(&mut index_bytes)
            .map_err(|e| io_err(&path, "read index of", e))?;
        let mut r = ByteReader::new(&index_bytes);
        let count = r.usize()?;
        // Capacity only for the 24-byte entries actually present: a hostile
        // count fails on truncation below instead of sizing the map.
        let mut index = HashMap::with_capacity(count.min(r.remaining() / 24));
        for _ in 0..count {
            let class = r.u32()?;
            let node = r.u32()?;
            let offset = r.u64()?;
            let len = r.u64()?;
            let class = u16::try_from(class)
                .map_err(|_| StoreError::Corrupt(format!("class id {class} out of range")))?;
            let inside = match offset.checked_add(len) {
                Some(end) => end <= index_offset,
                None => false,
            };
            if !inside {
                return Err(StoreError::Corrupt(format!(
                    "blob (class {class}, node {node}) extends into the index"
                )));
            }
            if index.insert((class, node), (offset, len)).is_some() {
                return Err(StoreError::Corrupt(format!(
                    "duplicate index entry (class {class}, node {node})"
                )));
            }
        }

        Ok(FilePanelStore {
            path,
            file: Mutex::new(file),
            index,
            budget: resident_budget,
            cache: Mutex::new(LruCache::default()),
            stats: StoreStats::default(),
        })
    }

    /// True if a blob was written under `(class, node)`.
    pub fn contains(&self, class: u16, node: u32) -> bool {
        self.index.contains_key(&(class, node))
    }

    /// Number of blobs in the file.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if the file holds no blobs.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The configured resident budget in bytes.
    pub fn resident_budget(&self) -> usize {
        self.budget
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total payload bytes across all blobs in the file (the out-of-core
    /// working-set size the resident budget is bounding).
    pub fn payload_bytes(&self) -> u64 {
        self.index.values().map(|&(_, len)| len).sum()
    }

    /// Encoded length in bytes of the blob under `(class, node)`, without
    /// reading it; `None` if the key was never written.
    pub fn blob_len(&self, class: u16, node: u32) -> Option<u64> {
        self.index.get(&(class, node)).map(|&(_, len)| len)
    }

    /// Current fault/eviction counters.
    pub fn stats(&self) -> StoreStatsSnapshot {
        StoreStatsSnapshot {
            faults: self.stats.faults.load(Ordering::Relaxed),
            hits: self.stats.hits.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            bytes_read: self.stats.bytes_read.load(Ordering::Relaxed),
            resident_bytes: self.stats.resident.load(Ordering::Relaxed),
            peak_resident_bytes: self.stats.peak_resident.load(Ordering::Relaxed),
        }
    }

    /// Fill `buf` with the file bytes at `offset`.
    fn read_into(&self, offset: u64, buf: &mut [u8]) -> Result<(), StoreError> {
        let mut file = self.file.lock().unwrap();
        file.seek(SeekFrom::Start(offset))
            .map_err(|e| io_err(&self.path, "seek", e))?;
        file.read_exact(buf)
            .map_err(|e| io_err(&self.path, "read blob of", e))?;
        drop(file);
        self.stats
            .bytes_read
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Fetch the blob under `(class, node)`, faulting it in from disk if it
    /// is not resident. The returned `Arc` keeps the decoded value alive
    /// even if the LRU evicts it, so callers may hold it across a task.
    pub fn get<V: Blob>(&self, class: u16, node: u32) -> Result<Arc<V>, StoreError> {
        let &(offset, len) = self
            .index
            .get(&(class, node))
            .ok_or(StoreError::Missing { class, node })?;

        let mut cache = self.cache.lock().unwrap();
        cache.tick += 1;
        let tick = cache.tick;
        if let Some(slot) = cache.map.get_mut(&(class, node)) {
            slot.last_used = tick;
            let value = Arc::clone(&slot.value);
            drop(cache);
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            return value.downcast::<V>().map_err(|_| {
                StoreError::Corrupt(format!(
                    "blob (class {class}, node {node}) fetched as two different types"
                ))
            });
        }

        // Fault path: read + decode under the cache lock so resident
        // accounting stays exact under concurrent callers.
        self.stats.faults.fetch_add(1, Ordering::Relaxed);
        let len = len as usize;
        let mut buf = FAULT_BUF.take();
        if buf.len() < len {
            buf.resize(len, 0);
        }
        let value = self.read_into(offset, &mut buf[..len]).and_then(|()| {
            V::decode(&buf[..len])
                .map_err(|e| StoreError::Corrupt(format!("(class {class}, node {node}): {e}")))
        });
        FAULT_BUF.set(buf);
        let value = value?;
        let resident = value.resident_bytes();
        let arc = Arc::new(value);

        if resident > self.budget {
            // Larger than the whole budget: serve transiently, never cache.
            drop(cache);
            return Ok(arc);
        }

        // Evict least-recently-used entries until the new blob fits.
        let mut current = self.stats.resident.load(Ordering::Relaxed) as usize;
        while current + resident > self.budget {
            let victim = cache
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(&k, _)| k);
            let Some(victim) = victim else { break };
            let slot = cache.map.remove(&victim).unwrap();
            current -= slot.bytes;
            self.stats
                .resident
                .fetch_sub(slot.bytes as u64, Ordering::Relaxed);
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
        cache.map.insert(
            (class, node),
            CacheSlot {
                value: arc.clone(),
                bytes: resident,
                last_used: tick,
            },
        );
        let now = self
            .stats
            .resident
            .fetch_add(resident as u64, Ordering::Relaxed)
            + resident as u64;
        self.stats.peak_resident.fetch_max(now, Ordering::Relaxed);
        drop(cache);
        Ok(arc)
    }

    /// Read the raw encoded bytes under `(class, node)`, bypassing the
    /// decoded LRU resident set. For one-time reads (persistence headers:
    /// configuration, tree, lists, bases) where caching the decoded value
    /// would only displace hot panels. Counts toward `bytes_read` but not
    /// faults/residency.
    pub fn read_raw(&self, class: u16, node: u32) -> Result<Vec<u8>, StoreError> {
        let &(offset, len) = self
            .index
            .get(&(class, node))
            .ok_or(StoreError::Missing { class, node })?;
        let mut buf = vec![0u8; len as usize];
        self.read_into(offset, &mut buf)?;
        Ok(buf)
    }

    /// Drop every resident blob (counters are preserved). Mainly for tests
    /// and for releasing memory between serving bursts.
    pub fn clear_resident(&self) {
        let mut cache = self.cache.lock().unwrap();
        let freed: usize = cache.map.values().map(|s| s.bytes).sum();
        cache.map.clear();
        self.stats
            .resident
            .fetch_sub(freed as u64, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// StorageConfig: how an operator should hold its panels.
// ---------------------------------------------------------------------------

/// Storage backend selection for a compressed operator, passed to
/// `GofmmOperator::builder(...).storage(...)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum StorageConfig {
    /// Keep all panels and factor blocks in memory (the default; identical
    /// to the pre-storage-tier behavior).
    #[default]
    InMemory,
    /// Spill panels and factor blocks to a page-aligned store file under
    /// `dir`, faulting them back per node behind an LRU resident set of at
    /// most `resident_budget` bytes.
    File {
        /// Directory the store file(s) are created in.
        dir: PathBuf,
        /// Cap on decoded resident panel bytes per store.
        resident_budget: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal test blob: a tagged byte vector.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct VecBlob {
        tag: u64,
        data: Vec<u8>,
    }

    impl Blob for VecBlob {
        fn encode(&self, out: &mut Vec<u8>) {
            let mut w = ByteWriter::new(out);
            w.u64(self.tag);
            w.bytes(&self.data);
        }
        fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
            let mut r = ByteReader::new(bytes);
            let tag = r.u64()?;
            let data = r.bytes()?.to_vec();
            r.finish()?;
            Ok(VecBlob { tag, data })
        }
        fn resident_bytes(&self) -> usize {
            self.data.len()
        }
    }

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("gofmm-store-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.gfmm", std::process::id()))
    }

    fn sample(tag: u64, len: usize) -> VecBlob {
        VecBlob {
            tag,
            data: (0..len)
                .map(|i| (i as u8).wrapping_mul(31).wrapping_add(tag as u8))
                .collect(),
        }
    }

    #[test]
    fn roundtrip_and_alignment() {
        let path = tmp_path("roundtrip");
        let mut w = StoreWriter::create(&path).unwrap();
        let blobs: Vec<VecBlob> = (0..5).map(|i| sample(i, 100 * (i as usize) + 7)).collect();
        for (i, b) in blobs.iter().enumerate() {
            w.put(classes::S2S, i as u32, b).unwrap();
        }
        w.finish().unwrap();

        let store = FilePanelStore::open(&path, usize::MAX).unwrap();
        assert_eq!(store.len(), 5);
        for (i, b) in blobs.iter().enumerate() {
            let got = store.get::<VecBlob>(classes::S2S, i as u32).unwrap();
            assert_eq!(&*got, b);
        }
        // Each blob starts on a page boundary.
        for (_, &(offset, _)) in store.index.iter() {
            assert_eq!(offset % PAGE, 0);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_key_and_contains() {
        let path = tmp_path("missing");
        let mut w = StoreWriter::create(&path).unwrap();
        w.put(classes::L2L, 3, &sample(1, 8)).unwrap();
        w.finish().unwrap();
        let store = FilePanelStore::open(&path, 1 << 20).unwrap();
        assert!(store.contains(classes::L2L, 3));
        assert!(!store.contains(classes::L2L, 4));
        assert_eq!(
            store.get::<VecBlob>(classes::L2L, 4),
            Err(StoreError::Missing {
                class: classes::L2L,
                node: 4
            })
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn lru_eviction_respects_budget() {
        let path = tmp_path("lru");
        let mut w = StoreWriter::create(&path).unwrap();
        for i in 0..8u32 {
            w.put(classes::S2S, i, &sample(i as u64, 1000)).unwrap();
        }
        w.finish().unwrap();

        // Budget fits two 1000-byte blobs.
        let store = FilePanelStore::open(&path, 2500).unwrap();
        for i in 0..8u32 {
            store.get::<VecBlob>(classes::S2S, i).unwrap();
        }
        let s = store.stats();
        assert_eq!(s.faults, 8);
        assert_eq!(s.evictions, 6);
        assert!(s.resident_bytes <= 2500);
        assert!(s.peak_resident_bytes <= 2500);

        // Nodes 6 and 7 are resident; 0 is not.
        store.get::<VecBlob>(classes::S2S, 7).unwrap();
        assert_eq!(store.stats().hits, 1);
        store.get::<VecBlob>(classes::S2S, 0).unwrap();
        assert_eq!(store.stats().faults, 9);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn oversized_blob_served_transiently() {
        let path = tmp_path("oversized");
        let mut w = StoreWriter::create(&path).unwrap();
        w.put(classes::S2S, 0, &sample(0, 4000)).unwrap();
        w.finish().unwrap();
        let store = FilePanelStore::open(&path, 100).unwrap();
        let a = store.get::<VecBlob>(classes::S2S, 0).unwrap();
        let b = store.get::<VecBlob>(classes::S2S, 0).unwrap();
        assert_eq!(*a, *b);
        let s = store.stats();
        assert_eq!(s.faults, 2); // never cached
        assert_eq!(s.resident_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unfinished_file_is_rejected() {
        let path = tmp_path("unfinished");
        let mut w = StoreWriter::create(&path).unwrap();
        w.put(classes::S2S, 0, &sample(0, 64)).unwrap();
        drop(w); // no finish(): no trailer
        let err = FilePanelStore::open(&path, 1 << 20).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let path = tmp_path("badmagic");
        std::fs::write(&path, vec![0u8; 8192]).unwrap();
        let err = FilePanelStore::open(&path, 1 << 20).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    /// A store file of one page-aligned blob (an 8-byte tag) followed by
    /// an index that claims `count` entries and holds `entries`.
    fn write_with_index(path: &Path, count: u64, entries: &[(u32, u32, u64, u64)]) {
        let mut file = vec![0u8; PAGE as usize];
        file[..8].copy_from_slice(HEADER_MAGIC);
        file[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        file.extend_from_slice(&7u64.to_le_bytes());
        file.resize(2 * PAGE as usize, 0);
        let index_offset = file.len() as u64;
        let mut w = ByteWriter::new(&mut file);
        w.u64(count);
        for &(class, node, offset, len) in entries {
            w.u32(class);
            w.u32(node);
            w.u64(offset);
            w.u64(len);
        }
        w.u64(index_offset);
        file.extend_from_slice(INDEX_MAGIC);
        std::fs::write(path, file).unwrap();
    }

    fn assert_open_corrupt(name: &str, count: u64, entries: &[(u32, u32, u64, u64)]) {
        let path = tmp_path(name);
        write_with_index(&path, count, entries);
        let err = FilePanelStore::open(&path, 1 << 20).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{name}: {err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn hostile_entry_count_is_corrupt() {
        assert_open_corrupt("hostile-count", 1 << 58, &[(1, 0, PAGE, 8)]);
    }

    #[test]
    fn overflowing_blob_extent_is_corrupt() {
        assert_open_corrupt("overflowing-extent", 1, &[(1, 0, 1 << 63, (1 << 63) + 8)]);
    }

    #[test]
    fn duplicate_index_entry_is_corrupt() {
        // The hand-built file itself is sound: its first entry alone opens.
        let path = tmp_path("hand-built");
        write_with_index(&path, 1, &[(1, 0, PAGE, 8)]);
        let store = FilePanelStore::open(&path, 1 << 20).unwrap();
        assert_eq!(store.read_raw(1, 0).unwrap(), 7u64.to_le_bytes());
        std::fs::remove_file(&path).unwrap();
        assert_open_corrupt("duplicate-entry", 2, &[(1, 0, PAGE, 8), (1, 0, PAGE, 4)]);
    }

    #[test]
    #[should_panic(expected = "duplicate store key")]
    fn duplicate_put_panics() {
        let path = tmp_path("dup");
        let mut w = StoreWriter::create(&path).unwrap();
        w.put(classes::S2S, 0, &sample(0, 8)).unwrap();
        let _ = w.put(classes::S2S, 0, &sample(1, 8));
    }

    #[test]
    fn codec_roundtrip() {
        let mut buf = Vec::new();
        let mut w = ByteWriter::new(&mut buf);
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(1 << 40);
        w.usize(12345);
        w.f64(-2.5);
        w.bytes(b"panel");
        w.usize_slice(&[3, 1, 4, 1, 5]);
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.usize().unwrap(), 12345);
        assert_eq!(r.f64().unwrap(), -2.5);
        assert_eq!(r.bytes().unwrap(), b"panel");
        assert_eq!(r.usize_slice().unwrap(), vec![3, 1, 4, 1, 5]);
        r.finish().unwrap();
    }

    #[test]
    fn truncated_blob_decode_fails() {
        let mut buf = Vec::new();
        ByteWriter::new(&mut buf).u64(42);
        let err = VecBlob::decode(&buf).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)));
    }

    #[test]
    fn storage_config_default_is_in_memory() {
        assert_eq!(StorageConfig::default(), StorageConfig::InMemory);
    }
}
