//! Write-ahead log.
//!
//! Every mutation to a shard (upsert, delete, index-policy change) is
//! framed into the WAL before being applied, so a worker restart replays
//! to the exact pre-crash state. Records are length-prefixed and
//! CRC-checked; replay stops cleanly at the first torn record (the normal
//! crash shape for an append-only log).
//!
//! Frame layout (little-endian):
//!
//! ```text
//! +--------+--------+----------------+
//! | len u32| crc u32| payload (len B)|
//! +--------+--------+----------------+
//! ```
//!
//! Payloads are serialized with a compact hand-rolled binary codec rather
//! than JSON: vectors dominate record size and must not be printed as
//! decimal text.

use crate::crc::crc32;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use vq_core::{Payload, PayloadValue, PointBlock, PointId, VqError, VqResult};

/// One logical WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Insert-or-replace a whole columnar batch in one record (group
    /// commit): the block's rows are framed, checksummed, and synced
    /// together, so durability costs are paid once per block.
    UpsertBlock(PointBlock),
    /// Delete a point by id.
    Delete(PointId),
    /// Marker: the shard sealed its active segment (optimizer handoff).
    SealSegment {
        /// Sequence number of the sealed segment within the shard.
        segment_seq: u64,
    },
    /// Marker: an index build finished for a sealed segment.
    IndexBuilt {
        /// Sequence number of the indexed segment.
        segment_seq: u64,
    },
}

const TAG_DELETE: u8 = 2;
const TAG_SEAL: u8 = 3;
const TAG_INDEX_BUILT: u8 = 4;
const TAG_UPSERT_BLOCK: u8 = 5;

impl WalRecord {
    /// Serialize to the compact binary payload (without framing).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            WalRecord::UpsertBlock(block) => {
                buf.put_u8(TAG_UPSERT_BLOCK);
                buf.put_u32_le(block.dim() as u32);
                buf.put_u32_le(block.len() as u32);
                for i in 0..block.len() {
                    buf.put_u64_le(block.id(i));
                }
                // Columnar vector body: one contiguous slab when the view
                // allows it, otherwise row-gathered — the byte stream is
                // identical either way.
                match block.as_contiguous() {
                    Some(slab) => {
                        for &x in slab {
                            buf.put_f32_le(x);
                        }
                    }
                    None => {
                        for i in 0..block.len() {
                            for &x in block.vector(i) {
                                buf.put_f32_le(x);
                            }
                        }
                    }
                }
                for i in 0..block.len() {
                    encode_payload(&mut buf, block.payload(i));
                }
            }
            WalRecord::Delete(id) => {
                buf.put_u8(TAG_DELETE);
                buf.put_u64_le(*id);
            }
            WalRecord::SealSegment { segment_seq } => {
                buf.put_u8(TAG_SEAL);
                buf.put_u64_le(*segment_seq);
            }
            WalRecord::IndexBuilt { segment_seq } => {
                buf.put_u8(TAG_INDEX_BUILT);
                buf.put_u64_le(*segment_seq);
            }
        }
        buf.freeze()
    }

    /// Deserialize from a payload produced by [`encode`](Self::encode).
    pub fn decode(mut buf: &[u8]) -> VqResult<Self> {
        if buf.is_empty() {
            return Err(VqError::Corruption("empty WAL payload".into()));
        }
        let tag = buf.get_u8();
        match tag {
            TAG_UPSERT_BLOCK => {
                if buf.remaining() < 8 {
                    return Err(VqError::Corruption("truncated block header".into()));
                }
                let dim = buf.get_u32_le() as usize;
                let n = buf.get_u32_le() as usize;
                if dim == 0 {
                    return Err(VqError::Corruption("block with zero dim".into()));
                }
                if buf.remaining() < n * 8 {
                    return Err(VqError::Corruption("truncated block ids".into()));
                }
                let mut ids = Vec::with_capacity(n);
                for _ in 0..n {
                    ids.push(buf.get_u64_le());
                }
                if buf.remaining() < n * dim * 4 {
                    return Err(VqError::Corruption("truncated block slab".into()));
                }
                let mut slab = Vec::with_capacity(n * dim);
                for _ in 0..n * dim {
                    slab.push(buf.get_f32_le());
                }
                let mut payloads = Vec::with_capacity(n);
                for _ in 0..n {
                    payloads.push(decode_payload(&mut buf)?);
                }
                let block = PointBlock::from_columns(dim, ids, slab, payloads)
                    .map_err(|e| VqError::Corruption(format!("invalid block record: {e}")))?;
                Ok(WalRecord::UpsertBlock(block))
            }
            TAG_DELETE => {
                if buf.remaining() < 8 {
                    return Err(VqError::Corruption("truncated delete".into()));
                }
                Ok(WalRecord::Delete(buf.get_u64_le()))
            }
            TAG_SEAL => {
                if buf.remaining() < 8 {
                    return Err(VqError::Corruption("truncated seal".into()));
                }
                Ok(WalRecord::SealSegment {
                    segment_seq: buf.get_u64_le(),
                })
            }
            TAG_INDEX_BUILT => {
                if buf.remaining() < 8 {
                    return Err(VqError::Corruption("truncated index-built".into()));
                }
                Ok(WalRecord::IndexBuilt {
                    segment_seq: buf.get_u64_le(),
                })
            }
            other => Err(VqError::Corruption(format!("unknown WAL tag {other}"))),
        }
    }
}

const PV_STR: u8 = 1;
const PV_INT: u8 = 2;
const PV_FLOAT: u8 = 3;
const PV_BOOL: u8 = 4;
const PV_KEYWORDS: u8 = 5;

fn encode_payload(buf: &mut BytesMut, payload: &Payload) {
    buf.put_u32_le(payload.0.len() as u32);
    for (k, v) in &payload.0 {
        put_str(buf, k);
        match v {
            PayloadValue::Str(s) => {
                buf.put_u8(PV_STR);
                put_str(buf, s);
            }
            PayloadValue::Int(i) => {
                buf.put_u8(PV_INT);
                buf.put_i64_le(*i);
            }
            PayloadValue::Float(x) => {
                buf.put_u8(PV_FLOAT);
                buf.put_f64_le(*x);
            }
            PayloadValue::Bool(b) => {
                buf.put_u8(PV_BOOL);
                buf.put_u8(*b as u8);
            }
            PayloadValue::Keywords(ks) => {
                buf.put_u8(PV_KEYWORDS);
                buf.put_u32_le(ks.len() as u32);
                for k in ks {
                    put_str(buf, k);
                }
            }
        }
    }
}

fn decode_payload(buf: &mut &[u8]) -> VqResult<Payload> {
    if buf.remaining() < 4 {
        return Err(VqError::Corruption("truncated payload count".into()));
    }
    let n = buf.get_u32_le() as usize;
    let mut payload = Payload::new();
    for _ in 0..n {
        let key = get_str(buf)?;
        if buf.remaining() < 1 {
            return Err(VqError::Corruption("truncated payload value tag".into()));
        }
        let tag = buf.get_u8();
        let value = match tag {
            PV_STR => PayloadValue::Str(get_str(buf)?),
            PV_INT => {
                if buf.remaining() < 8 {
                    return Err(VqError::Corruption("truncated int".into()));
                }
                PayloadValue::Int(buf.get_i64_le())
            }
            PV_FLOAT => {
                if buf.remaining() < 8 {
                    return Err(VqError::Corruption("truncated float".into()));
                }
                PayloadValue::Float(buf.get_f64_le())
            }
            PV_BOOL => {
                if buf.remaining() < 1 {
                    return Err(VqError::Corruption("truncated bool".into()));
                }
                PayloadValue::Bool(buf.get_u8() != 0)
            }
            PV_KEYWORDS => {
                if buf.remaining() < 4 {
                    return Err(VqError::Corruption("truncated keywords len".into()));
                }
                let kn = buf.get_u32_le() as usize;
                let mut ks = Vec::with_capacity(kn.min(1024));
                for _ in 0..kn {
                    ks.push(get_str(buf)?);
                }
                PayloadValue::Keywords(ks)
            }
            other => {
                return Err(VqError::Corruption(format!(
                    "unknown payload value tag {other}"
                )))
            }
        };
        payload.0.insert(key, value);
    }
    Ok(payload)
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> VqResult<String> {
    if buf.remaining() < 4 {
        return Err(VqError::Corruption("truncated string length".into()));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(VqError::Corruption("truncated string body".into()));
    }
    let s = String::from_utf8(buf[..len].to_vec())
        .map_err(|_| VqError::Corruption("non-UTF8 string in WAL".into()))?;
    buf.advance(len);
    Ok(s)
}

/// Byte sink/source a WAL writes to. In-memory for tests and simulation;
/// file-backed for real persistence.
pub trait WalBackend: Send {
    /// Append raw bytes at the end of the log.
    fn append(&mut self, data: &[u8]) -> VqResult<()>;
    /// Read the entire log contents.
    fn read_all(&self) -> VqResult<Vec<u8>>;
    /// Truncate the log to zero length (after a snapshot checkpoint).
    fn truncate(&mut self) -> VqResult<()>;
    /// Truncate the log to exactly `len` bytes, discarding the tail.
    /// Used to cut a torn frame off a crashed log before appending again.
    fn truncate_to(&mut self, len: u64) -> VqResult<()>;
    /// Make everything appended so far durable. The default is a no-op
    /// (volatile backends have no durability point); file-backed logs
    /// flush their buffers and fsync.
    fn sync(&mut self) -> VqResult<()> {
        Ok(())
    }
    /// Current log size in bytes.
    fn len(&self) -> u64;
    /// Whether the log is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Heap-backed WAL storage.
#[derive(Debug, Default)]
pub struct MemBackend {
    data: Vec<u8>,
}

impl MemBackend {
    /// Empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl WalBackend for MemBackend {
    fn append(&mut self, data: &[u8]) -> VqResult<()> {
        self.data.extend_from_slice(data);
        Ok(())
    }
    fn read_all(&self) -> VqResult<Vec<u8>> {
        Ok(self.data.clone())
    }
    fn truncate(&mut self) -> VqResult<()> {
        self.data.clear();
        Ok(())
    }
    fn truncate_to(&mut self, len: u64) -> VqResult<()> {
        self.data.truncate(len as usize);
        Ok(())
    }
    fn len(&self) -> u64 {
        self.data.len() as u64
    }
}

/// Heap-backed WAL storage that outlives any one `Wal` handle.
///
/// Clones share the same byte buffer, so the log written by a worker
/// thread survives that thread's death: a replacement worker opens a new
/// `Wal` over a clone of the same backend and replays everything the dead
/// one acknowledged. This is the in-memory-persistent durability mode the
/// cluster uses for crash/restart testing without touching the filesystem.
#[derive(Debug, Clone, Default)]
pub struct SharedBackend {
    data: std::sync::Arc<std::sync::Mutex<Vec<u8>>>,
}

impl SharedBackend {
    /// Empty shared backend.
    pub fn new() -> Self {
        Self::default()
    }

    fn buf(&self) -> std::sync::MutexGuard<'_, Vec<u8>> {
        // A poisoned lock just means some thread panicked mid-append; the
        // bytes written so far are still the authoritative log (exactly
        // like a torn file after a crash), so keep serving them.
        self.data.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl WalBackend for SharedBackend {
    fn append(&mut self, data: &[u8]) -> VqResult<()> {
        self.buf().extend_from_slice(data);
        Ok(())
    }
    fn read_all(&self) -> VqResult<Vec<u8>> {
        Ok(self.buf().clone())
    }
    fn truncate(&mut self) -> VqResult<()> {
        self.buf().clear();
        Ok(())
    }
    fn truncate_to(&mut self, len: u64) -> VqResult<()> {
        self.buf().truncate(len as usize);
        Ok(())
    }
    fn len(&self) -> u64 {
        self.buf().len() as u64
    }
}

/// File-backed WAL storage (buffered appends, explicit `sync`).
#[derive(Debug)]
pub struct FileBackend {
    path: std::path::PathBuf,
    file: std::io::BufWriter<std::fs::File>,
    len: u64,
}

impl FileBackend {
    /// Open (creating or appending to) the log at `path`.
    pub fn open(path: impl Into<std::path::PathBuf>) -> VqResult<Self> {
        let path = path.into();
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| VqError::Corruption(format!("open WAL {path:?}: {e}")))?;
        let len = file
            .metadata()
            .map_err(|e| VqError::Corruption(format!("stat WAL: {e}")))?
            .len();
        Ok(FileBackend {
            path,
            file: std::io::BufWriter::new(file),
            len,
        })
    }

    /// Flush buffered appends to the OS.
    pub fn flush(&mut self) -> VqResult<()> {
        use std::io::Write;
        self.file
            .flush()
            .map_err(|e| VqError::Corruption(format!("flush WAL: {e}")))
    }
}

impl WalBackend for FileBackend {
    fn append(&mut self, data: &[u8]) -> VqResult<()> {
        use std::io::Write;
        self.file
            .write_all(data)
            .map_err(|e| VqError::Corruption(format!("append WAL: {e}")))?;
        self.len += data.len() as u64;
        Ok(())
    }

    fn read_all(&self) -> VqResult<Vec<u8>> {
        std::fs::read(&self.path).map_err(|e| VqError::Corruption(format!("read WAL: {e}")))
    }

    fn truncate(&mut self) -> VqResult<()> {
        use std::io::Write;
        self.file.flush().ok();
        std::fs::write(&self.path, b"")
            .map_err(|e| VqError::Corruption(format!("truncate WAL: {e}")))?;
        self.len = 0;
        Ok(())
    }

    fn truncate_to(&mut self, len: u64) -> VqResult<()> {
        use std::io::Write;
        self.file
            .flush()
            .map_err(|e| VqError::Corruption(format!("flush WAL: {e}")))?;
        self.file
            .get_ref()
            .set_len(len)
            .map_err(|e| VqError::Corruption(format!("truncate WAL to {len}: {e}")))?;
        self.len = len;
        Ok(())
    }

    fn sync(&mut self) -> VqResult<()> {
        use std::io::Write;
        self.file
            .flush()
            .map_err(|e| VqError::Corruption(format!("flush WAL: {e}")))?;
        self.file
            .get_ref()
            .sync_data()
            .map_err(|e| VqError::Corruption(format!("sync WAL: {e}")))
    }

    fn len(&self) -> u64 {
        self.len
    }
}

/// The write-ahead log: framing + CRC over a [`WalBackend`].
///
/// ```
/// use vq_storage::{Wal, WalRecord};
/// use vq_core::{Point, PointBlock};
///
/// let mut wal = Wal::in_memory();
/// let block = PointBlock::from_points(&[Point::new(1, vec![0.5, 0.5])]).unwrap();
/// wal.append(&WalRecord::UpsertBlock(block)).unwrap();
/// wal.append(&WalRecord::Delete(1)).unwrap();
/// let replayed = wal.replay().unwrap();
/// assert_eq!(replayed.len(), 2);
/// assert_eq!(replayed[1], WalRecord::Delete(1));
/// ```
pub struct Wal {
    backend: Box<dyn WalBackend>,
    records: u64,
    synced_batches: u64,
    // Whether the tail has been checked for a torn frame since open. A
    // crashed writer leaves a partial frame at the end; replay skips it,
    // but an append after it would strand every later record behind
    // unparseable bytes. The first append therefore truncates the torn
    // tail first.
    tail_checked: bool,
    // Registry mirror of `synced_batches`, aggregated across every WAL in
    // the process; the local field keeps per-log group-commit accounting.
    synced_shared: std::sync::Arc<vq_obs::Counter>,
}

impl Wal {
    /// WAL over an in-memory backend.
    pub fn in_memory() -> Self {
        Wal::with_backend(Box::new(MemBackend::new()))
    }

    /// WAL over any backend.
    pub fn with_backend(backend: Box<dyn WalBackend>) -> Self {
        Wal {
            backend,
            records: 0,
            synced_batches: 0,
            tail_checked: false,
            synced_shared: vq_obs::handle_counter("wal.synced_batches"),
        }
    }

    /// Cut a torn (partial) frame off the end of the log, if present.
    ///
    /// Returns the number of bytes discarded. Complete frames are never
    /// touched — even ones with a bad CRC, which are corruption that
    /// [`Self::replay`] must keep reporting, not crash debris to hide.
    pub fn repair_torn_tail(&mut self) -> VqResult<u64> {
        let data = self.backend.read_all()?;
        let mut buf = &data[..];
        let mut valid = 0u64;
        while buf.remaining() >= 8 {
            let len = (&buf[..4]).get_u32_le() as usize;
            if buf.remaining() < 8 + len {
                break; // torn tail starts here
            }
            buf.advance(8 + len);
            valid += 8 + len as u64;
        }
        let torn = data.len() as u64 - valid;
        if torn > 0 {
            self.backend.truncate_to(valid)?;
        }
        self.tail_checked = true;
        Ok(torn)
    }

    /// Append one record (framed + checksummed) and sync it durable.
    ///
    /// Every append is its own durability point, so the sync count equals
    /// the *record* count: a [`WalRecord::UpsertBlock`] group-commits a
    /// whole batch under a single sync. [`Self::synced_batches`] exposes
    /// the counter so tests can pin that accounting.
    pub fn append(&mut self, record: &WalRecord) -> VqResult<()> {
        if !self.tail_checked {
            self.repair_torn_tail()?;
        }
        let payload = record.encode();
        let mut frame = BytesMut::with_capacity(8 + payload.len());
        frame.put_u32_le(payload.len() as u32);
        frame.put_u32_le(crc32(&payload));
        frame.put_slice(&payload);
        self.backend.append(&frame)?;
        let stamp = vq_obs::enabled().then(std::time::Instant::now);
        self.backend.sync()?;
        if let Some(stamp) = stamp {
            vq_obs::record_phase("wal_sync", 0, stamp.elapsed().as_secs_f64());
        }
        self.records += 1;
        self.synced_batches += 1;
        self.synced_shared.add(1);
        Ok(())
    }

    /// Records appended through this handle (not counting pre-existing).
    pub fn appended_records(&self) -> u64 {
        self.records
    }

    /// Durability points paid through this handle: one per appended
    /// record. The group-commit win of the block ingest path is exactly
    /// this number staying at "blocks", not "points".
    pub fn synced_batches(&self) -> u64 {
        self.synced_batches
    }

    /// Log size in bytes.
    pub fn bytes(&self) -> u64 {
        self.backend.len()
    }

    /// Replay every intact record.
    ///
    /// A torn tail (truncated frame) ends replay silently — that is the
    /// expected crash shape. A *corrupted* record (bad CRC with complete
    /// framing) is an integrity error and is reported.
    pub fn replay(&self) -> VqResult<Vec<WalRecord>> {
        let data = self.backend.read_all()?;
        let mut buf = &data[..];
        let mut out = Vec::new();
        while buf.remaining() >= 8 {
            let len = (&buf[..4]).get_u32_le() as usize;
            if buf.remaining() < 8 + len {
                break; // torn tail
            }
            buf.advance(4);
            let crc = buf.get_u32_le();
            let payload = &buf[..len];
            if crc32(payload) != crc {
                return Err(VqError::Corruption(format!(
                    "WAL CRC mismatch in record {}",
                    out.len()
                )));
            }
            out.push(WalRecord::decode(payload)?);
            buf.advance(len);
        }
        Ok(out)
    }

    /// Drop all records (after a snapshot made them redundant).
    pub fn checkpoint(&mut self) -> VqResult<()> {
        self.backend.truncate()?;
        self.tail_checked = true; // an empty log has no torn tail
        Ok(())
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("records", &self.records)
            .field("bytes", &self.backend.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vq_core::Point;

    /// A one-row block record.
    fn upsert(point: Point) -> WalRecord {
        WalRecord::UpsertBlock(PointBlock::from_points(&[point]).unwrap())
    }

    fn sample_point() -> Point {
        Point::with_payload(
            42,
            vec![1.5, -2.5, 0.0],
            Payload::from_pairs([("title", "paper"), ("terms", "genome")]),
        )
    }

    #[test]
    fn record_codec_roundtrip() {
        for rec in [
            upsert(sample_point()),
            WalRecord::Delete(7),
            WalRecord::SealSegment { segment_seq: 3 },
            WalRecord::IndexBuilt { segment_seq: 3 },
        ] {
            let enc = rec.encode();
            assert_eq!(WalRecord::decode(&enc).unwrap(), rec);
        }
    }

    #[test]
    fn payload_value_kinds_roundtrip() {
        let mut p = Payload::new();
        p.insert("s", "text");
        p.insert("i", -5i64);
        p.insert("f", 2.75f64);
        p.insert("b", true);
        p.insert(
            "k",
            PayloadValue::Keywords(vec!["a".into(), "b".into()]),
        );
        let rec = upsert(Point::with_payload(1, vec![0.0], p));
        let enc = rec.encode();
        assert_eq!(WalRecord::decode(&enc).unwrap(), rec);
    }

    #[test]
    fn block_record_roundtrips_contiguous_and_gathered() {
        let points: Vec<Point> = (0..5)
            .map(|i| {
                Point::with_payload(
                    i,
                    vec![i as f32, -(i as f32), 0.5],
                    Payload::from_pairs([("row", i as i64)]),
                )
            })
            .collect();
        let block = PointBlock::from_points(&points).unwrap();
        let rec = WalRecord::UpsertBlock(block.slice(1..4));
        let enc = rec.encode();
        assert_eq!(WalRecord::decode(&enc).unwrap(), rec);
        // A gather view encodes to the same bytes as the equivalent
        // contiguous view: the codec is columnar, not view-shaped.
        let gathered = WalRecord::UpsertBlock(block.select(&[1, 2, 3]));
        assert_eq!(gathered.encode(), enc);
        // Empty blocks are legal records.
        let empty = WalRecord::UpsertBlock(PointBlock::from_points(&[]).unwrap());
        assert_eq!(WalRecord::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn sync_count_is_per_record_group_commit() {
        let mut wal = Wal::in_memory();
        assert_eq!(wal.synced_batches(), 0);
        // One-row blocks: one sync per row.
        for i in 0..3 {
            wal.append(&upsert(Point::new(i, vec![0.0]))).unwrap();
        }
        assert_eq!(wal.synced_batches(), 3);
        // A 100-row block: ONE sync.
        let points: Vec<Point> = (0..100).map(|i| Point::new(100 + i, vec![1.0])).collect();
        let block = PointBlock::from_points(&points).unwrap();
        wal.append(&WalRecord::UpsertBlock(block)).unwrap();
        assert_eq!(wal.synced_batches(), 4);
        assert_eq!(wal.appended_records(), 4);
    }

    #[test]
    fn file_backend_sync_is_durable_and_counted() {
        let path = std::env::temp_dir().join(format!(
            "vq-wal-sync-test-{}.log",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let backend = FileBackend::open(&path).unwrap();
        let mut wal = Wal::with_backend(Box::new(backend));
        let block =
            PointBlock::from_points(&[sample_point(), Point::new(7, vec![0.0; 3])]).unwrap();
        wal.append(&WalRecord::UpsertBlock(block.clone())).unwrap();
        assert_eq!(wal.synced_batches(), 1);
        // The frame is on disk *before* the Wal (and its BufWriter) drops.
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(on_disk.len() as u64, wal.bytes());
        let reopened = Wal::with_backend(Box::new(FileBackend::open(&path).unwrap()));
        assert_eq!(reopened.replay().unwrap(), vec![WalRecord::UpsertBlock(block)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_replay_in_memory() {
        let mut wal = Wal::in_memory();
        wal.append(&upsert(sample_point())).unwrap();
        wal.append(&WalRecord::Delete(42)).unwrap();
        let replayed = wal.replay().unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[1], WalRecord::Delete(42));
        assert_eq!(wal.appended_records(), 2);
    }

    #[test]
    fn torn_tail_is_silently_dropped() {
        let mut backend = MemBackend::new();
        let mut wal = Wal::in_memory();
        wal.append(&WalRecord::Delete(1)).unwrap();
        let full = wal.backend.read_all().unwrap();
        backend.append(&full).unwrap();
        backend.append(&[0x09, 0x00, 0x00, 0x00, 0xAA]).unwrap(); // torn frame
        let wal2 = Wal::with_backend(Box::new(backend));
        let replayed = wal2.replay().unwrap();
        assert_eq!(replayed, vec![WalRecord::Delete(1)]);
    }

    #[test]
    fn reopen_after_torn_tail_keeps_later_appends_reachable() {
        // Crash shape: a writer dies mid-frame, leaving a torn tail. The
        // bug: a reopened Wal appended AFTER the torn bytes, so replay
        // (which stops at the first torn frame) could never reach any
        // post-crash record. The reopened log must truncate the torn tail
        // before its first append.
        let shared = SharedBackend::new();
        let mut wal = Wal::with_backend(Box::new(shared.clone()));
        wal.append(&WalRecord::Delete(1)).unwrap();
        wal.append(&WalRecord::Delete(2)).unwrap();
        drop(wal);
        // Torn frame: claims 9 payload bytes, provides 1.
        let mut raw = shared.clone();
        raw.append(&[0x09, 0x00, 0x00, 0x00, 0xAA, 0xBB, 0xCC, 0xDD, 0x01])
            .unwrap();
        // Reopen, append, replay: the post-crash record must be visible.
        let mut reopened = Wal::with_backend(Box::new(shared.clone()));
        reopened.append(&WalRecord::Delete(3)).unwrap();
        assert_eq!(
            reopened.replay().unwrap(),
            vec![
                WalRecord::Delete(1),
                WalRecord::Delete(2),
                WalRecord::Delete(3)
            ]
        );
    }

    #[test]
    fn repair_torn_tail_reports_bytes_and_spares_intact_logs() {
        let shared = SharedBackend::new();
        let mut wal = Wal::with_backend(Box::new(shared.clone()));
        wal.append(&WalRecord::Delete(1)).unwrap();
        let intact = wal.bytes();
        assert_eq!(wal.repair_torn_tail().unwrap(), 0);
        assert_eq!(wal.bytes(), intact);
        let mut raw = shared.clone();
        raw.append(&[0xFF, 0x00, 0x00, 0x00, 0x01]).unwrap();
        let mut reopened = Wal::with_backend(Box::new(shared));
        assert_eq!(reopened.repair_torn_tail().unwrap(), 5);
        assert_eq!(reopened.bytes(), intact);
        // A complete frame with a bad CRC is corruption, not a torn tail:
        // repair must keep it so replay still reports the error.
        let mut backend = MemBackend::new();
        let mut good = Wal::in_memory();
        good.append(&WalRecord::Delete(9)).unwrap();
        let mut bytes = good.backend.read_all().unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        backend.append(&bytes).unwrap();
        let mut corrupt = Wal::with_backend(Box::new(backend));
        assert_eq!(corrupt.repair_torn_tail().unwrap(), 0);
        assert!(matches!(corrupt.replay(), Err(VqError::Corruption(_))));
    }

    #[test]
    fn file_backend_reopen_after_torn_tail() {
        let path = std::env::temp_dir().join(format!(
            "vq-wal-torn-test-{}.log",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::with_backend(Box::new(FileBackend::open(&path).unwrap()));
            wal.append(&WalRecord::Delete(1)).unwrap();
        }
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&[0x20, 0x00, 0x00, 0x00, 0xAB]).unwrap(); // torn frame
        }
        let mut reopened = Wal::with_backend(Box::new(FileBackend::open(&path).unwrap()));
        reopened.append(&WalRecord::Delete(2)).unwrap();
        assert_eq!(
            reopened.replay().unwrap(),
            vec![WalRecord::Delete(1), WalRecord::Delete(2)]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn shared_backend_survives_writer_drop() {
        let shared = SharedBackend::new();
        {
            let mut wal = Wal::with_backend(Box::new(shared.clone()));
            wal.append(&upsert(sample_point())).unwrap();
            // Writer "dies" here; the shared buffer is the durable copy.
        }
        let recovered = Wal::with_backend(Box::new(shared));
        assert_eq!(
            recovered.replay().unwrap(),
            vec![upsert(sample_point())]
        );
    }

    #[test]
    fn crc_corruption_is_an_error() {
        let mut wal = Wal::in_memory();
        wal.append(&WalRecord::Delete(1)).unwrap();
        let mut bytes = wal.backend.read_all().unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // flip a payload byte, framing intact
        let mut backend = MemBackend::new();
        backend.append(&bytes).unwrap();
        let wal2 = Wal::with_backend(Box::new(backend));
        assert!(matches!(wal2.replay(), Err(VqError::Corruption(_))));
    }

    #[test]
    fn checkpoint_clears_log() {
        let mut wal = Wal::in_memory();
        wal.append(&WalRecord::Delete(1)).unwrap();
        assert!(wal.bytes() > 0);
        wal.checkpoint().unwrap();
        assert_eq!(wal.bytes(), 0);
        assert!(wal.replay().unwrap().is_empty());
    }

    #[test]
    fn file_backend_roundtrip() {
        let path = std::env::temp_dir().join(format!("vq-wal-test-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let backend = FileBackend::open(&path).unwrap();
            let mut wal = Wal::with_backend(Box::new(backend));
            wal.append(&upsert(sample_point())).unwrap();
            wal.append(&WalRecord::SealSegment { segment_seq: 1 }).unwrap();
            // Wal drops; BufWriter flushes on drop.
        }
        {
            let backend = FileBackend::open(&path).unwrap();
            let wal = Wal::with_backend(Box::new(backend));
            let replayed = wal.replay().unwrap();
            assert_eq!(replayed.len(), 2);
            assert_eq!(replayed[0], upsert(sample_point()));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_wal_replays_empty() {
        assert!(Wal::in_memory().replay().unwrap().is_empty());
    }
}
