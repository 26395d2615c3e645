//! Columnar point batches (`PointBlock`): the zero-copy ingest unit.
//!
//! The paper's central insert-phase finding (Figure 2, Table 3) is that
//! client-side conversion of raw data into per-point batch objects is
//! CPU-bound (45.64 ms per 32-batch) and dominates the insert RPC itself
//! (14.86 ms), capping single-client asyncio concurrency at 1.31× (Amdahl).
//! A large share of that conversion cost is memory movement: every layer of
//! a row-oriented ingest path re-materializes points one at a time —
//! `Vec<Point>` of per-point `Vec<f32>` allocations, per-point WAL records,
//! per-point lock acquisitions.
//!
//! [`PointBlock`] is the columnar alternative. One batch is stored as:
//!
//! * one contiguous `Arc<[f32]>` **vector slab** (row-major, `len × dim`),
//! * a parallel `Arc<[PointId]>` **id column**, and
//! * a parallel `Arc<[Payload]>` **payload column**.
//!
//! All views of a block share those three refcounted columns: slicing a
//! block ([`PointBlock::slice`]) or gathering a scattered row subset
//! ([`PointBlock::select`], used by hash-based shard routing) never copies
//! vector data. Downstream layers that want bulk memcpy — the WAL encoder
//! and the storage arena's `extend_from_slab` — ask for
//! [`PointBlock::as_contiguous`] and fall back to per-row access when the
//! view is a gather.

use crate::error::{VqError, VqResult};
use crate::payload::Payload;
use crate::point::{Point, PointId};
use std::ops::Range;
use std::sync::Arc;

/// Which rows of the backing columns a [`PointBlock`] exposes.
///
/// `Range` views are windows of consecutive backing rows — the common case,
/// produced by [`PointBlock::slice`] — and keep the vector data addressable
/// as one contiguous slab. `Rows` views are gathers over arbitrary backing
/// rows, produced by [`PointBlock::select`] when hash-based shard placement
/// scatters a batch's rows across shards; only the 4-byte row indices are
/// materialized, never the vectors.
#[derive(Debug, Clone)]
enum BlockView {
    /// `len` consecutive backing rows starting at `start`.
    Range { start: usize, len: usize },
    /// An explicit gather list (windowed so `slice` stays zero-copy).
    Rows {
        rows: Arc<[u32]>,
        start: usize,
        len: usize,
    },
}

/// A columnar batch of points sharing one contiguous vector slab.
///
/// Cloning a block, slicing it, or selecting a row subset costs O(1) (plus
/// O(rows) `u32`s for a gather) — the `f32` slab, ids, and payloads are
/// behind `Arc`s and are only read, never mutated. This is what lets one
/// client-side conversion pass feed every shard replica and the WAL without
/// a single deep copy of vector data.
#[derive(Debug, Clone)]
pub struct PointBlock {
    dim: usize,
    slab: Arc<[f32]>,
    ids: Arc<[PointId]>,
    payloads: Arc<[Payload]>,
    view: BlockView,
}

impl PointBlock {
    /// Build a block from parallel columns: `ids`, a row-major `slab` of
    /// `ids.len() × dim` floats, and one payload per row.
    pub fn from_columns(
        dim: usize,
        ids: Vec<PointId>,
        slab: Vec<f32>,
        payloads: Vec<Payload>,
    ) -> VqResult<Self> {
        if dim == 0 {
            return Err(VqError::Internal("block dim must be positive".into()));
        }
        if slab.len() != ids.len() * dim {
            return Err(VqError::DimensionMismatch {
                expected: ids.len() * dim,
                got: slab.len(),
            });
        }
        if payloads.len() != ids.len() {
            return Err(VqError::Internal(format!(
                "payload column length {} != id column length {}",
                payloads.len(),
                ids.len()
            )));
        }
        let len = ids.len();
        Ok(PointBlock {
            dim,
            slab: slab.into(),
            ids: ids.into(),
            payloads: payloads.into(),
            view: BlockView::Range { start: 0, len },
        })
    }

    /// Convert a slice of row-oriented points into one columnar block.
    ///
    /// This is the client-side "conversion" step the paper measures: one
    /// pass that copies each point's vector into the shared slab. All dims
    /// must match; the empty slice yields a valid empty block of dim 1.
    pub fn from_points(points: &[Point]) -> VqResult<Self> {
        let dim = points.first().map_or(1, |p| p.vector.len());
        let mut slab = Vec::with_capacity(points.len() * dim);
        let mut ids = Vec::with_capacity(points.len());
        let mut payloads = Vec::with_capacity(points.len());
        for p in points {
            if p.vector.len() != dim {
                return Err(VqError::DimensionMismatch {
                    expected: dim,
                    got: p.vector.len(),
                });
            }
            slab.extend_from_slice(&p.vector);
            ids.push(p.id);
            payloads.push(p.payload.clone());
        }
        Self::from_columns(dim, ids, slab, payloads)
    }

    /// Vector dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows in this view.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.view {
            BlockView::Range { len, .. } | BlockView::Rows { len, .. } => *len,
        }
    }

    /// Whether the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Map a view-relative row index to a backing-column row index.
    #[inline]
    fn backing_row(&self, i: usize) -> usize {
        match &self.view {
            BlockView::Range { start, len } => {
                assert!(i < *len, "row {i} out of range {len}");
                start + i
            }
            BlockView::Rows { rows, start, len } => {
                assert!(i < *len, "row {i} out of range {len}");
                rows[start + i] as usize
            }
        }
    }

    /// Id of row `i`.
    #[inline]
    pub fn id(&self, i: usize) -> PointId {
        self.ids[self.backing_row(i)]
    }

    /// Borrow the vector of row `i` from the shared slab.
    #[inline]
    pub fn vector(&self, i: usize) -> &[f32] {
        let row = self.backing_row(i);
        &self.slab[row * self.dim..(row + 1) * self.dim]
    }

    /// Borrow the payload of row `i`.
    #[inline]
    pub fn payload(&self, i: usize) -> &Payload {
        &self.payloads[self.backing_row(i)]
    }

    /// Zero-copy sub-view over rows `range` of this view. Shares the
    /// backing columns; only the window bounds change.
    ///
    /// # Panics
    /// If `range` exceeds `len()`.
    pub fn slice(&self, range: Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {range:?} out of range {}",
            self.len()
        );
        let view = match &self.view {
            BlockView::Range { start, .. } => BlockView::Range {
                start: start + range.start,
                len: range.end - range.start,
            },
            BlockView::Rows { rows, start, .. } => BlockView::Rows {
                rows: Arc::clone(rows),
                start: start + range.start,
                len: range.end - range.start,
            },
        };
        PointBlock {
            dim: self.dim,
            slab: Arc::clone(&self.slab),
            ids: Arc::clone(&self.ids),
            payloads: Arc::clone(&self.payloads),
            view,
        }
    }

    /// Gather view over the given view-relative `rows` (in the given
    /// order). Shards whose membership is decided by hashing ids use this
    /// to carve their scattered rows out of one client batch without
    /// copying any vector data — only the `u32` row indices are stored.
    ///
    /// # Panics
    /// If any row index is `>= len()`.
    pub fn select(&self, rows: &[u32]) -> Self {
        let backing: Vec<u32> = rows
            .iter()
            .map(|&r| self.backing_row(r as usize) as u32)
            .collect();
        let len = backing.len();
        PointBlock {
            dim: self.dim,
            slab: Arc::clone(&self.slab),
            ids: Arc::clone(&self.ids),
            payloads: Arc::clone(&self.payloads),
            view: BlockView::Rows {
                rows: backing.into(),
                start: 0,
                len,
            },
        }
    }

    /// The view's vector data as one contiguous row-major slab, when the
    /// view is a consecutive window of backing rows (`from_*` constructors
    /// and [`Self::slice`] chains). Gather views return `None` — callers
    /// fall back to per-row [`Self::vector`] access.
    #[inline]
    pub fn as_contiguous(&self) -> Option<&[f32]> {
        match &self.view {
            BlockView::Range { start, len } => {
                Some(&self.slab[start * self.dim..(start + len) * self.dim])
            }
            BlockView::Rows { .. } => None,
        }
    }

    /// Iterate `(id, vector, payload)` rows in view order.
    pub fn iter(&self) -> impl Iterator<Item = (PointId, &[f32], &Payload)> + '_ {
        (0..self.len()).map(move |i| (self.id(i), self.vector(i), self.payload(i)))
    }

    /// Re-materialize the view as row-oriented points (the inverse of
    /// [`Self::from_points`]).
    pub fn to_points(&self) -> Vec<Point> {
        self.iter()
            .map(|(id, v, p)| Point::with_payload(id, v.to_vec(), p.clone()))
            .collect()
    }

    /// Approximate wire/storage size of this view in bytes, matching
    /// [`Point::approx_bytes`] row for row: 8 (id) + 4·dim (f32 vector)
    /// + payload per row.
    pub fn approx_bytes(&self) -> usize {
        (0..self.len())
            .map(|i| 8 + 4 * self.dim + self.payload(i).approx_bytes())
            .sum()
    }
}

impl PartialEq for PointBlock {
    /// Logical row-wise equality: two views are equal when they expose the
    /// same `(id, vector, payload)` rows in the same order, regardless of
    /// how the backing columns are windowed.
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim && self.len() == other.len() && self.iter().eq(other.iter())
    }
}

/// Wrapper steering a byte slice through `Serializer::serialize_bytes`
/// (a bare `&[u8]` would serialize as a tagged sequence).
struct SlabBytes<'a>(&'a [u8]);

impl serde::Serialize for SlabBytes<'_> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(self.0)
    }
}

/// Owned byte buffer decoded from a bytes value.
struct SlabBuf(Vec<u8>);

impl<'de> serde::Deserialize<'de> for SlabBuf {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct BytesVisitor;
        impl<'de> serde::de::Visitor<'de> for BytesVisitor {
            type Value = SlabBuf;
            fn expecting(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "a byte buffer")
            }
            fn visit_bytes<E: serde::de::Error>(self, v: &[u8]) -> Result<SlabBuf, E> {
                Ok(SlabBuf(v.to_vec()))
            }
            fn visit_byte_buf<E: serde::de::Error>(self, v: Vec<u8>) -> Result<SlabBuf, E> {
                Ok(SlabBuf(v))
            }
            fn visit_seq<A: serde::de::SeqAccess<'de>>(
                self,
                mut seq: A,
            ) -> Result<SlabBuf, A::Error> {
                // Formats without a native bytes type deliver a u8 seq.
                let mut out = Vec::with_capacity(seq.size_hint().unwrap_or(0));
                while let Some(b) = seq.next_element::<u8>()? {
                    out.push(b);
                }
                Ok(SlabBuf(out))
            }
        }
        deserializer.deserialize_byte_buf(BytesVisitor)
    }
}

impl serde::Serialize for PointBlock {
    /// Columnar wire form: `{dim, ids, slab, payloads}` with the vector
    /// slab as one raw little-endian `f32` byte run. The whole view is
    /// rendered in row order (a sliced or gathered view serializes as the
    /// rows it exposes), so decode always yields a dense `Range` block.
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut bytes = Vec::with_capacity(self.len() * self.dim * 4);
        match self.as_contiguous() {
            Some(slab) => {
                for v in slab {
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
            }
            None => {
                for i in 0..self.len() {
                    for v in self.vector(i) {
                        bytes.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
        }
        let ids: Vec<PointId> = (0..self.len()).map(|i| self.id(i)).collect();
        let payloads: Vec<&Payload> = (0..self.len()).map(|i| self.payload(i)).collect();
        let mut st = serializer.serialize_struct("PointBlock", 4)?;
        st.serialize_field("dim", &(self.dim as u64))?;
        st.serialize_field("ids", &ids)?;
        st.serialize_field("slab", &SlabBytes(&bytes))?;
        st.serialize_field("payloads", &payloads)?;
        st.end()
    }
}

impl<'de> serde::Deserialize<'de> for PointBlock {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error;
        struct BlockVisitor;
        impl<'de> serde::de::Visitor<'de> for BlockVisitor {
            type Value = PointBlock;
            fn expecting(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "a PointBlock map")
            }
            fn visit_map<A: serde::de::MapAccess<'de>>(
                self,
                mut map: A,
            ) -> Result<PointBlock, A::Error> {
                let mut dim: Option<u64> = None;
                let mut ids: Option<Vec<PointId>> = None;
                let mut slab: Option<SlabBuf> = None;
                let mut payloads: Option<Vec<Payload>> = None;
                while let Some(key) = map.next_key::<String>()? {
                    match key.as_str() {
                        "dim" => dim = Some(map.next_value()?),
                        "ids" => ids = Some(map.next_value()?),
                        "slab" => slab = Some(map.next_value()?),
                        "payloads" => payloads = Some(map.next_value()?),
                        other => {
                            return Err(A::Error::custom(format!(
                                "unknown PointBlock field `{other}`"
                            )))
                        }
                    }
                }
                let dim = dim.ok_or_else(|| A::Error::custom("missing field `dim`"))? as usize;
                let ids = ids.ok_or_else(|| A::Error::custom("missing field `ids`"))?;
                let slab = slab.ok_or_else(|| A::Error::custom("missing field `slab`"))?;
                let payloads =
                    payloads.ok_or_else(|| A::Error::custom("missing field `payloads`"))?;
                if slab.0.len() % 4 != 0 {
                    return Err(A::Error::custom("slab byte length not a multiple of 4"));
                }
                let floats: Vec<f32> = slab
                    .0
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
                    .collect();
                PointBlock::from_columns(dim, ids, floats, payloads)
                    .map_err(|e| A::Error::custom(format!("invalid PointBlock: {e}")))
            }
        }
        deserializer.deserialize_struct(
            "PointBlock",
            &["dim", "ids", "slab", "payloads"],
            BlockVisitor,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::PayloadValue;

    fn sample_points(n: usize, dim: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let payload = Payload::from_pairs([(
                    "idx".to_string(),
                    PayloadValue::Int(i as i64),
                )]);
                Point::with_payload(
                    i as PointId,
                    (0..dim).map(|d| (i * dim + d) as f32).collect(),
                    payload,
                )
            })
            .collect()
    }

    #[test]
    fn from_points_roundtrips() {
        let points = sample_points(5, 3);
        let block = PointBlock::from_points(&points).unwrap();
        assert_eq!(block.len(), 5);
        assert_eq!(block.dim(), 3);
        assert_eq!(block.to_points(), points);
    }

    #[test]
    fn from_points_rejects_ragged_dims() {
        let mut points = sample_points(3, 4);
        points[2].vector.pop();
        assert!(matches!(
            PointBlock::from_points(&points),
            Err(VqError::DimensionMismatch { expected: 4, got: 3 })
        ));
    }

    #[test]
    fn from_columns_validates_lengths() {
        assert!(PointBlock::from_columns(2, vec![1, 2], vec![0.0; 3], vec![
            Payload::new(),
            Payload::new()
        ])
        .is_err());
        assert!(
            PointBlock::from_columns(2, vec![1, 2], vec![0.0; 4], vec![Payload::new()]).is_err()
        );
        assert!(PointBlock::from_columns(0, vec![], vec![], vec![]).is_err());
    }

    #[test]
    fn slice_is_zero_copy_and_contiguous() {
        let block = PointBlock::from_points(&sample_points(10, 2)).unwrap();
        let full = block.as_contiguous().unwrap();
        let mid = block.slice(3..7);
        assert_eq!(mid.len(), 4);
        assert_eq!(mid.id(0), 3);
        assert_eq!(mid.vector(0), block.vector(3));
        // Same backing slab: the sub-view's slab aliases the parent's.
        let sub = mid.as_contiguous().unwrap();
        assert_eq!(sub.as_ptr(), full[3 * 2..].as_ptr());
        // Slicing a slice composes.
        let inner = mid.slice(1..3);
        assert_eq!(inner.id(0), 4);
        assert_eq!(inner.as_contiguous().unwrap().as_ptr(), full[4 * 2..].as_ptr());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_out_of_range_panics() {
        let block = PointBlock::from_points(&sample_points(3, 2)).unwrap();
        block.slice(1..4);
    }

    #[test]
    fn select_gathers_without_copying_vectors() {
        let block = PointBlock::from_points(&sample_points(6, 2)).unwrap();
        let gathered = block.select(&[4, 1, 5]);
        assert_eq!(gathered.len(), 3);
        assert_eq!(gathered.id(0), 4);
        assert_eq!(gathered.id(1), 1);
        assert_eq!(gathered.id(2), 5);
        // Vectors alias the parent slab rows.
        assert_eq!(gathered.vector(1).as_ptr(), block.vector(1).as_ptr());
        // Gather views are not contiguous…
        assert!(gathered.as_contiguous().is_none());
        // …but slicing a gather view is still zero-copy over the row list.
        let tail = gathered.slice(1..3);
        assert_eq!(tail.id(0), 1);
        assert_eq!(tail.id(1), 5);
    }

    #[test]
    fn select_on_slice_resolves_backing_rows() {
        let block = PointBlock::from_points(&sample_points(8, 2)).unwrap();
        let mid = block.slice(2..6); // ids 2,3,4,5
        let picked = mid.select(&[3, 0]); // ids 5, 2
        assert_eq!(picked.id(0), 5);
        assert_eq!(picked.id(1), 2);
        assert_eq!(picked.vector(0), block.vector(5));
    }

    #[test]
    fn logical_equality_across_views() {
        let points = sample_points(6, 3);
        let block = PointBlock::from_points(&points).unwrap();
        let via_slice = block.slice(2..5);
        let via_select = block.select(&[2, 3, 4]);
        assert_eq!(via_slice, via_select);
        assert_ne!(via_slice, block.slice(1..4));
    }

    #[test]
    fn approx_bytes_matches_row_points() {
        let points = sample_points(4, 7);
        let block = PointBlock::from_points(&points).unwrap();
        let per_point: usize = points.iter().map(Point::approx_bytes).sum();
        assert_eq!(block.approx_bytes(), per_point);
        assert_eq!(
            block.slice(1..3).approx_bytes(),
            points[1..3].iter().map(Point::approx_bytes).sum::<usize>()
        );
    }

    #[test]
    fn serde_roundtrip_preserves_view_rows() {
        let block = PointBlock::from_points(&sample_points(6, 3)).unwrap();
        let gathered = block.slice(1..5).select(&[2, 0]);
        let json = serde_json::to_string(&gathered).unwrap();
        let back: PointBlock = serde_json::from_str(&json).unwrap();
        // Decode yields a dense block exposing the same logical rows.
        assert_eq!(back, gathered);
        assert!(back.as_contiguous().is_some());
    }

    #[test]
    fn empty_block_is_valid() {
        let block = PointBlock::from_points(&[]).unwrap();
        assert!(block.is_empty());
        assert_eq!(block.as_contiguous().unwrap().len(), 0);
        assert!(block.to_points().is_empty());
    }
}
