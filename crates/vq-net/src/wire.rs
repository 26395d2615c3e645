//! Binary wire codec and framing for transports that move real bytes.
//!
//! The in-process [`Switchboard`](crate::transport::Switchboard) hands
//! `ClusterMsg` values between threads by moving them; a TCP transport has
//! to serialize. This module provides the codec both sides of a socket
//! agree on:
//!
//! * **Value encoding** — a compact, self-describing binary rendering of
//!   the serde data model (`vbin`). Every value carries a one-byte tag;
//!   integers are minimal-width; structs and enum variants are encoded by
//!   *name* (external tagging, like JSON) so the format survives field
//!   reordering and unknown-variant detection is explicit. Sequences whose
//!   elements are all `f32` collapse to a raw little-endian slab
//!   ([`Tag::F32Seq`]) — 4 bytes per element instead of 5 — so query
//!   vectors and point batches stay near the raw-float floor.
//! * **Framing** — `[magic "VQF1"][version u8][len u32][crc32 u32][payload]`.
//!   The CRC covers the payload; torn frames, garbage prefixes, version
//!   skew and absurd lengths are all rejected before a single payload byte
//!   is interpreted.
//!
//! [`to_bytes`]/[`from_bytes`] are the codec entry points; they are
//! generic over any `serde` type, which is what lets `ClusterMsg` (and the
//! serving layer's own protocol enums) derive their wire format instead of
//! hand-maintaining one.

use serde::de::{
    DeserializeOwned, DeserializeSeed, EnumAccess, Error as DeError, MapAccess, SeqAccess,
    VariantAccess, Visitor,
};
use serde::ser::{
    Error as SerError, SerializeMap, SerializeSeq, SerializeStruct, SerializeStructVariant,
    SerializeTuple, SerializeTupleStruct, SerializeTupleVariant,
};
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;
use std::io::{Read, Write};
use vq_core::{VqError, VqResult};

/// Codec version carried in every frame header. There is no deployed
/// peer on an older protocol, so the receiver accepts exactly this
/// version and refuses anything else.
pub const WIRE_VERSION: u8 = 3;

/// Frame magic: rejects cross-protocol garbage (e.g. an HTTP request sent
/// to the binary port) on the first four bytes.
pub const FRAME_MAGIC: [u8; 4] = *b"VQF1";

/// Frames larger than this are treated as corruption, not allocation
/// requests (a garbage length prefix must not OOM the receiver).
pub const MAX_FRAME_LEN: u32 = 1 << 30;

// ---------------------------------------------------------------------------
// CRC32 (IEEE), table-driven. vq-storage has its own copy for WAL records;
// vq-net cannot depend on vq-storage, and 30 lines beat a layering cycle.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Write one frame (header + payload) to `w`.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    let mut header = [0u8; 13];
    header[..4].copy_from_slice(&FRAME_MAGIC);
    header[4] = WIRE_VERSION;
    header[5..9].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[9..13].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)
}

/// One frame as a byte vector (header + payload).
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(13 + payload.len());
    write_frame(&mut out, payload).expect("Vec write cannot fail");
    out
}

/// Read one frame from `r`, verifying magic, version, length and CRC.
///
/// `Ok(None)` means the peer closed the connection cleanly *between*
/// frames (EOF before any header byte). Every other truncation or
/// mismatch is an error: garbage prefixes and torn frames must never be
/// silently skipped, because the stream has lost sync.
pub fn read_frame<R: Read>(r: &mut R) -> VqResult<Option<Vec<u8>>> {
    let mut header = [0u8; 13];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(None);
                }
                return Err(VqError::Network("torn frame header (EOF)".into()));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(VqError::Network(format!("frame read failed: {e}"))),
        }
    }
    if header[..4] != FRAME_MAGIC {
        return Err(VqError::Corruption("bad frame magic".into()));
    }
    if header[4] != WIRE_VERSION {
        return Err(VqError::Corruption(format!(
            "wire version mismatch: got {}, expected {WIRE_VERSION}",
            header[4]
        )));
    }
    let len = u32::from_le_bytes(header[5..9].try_into().expect("4 bytes"));
    if len > MAX_FRAME_LEN {
        return Err(VqError::Corruption(format!("frame length {len} exceeds cap")));
    }
    let want_crc = u32::from_le_bytes(header[9..13].try_into().expect("4 bytes"));
    let mut payload = vec![0u8; len as usize];
    let mut got = 0;
    while got < payload.len() {
        match r.read(&mut payload[got..]) {
            Ok(0) => return Err(VqError::Network("torn frame payload (EOF)".into())),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(VqError::Network(format!("frame read failed: {e}"))),
        }
    }
    if crc32(&payload) != want_crc {
        return Err(VqError::Corruption("frame CRC mismatch".into()));
    }
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// Value tags
// ---------------------------------------------------------------------------

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_U8: u8 = 0x03;
const TAG_U16: u8 = 0x04;
const TAG_U32: u8 = 0x05;
const TAG_U64: u8 = 0x06;
const TAG_I64: u8 = 0x07;
const TAG_F32: u8 = 0x08;
const TAG_F64: u8 = 0x09;
const TAG_STR: u8 = 0x0A;
const TAG_BYTES: u8 = 0x0B;
const TAG_SEQ: u8 = 0x0C;
const TAG_MAP: u8 = 0x0D;
const TAG_F32SEQ: u8 = 0x0E;

/// Codec error; converted to [`VqError`] at the API boundary.
#[derive(Debug)]
pub struct WireError(String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for WireError {}

impl WireError {
    // Inherent so `WireError::custom(..)` resolves unambiguously even with
    // both serde error traits in scope.
    fn custom<T: fmt::Display>(msg: T) -> Self {
        WireError(msg.to_string())
    }
}

impl SerError for WireError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        WireError::custom(msg)
    }
}

impl DeError for WireError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        WireError::custom(msg)
    }
}

/// Encode any serde value to its `vbin` bytes (no frame header).
pub fn to_bytes<T: Serialize + ?Sized>(value: &T) -> VqResult<Vec<u8>> {
    let mut ser = BinSerializer { out: Vec::new() };
    value
        .serialize(&mut ser)
        .map_err(|e| VqError::Internal(format!("wire encode: {e}")))?;
    Ok(ser.out)
}

/// Decode a `vbin` value, requiring the buffer to be fully consumed.
pub fn from_bytes<T: DeserializeOwned>(bytes: &[u8]) -> VqResult<T> {
    let mut de = BinDeserializer { input: bytes, pos: 0 };
    let value =
        T::deserialize(&mut de).map_err(|e| VqError::Corruption(format!("wire decode: {e}")))?;
    if de.pos != bytes.len() {
        return Err(VqError::Corruption(format!(
            "wire decode: {} trailing bytes",
            bytes.len() - de.pos
        )));
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// Serializer
// ---------------------------------------------------------------------------

fn put_len(out: &mut Vec<u8>, len: usize) -> Result<(), WireError> {
    u32::try_from(len)
        .map(|l| out.extend_from_slice(&l.to_le_bytes()))
        .map_err(|_| WireError::custom("length exceeds u32"))
}

fn put_raw_str(out: &mut Vec<u8>, s: &str) -> Result<(), WireError> {
    put_len(out, s.len())?;
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_uint(out: &mut Vec<u8>, v: u64) {
    if v <= u8::MAX as u64 {
        out.push(TAG_U8);
        out.push(v as u8);
    } else if v <= u16::MAX as u64 {
        out.push(TAG_U16);
        out.extend_from_slice(&(v as u16).to_le_bytes());
    } else if v <= u32::MAX as u64 {
        out.push(TAG_U32);
        out.extend_from_slice(&(v as u32).to_le_bytes());
    } else {
        out.push(TAG_U64);
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Serializer writing `vbin` into an owned buffer.
struct BinSerializer {
    out: Vec<u8>,
}

impl BinSerializer {
    /// Open a map of `len` entries (structs and string-keyed maps share
    /// the encoding).
    fn open_map(&mut self, len: usize) -> Result<(), WireError> {
        self.out.push(TAG_MAP);
        put_len(&mut self.out, len)
    }

    /// Open the single-entry map that externally tags an enum variant.
    fn open_variant(&mut self, variant: &str) -> Result<(), WireError> {
        self.open_map(1)?;
        put_raw_str(&mut self.out, variant)
    }
}

/// Buffers sequence elements so `end()` can collapse an all-`f32` run
/// into a raw slab.
struct BinSeq<'a> {
    parent: &'a mut BinSerializer,
    buf: BinSerializer,
    count: usize,
}

impl BinSeq<'_> {
    fn finish(self) -> Result<(), WireError> {
        let body = self.buf.out;
        let all_f32 = self.count > 0
            && body.len() == self.count * 5
            && body.chunks_exact(5).all(|c| c[0] == TAG_F32);
        if all_f32 {
            self.parent.out.push(TAG_F32SEQ);
            put_len(&mut self.parent.out, self.count)?;
            for chunk in body.chunks_exact(5) {
                self.parent.out.extend_from_slice(&chunk[1..]);
            }
        } else {
            self.parent.out.push(TAG_SEQ);
            put_len(&mut self.parent.out, self.count)?;
            self.parent.out.extend_from_slice(&body);
        }
        Ok(())
    }
}

impl SerializeSeq for BinSeq<'_> {
    type Ok = ();
    type Error = WireError;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), WireError> {
        self.count += 1;
        value.serialize(&mut self.buf)
    }

    fn end(self) -> Result<(), WireError> {
        self.finish()
    }
}

impl SerializeTuple for BinSeq<'_> {
    type Ok = ();
    type Error = WireError;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), WireError> {
        SerializeSeq::serialize_element(self, value)
    }

    fn end(self) -> Result<(), WireError> {
        self.finish()
    }
}

impl SerializeTupleStruct for BinSeq<'_> {
    type Ok = ();
    type Error = WireError;

    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), WireError> {
        SerializeSeq::serialize_element(self, value)
    }

    fn end(self) -> Result<(), WireError> {
        self.finish()
    }
}

impl SerializeTupleVariant for BinSeq<'_> {
    type Ok = ();
    type Error = WireError;

    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), WireError> {
        SerializeSeq::serialize_element(self, value)
    }

    fn end(self) -> Result<(), WireError> {
        self.finish()
    }
}

/// Map/struct body writer; the entry count was already emitted.
struct BinMap<'a> {
    parent: &'a mut BinSerializer,
}

impl SerializeMap for BinMap<'_> {
    type Ok = ();
    type Error = WireError;

    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), WireError> {
        // Keys must be strings on the wire (JSON-compatible); capture the
        // key through a one-shot serializer that accepts nothing else.
        key.serialize(KeySerializer { out: &mut self.parent.out })
    }

    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), WireError> {
        value.serialize(&mut *self.parent)
    }

    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

impl SerializeStruct for BinMap<'_> {
    type Ok = ();
    type Error = WireError;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        put_raw_str(&mut self.parent.out, key)?;
        value.serialize(&mut *self.parent)
    }

    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

impl SerializeStructVariant for BinMap<'_> {
    type Ok = ();
    type Error = WireError;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        SerializeStruct::serialize_field(self, key, value)
    }

    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

/// Accepts exactly one string and writes it as a raw (tagless) map key.
struct KeySerializer<'a> {
    out: &'a mut Vec<u8>,
}

impl Serializer for KeySerializer<'_> {
    type Ok = ();
    type Error = WireError;
    type SerializeSeq = serde::ser::Impossible<(), WireError>;
    type SerializeTuple = serde::ser::Impossible<(), WireError>;
    type SerializeTupleStruct = serde::ser::Impossible<(), WireError>;
    type SerializeTupleVariant = serde::ser::Impossible<(), WireError>;
    type SerializeMap = serde::ser::Impossible<(), WireError>;
    type SerializeStruct = serde::ser::Impossible<(), WireError>;
    type SerializeStructVariant = serde::ser::Impossible<(), WireError>;

    fn serialize_str(self, v: &str) -> Result<(), WireError> {
        put_raw_str(self.out, v)
    }

    fn serialize_char(self, v: char) -> Result<(), WireError> {
        put_raw_str(self.out, v.encode_utf8(&mut [0u8; 4]))
    }

    fn serialize_bool(self, _: bool) -> Result<(), WireError> {
        Err(WireError::custom("map keys must be strings"))
    }
    fn serialize_i8(self, _: i8) -> Result<(), WireError> {
        Err(WireError::custom("map keys must be strings"))
    }
    fn serialize_i16(self, _: i16) -> Result<(), WireError> {
        Err(WireError::custom("map keys must be strings"))
    }
    fn serialize_i32(self, _: i32) -> Result<(), WireError> {
        Err(WireError::custom("map keys must be strings"))
    }
    fn serialize_i64(self, _: i64) -> Result<(), WireError> {
        Err(WireError::custom("map keys must be strings"))
    }
    fn serialize_u8(self, _: u8) -> Result<(), WireError> {
        Err(WireError::custom("map keys must be strings"))
    }
    fn serialize_u16(self, _: u16) -> Result<(), WireError> {
        Err(WireError::custom("map keys must be strings"))
    }
    fn serialize_u32(self, _: u32) -> Result<(), WireError> {
        Err(WireError::custom("map keys must be strings"))
    }
    fn serialize_u64(self, _: u64) -> Result<(), WireError> {
        Err(WireError::custom("map keys must be strings"))
    }
    fn serialize_f32(self, _: f32) -> Result<(), WireError> {
        Err(WireError::custom("map keys must be strings"))
    }
    fn serialize_f64(self, _: f64) -> Result<(), WireError> {
        Err(WireError::custom("map keys must be strings"))
    }
    fn serialize_bytes(self, _: &[u8]) -> Result<(), WireError> {
        Err(WireError::custom("map keys must be strings"))
    }
    fn serialize_none(self) -> Result<(), WireError> {
        Err(WireError::custom("map keys must be strings"))
    }
    fn serialize_some<T: Serialize + ?Sized>(self, _: &T) -> Result<(), WireError> {
        Err(WireError::custom("map keys must be strings"))
    }
    fn serialize_unit(self) -> Result<(), WireError> {
        Err(WireError::custom("map keys must be strings"))
    }
    fn serialize_unit_struct(self, _: &'static str) -> Result<(), WireError> {
        Err(WireError::custom("map keys must be strings"))
    }
    fn serialize_unit_variant(
        self,
        _: &'static str,
        _: u32,
        variant: &'static str,
    ) -> Result<(), WireError> {
        put_raw_str(self.out, variant)
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        value.serialize(self)
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _: &'static str,
        _: u32,
        _: &'static str,
        _: &T,
    ) -> Result<(), WireError> {
        Err(WireError::custom("map keys must be strings"))
    }
    fn serialize_seq(self, _: Option<usize>) -> Result<Self::SerializeSeq, WireError> {
        Err(WireError::custom("map keys must be strings"))
    }
    fn serialize_tuple(self, _: usize) -> Result<Self::SerializeTuple, WireError> {
        Err(WireError::custom("map keys must be strings"))
    }
    fn serialize_tuple_struct(
        self,
        _: &'static str,
        _: usize,
    ) -> Result<Self::SerializeTupleStruct, WireError> {
        Err(WireError::custom("map keys must be strings"))
    }
    fn serialize_tuple_variant(
        self,
        _: &'static str,
        _: u32,
        _: &'static str,
        _: usize,
    ) -> Result<Self::SerializeTupleVariant, WireError> {
        Err(WireError::custom("map keys must be strings"))
    }
    fn serialize_map(self, _: Option<usize>) -> Result<Self::SerializeMap, WireError> {
        Err(WireError::custom("map keys must be strings"))
    }
    fn serialize_struct(
        self,
        _: &'static str,
        _: usize,
    ) -> Result<Self::SerializeStruct, WireError> {
        Err(WireError::custom("map keys must be strings"))
    }
    fn serialize_struct_variant(
        self,
        _: &'static str,
        _: u32,
        _: &'static str,
        _: usize,
    ) -> Result<Self::SerializeStructVariant, WireError> {
        Err(WireError::custom("map keys must be strings"))
    }
}

impl<'a> Serializer for &'a mut BinSerializer {
    type Ok = ();
    type Error = WireError;
    type SerializeSeq = BinSeq<'a>;
    type SerializeTuple = BinSeq<'a>;
    type SerializeTupleStruct = BinSeq<'a>;
    type SerializeTupleVariant = BinSeq<'a>;
    type SerializeMap = BinMap<'a>;
    type SerializeStruct = BinMap<'a>;
    type SerializeStructVariant = BinMap<'a>;

    fn serialize_bool(self, v: bool) -> Result<(), WireError> {
        self.out.push(if v { TAG_TRUE } else { TAG_FALSE });
        Ok(())
    }

    fn serialize_i8(self, v: i8) -> Result<(), WireError> {
        self.serialize_i64(v as i64)
    }
    fn serialize_i16(self, v: i16) -> Result<(), WireError> {
        self.serialize_i64(v as i64)
    }
    fn serialize_i32(self, v: i32) -> Result<(), WireError> {
        self.serialize_i64(v as i64)
    }

    fn serialize_i64(self, v: i64) -> Result<(), WireError> {
        if v >= 0 {
            put_uint(&mut self.out, v as u64);
        } else {
            self.out.push(TAG_I64);
            self.out.extend_from_slice(&v.to_le_bytes());
        }
        Ok(())
    }

    fn serialize_u8(self, v: u8) -> Result<(), WireError> {
        self.serialize_u64(v as u64)
    }
    fn serialize_u16(self, v: u16) -> Result<(), WireError> {
        self.serialize_u64(v as u64)
    }
    fn serialize_u32(self, v: u32) -> Result<(), WireError> {
        self.serialize_u64(v as u64)
    }

    fn serialize_u64(self, v: u64) -> Result<(), WireError> {
        put_uint(&mut self.out, v);
        Ok(())
    }

    fn serialize_f32(self, v: f32) -> Result<(), WireError> {
        self.out.push(TAG_F32);
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_f64(self, v: f64) -> Result<(), WireError> {
        // Narrow to f32 when the value survives the round trip, so both
        // float widths of the same number encode identically.
        let narrow = v as f32;
        if narrow as f64 == v {
            return self.serialize_f32(narrow);
        }
        self.out.push(TAG_F64);
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_char(self, v: char) -> Result<(), WireError> {
        self.serialize_str(v.encode_utf8(&mut [0u8; 4]))
    }

    fn serialize_str(self, v: &str) -> Result<(), WireError> {
        self.out.push(TAG_STR);
        put_raw_str(&mut self.out, v)
    }

    fn serialize_bytes(self, v: &[u8]) -> Result<(), WireError> {
        self.out.push(TAG_BYTES);
        put_len(&mut self.out, v.len())?;
        self.out.extend_from_slice(v);
        Ok(())
    }

    fn serialize_none(self) -> Result<(), WireError> {
        self.out.push(TAG_NULL);
        Ok(())
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), WireError> {
        value.serialize(self)
    }

    fn serialize_unit(self) -> Result<(), WireError> {
        self.out.push(TAG_NULL);
        Ok(())
    }

    fn serialize_unit_struct(self, _: &'static str) -> Result<(), WireError> {
        self.serialize_unit()
    }

    fn serialize_unit_variant(
        self,
        _: &'static str,
        _: u32,
        variant: &'static str,
    ) -> Result<(), WireError> {
        self.serialize_str(variant)
    }

    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        value.serialize(self)
    }

    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _: &'static str,
        _: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        self.open_variant(variant)?;
        value.serialize(self)
    }

    fn serialize_seq(self, _: Option<usize>) -> Result<BinSeq<'a>, WireError> {
        Ok(BinSeq { parent: self, buf: BinSerializer { out: Vec::new() }, count: 0 })
    }

    fn serialize_tuple(self, _: usize) -> Result<BinSeq<'a>, WireError> {
        self.serialize_seq(None)
    }

    fn serialize_tuple_struct(self, _: &'static str, _: usize) -> Result<BinSeq<'a>, WireError> {
        self.serialize_seq(None)
    }

    fn serialize_tuple_variant(
        self,
        _: &'static str,
        _: u32,
        variant: &'static str,
        _: usize,
    ) -> Result<BinSeq<'a>, WireError> {
        self.open_variant(variant)?;
        self.serialize_seq(None)
    }

    fn serialize_map(self, len: Option<usize>) -> Result<BinMap<'a>, WireError> {
        let len = len.ok_or_else(|| WireError::custom("maps need a known length"))?;
        self.open_map(len)?;
        Ok(BinMap { parent: self })
    }

    fn serialize_struct(self, _: &'static str, len: usize) -> Result<BinMap<'a>, WireError> {
        self.open_map(len)?;
        Ok(BinMap { parent: self })
    }

    fn serialize_struct_variant(
        self,
        _: &'static str,
        _: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<BinMap<'a>, WireError> {
        self.open_variant(variant)?;
        self.open_map(len)?;
        Ok(BinMap { parent: self })
    }
}

// ---------------------------------------------------------------------------
// Deserializer
// ---------------------------------------------------------------------------

/// Deserializer over a `vbin` buffer.
struct BinDeserializer<'de> {
    input: &'de [u8],
    pos: usize,
}

impl<'de> BinDeserializer<'de> {
    fn peek_tag(&self) -> Result<u8, WireError> {
        self.input
            .get(self.pos)
            .copied()
            .ok_or_else(|| WireError::custom("unexpected end of input"))
    }

    fn take_tag(&mut self) -> Result<u8, WireError> {
        let t = self.peek_tag()?;
        self.pos += 1;
        Ok(t)
    }

    fn take(&mut self, n: usize) -> Result<&'de [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.input.len())
            .ok_or_else(|| WireError::custom("unexpected end of input"))?;
        let slice = &self.input[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn take_len(&mut self) -> Result<usize, WireError> {
        let raw = self.take(4)?;
        let len = u32::from_le_bytes(raw.try_into().expect("4 bytes")) as usize;
        // A length can never exceed what is left in the buffer (even at
        // one byte per element), so garbage lengths die here rather than
        // in an allocation.
        if len > self.input.len() - self.pos {
            return Err(WireError::custom("declared length exceeds input"));
        }
        Ok(len)
    }

    fn take_raw_str(&mut self) -> Result<&'de str, WireError> {
        let len = self.take_len()?;
        std::str::from_utf8(self.take(len)?).map_err(|_| WireError::custom("invalid UTF-8"))
    }

    /// Decode the next value as an integer-bearing tag.
    fn take_int(&mut self) -> Result<IntValue, WireError> {
        match self.take_tag()? {
            TAG_U8 => Ok(IntValue::U(self.take(1)?[0] as u64)),
            TAG_U16 => Ok(IntValue::U(u16::from_le_bytes(
                self.take(2)?.try_into().expect("2 bytes"),
            ) as u64)),
            TAG_U32 => Ok(IntValue::U(u32::from_le_bytes(
                self.take(4)?.try_into().expect("4 bytes"),
            ) as u64)),
            TAG_U64 => Ok(IntValue::U(u64::from_le_bytes(
                self.take(8)?.try_into().expect("8 bytes"),
            ))),
            TAG_I64 => Ok(IntValue::I(i64::from_le_bytes(
                self.take(8)?.try_into().expect("8 bytes"),
            ))),
            t => Err(WireError::custom(format!("expected integer, found tag {t:#x}"))),
        }
    }

    fn take_f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn take_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Skip one complete value (for `deserialize_ignored_any`).
    fn skip_value(&mut self) -> Result<(), WireError> {
        match self.take_tag()? {
            TAG_NULL | TAG_FALSE | TAG_TRUE => Ok(()),
            TAG_U8 => self.take(1).map(|_| ()),
            TAG_U16 => self.take(2).map(|_| ()),
            TAG_U32 | TAG_F32 => self.take(4).map(|_| ()),
            TAG_U64 | TAG_I64 | TAG_F64 => self.take(8).map(|_| ()),
            TAG_STR | TAG_BYTES => {
                let len = self.take_len()?;
                self.take(len).map(|_| ())
            }
            TAG_SEQ => {
                let len = self.take_len()?;
                for _ in 0..len {
                    self.skip_value()?;
                }
                Ok(())
            }
            TAG_MAP => {
                let len = self.take_len()?;
                for _ in 0..len {
                    self.take_raw_str()?;
                    self.skip_value()?;
                }
                Ok(())
            }
            TAG_F32SEQ => {
                let len = self.take_len()?;
                self.take(len.checked_mul(4).ok_or_else(|| WireError::custom("overflow"))?)
                    .map(|_| ())
            }
            t => Err(WireError::custom(format!("unknown tag {t:#x}"))),
        }
    }
}

enum IntValue {
    U(u64),
    I(i64),
}

impl IntValue {
    fn visit<'de, V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        match self {
            IntValue::U(v) => visitor.visit_u64(v),
            IntValue::I(v) => visitor.visit_i64(v),
        }
    }
}

/// Sequence reader for [`TAG_SEQ`].
struct BinSeqAccess<'a, 'de> {
    de: &'a mut BinDeserializer<'de>,
    remaining: usize,
}

impl<'de> SeqAccess<'de> for BinSeqAccess<'_, 'de> {
    type Error = WireError;

    fn next_element_seed<T: DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, WireError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

/// Sequence reader for [`TAG_F32SEQ`] raw slabs.
struct F32SeqAccess<'a, 'de> {
    de: &'a mut BinDeserializer<'de>,
    remaining: usize,
}

impl<'de> SeqAccess<'de> for F32SeqAccess<'_, 'de> {
    type Error = WireError;

    fn next_element_seed<T: DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, WireError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        let v = self.de.take_f32()?;
        seed.deserialize(F32Deserializer { value: v }).map(Some)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

/// Deserializer for one raw `f32` pulled out of a slab.
struct F32Deserializer {
    value: f32,
}

macro_rules! f32_forward {
    ($($method:ident)*) => {$(
        fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
            visitor.visit_f32(self.value)
        }
    )*};
}

impl<'de> Deserializer<'de> for F32Deserializer {
    type Error = WireError;

    fn deserialize_f64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_f64(self.value as f64)
    }

    f32_forward!(
        deserialize_any deserialize_f32 deserialize_ignored_any deserialize_bool
        deserialize_i8 deserialize_i16 deserialize_i32 deserialize_i64
        deserialize_u8 deserialize_u16 deserialize_u32 deserialize_u64
        deserialize_char deserialize_str deserialize_string deserialize_bytes
        deserialize_byte_buf deserialize_option deserialize_unit deserialize_seq
        deserialize_map deserialize_identifier
    );

    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        _: &'static str,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_f32(self.value)
    }

    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _: &'static str,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_newtype_struct(self)
    }

    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        _: usize,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_f32(self.value)
    }

    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _: &'static str,
        _: usize,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_f32(self.value)
    }

    fn deserialize_struct<V: Visitor<'de>>(
        self,
        _: &'static str,
        _: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_f32(self.value)
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _: &'static str,
        _: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_f32(self.value)
    }
}

/// Map reader: raw string keys alternate with values.
struct BinMapAccess<'a, 'de> {
    de: &'a mut BinDeserializer<'de>,
    remaining: usize,
}

impl<'de> MapAccess<'de> for BinMapAccess<'_, 'de> {
    type Error = WireError;

    fn next_key_seed<K: DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, WireError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        let key = self.de.take_raw_str()?;
        seed.deserialize(StrDeserializer { value: key }).map(Some)
    }

    fn next_value_seed<V: DeserializeSeed<'de>>(&mut self, seed: V) -> Result<V::Value, WireError> {
        seed.deserialize(&mut *self.de)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

/// Deserializer for a raw key / variant-name string.
struct StrDeserializer<'de> {
    value: &'de str,
}

macro_rules! str_forward {
    ($($method:ident)*) => {$(
        fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
            visitor.visit_str(self.value)
        }
    )*};
}

impl<'de> Deserializer<'de> for StrDeserializer<'de> {
    type Error = WireError;

    str_forward!(
        deserialize_any deserialize_identifier deserialize_str deserialize_string
        deserialize_char deserialize_ignored_any deserialize_bool
        deserialize_i8 deserialize_i16 deserialize_i32 deserialize_i64
        deserialize_u8 deserialize_u16 deserialize_u32 deserialize_u64
        deserialize_f32 deserialize_f64 deserialize_bytes deserialize_byte_buf
        deserialize_option deserialize_unit deserialize_seq deserialize_map
    );

    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        _: &'static str,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_str(self.value)
    }

    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _: &'static str,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_newtype_struct(self)
    }

    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        _: usize,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_str(self.value)
    }

    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _: &'static str,
        _: usize,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_str(self.value)
    }

    fn deserialize_struct<V: Visitor<'de>>(
        self,
        _: &'static str,
        _: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_str(self.value)
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _: &'static str,
        _: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_enum(UnitVariantAccess { variant: self.value })
    }
}

/// Enum access for a unit variant encoded as a bare string.
struct UnitVariantAccess<'de> {
    variant: &'de str,
}

impl<'de> EnumAccess<'de> for UnitVariantAccess<'de> {
    type Error = WireError;
    type Variant = UnitOnly;

    fn variant_seed<V: DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, UnitOnly), WireError> {
        let v = seed.deserialize(StrDeserializer { value: self.variant })?;
        Ok((v, UnitOnly))
    }
}

/// Variant access that only permits unit variants.
struct UnitOnly;

impl<'de> VariantAccess<'de> for UnitOnly {
    type Error = WireError;

    fn unit_variant(self) -> Result<(), WireError> {
        Ok(())
    }

    fn newtype_variant_seed<T: DeserializeSeed<'de>>(self, _: T) -> Result<T::Value, WireError> {
        Err(WireError::custom("expected variant data, found unit variant"))
    }

    fn tuple_variant<V: Visitor<'de>>(self, _: usize, _: V) -> Result<V::Value, WireError> {
        Err(WireError::custom("expected variant data, found unit variant"))
    }

    fn struct_variant<V: Visitor<'de>>(
        self,
        _: &'static [&'static str],
        _: V,
    ) -> Result<V::Value, WireError> {
        Err(WireError::custom("expected variant data, found unit variant"))
    }
}

/// Enum access for a data-carrying variant (single-entry map).
struct DataVariantAccess<'a, 'de> {
    de: &'a mut BinDeserializer<'de>,
    variant: &'de str,
}

impl<'de, 'a> EnumAccess<'de> for DataVariantAccess<'a, 'de> {
    type Error = WireError;
    type Variant = DataVariant<'a, 'de>;

    fn variant_seed<V: DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, DataVariant<'a, 'de>), WireError> {
        let v = seed.deserialize(StrDeserializer { value: self.variant })?;
        Ok((v, DataVariant { de: self.de }))
    }
}

/// Reads the payload of a data-carrying variant.
struct DataVariant<'a, 'de> {
    de: &'a mut BinDeserializer<'de>,
}

impl<'de> VariantAccess<'de> for DataVariant<'_, 'de> {
    type Error = WireError;

    fn unit_variant(self) -> Result<(), WireError> {
        // Tolerate a unit read of a data variant by skipping the payload.
        self.de.skip_value()
    }

    fn newtype_variant_seed<T: DeserializeSeed<'de>>(self, seed: T) -> Result<T::Value, WireError> {
        seed.deserialize(&mut *self.de)
    }

    fn tuple_variant<V: Visitor<'de>>(self, _: usize, visitor: V) -> Result<V::Value, WireError> {
        self.de.deserialize_seq(visitor)
    }

    fn struct_variant<V: Visitor<'de>>(
        self,
        _: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, WireError> {
        self.de.deserialize_map(visitor)
    }
}

impl<'de> Deserializer<'de> for &mut BinDeserializer<'de> {
    type Error = WireError;

    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        match self.peek_tag()? {
            TAG_NULL => {
                self.pos += 1;
                visitor.visit_unit()
            }
            TAG_FALSE => {
                self.pos += 1;
                visitor.visit_bool(false)
            }
            TAG_TRUE => {
                self.pos += 1;
                visitor.visit_bool(true)
            }
            TAG_U8 | TAG_U16 | TAG_U32 | TAG_U64 | TAG_I64 => self.take_int()?.visit(visitor),
            TAG_F32 => {
                self.pos += 1;
                let v = self.take_f32()?;
                visitor.visit_f32(v)
            }
            TAG_F64 => {
                self.pos += 1;
                let v = self.take_f64()?;
                visitor.visit_f64(v)
            }
            TAG_STR => {
                self.pos += 1;
                let s = self.take_raw_str()?;
                visitor.visit_str(s)
            }
            TAG_BYTES => {
                self.pos += 1;
                let len = self.take_len()?;
                let raw = self.take(len)?;
                visitor.visit_bytes(raw)
            }
            TAG_SEQ => {
                self.pos += 1;
                let len = self.take_len()?;
                visitor.visit_seq(BinSeqAccess { de: self, remaining: len })
            }
            TAG_F32SEQ => {
                self.pos += 1;
                let len = self.take_len()?;
                visitor.visit_seq(F32SeqAccess { de: self, remaining: len })
            }
            TAG_MAP => {
                self.pos += 1;
                let len = self.take_len()?;
                visitor.visit_map(BinMapAccess { de: self, remaining: len })
            }
            t => Err(WireError::custom(format!("unknown tag {t:#x}"))),
        }
    }

    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        match self.take_tag()? {
            TAG_FALSE => visitor.visit_bool(false),
            TAG_TRUE => visitor.visit_bool(true),
            t => Err(WireError::custom(format!("expected bool, found tag {t:#x}"))),
        }
    }

    fn deserialize_i8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        self.take_int()?.visit(visitor)
    }
    fn deserialize_i16<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        self.take_int()?.visit(visitor)
    }
    fn deserialize_i32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        self.take_int()?.visit(visitor)
    }
    fn deserialize_i64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        self.take_int()?.visit(visitor)
    }
    fn deserialize_u8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        self.take_int()?.visit(visitor)
    }
    fn deserialize_u16<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        self.take_int()?.visit(visitor)
    }
    fn deserialize_u32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        self.take_int()?.visit(visitor)
    }
    fn deserialize_u64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        self.take_int()?.visit(visitor)
    }

    fn deserialize_f32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        match self.take_tag()? {
            TAG_F32 => {
                let v = self.take_f32()?;
                visitor.visit_f32(v)
            }
            TAG_F64 => {
                let v = self.take_f64()?;
                visitor.visit_f64(v)
            }
            t => Err(WireError::custom(format!("expected float, found tag {t:#x}"))),
        }
    }

    fn deserialize_f64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        match self.take_tag()? {
            TAG_F32 => {
                let v = self.take_f32()?;
                visitor.visit_f64(v as f64)
            }
            TAG_F64 => {
                let v = self.take_f64()?;
                visitor.visit_f64(v)
            }
            TAG_U8 | TAG_U16 | TAG_U32 | TAG_U64 | TAG_I64 => {
                self.pos -= 1;
                match self.take_int()? {
                    IntValue::U(v) => visitor.visit_f64(v as f64),
                    IntValue::I(v) => visitor.visit_f64(v as f64),
                }
            }
            t => Err(WireError::custom(format!("expected float, found tag {t:#x}"))),
        }
    }

    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        match self.take_tag()? {
            TAG_STR => {
                let s = self.take_raw_str()?;
                let mut chars = s.chars();
                match (chars.next(), chars.next()) {
                    (Some(c), None) => visitor.visit_char(c),
                    _ => Err(WireError::custom("expected single-char string")),
                }
            }
            t => Err(WireError::custom(format!("expected char, found tag {t:#x}"))),
        }
    }

    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        match self.take_tag()? {
            TAG_STR => {
                let s = self.take_raw_str()?;
                visitor.visit_str(s)
            }
            t => Err(WireError::custom(format!("expected string, found tag {t:#x}"))),
        }
    }

    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        self.deserialize_str(visitor)
    }

    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        match self.take_tag()? {
            TAG_BYTES => {
                let len = self.take_len()?;
                let raw = self.take(len)?;
                visitor.visit_bytes(raw)
            }
            t => Err(WireError::custom(format!("expected bytes, found tag {t:#x}"))),
        }
    }

    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        self.deserialize_bytes(visitor)
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        if self.peek_tag()? == TAG_NULL {
            self.pos += 1;
            visitor.visit_none()
        } else {
            visitor.visit_some(self)
        }
    }

    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        match self.take_tag()? {
            TAG_NULL => visitor.visit_unit(),
            t => Err(WireError::custom(format!("expected unit, found tag {t:#x}"))),
        }
    }

    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        _: &'static str,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        self.deserialize_unit(visitor)
    }

    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _: &'static str,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_newtype_struct(self)
    }

    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        match self.take_tag()? {
            TAG_SEQ => {
                let len = self.take_len()?;
                visitor.visit_seq(BinSeqAccess { de: self, remaining: len })
            }
            TAG_F32SEQ => {
                let len = self.take_len()?;
                visitor.visit_seq(F32SeqAccess { de: self, remaining: len })
            }
            t => Err(WireError::custom(format!("expected sequence, found tag {t:#x}"))),
        }
    }

    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        _: usize,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        self.deserialize_seq(visitor)
    }

    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _: &'static str,
        _: usize,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        self.deserialize_seq(visitor)
    }

    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        match self.take_tag()? {
            TAG_MAP => {
                let len = self.take_len()?;
                visitor.visit_map(BinMapAccess { de: self, remaining: len })
            }
            t => Err(WireError::custom(format!("expected map, found tag {t:#x}"))),
        }
    }

    fn deserialize_struct<V: Visitor<'de>>(
        self,
        _: &'static str,
        _: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, WireError> {
        self.deserialize_map(visitor)
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _: &'static str,
        _: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, WireError> {
        match self.take_tag()? {
            TAG_STR => {
                let variant = self.take_raw_str()?;
                visitor.visit_enum(UnitVariantAccess { variant })
            }
            TAG_MAP => {
                let len = self.take_len()?;
                if len != 1 {
                    return Err(WireError::custom("enum map must have one entry"));
                }
                let variant = self.take_raw_str()?;
                visitor.visit_enum(DataVariantAccess { de: self, variant })
            }
            t => Err(WireError::custom(format!("expected enum, found tag {t:#x}"))),
        }
    }

    fn deserialize_identifier<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        self.deserialize_str(visitor)
    }

    fn deserialize_ignored_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        self.skip_value()?;
        visitor.visit_unit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    fn roundtrip<T: Serialize + DeserializeOwned + PartialEq + std::fmt::Debug>(value: &T) {
        let bytes = to_bytes(value).unwrap();
        let back: T = from_bytes(&bytes).unwrap();
        assert_eq!(&back, value);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&true);
        roundtrip(&false);
        roundtrip(&0u8);
        roundtrip(&u64::MAX);
        roundtrip(&-1i64);
        roundtrip(&i64::MIN);
        roundtrip(&1.5f32);
        roundtrip(&1.0e300f64);
        roundtrip(&"hello".to_string());
        roundtrip(&String::new());
        roundtrip(&Some(7u32));
        roundtrip(&Option::<u32>::None);
        roundtrip(&vec![1u32, 2, 3]);
        roundtrip(&Vec::<u32>::new());
        roundtrip(&(1u32, "two".to_string(), 3.0f32));
    }

    #[test]
    fn integers_use_minimal_width() {
        assert_eq!(to_bytes(&0u64).unwrap().len(), 2);
        assert_eq!(to_bytes(&255u64).unwrap().len(), 2);
        assert_eq!(to_bytes(&256u64).unwrap().len(), 3);
        assert_eq!(to_bytes(&65_536u64).unwrap().len(), 5);
        assert_eq!(to_bytes(&(1u64 << 40)).unwrap().len(), 9);
        // Same value, same bytes, regardless of the declared integer type.
        assert_eq!(to_bytes(&7u8).unwrap(), to_bytes(&7u64).unwrap());
        assert_eq!(to_bytes(&7i32).unwrap(), to_bytes(&7u64).unwrap());
    }

    #[test]
    fn f32_sequences_collapse_to_raw_slabs() {
        let v: Vec<f32> = (0..128).map(|i| i as f32 * 0.25).collect();
        let bytes = to_bytes(&v).unwrap();
        // tag + len + 4 bytes per element — not 5.
        assert_eq!(bytes.len(), 1 + 4 + 4 * v.len());
        assert_eq!(bytes[0], TAG_F32SEQ);
        let back: Vec<f32> = from_bytes(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn f64_narrows_when_lossless() {
        // 1.5 survives the f64 -> f32 round trip; 1e300 does not.
        assert_eq!(to_bytes(&1.5f64).unwrap().len(), 5);
        assert_eq!(to_bytes(&1.0e300f64).unwrap().len(), 9);
        let back: f64 = from_bytes(&to_bytes(&1.5f64).unwrap()).unwrap();
        assert_eq!(back, 1.5);
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Sample {
        id: u64,
        name: String,
        score: f32,
        tags: Vec<String>,
        maybe: Option<bool>,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Shape {
        Unit,
        Newtype(u32),
        Tuple(u32, String),
        Named { x: f32, y: f32 },
    }

    #[test]
    fn structs_and_enums_roundtrip() {
        roundtrip(&Sample {
            id: 42,
            name: "qdrant".into(),
            score: 0.87,
            tags: vec!["hpc".into(), "polaris".into()],
            maybe: Some(true),
        });
        roundtrip(&Shape::Unit);
        roundtrip(&Shape::Newtype(9));
        roundtrip(&Shape::Tuple(1, "two".into()));
        roundtrip(&Shape::Named { x: 1.0, y: -2.0 });
        roundtrip(&vec![Shape::Unit, Shape::Newtype(1), Shape::Named { x: 0.0, y: 0.0 }]);
    }

    #[test]
    fn maps_roundtrip() {
        let mut m = std::collections::BTreeMap::new();
        m.insert("a".to_string(), 1u32);
        m.insert("b".to_string(), 2u32);
        roundtrip(&m);
    }

    #[test]
    fn bytes_values_roundtrip_via_frames() {
        let payload = to_bytes(&vec![1u32, 2, 3]).unwrap();
        let frame = encode_frame(&payload);
        let mut cursor = &frame[..];
        let back = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(back, payload);
        // Clean EOF between frames.
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn torn_and_corrupt_frames_are_rejected() {
        let frame = encode_frame(b"payload bytes");
        // Torn header.
        let mut torn = &frame[..7];
        assert!(matches!(read_frame(&mut torn), Err(VqError::Network(_))));
        // Torn payload.
        let mut torn = &frame[..frame.len() - 3];
        assert!(matches!(read_frame(&mut torn), Err(VqError::Network(_))));
        // Garbage prefix (bad magic).
        let mut garbage = frame.clone();
        garbage[0] = b'X';
        assert!(matches!(
            read_frame(&mut &garbage[..]),
            Err(VqError::Corruption(_))
        ));
        // Version skew: anything but this build's version is rejected.
        for version in [0, WIRE_VERSION - 1, WIRE_VERSION + 1, 99] {
            let mut skew = frame.clone();
            skew[4] = version;
            assert!(
                matches!(read_frame(&mut &skew[..]), Err(VqError::Corruption(_))),
                "version {version}"
            );
        }
        // Flipped payload bit fails the CRC.
        let mut flipped = frame.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(matches!(
            read_frame(&mut &flipped[..]),
            Err(VqError::Corruption(_))
        ));
        // Absurd length.
        let mut huge = frame;
        huge[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(read_frame(&mut &huge[..]), Err(VqError::Corruption(_))));
    }

    #[test]
    fn decode_rejects_truncated_values_and_trailing_bytes() {
        let bytes = to_bytes(&vec![1.0f32; 16]).unwrap();
        assert!(from_bytes::<Vec<f32>>(&bytes[..bytes.len() - 2]).is_err());
        let mut extra = bytes;
        extra.push(0);
        assert!(from_bytes::<Vec<f32>>(&extra).is_err());
        // A declared length past the end of the buffer must not allocate.
        let mut lie = vec![TAG_SEQ];
        lie.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(from_bytes::<Vec<u8>>(&lie).is_err());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
