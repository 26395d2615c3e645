//! Offline stand-in for `serde_json` 1.x: `Value` with its accessors, a
//! strict JSON parser, compact and pretty writers, and the
//! `to_*`/`from_*` entry points over the `serde` stand-in.
//!
//! Decoding streams straight from the text into the target's `Visitor`,
//! as the published crate does; `to_value`/`from_value` take the slow
//! road through text, since nothing vq ships calls them.

use serde::de::{self, DeserializeOwned};
use serde::ser::{self, Serialize};
use std::collections::BTreeMap;
use std::fmt::{self, Display};

mod read;
mod value;
mod write;

/// Object representation: keys in sorted order (the published crate's
/// default as well).
pub type Map<K, V> = BTreeMap<K, V>;

#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

pub type Result<T> = std::result::Result<T, Error>;

impl Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl ser::Error for Error {
    fn custom<T: Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

impl de::Error for Error {
    fn custom<T: Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum N {
    PosInt(u64),
    NegInt(i64),
    Float(f64),
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Number(N);

impl Number {
    pub fn as_u64(&self) -> Option<u64> {
        match self.0 {
            N::PosInt(n) => Some(n),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self.0 {
            N::PosInt(n) => i64::try_from(n).ok(),
            N::NegInt(n) => Some(n),
            N::Float(_) => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        Some(match self.0 {
            N::PosInt(n) => n as f64,
            N::NegInt(n) => n as f64,
            N::Float(n) => n,
        })
    }

    pub fn is_u64(&self) -> bool {
        matches!(self.0, N::PosInt(_))
    }

    pub fn is_i64(&self) -> bool {
        self.as_i64().is_some()
    }

    pub fn is_f64(&self) -> bool {
        matches!(self.0, N::Float(_))
    }

    /// `None` for NaN and infinities, which JSON cannot carry.
    pub fn from_f64(f: f64) -> Option<Number> {
        f.is_finite().then_some(Number(N::Float(f)))
    }
}

impl Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            N::PosInt(n) => write!(f, "{n}"),
            N::NegInt(n) => write!(f, "{n}"),
            N::Float(n) => {
                let mut text = String::new();
                write::float(n, &mut text);
                f.write_str(&text)
            }
        }
    }
}

macro_rules! number_from {
    ($($t:ty)*) => {$(
        impl From<$t> for Number {
            #[allow(unused_comparisons)]
            fn from(n: $t) -> Number {
                if n < 0 { Number(N::NegInt(n as i64)) } else { Number(N::PosInt(n as u64)) }
            }
        }
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Number(n.into())
            }
        }
    )*};
}
number_from!(u8 u16 u32 u64 usize i8 i16 i32 i64 isize);

#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Map<String, Value>),
}

/// `value.get("key")` / `value.get(3)`.
pub trait Index {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value>;
    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value>;
}

impl Index for str {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        match v {
            Value::Object(map) => map.get(self),
            _ => None,
        }
    }
    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        match v {
            Value::Object(map) => map.get_mut(self),
            _ => None,
        }
    }
}

impl Index for String {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        self.as_str().index_into(v)
    }
    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        self.as_str().index_into_mut(v)
    }
}

impl Index for usize {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        match v {
            Value::Array(items) => items.get(*self),
            _ => None,
        }
    }
    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        match v {
            Value::Array(items) => items.get_mut(*self),
            _ => None,
        }
    }
}

impl<T: Index + ?Sized> Index for &T {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        (**self).index_into(v)
    }
    fn index_into_mut<'v>(&self, v: &'v mut Value) -> Option<&'v mut Value> {
        (**self).index_into_mut(v)
    }
}

static NULL: Value = Value::Null;

impl<I: Index> std::ops::Index<I> for Value {
    type Output = Value;
    fn index(&self, index: I) -> &Value {
        index.index_into(self).unwrap_or(&NULL)
    }
}

impl Value {
    pub fn get<I: Index>(&self, index: I) -> Option<&Value> {
        index.index_into(self)
    }

    pub fn get_mut<I: Index>(&mut self, index: I) -> Option<&mut Value> {
        index.index_into_mut(self)
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn is_boolean(&self) -> bool {
        matches!(self, Value::Bool(_))
    }

    pub fn is_number(&self) -> bool {
        matches!(self, Value::Number(_))
    }

    pub fn is_string(&self) -> bool {
        matches!(self, Value::String(_))
    }

    pub fn is_array(&self) -> bool {
        matches!(self, Value::Array(_))
    }

    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }

    pub fn as_null(&self) -> Option<()> {
        self.is_null().then_some(())
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }

    pub fn as_object_mut(&mut self) -> Option<&mut Map<String, Value>> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }

    pub fn take(&mut self) -> Value {
        std::mem::take(self)
    }
}

impl Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = if f.alternate() {
            to_string_pretty(self)
        } else {
            to_string(self)
        };
        f.write_str(&text.map_err(|_| fmt::Error)?)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Number::from_f64(f).map_or(Value::Null, Value::Number)
    }
}

impl From<f32> for Value {
    fn from(f: f32) -> Value {
        Value::from(f as f64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Value {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(item: Option<T>) -> Value {
        item.map_or(Value::Null, Into::into)
    }
}

impl From<Map<String, Value>> for Value {
    fn from(map: Map<String, Value>) -> Value {
        Value::Object(map)
    }
}

impl std::str::FromStr for Value {
    type Err = Error;
    fn from_str(s: &str) -> Result<Value> {
        from_str(s)
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

pub fn to_string<T: ?Sized + Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.serialize(write::TextSerializer {
        out: &mut out,
        indent: None,
    })?;
    Ok(out)
}

pub fn to_string_pretty<T: ?Sized + Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.serialize(write::TextSerializer {
        out: &mut out,
        indent: Some(0),
    })?;
    Ok(out)
}

pub fn to_vec<T: ?Sized + Serialize>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

pub fn to_vec_pretty<T: ?Sized + Serialize>(value: &T) -> Result<Vec<u8>> {
    to_string_pretty(value).map(String::into_bytes)
}

pub fn to_writer<W: std::io::Write, T: ?Sized + Serialize>(mut writer: W, value: &T) -> Result<()> {
    writer
        .write_all(to_string(value)?.as_bytes())
        .map_err(|e| Error(e.to_string()))
}

pub fn to_value<T: Serialize>(value: T) -> Result<Value> {
    from_str(&to_string(&value)?)
}

pub fn from_value<T: DeserializeOwned>(value: Value) -> Result<T> {
    from_str(&to_string(&value)?)
}

pub fn from_slice<T: DeserializeOwned>(bytes: &[u8]) -> Result<T> {
    let mut parser = read::Parser::new(bytes);
    let value = T::deserialize(&mut parser)?;
    parser.end()?;
    Ok(value)
}

pub fn from_str<T: DeserializeOwned>(text: &str) -> Result<T> {
    from_slice(text.as_bytes())
}

pub fn from_reader<R: std::io::Read, T: DeserializeOwned>(mut reader: R) -> Result<T> {
    let mut bytes = Vec::new();
    reader
        .read_to_end(&mut bytes)
        .map_err(|e| Error(e.to_string()))?;
    from_slice(&bytes)
}
