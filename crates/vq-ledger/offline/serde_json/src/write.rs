//! A `Serializer` writing JSON text, compact or pretty (two-space indent).

use crate::Error;
use serde::ser::{self, Serialize};
use std::fmt::Write as _;

/// Shortest text that reads back to the same float; `null` for NaN and
/// infinities. Integral values keep a `.0` so they read back as floats.
pub fn float<F: std::fmt::Display + Copy + Into<f64>>(value: F, out: &mut String) {
    if !value.into().is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    write!(out, "{value}").expect("writing to a String cannot fail");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

pub fn string(value: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in value.bytes().enumerate() {
        let escape: &str = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0C => "\\f",
            0..=0x1F => {
                out.push_str(&value[run..i]);
                write!(out, "\\u{b:04x}").expect("writing to a String cannot fail");
                run = i + 1;
                continue;
            }
            _ => continue,
        };
        out.push_str(&value[run..i]);
        out.push_str(escape);
        run = i + 1;
    }
    out.push_str(&value[run..]);
    out.push('"');
}

pub struct TextSerializer<'a> {
    pub out: &'a mut String,
    /// `Some(depth)` when pretty-printing.
    pub indent: Option<usize>,
}

fn newline(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// An array or object being written.
pub struct Compound<'a> {
    out: &'a mut String,
    /// Depth of the elements, when pretty-printing.
    indent: Option<usize>,
    empty: bool,
    close: char,
    /// Tuple and struct variants close their `{"Variant": ...}` wrapper too.
    wrapped: bool,
}

impl<'a> Compound<'a> {
    fn open(ser: TextSerializer<'a>, open: char, close: char, wrapped: bool) -> Self {
        ser.out.push(open);
        Compound {
            out: ser.out,
            indent: ser.indent.map(|d| d + 1),
            empty: true,
            close,
            wrapped,
        }
    }

    fn separator(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        if let Some(depth) = self.indent {
            newline(self.out, depth);
        }
    }

    fn element<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), Error> {
        self.separator();
        value.serialize(TextSerializer {
            out: self.out,
            indent: self.indent,
        })
    }

    fn key<T: ?Sized + Serialize>(&mut self, key: &T) -> Result<(), Error> {
        self.separator();
        key.serialize(KeySerializer { out: self.out })?;
        self.out.push(':');
        if self.indent.is_some() {
            self.out.push(' ');
        }
        Ok(())
    }

    fn value<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), Error> {
        value.serialize(TextSerializer {
            out: self.out,
            indent: self.indent,
        })
    }

    fn close(self) -> Result<(), Error> {
        if let (Some(depth), false) = (self.indent, self.empty) {
            newline(self.out, depth - 1);
        }
        self.out.push(self.close);
        if self.wrapped {
            if let Some(depth) = self.indent {
                newline(self.out, depth.saturating_sub(2));
            }
            self.out.push('}');
        }
        Ok(())
    }
}

impl<'a> TextSerializer<'a> {
    /// Write `{"variant":` and return the serializer for the data.
    fn open_variant(self, variant: &str) -> TextSerializer<'a> {
        self.out.push('{');
        let inner = self.indent.map(|d| d + 1);
        if let Some(depth) = inner {
            newline(self.out, depth);
        }
        string(variant, self.out);
        self.out.push(':');
        if inner.is_some() {
            self.out.push(' ');
        }
        TextSerializer {
            out: self.out,
            indent: inner,
        }
    }
}

macro_rules! write_display {
    ($($method:ident($t:ty))*) => {$(
        fn $method(self, v: $t) -> Result<(), Error> {
            write!(self.out, "{v}").expect("writing to a String cannot fail");
            Ok(())
        }
    )*};
}

impl<'a> ser::Serializer for TextSerializer<'a> {
    type Ok = ();
    type Error = Error;
    type SerializeSeq = Compound<'a>;
    type SerializeTuple = Compound<'a>;
    type SerializeTupleStruct = Compound<'a>;
    type SerializeTupleVariant = Compound<'a>;
    type SerializeMap = Compound<'a>;
    type SerializeStruct = Compound<'a>;
    type SerializeStructVariant = Compound<'a>;

    write_display! {
        serialize_bool(bool)
        serialize_i8(i8) serialize_i16(i16) serialize_i32(i32) serialize_i64(i64)
        serialize_u8(u8) serialize_u16(u16) serialize_u32(u32) serialize_u64(u64)
    }

    fn serialize_f32(self, v: f32) -> Result<(), Error> {
        float(v, self.out);
        Ok(())
    }

    fn serialize_f64(self, v: f64) -> Result<(), Error> {
        float(v, self.out);
        Ok(())
    }

    fn serialize_char(self, v: char) -> Result<(), Error> {
        string(v.encode_utf8(&mut [0u8; 4]), self.out);
        Ok(())
    }

    fn serialize_str(self, v: &str) -> Result<(), Error> {
        string(v, self.out);
        Ok(())
    }

    fn serialize_bytes(self, v: &[u8]) -> Result<(), Error> {
        ser::Serializer::collect_seq(self, v)
    }

    fn serialize_none(self) -> Result<(), Error> {
        self.serialize_unit()
    }

    fn serialize_some<T: ?Sized + Serialize>(self, value: &T) -> Result<(), Error> {
        value.serialize(self)
    }

    fn serialize_unit(self) -> Result<(), Error> {
        self.out.push_str("null");
        Ok(())
    }

    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), Error> {
        self.serialize_unit()
    }

    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
    ) -> Result<(), Error> {
        self.serialize_str(variant)
    }

    fn serialize_newtype_struct<T: ?Sized + Serialize>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        value.serialize(self)
    }

    fn serialize_newtype_variant<T: ?Sized + Serialize>(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        let outer = self.indent;
        let inner = self.open_variant(variant);
        let out = &mut *inner.out;
        value.serialize(TextSerializer {
            out,
            indent: inner.indent,
        })?;
        if let Some(depth) = outer {
            newline(inner.out, depth);
        }
        inner.out.push('}');
        Ok(())
    }

    fn serialize_seq(self, _len: Option<usize>) -> Result<Compound<'a>, Error> {
        Ok(Compound::open(self, '[', ']', false))
    }

    fn serialize_tuple(self, _len: usize) -> Result<Compound<'a>, Error> {
        Ok(Compound::open(self, '[', ']', false))
    }

    fn serialize_tuple_struct(
        self,
        _name: &'static str,
        _len: usize,
    ) -> Result<Compound<'a>, Error> {
        Ok(Compound::open(self, '[', ']', false))
    }

    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<Compound<'a>, Error> {
        Ok(Compound::open(self.open_variant(variant), '[', ']', true))
    }

    fn serialize_map(self, _len: Option<usize>) -> Result<Compound<'a>, Error> {
        Ok(Compound::open(self, '{', '}', false))
    }

    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Compound<'a>, Error> {
        Ok(Compound::open(self, '{', '}', false))
    }

    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
        _len: usize,
    ) -> Result<Compound<'a>, Error> {
        Ok(Compound::open(self.open_variant(variant), '{', '}', true))
    }
}

macro_rules! compound_elements {
    ($($tr:ident::$method:ident)*) => {$(
        impl ser::$tr for Compound<'_> {
            type Ok = ();
            type Error = Error;
            fn $method<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), Error> {
                self.element(value)
            }
            fn end(self) -> Result<(), Error> {
                self.close()
            }
        }
    )*};
}

compound_elements! {
    SerializeSeq::serialize_element
    SerializeTuple::serialize_element
    SerializeTupleStruct::serialize_field
    SerializeTupleVariant::serialize_field
}

impl ser::SerializeMap for Compound<'_> {
    type Ok = ();
    type Error = Error;
    fn serialize_key<T: ?Sized + Serialize>(&mut self, key: &T) -> Result<(), Error> {
        self.key(key)
    }
    fn serialize_value<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), Error> {
        self.value(value)
    }
    fn end(self) -> Result<(), Error> {
        self.close()
    }
}

macro_rules! compound_fields {
    ($($tr:ident)*) => {$(
        impl ser::$tr for Compound<'_> {
            type Ok = ();
            type Error = Error;
            fn serialize_field<T: ?Sized + Serialize>(&mut self, key: &'static str, value: &T) -> Result<(), Error> {
                self.key(key)?;
                self.value(value)
            }
            fn end(self) -> Result<(), Error> {
                self.close()
            }
        }
    )*};
}

compound_fields!(SerializeStruct SerializeStructVariant);

/// Object keys: strings as they are, integers quoted, nothing else.
struct KeySerializer<'a> {
    out: &'a mut String,
}

fn key_must_be_string<T>() -> Result<T, Error> {
    Err(ser::Error::custom("key must be a string"))
}

macro_rules! key_integer {
    ($($method:ident($t:ty))*) => {$(
        fn $method(self, v: $t) -> Result<(), Error> {
            write!(self.out, "\"{v}\"").expect("writing to a String cannot fail");
            Ok(())
        }
    )*};
}

type NoCompound = ser::Impossible<(), Error>;

impl ser::Serializer for KeySerializer<'_> {
    type Ok = ();
    type Error = Error;
    type SerializeSeq = NoCompound;
    type SerializeTuple = NoCompound;
    type SerializeTupleStruct = NoCompound;
    type SerializeTupleVariant = NoCompound;
    type SerializeMap = NoCompound;
    type SerializeStruct = NoCompound;
    type SerializeStructVariant = NoCompound;

    key_integer! {
        serialize_i8(i8) serialize_i16(i16) serialize_i32(i32) serialize_i64(i64)
        serialize_u8(u8) serialize_u16(u16) serialize_u32(u32) serialize_u64(u64)
    }

    fn serialize_str(self, v: &str) -> Result<(), Error> {
        string(v, self.out);
        Ok(())
    }

    fn serialize_char(self, v: char) -> Result<(), Error> {
        self.serialize_str(v.encode_utf8(&mut [0u8; 4]))
    }

    fn serialize_unit_variant(
        self,
        _name: &'static str,
        _index: u32,
        variant: &'static str,
    ) -> Result<(), Error> {
        self.serialize_str(variant)
    }

    fn serialize_newtype_struct<T: ?Sized + Serialize>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        value.serialize(self)
    }

    fn serialize_bool(self, _v: bool) -> Result<(), Error> {
        key_must_be_string()
    }
    fn serialize_f32(self, _v: f32) -> Result<(), Error> {
        key_must_be_string()
    }
    fn serialize_f64(self, _v: f64) -> Result<(), Error> {
        key_must_be_string()
    }
    fn serialize_bytes(self, _v: &[u8]) -> Result<(), Error> {
        key_must_be_string()
    }
    fn serialize_none(self) -> Result<(), Error> {
        key_must_be_string()
    }
    fn serialize_some<T: ?Sized + Serialize>(self, _value: &T) -> Result<(), Error> {
        key_must_be_string()
    }
    fn serialize_unit(self) -> Result<(), Error> {
        key_must_be_string()
    }
    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), Error> {
        key_must_be_string()
    }
    fn serialize_newtype_variant<T: ?Sized + Serialize>(
        self,
        _name: &'static str,
        _index: u32,
        _variant: &'static str,
        _value: &T,
    ) -> Result<(), Error> {
        key_must_be_string()
    }
    fn serialize_seq(self, _len: Option<usize>) -> Result<NoCompound, Error> {
        key_must_be_string()
    }
    fn serialize_tuple(self, _len: usize) -> Result<NoCompound, Error> {
        key_must_be_string()
    }
    fn serialize_tuple_struct(self, _name: &'static str, _len: usize) -> Result<NoCompound, Error> {
        key_must_be_string()
    }
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        _index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<NoCompound, Error> {
        key_must_be_string()
    }
    fn serialize_map(self, _len: Option<usize>) -> Result<NoCompound, Error> {
        key_must_be_string()
    }
    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<NoCompound, Error> {
        key_must_be_string()
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        _index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<NoCompound, Error> {
        key_must_be_string()
    }
}
