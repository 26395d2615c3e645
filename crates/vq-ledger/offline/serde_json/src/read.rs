//! A streaming JSON `Deserializer` over a byte slice.

use crate::Error;
use serde::de::{self, DeserializeSeed, EnumAccess, MapAccess, SeqAccess, VariantAccess, Visitor};
use std::borrow::Cow;

/// Nesting deeper than this is rejected instead of overflowing the stack.
const MAX_DEPTH: usize = 128;

pub struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

fn err<T>(message: impl std::fmt::Display, pos: usize) -> Result<T, Error> {
    Err(Error(format!("{message} at byte {pos}")))
}

enum Number {
    U(u64),
    I(i64),
    F(f64),
}

impl<'a> Parser<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Parser {
            bytes,
            pos: 0,
            depth: 0,
        }
    }

    /// Only whitespace may follow the value.
    pub fn end(&mut self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => err("trailing characters", self.pos),
        }
    }

    /// Next non-whitespace byte, not consumed.
    fn peek(&mut self) -> Option<u8> {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                return Some(b);
            }
        }
        None
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            err(format_args!("expected `{}`", byte as char), self.pos)
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            err(format_args!("expected `{word}`"), self.pos)
        }
    }

    fn enter(&mut self) -> Result<(), Error> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return err("recursion limit exceeded", self.pos);
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Number, Error> {
        let start = self.pos;
        let mut integral = true;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' | b'-' | b'+' => {}
                b'.' | b'e' | b'E' => integral = false,
                _ => break,
            }
            self.pos += 1;
        }
        // The scanned bytes are ASCII by construction.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        if integral {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Number::U(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Number::I(n));
            }
        }
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Number::F(n)),
            _ => err("invalid number", start),
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|d| std::str::from_utf8(d).ok());
        match digits.and_then(|d| u32::from_str_radix(d, 16).ok()) {
            Some(n) => {
                self.pos += 4;
                Ok(n)
            }
            None => err("invalid \\u escape", self.pos),
        }
    }

    /// The string starting at the opening quote under the cursor.
    fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.expect(b'"')?;
        let start = self.pos;
        let utf8 = |bytes: &'a [u8], at: usize| match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s),
            Err(_) => err("invalid UTF-8 in string", at),
        };
        let mut owned: Option<String> = None;
        let mut run = start;
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return err("unterminated string", start);
            };
            match b {
                b'"' => {
                    let tail = utf8(&self.bytes[run..self.pos], run)?;
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(mut s) => {
                            s.push_str(tail);
                            Cow::Owned(s)
                        }
                    });
                }
                b'\\' => {
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(utf8(&self.bytes[run..self.pos], run)?);
                    self.pos += 1;
                    let Some(&escape) = self.bytes.get(self.pos) else {
                        return err("unterminated escape", self.pos);
                    };
                    self.pos += 1;
                    let c = match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let mut code = self.hex4()?;
                            if (0xD800..0xDC00).contains(&code) {
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return err("lone surrogate", self.pos);
                                }
                                self.pos += 2;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return err("invalid surrogate pair", self.pos);
                                }
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            }
                            match char::from_u32(code) {
                                Some(c) => c,
                                None => return err("invalid \\u escape", self.pos),
                            }
                        }
                        _ => return err("invalid escape", self.pos - 1),
                    };
                    owned.as_mut().expect("set above").push(c);
                    run = self.pos;
                }
                0..=0x1F => return err("control character in string", self.pos),
                _ => self.pos += 1,
            }
        }
    }
}

fn visit_cow<'de, V: Visitor<'de>>(s: Cow<'_, str>, visitor: V) -> Result<V::Value, Error> {
    match s {
        Cow::Borrowed(s) => visitor.visit_str(s),
        Cow::Owned(s) => visitor.visit_string(s),
    }
}

macro_rules! forward_to_any {
    ($($method:ident)*) => {$(
        #[inline]
        fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
            self.deserialize_any(visitor)
        }
    )*};
}

impl<'de> de::Deserializer<'de> for &mut Parser<'_> {
    type Error = Error;

    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        match self.peek() {
            Some(b'n') => {
                self.literal("null")?;
                visitor.visit_unit()
            }
            Some(b't') => {
                self.literal("true")?;
                visitor.visit_bool(true)
            }
            Some(b'f') => {
                self.literal("false")?;
                visitor.visit_bool(false)
            }
            Some(b'"') => visit_cow(self.string()?, visitor),
            Some(b'-' | b'0'..=b'9') => match self.number()? {
                Number::U(n) => visitor.visit_u64(n),
                Number::I(n) => visitor.visit_i64(n),
                Number::F(n) => visitor.visit_f64(n),
            },
            Some(b'[') => {
                self.pos += 1;
                self.enter()?;
                let value = visitor.visit_seq(Elements {
                    parser: self,
                    first: true,
                })?;
                self.depth -= 1;
                self.expect(b']')?;
                Ok(value)
            }
            Some(b'{') => {
                self.pos += 1;
                self.enter()?;
                let value = visitor.visit_map(Elements {
                    parser: self,
                    first: true,
                })?;
                self.depth -= 1;
                self.expect(b'}')?;
                Ok(value)
            }
            Some(_) => err("expected a JSON value", self.pos),
            None => err("unexpected end of input", self.pos),
        }
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        if self.peek() == Some(b'n') {
            self.literal("null")?;
            visitor.visit_none()
        } else {
            visitor.visit_some(self)
        }
    }

    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Error> {
        visitor.visit_newtype_struct(self)
    }

    /// `"Variant"` or `{"Variant": data}`.
    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Error> {
        match self.peek() {
            Some(b'"') => {
                let variant = self.string()?;
                visitor.visit_enum(Variant {
                    parser: self,
                    name: variant,
                    has_data: false,
                })
            }
            Some(b'{') => {
                self.pos += 1;
                self.enter()?;
                if self.peek() != Some(b'"') {
                    return err("expected a variant name", self.pos);
                }
                let variant = self.string()?;
                self.expect(b':')?;
                let value = visitor.visit_enum(Variant {
                    parser: self,
                    name: variant,
                    has_data: true,
                })?;
                self.depth -= 1;
                self.expect(b'}')?;
                Ok(value)
            }
            _ => err(
                "expected a string or a single-key object for an enum",
                self.pos,
            ),
        }
    }

    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Error> {
        self.deserialize_any(visitor)
    }

    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        _len: usize,
        visitor: V,
    ) -> Result<V::Value, Error> {
        self.deserialize_any(visitor)
    }

    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _len: usize,
        visitor: V,
    ) -> Result<V::Value, Error> {
        self.deserialize_any(visitor)
    }

    fn deserialize_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Error> {
        self.deserialize_any(visitor)
    }

    forward_to_any! {
        deserialize_bool deserialize_i8 deserialize_i16 deserialize_i32 deserialize_i64
        deserialize_u8 deserialize_u16 deserialize_u32 deserialize_u64 deserialize_f32
        deserialize_f64 deserialize_char deserialize_str deserialize_string deserialize_bytes
        deserialize_byte_buf deserialize_unit deserialize_seq deserialize_map
        deserialize_identifier deserialize_ignored_any
    }
}

/// Comma-separated elements of an array or entries of an object; the
/// closing bracket is left for the caller.
struct Elements<'p, 'a> {
    parser: &'p mut Parser<'a>,
    first: bool,
}

impl Elements<'_, '_> {
    /// Step to the next element; `false` at the closing `close`.
    fn advance(&mut self, close: u8) -> Result<bool, Error> {
        match self.parser.peek() {
            Some(b) if b == close => Ok(false),
            Some(b',') if !self.first => {
                self.parser.pos += 1;
                match self.parser.peek() {
                    Some(b) if b == close => err("trailing comma", self.parser.pos),
                    _ => Ok(true),
                }
            }
            Some(_) if self.first => {
                self.first = false;
                Ok(true)
            }
            Some(_) => err("expected `,`", self.parser.pos),
            None => err("unexpected end of input", self.parser.pos),
        }
    }
}

impl<'de> SeqAccess<'de> for Elements<'_, '_> {
    type Error = Error;

    fn next_element_seed<T: DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, Error> {
        if !self.advance(b']')? {
            return Ok(None);
        }
        seed.deserialize(&mut *self.parser).map(Some)
    }
}

impl<'de> MapAccess<'de> for Elements<'_, '_> {
    type Error = Error;

    fn next_key_seed<K: DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, Error> {
        if !self.advance(b'}')? {
            return Ok(None);
        }
        if self.parser.peek() != Some(b'"') {
            return err("object keys must be strings", self.parser.pos);
        }
        let key = self.parser.string()?;
        seed.deserialize(Key(key)).map(Some)
    }

    fn next_value_seed<V: DeserializeSeed<'de>>(&mut self, seed: V) -> Result<V::Value, Error> {
        self.parser.expect(b':')?;
        seed.deserialize(&mut *self.parser)
    }
}

/// An object key: a string, or (for integer-keyed maps) the integer it
/// spells.
struct Key<'a>(Cow<'a, str>);

macro_rules! key_integer {
    ($($method:ident => $visit:ident: $t:ty,)*) => {$(
        fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
            match self.0.parse::<$t>() {
                Ok(n) => visitor.$visit(n),
                Err(_) => visit_cow(self.0, visitor),
            }
        }
    )*};
}

macro_rules! key_forward {
    ($($method:ident($($arg:ident: $ty:ty),*))*) => {$(
        fn $method<V: Visitor<'de>>(self, $($arg: $ty,)* visitor: V) -> Result<V::Value, Error> {
            $(let _ = $arg;)*
            visit_cow(self.0, visitor)
        }
    )*};
}

impl<'de> de::Deserializer<'de> for Key<'_> {
    type Error = Error;

    key_integer! {
        deserialize_i8 => visit_i64: i64, deserialize_i16 => visit_i64: i64,
        deserialize_i32 => visit_i64: i64, deserialize_i64 => visit_i64: i64,
        deserialize_u8 => visit_u64: u64, deserialize_u16 => visit_u64: u64,
        deserialize_u32 => visit_u64: u64, deserialize_u64 => visit_u64: u64,
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        visitor.visit_some(self)
    }

    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Error> {
        visitor.visit_newtype_struct(self)
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Error> {
        visitor.visit_enum(UnitVariant(self.0))
    }

    key_forward! {
        deserialize_any() deserialize_bool() deserialize_f32() deserialize_f64() deserialize_char()
        deserialize_str() deserialize_string() deserialize_bytes() deserialize_byte_buf()
        deserialize_unit() deserialize_seq() deserialize_map() deserialize_identifier()
        deserialize_ignored_any()
        deserialize_unit_struct(name: &'static str)
        deserialize_tuple(len: usize)
        deserialize_tuple_struct(name: &'static str, len: usize)
        deserialize_struct(name: &'static str, fields: &'static [&'static str])
    }
}

/// A unit variant spelled as a bare string in key position.
struct UnitVariant<'a>(Cow<'a, str>);

impl<'de> EnumAccess<'de> for UnitVariant<'_> {
    type Error = Error;
    type Variant = UnitOnly;

    fn variant_seed<V: DeserializeSeed<'de>>(self, seed: V) -> Result<(V::Value, UnitOnly), Error> {
        Ok((seed.deserialize(Key(self.0))?, UnitOnly))
    }
}

struct UnitOnly;

impl<'de> VariantAccess<'de> for UnitOnly {
    type Error = Error;

    fn unit_variant(self) -> Result<(), Error> {
        Ok(())
    }

    fn newtype_variant_seed<T: DeserializeSeed<'de>>(self, _seed: T) -> Result<T::Value, Error> {
        Err(de::Error::custom(
            "expected variant data, found a unit variant",
        ))
    }

    fn tuple_variant<V: Visitor<'de>>(self, _len: usize, _visitor: V) -> Result<V::Value, Error> {
        Err(de::Error::custom(
            "expected variant data, found a unit variant",
        ))
    }

    fn struct_variant<V: Visitor<'de>>(
        self,
        _fields: &'static [&'static str],
        _visitor: V,
    ) -> Result<V::Value, Error> {
        Err(de::Error::custom(
            "expected variant data, found a unit variant",
        ))
    }
}

/// An enum value: the variant name already read, the data (if any) next
/// in the parser.
struct Variant<'p, 'a> {
    parser: &'p mut Parser<'a>,
    name: Cow<'a, str>,
    has_data: bool,
}

impl<'de, 'p, 'a> EnumAccess<'de> for Variant<'p, 'a> {
    type Error = Error;
    type Variant = VariantData<'p, 'a>;

    fn variant_seed<V: DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, VariantData<'p, 'a>), Error> {
        let tag = seed.deserialize(Key(self.name))?;
        Ok((
            tag,
            VariantData {
                parser: self.parser,
                has_data: self.has_data,
            },
        ))
    }
}

struct VariantData<'p, 'a> {
    parser: &'p mut Parser<'a>,
    has_data: bool,
}

impl<'de> VariantAccess<'de> for VariantData<'_, '_> {
    type Error = Error;

    fn unit_variant(self) -> Result<(), Error> {
        if self.has_data {
            // `{"Variant": null}` is how a unit variant looks when tagged.
            de::Deserialize::deserialize(self.parser)
        } else {
            Ok(())
        }
    }

    fn newtype_variant_seed<T: DeserializeSeed<'de>>(self, seed: T) -> Result<T::Value, Error> {
        if !self.has_data {
            return Err(de::Error::custom(
                "expected variant data, found a unit variant",
            ));
        }
        seed.deserialize(self.parser)
    }

    fn tuple_variant<V: Visitor<'de>>(self, _len: usize, visitor: V) -> Result<V::Value, Error> {
        if !self.has_data {
            return Err(de::Error::custom(
                "expected variant data, found a unit variant",
            ));
        }
        de::Deserializer::deserialize_seq(self.parser, visitor)
    }

    fn struct_variant<V: Visitor<'de>>(
        self,
        _fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Error> {
        if !self.has_data {
            return Err(de::Error::custom(
                "expected variant data, found a unit variant",
            ));
        }
        de::Deserializer::deserialize_map(self.parser, visitor)
    }
}
