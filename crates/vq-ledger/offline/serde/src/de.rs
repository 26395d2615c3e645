//! The deserialization half of the serde data model (trait signatures as
//! published, so hand-written `Deserializer`s and `Visitor`s compile
//! unchanged).

use std::fmt::{self, Display};
use std::marker::PhantomData;

pub trait Error: Sized + std::error::Error {
    fn custom<T: Display>(msg: T) -> Self;

    fn invalid_type(unexp: Unexpected, exp: &dyn Expected) -> Self {
        Error::custom(format_args!("invalid type: {unexp}, expected {exp}"))
    }

    fn invalid_value(unexp: Unexpected, exp: &dyn Expected) -> Self {
        Error::custom(format_args!("invalid value: {unexp}, expected {exp}"))
    }

    fn invalid_length(len: usize, exp: &dyn Expected) -> Self {
        Error::custom(format_args!("invalid length {len}, expected {exp}"))
    }

    fn unknown_variant(variant: &str, expected: &'static [&'static str]) -> Self {
        Error::custom(format_args!(
            "unknown variant `{variant}`, expected one of {expected:?}"
        ))
    }

    fn unknown_field(field: &str, expected: &'static [&'static str]) -> Self {
        Error::custom(format_args!(
            "unknown field `{field}`, expected one of {expected:?}"
        ))
    }

    fn missing_field(field: &'static str) -> Self {
        Error::custom(format_args!("missing field `{field}`"))
    }

    fn duplicate_field(field: &'static str) -> Self {
        Error::custom(format_args!("duplicate field `{field}`"))
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Unexpected<'a> {
    Bool(bool),
    Unsigned(u64),
    Signed(i64),
    Float(f64),
    Char(char),
    Str(&'a str),
    Bytes(&'a [u8]),
    Unit,
    Option,
    NewtypeStruct,
    Seq,
    Map,
    Enum,
    UnitVariant,
    NewtypeVariant,
    TupleVariant,
    StructVariant,
    Other(&'a str),
}

impl Display for Unexpected<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Unexpected::*;
        match *self {
            Bool(b) => write!(f, "boolean `{b}`"),
            Unsigned(n) => write!(f, "integer `{n}`"),
            Signed(n) => write!(f, "integer `{n}`"),
            Float(n) => write!(f, "floating point `{n}`"),
            Char(c) => write!(f, "character `{c}`"),
            Str(s) => write!(f, "string {s:?}"),
            Bytes(_) => f.write_str("byte array"),
            Unit => f.write_str("unit value"),
            Option => f.write_str("Option value"),
            NewtypeStruct => f.write_str("newtype struct"),
            Seq => f.write_str("sequence"),
            Map => f.write_str("map"),
            Enum => f.write_str("enum"),
            UnitVariant => f.write_str("unit variant"),
            NewtypeVariant => f.write_str("newtype variant"),
            TupleVariant => f.write_str("tuple variant"),
            StructVariant => f.write_str("struct variant"),
            Other(s) => f.write_str(s),
        }
    }
}

pub trait Expected {
    fn fmt(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result;
}

impl<'de, T: Visitor<'de>> Expected for T {
    fn fmt(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.expecting(formatter)
    }
}

impl Expected for &str {
    fn fmt(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
        formatter.write_str(self)
    }
}

impl Display for dyn Expected + '_ {
    fn fmt(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
        Expected::fmt(self, formatter)
    }
}

pub trait Deserialize<'de>: Sized {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

pub trait DeserializeSeed<'de>: Sized {
    type Value;
    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<Self::Value, D::Error>;
}

impl<'de, T: Deserialize<'de>> DeserializeSeed<'de> for PhantomData<T> {
    type Value = T;
    #[inline]
    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<T, D::Error> {
        T::deserialize(deserializer)
    }
}

pub trait Deserializer<'de>: Sized {
    type Error: Error;

    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_i8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_i16<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_i32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_i64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_i128<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, Self::Error> {
        Err(Error::custom("i128 is not supported"))
    }
    fn deserialize_u8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_u16<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_u32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_u64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_u128<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, Self::Error> {
        Err(Error::custom("u128 is not supported"))
    }
    fn deserialize_f32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_f64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_enum<V: Visitor<'de>>(
        self,
        name: &'static str,
        variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_identifier<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_ignored_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;

    fn is_human_readable(&self) -> bool {
        true
    }
}

macro_rules! visit_default {
    ($($method:ident($t:ty) => $unexp:expr,)*) => {$(
        fn $method<E: Error>(self, v: $t) -> Result<Self::Value, E> {
            #[allow(clippy::redundant_closure_call)]
            Err(Error::invalid_type(($unexp)(v), &self))
        }
    )*};
}

macro_rules! visit_forward {
    ($($method:ident($t:ty) => $to:ident as $wide:ty,)*) => {$(
        fn $method<E: Error>(self, v: $t) -> Result<Self::Value, E> {
            self.$to(v as $wide)
        }
    )*};
}

pub trait Visitor<'de>: Sized {
    type Value;

    fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result;

    visit_default! {
        visit_bool(bool) => Unexpected::Bool,
        visit_i64(i64) => Unexpected::Signed,
        visit_u64(u64) => Unexpected::Unsigned,
        visit_f64(f64) => Unexpected::Float,
        visit_str(&str) => Unexpected::Str,
        visit_bytes(&[u8]) => Unexpected::Bytes,
    }

    visit_forward! {
        visit_i8(i8) => visit_i64 as i64,
        visit_i16(i16) => visit_i64 as i64,
        visit_i32(i32) => visit_i64 as i64,
        visit_u8(u8) => visit_u64 as u64,
        visit_u16(u16) => visit_u64 as u64,
        visit_u32(u32) => visit_u64 as u64,
        visit_f32(f32) => visit_f64 as f64,
    }

    fn visit_char<E: Error>(self, v: char) -> Result<Self::Value, E> {
        self.visit_str(v.encode_utf8(&mut [0u8; 4]))
    }

    fn visit_borrowed_str<E: Error>(self, v: &'de str) -> Result<Self::Value, E> {
        self.visit_str(v)
    }

    fn visit_string<E: Error>(self, v: String) -> Result<Self::Value, E> {
        self.visit_str(&v)
    }

    fn visit_borrowed_bytes<E: Error>(self, v: &'de [u8]) -> Result<Self::Value, E> {
        self.visit_bytes(v)
    }

    fn visit_byte_buf<E: Error>(self, v: Vec<u8>) -> Result<Self::Value, E> {
        self.visit_bytes(&v)
    }

    fn visit_none<E: Error>(self) -> Result<Self::Value, E> {
        Err(Error::invalid_type(Unexpected::Option, &self))
    }

    fn visit_some<D: Deserializer<'de>>(self, deserializer: D) -> Result<Self::Value, D::Error> {
        let _ = deserializer;
        Err(Error::invalid_type(Unexpected::Option, &self))
    }

    fn visit_unit<E: Error>(self) -> Result<Self::Value, E> {
        Err(Error::invalid_type(Unexpected::Unit, &self))
    }

    fn visit_newtype_struct<D: Deserializer<'de>>(
        self,
        deserializer: D,
    ) -> Result<Self::Value, D::Error> {
        let _ = deserializer;
        Err(Error::invalid_type(Unexpected::NewtypeStruct, &self))
    }

    fn visit_seq<A: SeqAccess<'de>>(self, seq: A) -> Result<Self::Value, A::Error> {
        let _ = seq;
        Err(Error::invalid_type(Unexpected::Seq, &self))
    }

    fn visit_map<A: MapAccess<'de>>(self, map: A) -> Result<Self::Value, A::Error> {
        let _ = map;
        Err(Error::invalid_type(Unexpected::Map, &self))
    }

    fn visit_enum<A: EnumAccess<'de>>(self, data: A) -> Result<Self::Value, A::Error> {
        let _ = data;
        Err(Error::invalid_type(Unexpected::Enum, &self))
    }
}

pub trait SeqAccess<'de> {
    type Error: Error;

    fn next_element_seed<T: DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, Self::Error>;

    #[inline]
    fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, Self::Error> {
        self.next_element_seed(PhantomData)
    }

    fn size_hint(&self) -> Option<usize> {
        None
    }
}

impl<'de, A: SeqAccess<'de> + ?Sized> SeqAccess<'de> for &mut A {
    type Error = A::Error;

    fn next_element_seed<T: DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, A::Error> {
        (**self).next_element_seed(seed)
    }

    fn size_hint(&self) -> Option<usize> {
        (**self).size_hint()
    }
}

pub trait MapAccess<'de> {
    type Error: Error;

    fn next_key_seed<K: DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, Self::Error>;

    fn next_value_seed<V: DeserializeSeed<'de>>(
        &mut self,
        seed: V,
    ) -> Result<V::Value, Self::Error>;

    fn next_entry_seed<K: DeserializeSeed<'de>, V: DeserializeSeed<'de>>(
        &mut self,
        kseed: K,
        vseed: V,
    ) -> Result<Option<(K::Value, V::Value)>, Self::Error> {
        match self.next_key_seed(kseed)? {
            Some(key) => Ok(Some((key, self.next_value_seed(vseed)?))),
            None => Ok(None),
        }
    }

    #[inline]
    fn next_key<K: Deserialize<'de>>(&mut self) -> Result<Option<K>, Self::Error> {
        self.next_key_seed(PhantomData)
    }

    #[inline]
    fn next_value<V: Deserialize<'de>>(&mut self) -> Result<V, Self::Error> {
        self.next_value_seed(PhantomData)
    }

    fn next_entry<K: Deserialize<'de>, V: Deserialize<'de>>(
        &mut self,
    ) -> Result<Option<(K, V)>, Self::Error> {
        self.next_entry_seed(PhantomData, PhantomData)
    }

    fn size_hint(&self) -> Option<usize> {
        None
    }
}

impl<'de, A: MapAccess<'de> + ?Sized> MapAccess<'de> for &mut A {
    type Error = A::Error;

    fn next_key_seed<K: DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, A::Error> {
        (**self).next_key_seed(seed)
    }

    fn next_value_seed<V: DeserializeSeed<'de>>(&mut self, seed: V) -> Result<V::Value, A::Error> {
        (**self).next_value_seed(seed)
    }

    fn size_hint(&self) -> Option<usize> {
        (**self).size_hint()
    }
}

pub trait EnumAccess<'de>: Sized {
    type Error: Error;
    type Variant: VariantAccess<'de, Error = Self::Error>;

    fn variant_seed<V: DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self::Variant), Self::Error>;

    #[inline]
    fn variant<V: Deserialize<'de>>(self) -> Result<(V, Self::Variant), Self::Error> {
        self.variant_seed(PhantomData)
    }
}

pub trait VariantAccess<'de>: Sized {
    type Error: Error;

    fn unit_variant(self) -> Result<(), Self::Error>;

    fn newtype_variant_seed<T: DeserializeSeed<'de>>(
        self,
        seed: T,
    ) -> Result<T::Value, Self::Error>;

    #[inline]
    fn newtype_variant<T: Deserialize<'de>>(self) -> Result<T, Self::Error> {
        self.newtype_variant_seed(PhantomData)
    }

    fn tuple_variant<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;

    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
}

/// Accepts and discards any value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IgnoredAny;

impl<'de> Visitor<'de> for IgnoredAny {
    type Value = IgnoredAny;

    fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
        formatter.write_str("anything at all")
    }

    fn visit_bool<E: Error>(self, _: bool) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_i64<E: Error>(self, _: i64) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_u64<E: Error>(self, _: u64) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_f64<E: Error>(self, _: f64) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_str<E: Error>(self, _: &str) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_bytes<E: Error>(self, _: &[u8]) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_none<E: Error>(self) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_some<D: Deserializer<'de>>(self, deserializer: D) -> Result<IgnoredAny, D::Error> {
        IgnoredAny::deserialize(deserializer)
    }
    fn visit_unit<E: Error>(self) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_newtype_struct<D: Deserializer<'de>>(
        self,
        deserializer: D,
    ) -> Result<IgnoredAny, D::Error> {
        IgnoredAny::deserialize(deserializer)
    }
    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<IgnoredAny, A::Error> {
        while seq.next_element::<IgnoredAny>()?.is_some() {}
        Ok(IgnoredAny)
    }
    fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<IgnoredAny, A::Error> {
        while map.next_entry::<IgnoredAny, IgnoredAny>()?.is_some() {}
        Ok(IgnoredAny)
    }
    fn visit_enum<A: EnumAccess<'de>>(self, data: A) -> Result<IgnoredAny, A::Error> {
        data.variant::<IgnoredAny>()?.1.newtype_variant()
    }
}

impl<'de> Deserialize<'de> for IgnoredAny {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<IgnoredAny, D::Error> {
        deserializer.deserialize_ignored_any(IgnoredAny)
    }
}

// ---------------------------------------------------------------------------
// Deserialize for std types
// ---------------------------------------------------------------------------

macro_rules! integer {
    ($($t:ty => $method:ident,)*) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<$t, D::Error> {
                struct IntVisitor;
                impl<'de> Visitor<'de> for IntVisitor {
                    type Value = $t;
                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        f.write_str(stringify!($t))
                    }
                    fn visit_i64<E: Error>(self, v: i64) -> Result<$t, E> {
                        <$t>::try_from(v)
                            .map_err(|_| E::invalid_value(Unexpected::Signed(v), &self))
                    }
                    fn visit_u64<E: Error>(self, v: u64) -> Result<$t, E> {
                        <$t>::try_from(v)
                            .map_err(|_| E::invalid_value(Unexpected::Unsigned(v), &self))
                    }
                }
                deserializer.$method(IntVisitor)
            }
        }
    )*};
}

integer! {
    i8 => deserialize_i8, i16 => deserialize_i16, i32 => deserialize_i32, i64 => deserialize_i64,
    isize => deserialize_i64,
    u8 => deserialize_u8, u16 => deserialize_u16, u32 => deserialize_u32, u64 => deserialize_u64,
    usize => deserialize_u64,
}

macro_rules! float {
    ($($t:ty => $method:ident,)*) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<$t, D::Error> {
                struct FloatVisitor;
                impl<'de> Visitor<'de> for FloatVisitor {
                    type Value = $t;
                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        f.write_str(stringify!($t))
                    }
                    fn visit_f32<E: Error>(self, v: f32) -> Result<$t, E> {
                        Ok(v as $t)
                    }
                    fn visit_f64<E: Error>(self, v: f64) -> Result<$t, E> {
                        Ok(v as $t)
                    }
                    fn visit_i64<E: Error>(self, v: i64) -> Result<$t, E> {
                        Ok(v as $t)
                    }
                    fn visit_u64<E: Error>(self, v: u64) -> Result<$t, E> {
                        Ok(v as $t)
                    }
                }
                deserializer.$method(FloatVisitor)
            }
        }
    )*};
}

float! { f32 => deserialize_f32, f64 => deserialize_f64, }

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<bool, D::Error> {
        struct BoolVisitor;
        impl<'de> Visitor<'de> for BoolVisitor {
            type Value = bool;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a boolean")
            }
            fn visit_bool<E: Error>(self, v: bool) -> Result<bool, E> {
                Ok(v)
            }
        }
        deserializer.deserialize_bool(BoolVisitor)
    }
}

impl<'de> Deserialize<'de> for char {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<char, D::Error> {
        struct CharVisitor;
        impl<'de> Visitor<'de> for CharVisitor {
            type Value = char;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a character")
            }
            fn visit_char<E: Error>(self, v: char) -> Result<char, E> {
                Ok(v)
            }
            fn visit_str<E: Error>(self, v: &str) -> Result<char, E> {
                let mut chars = v.chars();
                match (chars.next(), chars.next()) {
                    (Some(c), None) => Ok(c),
                    _ => Err(E::invalid_value(Unexpected::Str(v), &self)),
                }
            }
        }
        deserializer.deserialize_char(CharVisitor)
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<String, D::Error> {
        struct StringVisitor;
        impl<'de> Visitor<'de> for StringVisitor {
            type Value = String;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a string")
            }
            fn visit_str<E: Error>(self, v: &str) -> Result<String, E> {
                Ok(v.to_owned())
            }
            fn visit_string<E: Error>(self, v: String) -> Result<String, E> {
                Ok(v)
            }
        }
        deserializer.deserialize_string(StringVisitor)
    }
}

impl<'de> Deserialize<'de> for () {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<(), D::Error> {
        struct UnitVisitor;
        impl<'de> Visitor<'de> for UnitVisitor {
            type Value = ();
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("unit")
            }
            fn visit_unit<E: Error>(self) -> Result<(), E> {
                Ok(())
            }
        }
        deserializer.deserialize_unit(UnitVisitor)
    }
}

impl<'de, T: ?Sized> Deserialize<'de> for PhantomData<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        IgnoredAny::deserialize(deserializer).map(|_| PhantomData)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Option<T>, D::Error> {
        struct OptionVisitor<T>(PhantomData<T>);
        impl<'de, T: Deserialize<'de>> Visitor<'de> for OptionVisitor<T> {
            type Value = Option<T>;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("option")
            }
            fn visit_unit<E: Error>(self) -> Result<Option<T>, E> {
                Ok(None)
            }
            fn visit_none<E: Error>(self) -> Result<Option<T>, E> {
                Ok(None)
            }
            fn visit_some<D: Deserializer<'de>>(
                self,
                deserializer: D,
            ) -> Result<Option<T>, D::Error> {
                T::deserialize(deserializer).map(Some)
            }
        }
        deserializer.deserialize_option(OptionVisitor(PhantomData))
    }
}

/// Bound a pre-allocation taken from an untrusted length hint.
fn cautious(hint: Option<usize>) -> usize {
    hint.unwrap_or(0).min(1 << 16)
}

macro_rules! seq_impl {
    ($(<$t:ident $(: $b1:ident $(+ $b2:ident)*)? $(, $s:ident: $sb1:ident + $sb2:ident)?> $ty:ty,
       |$hint:ident| $new:expr, $push:ident;)*) => {$(
        impl<'de, $t: Deserialize<'de> $(+ $b1 $(+ $b2)*)? $(, $s: $sb1 + $sb2)?> Deserialize<'de> for $ty {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                struct SeqVisitor<$t $(, $s)?>(PhantomData<($t, $($s,)?)>);
                impl<'de, $t: Deserialize<'de> $(+ $b1 $(+ $b2)*)? $(, $s: $sb1 + $sb2)?> Visitor<'de>
                    for SeqVisitor<$t $(, $s)?>
                {
                    type Value = $ty;
                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        f.write_str("a sequence")
                    }
                    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<$ty, A::Error> {
                        let $hint = cautious(seq.size_hint());
                        let mut out = $new;
                        while let Some(item) = seq.next_element()? {
                            out.$push(item);
                        }
                        Ok(out)
                    }
                }
                deserializer.deserialize_seq(SeqVisitor(PhantomData))
            }
        }
    )*};
}

seq_impl! {
    <T> Vec<T>, |n| Vec::with_capacity(n), push;
    <T> std::collections::VecDeque<T>, |n| std::collections::VecDeque::with_capacity(n), push_back;
    <T: Ord> std::collections::BTreeSet<T>, |_n| std::collections::BTreeSet::new(), insert;
    <T: Eq + Hash, S: BuildHasher + Default> std::collections::HashSet<T, S>,
        |n| std::collections::HashSet::with_capacity_and_hasher(n, S::default()), insert;
}

use std::hash::{BuildHasher, Hash};

macro_rules! map_impl {
    ($(<$k:ident: $kb1:ident $(+ $kb2:ident)*, $v:ident $(, $s:ident: $sb1:ident + $sb2:ident)?> $ty:ty,
       |$hint:ident| $new:expr;)*) => {$(
        impl<'de, $k: Deserialize<'de> + $kb1 $(+ $kb2)*, $v: Deserialize<'de> $(, $s: $sb1 + $sb2)?>
            Deserialize<'de> for $ty
        {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                struct MapVisitor<$k, $v $(, $s)?>(PhantomData<($k, $v $(, $s)?)>);
                impl<'de, $k: Deserialize<'de> + $kb1 $(+ $kb2)*, $v: Deserialize<'de> $(, $s: $sb1 + $sb2)?>
                    Visitor<'de> for MapVisitor<$k, $v $(, $s)?>
                {
                    type Value = $ty;
                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        f.write_str("a map")
                    }
                    fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<$ty, A::Error> {
                        let $hint = cautious(map.size_hint());
                        let mut out = $new;
                        while let Some((key, value)) = map.next_entry()? {
                            out.insert(key, value);
                        }
                        Ok(out)
                    }
                }
                deserializer.deserialize_map(MapVisitor(PhantomData))
            }
        }
    )*};
}

map_impl! {
    <K: Ord, V> std::collections::BTreeMap<K, V>, |_n| std::collections::BTreeMap::new();
    <K: Eq + Hash, V, S: BuildHasher + Default> std::collections::HashMap<K, V, S>,
        |n| std::collections::HashMap::with_capacity_and_hasher(n, S::default());
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct ArrayVisitor<T, const N: usize>(PhantomData<T>);
        impl<'de, T: Deserialize<'de>, const N: usize> Visitor<'de> for ArrayVisitor<T, N> {
            type Value = [T; N];
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "an array of length {N}")
            }
            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<[T; N], A::Error> {
                let mut items = Vec::with_capacity(N);
                for i in 0..N {
                    match seq.next_element()? {
                        Some(item) => items.push(item),
                        None => return Err(Error::invalid_length(i, &self)),
                    }
                }
                items
                    .try_into()
                    .map_err(|_| Error::custom("array length mismatch"))
            }
        }
        deserializer.deserialize_tuple(N, ArrayVisitor::<T, N>(PhantomData))
    }
}

macro_rules! tuple_impl {
    ($(($len:expr => $($t:ident)+))+) => {$(
        impl<'de, $($t: Deserialize<'de>),+> Deserialize<'de> for ($($t,)+) {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                struct TupleVisitor<$($t),+>(PhantomData<($($t,)+)>);
                impl<'de, $($t: Deserialize<'de>),+> Visitor<'de> for TupleVisitor<$($t),+> {
                    type Value = ($($t,)+);
                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        write!(f, "a tuple of size {}", $len)
                    }
                    #[allow(non_snake_case)]
                    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Self::Value, A::Error> {
                        let mut index = 0usize;
                        $(
                            let $t = match seq.next_element()? {
                                Some(value) => value,
                                None => return Err(Error::invalid_length(index, &self)),
                            };
                            index += 1;
                        )+
                        let _ = index;
                        Ok(($($t,)+))
                    }
                }
                deserializer.deserialize_tuple($len, TupleVisitor(PhantomData))
            }
        }
    )+};
}

tuple_impl! {
    (1 => T0)
    (2 => T0 T1)
    (3 => T0 T1 T2)
    (4 => T0 T1 T2 T3)
    (5 => T0 T1 T2 T3 T4)
    (6 => T0 T1 T2 T3 T4 T5)
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        T::deserialize(deserializer).map(Box::new)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<[T]> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Vec::<T>::deserialize(deserializer).map(Vec::into_boxed_slice)
    }
}

impl<'de> Deserialize<'de> for Box<str> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        String::deserialize(deserializer).map(String::into_boxed_str)
    }
}

// The `rc` feature of the published crate: shared pointers decode
// through the matching `Box`, with no attempt to preserve sharing.
impl<'de, T: ?Sized> Deserialize<'de> for std::sync::Arc<T>
where
    Box<T>: Deserialize<'de>,
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Box::<T>::deserialize(deserializer).map(Into::into)
    }
}

impl<'de, T: ?Sized> Deserialize<'de> for std::rc::Rc<T>
where
    Box<T>: Deserialize<'de>,
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Box::<T>::deserialize(deserializer).map(Into::into)
    }
}

impl<'de> Deserialize<'de> for std::path::PathBuf {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        String::deserialize(deserializer).map(Into::into)
    }
}

impl<'de> Deserialize<'de> for std::time::Duration {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct DurationVisitor;
        impl<'de> Visitor<'de> for DurationVisitor {
            type Value = std::time::Duration;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("struct Duration")
            }
            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Self::Value, A::Error> {
                let secs: u64 = seq
                    .next_element()?
                    .ok_or_else(|| Error::invalid_length(0, &self))?;
                let nanos: u32 = seq
                    .next_element()?
                    .ok_or_else(|| Error::invalid_length(1, &self))?;
                Ok(std::time::Duration::new(secs, nanos))
            }
            fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<Self::Value, A::Error> {
                let (mut secs, mut nanos) = (None, None);
                while let Some(key) = map.next_key::<String>()? {
                    match key.as_str() {
                        "secs" => secs = Some(map.next_value::<u64>()?),
                        "nanos" => nanos = Some(map.next_value::<u32>()?),
                        _ => {
                            map.next_value::<IgnoredAny>()?;
                        }
                    }
                }
                let secs = secs.ok_or_else(|| Error::missing_field("secs"))?;
                let nanos = nanos.ok_or_else(|| Error::missing_field("nanos"))?;
                Ok(std::time::Duration::new(secs, nanos))
            }
        }
        deserializer.deserialize_struct("Duration", &["secs", "nanos"], DurationVisitor)
    }
}
