//! Offline stand-in for `serde` 1.x.
//!
//! The data-model traits carry the published signatures, so vq's
//! hand-written `vbin` `Serializer`/`Deserializer` and custom `Visitor`s
//! compile against it unchanged, and the derive macros (`serde_derive`
//! beside this crate) emit the same calls the published derive does:
//! structs as named-field maps, enums externally tagged, `#[serde(default)]`
//! honoured. Formats written by a registry build decode here and the
//! reverse.

pub mod de;
pub mod ser;

pub use de::{Deserialize, Deserializer};
pub use ser::{Serialize, Serializer};

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// Support code for the derive macros.
#[doc(hidden)]
pub mod __private {
    use crate::de::{Deserialize, Deserializer, Error, Visitor};
    use std::marker::PhantomData;

    /// What a derived `visit_map` yields for an absent field: `None` for
    /// an `Option`, `missing_field` for everything else.
    pub fn missing_field<'de, V: Deserialize<'de>, E: Error>(field: &'static str) -> Result<V, E> {
        struct Missing<E>(&'static str, PhantomData<E>);

        macro_rules! always_missing {
            ($($method:ident($($arg:ident: $ty:ty),*))*) => {$(
                fn $method<V: Visitor<'de>>(self, $($arg: $ty,)* _visitor: V) -> Result<V::Value, E> {
                    Err(Error::missing_field(self.0))
                }
            )*};
        }

        impl<'de, E: Error> Deserializer<'de> for Missing<E> {
            type Error = E;

            fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
                visitor.visit_none()
            }

            always_missing! {
                deserialize_any() deserialize_bool() deserialize_i8() deserialize_i16()
                deserialize_i32() deserialize_i64() deserialize_u8() deserialize_u16()
                deserialize_u32() deserialize_u64() deserialize_f32() deserialize_f64()
                deserialize_char() deserialize_str() deserialize_string() deserialize_bytes()
                deserialize_byte_buf() deserialize_unit() deserialize_seq() deserialize_map()
                deserialize_identifier() deserialize_ignored_any()
                deserialize_unit_struct(_name: &'static str)
                deserialize_newtype_struct(_name: &'static str)
                deserialize_tuple(_len: usize)
                deserialize_tuple_struct(_name: &'static str, _len: usize)
                deserialize_struct(_name: &'static str, _fields: &'static [&'static str])
                deserialize_enum(_name: &'static str, _variants: &'static [&'static str])
            }
        }

        V::deserialize(Missing(field, PhantomData))
    }
}
