//! Offline stand-in for `serde_derive`: `#[derive(Serialize, Deserialize)]`
//! for the item shapes vq declares — non-generic structs (named, tuple,
//! unit) and enums (unit, newtype, tuple and struct variants), with the
//! field attribute `#[serde(default)]`. Anything else is a compile error
//! rather than a silently different encoding.
//!
//! No `syn`/`quote`: the item is read straight off the token stream and
//! the impl is emitted as source text. The emitted calls are the ones the
//! published derive makes (`serialize_struct` + `serialize_field`,
//! externally tagged variants, `deserialize_struct` with a field-name
//! identifier and both `visit_map` and `visit_seq`).

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::fmt::Write;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}

fn expand(input: TokenStream, gen: fn(&Item) -> String) -> TokenStream {
    let source = match parse_item(input) {
        Ok(item) => gen(&item),
        Err(message) => format!("compile_error!({message:?});"),
    };
    source.parse().expect("derive emitted invalid Rust")
}

// ---------------------------------------------------------------------------
// Item model and parser
// ---------------------------------------------------------------------------

struct Field {
    /// `None` in tuple position.
    name: Option<String>,
    default: bool,
}

enum Fields {
    Unit,
    Tuple(Vec<Field>),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Body {
    Struct(Fields),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    body: Body,
}

type Tokens = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

/// Consume leading `#[...]` attributes; report whether one of them was
/// `#[serde(default)]`. Any other `#[serde(...)]` content is rejected.
fn take_attrs(tokens: &mut Tokens) -> Result<bool, String> {
    let mut default = false;
    while matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        tokens.next();
        let Some(TokenTree::Group(attr)) = tokens.next() else {
            return Err("expected `[...]` after `#`".into());
        };
        let mut inner = attr.stream().into_iter();
        if !matches!(inner.next(), Some(TokenTree::Ident(id)) if id.to_string() == "serde") {
            continue;
        }
        let args = match inner.next() {
            Some(TokenTree::Group(g)) => g.stream().to_string(),
            _ => String::new(),
        };
        if args.trim() == "default" {
            default = true;
        } else {
            return Err(format!(
                "the offline serde_derive stand-in supports only #[serde(default)], found #[serde({args})]"
            ));
        }
    }
    Ok(default)
}

/// Consume `pub`, `pub(crate)`, `pub(in path)`.
fn take_visibility(tokens: &mut Tokens) {
    if matches!(tokens.peek(), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        tokens.next();
        if matches!(tokens.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            tokens.next();
        }
    }
}

/// Skip one type (or discriminant expression) up to a top-level `,`.
fn skip_to_comma(tokens: &mut Tokens) {
    let mut angle_depth = 0usize;
    while let Some(token) = tokens.peek() {
        if let TokenTree::Punct(p) = token {
            match p.as_char() {
                ',' if angle_depth == 0 => break,
                '<' => angle_depth += 1,
                '>' => angle_depth = angle_depth.saturating_sub(1),
                _ => {}
            }
        }
        tokens.next();
    }
    tokens.next();
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let mut tokens = stream.into_iter().peekable();
    let mut fields = Vec::new();
    while tokens.peek().is_some() {
        let default = take_attrs(&mut tokens)?;
        take_visibility(&mut tokens);
        let Some(TokenTree::Ident(name)) = tokens.next() else {
            return Err("expected a field name".into());
        };
        if !matches!(tokens.next(), Some(TokenTree::Punct(p)) if p.as_char() == ':') {
            return Err(format!("expected `:` after field `{name}`"));
        }
        skip_to_comma(&mut tokens);
        let name = name.to_string();
        fields.push(Field {
            name: Some(name.trim_start_matches("r#").to_string()),
            default,
        });
    }
    Ok(fields)
}

fn parse_tuple_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let mut tokens = stream.into_iter().peekable();
    let mut fields = Vec::new();
    while tokens.peek().is_some() {
        let default = take_attrs(&mut tokens)?;
        take_visibility(&mut tokens);
        skip_to_comma(&mut tokens);
        fields.push(Field {
            name: None,
            default,
        });
    }
    Ok(fields)
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let mut tokens = stream.into_iter().peekable();
    let mut variants = Vec::new();
    while tokens.peek().is_some() {
        take_attrs(&mut tokens)?;
        let Some(TokenTree::Ident(name)) = tokens.next() else {
            return Err("expected a variant name".into());
        };
        let fields = match tokens.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let stream = g.stream();
                tokens.next();
                Fields::Named(parse_named_fields(stream)?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let stream = g.stream();
                tokens.next();
                Fields::Tuple(parse_tuple_fields(stream)?)
            }
            _ => Fields::Unit,
        };
        // An explicit discriminant (`= 3`), then the separating comma.
        skip_to_comma(&mut tokens);
        variants.push(Variant {
            name: name.to_string(),
            fields,
        });
    }
    Ok(variants)
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut tokens = input.into_iter().peekable();
    take_attrs(&mut tokens)?;
    take_visibility(&mut tokens);
    let Some(TokenTree::Ident(kind)) = tokens.next() else {
        return Err("expected `struct` or `enum`".into());
    };
    let Some(TokenTree::Ident(name)) = tokens.next() else {
        return Err("expected the item name".into());
    };
    let name = name.to_string();
    if matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "the offline serde_derive stand-in does not support generic items (`{name}`)"
        ));
    }
    let body = match (kind.to_string().as_str(), tokens.next()) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Body::Struct(Fields::Named(parse_named_fields(g.stream())?))
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            Body::Struct(Fields::Tuple(parse_tuple_fields(g.stream())?))
        }
        ("struct", Some(TokenTree::Punct(p))) if p.as_char() == ';' => Body::Struct(Fields::Unit),
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Body::Enum(parse_variants(g.stream())?)
        }
        (kind, _) => return Err(format!("cannot derive serde traits for this `{kind}` item")),
    };
    Ok(Item { name, body })
}

// ---------------------------------------------------------------------------
// Serialize
// ---------------------------------------------------------------------------

fn field_name(field: &Field) -> &str {
    field.name.as_deref().expect("named field")
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let mut body = String::new();
    match &item.body {
        Body::Struct(Fields::Unit) => {
            write!(body, "__s.serialize_unit_struct({name:?})").unwrap();
        }
        Body::Struct(Fields::Tuple(fields)) if fields.len() == 1 => {
            write!(body, "__s.serialize_newtype_struct({name:?}, &self.0)").unwrap();
        }
        Body::Struct(Fields::Tuple(fields)) => {
            write!(
                body,
                "let mut __st = __s.serialize_tuple_struct({name:?}, {})?;",
                fields.len()
            )
            .unwrap();
            for i in 0..fields.len() {
                write!(
                    body,
                    "::serde::ser::SerializeTupleStruct::serialize_field(&mut __st, &self.{i})?;"
                )
                .unwrap();
            }
            body.push_str("::serde::ser::SerializeTupleStruct::end(__st)");
        }
        Body::Struct(Fields::Named(fields)) => {
            write!(
                body,
                "let mut __st = __s.serialize_struct({name:?}, {})?;",
                fields.len()
            )
            .unwrap();
            for field in fields {
                let f = field_name(field);
                write!(
                    body,
                    "::serde::ser::SerializeStruct::serialize_field(&mut __st, {f:?}, &self.{f})?;"
                )
                .unwrap();
            }
            body.push_str("::serde::ser::SerializeStruct::end(__st)");
        }
        Body::Enum(variants) => {
            body.push_str("match *self {");
            for (index, variant) in variants.iter().enumerate() {
                let v = &variant.name;
                match &variant.fields {
                    Fields::Unit => write!(
                        body,
                        "{name}::{v} => __s.serialize_unit_variant({name:?}, {index}u32, {v:?}),"
                    )
                    .unwrap(),
                    Fields::Tuple(fields) if fields.len() == 1 => write!(
                        body,
                        "{name}::{v}(ref __f0) => \
                         __s.serialize_newtype_variant({name:?}, {index}u32, {v:?}, __f0),"
                    )
                    .unwrap(),
                    Fields::Tuple(fields) => {
                        let binds: Vec<String> =
                            (0..fields.len()).map(|i| format!("ref __f{i}")).collect();
                        write!(
                            body,
                            "{name}::{v}({}) => {{ let mut __st = \
                             __s.serialize_tuple_variant({name:?}, {index}u32, {v:?}, {})?;",
                            binds.join(", "),
                            fields.len()
                        )
                        .unwrap();
                        for i in 0..fields.len() {
                            write!(
                                body,
                                "::serde::ser::SerializeTupleVariant::serialize_field(&mut __st, __f{i})?;"
                            )
                            .unwrap();
                        }
                        body.push_str("::serde::ser::SerializeTupleVariant::end(__st) }");
                    }
                    Fields::Named(fields) => {
                        let binds: Vec<String> = fields
                            .iter()
                            .map(|f| format!("ref {}", field_name(f)))
                            .collect();
                        write!(
                            body,
                            "{name}::{v} {{ {} }} => {{ let mut __st = \
                             __s.serialize_struct_variant({name:?}, {index}u32, {v:?}, {})?;",
                            binds.join(", "),
                            fields.len()
                        )
                        .unwrap();
                        for field in fields {
                            let f = field_name(field);
                            write!(
                                body,
                                "::serde::ser::SerializeStructVariant::serialize_field(&mut __st, {f:?}, {f})?;"
                            )
                            .unwrap();
                        }
                        body.push_str("::serde::ser::SerializeStructVariant::end(__st) }");
                    }
                }
            }
            body.push('}');
        }
    }
    format!(
        "#[automatically_derived] impl ::serde::Serialize for {name} {{ \
         fn serialize<__S: ::serde::Serializer>(&self, __s: __S) \
         -> ::core::result::Result<__S::Ok, __S::Error> {{ {body} }} }}"
    )
}

// ---------------------------------------------------------------------------
// Deserialize
// ---------------------------------------------------------------------------

/// An identifier enum `ident` with one variant per name, decoding from a
/// string (or an index). Unknown names map to `__Ignore` when
/// `ignore_unknown`, else to `unknown_variant`.
fn gen_identifier(ident: &str, names: &[&str], ignore_unknown: bool) -> String {
    let mut variants = String::new();
    let mut by_str = String::new();
    let mut by_index = String::new();
    for (i, n) in names.iter().enumerate() {
        write!(variants, "__V{i},").unwrap();
        write!(
            by_str,
            "{n:?} => ::core::result::Result::Ok({ident}::__V{i}),"
        )
        .unwrap();
        write!(
            by_index,
            "{i}u64 => ::core::result::Result::Ok({ident}::__V{i}),"
        )
        .unwrap();
    }
    let names_list = format!(
        "&[{}]",
        names
            .iter()
            .map(|n| format!("{n:?}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let (unknown_str, unknown_index) = if ignore_unknown {
        variants.push_str("__Ignore,");
        (
            format!("_ => ::core::result::Result::Ok({ident}::__Ignore),"),
            format!("_ => ::core::result::Result::Ok({ident}::__Ignore),"),
        )
    } else {
        (
            format!(
                "_ => ::core::result::Result::Err(::serde::de::Error::unknown_variant(__v, {names_list})),"
            ),
            format!(
                "_ => ::core::result::Result::Err(::serde::de::Error::invalid_value(\
                 ::serde::de::Unexpected::Unsigned(__v), &\"a variant index\")),"
            ),
        )
    };
    format!(
        "#[allow(non_camel_case_types)] enum {ident} {{ {variants} }} \
         impl<'de> ::serde::Deserialize<'de> for {ident} {{ \
           fn deserialize<__D: ::serde::Deserializer<'de>>(__d: __D) \
             -> ::core::result::Result<Self, __D::Error> {{ \
             struct __IdVisitor; \
             impl<'de> ::serde::de::Visitor<'de> for __IdVisitor {{ \
               type Value = {ident}; \
               fn expecting(&self, __f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {{ \
                 __f.write_str(\"an identifier\") }} \
               fn visit_str<__E: ::serde::de::Error>(self, __v: &str) \
                 -> ::core::result::Result<{ident}, __E> {{ match __v {{ {by_str} {unknown_str} }} }} \
               fn visit_bytes<__E: ::serde::de::Error>(self, __v: &[u8]) \
                 -> ::core::result::Result<{ident}, __E> {{ \
                 match ::core::str::from_utf8(__v) {{ \
                   ::core::result::Result::Ok(__s) => self.visit_str(__s), \
                   ::core::result::Result::Err(_) => ::core::result::Result::Err(\
                     ::serde::de::Error::invalid_value(::serde::de::Unexpected::Bytes(__v), &self)), }} }} \
               fn visit_u64<__E: ::serde::de::Error>(self, __v: u64) \
                 -> ::core::result::Result<{ident}, __E> {{ match __v {{ {by_index} {unknown_index} }} }} \
             }} \
             __d.deserialize_identifier(__IdVisitor) }} }}"
    )
}

/// A visitor struct `visitor` building `ctor { fields }` from a map or a
/// sequence, plus the identifier enum and the `FIELDS` constant it needs.
fn gen_named_visitor(
    visitor: &str,
    value: &str,
    ctor: &str,
    expecting: &str,
    fields: &[Field],
) -> String {
    let names: Vec<&str> = fields.iter().map(field_name).collect();
    let field_enum = format!("{visitor}Field");
    let identifier = gen_identifier(&field_enum, &names, true);
    let mut seq = String::new();
    let mut declare = String::new();
    let mut arms = String::new();
    let mut finish = String::new();
    let mut build = String::new();
    for (i, field) in fields.iter().enumerate() {
        let f = field_name(field);
        let missing_in_seq = if field.default {
            "::core::default::Default::default()".to_string()
        } else {
            format!(
                "return ::core::result::Result::Err(::serde::de::Error::invalid_length({i}, &{expecting:?}))"
            )
        };
        write!(
            seq,
            "let __f{i} = match ::serde::de::SeqAccess::next_element(&mut __seq)? {{ \
               ::core::option::Option::Some(__v) => __v, \
               ::core::option::Option::None => {missing_in_seq}, }};"
        )
        .unwrap();
        write!(declare, "let mut __f{i} = ::core::option::Option::None;").unwrap();
        write!(
            arms,
            "{field_enum}::__V{i} => {{ \
               if ::core::option::Option::is_some(&__f{i}) {{ \
                 return ::core::result::Result::Err(::serde::de::Error::duplicate_field({f:?})); }} \
               __f{i} = ::core::option::Option::Some(::serde::de::MapAccess::next_value(&mut __map)?); }}"
        )
        .unwrap();
        let missing_in_map = if field.default {
            "::core::default::Default::default()".to_string()
        } else {
            format!("::serde::__private::missing_field({f:?})?")
        };
        write!(
            finish,
            "let __f{i} = match __f{i} {{ \
               ::core::option::Option::Some(__v) => __v, \
               ::core::option::Option::None => {missing_in_map}, }};"
        )
        .unwrap();
        write!(build, "{f}: __f{i},").unwrap();
    }
    format!(
        "{identifier} \
         struct {visitor}; \
         impl<'de> ::serde::de::Visitor<'de> for {visitor} {{ \
           type Value = {value}; \
           fn expecting(&self, __f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {{ \
             __f.write_str({expecting:?}) }} \
           fn visit_seq<__A: ::serde::de::SeqAccess<'de>>(self, mut __seq: __A) \
             -> ::core::result::Result<{value}, __A::Error> {{ \
             {seq} ::core::result::Result::Ok({ctor} {{ {build} }}) }} \
           fn visit_map<__A: ::serde::de::MapAccess<'de>>(self, mut __map: __A) \
             -> ::core::result::Result<{value}, __A::Error> {{ \
             {declare} \
             while let ::core::option::Option::Some(__key) = \
               ::serde::de::MapAccess::next_key::<{field_enum}>(&mut __map)? {{ \
               match __key {{ {arms} \
                 {field_enum}::__Ignore => {{ \
                   ::serde::de::MapAccess::next_value::<::serde::de::IgnoredAny>(&mut __map)?; }} }} }} \
             {finish} ::core::result::Result::Ok({ctor} {{ {build} }}) }} \
         }}"
    )
}

/// A visitor struct `visitor` building `ctor(f0, f1, ..)` from a sequence.
fn gen_tuple_visitor(
    visitor: &str,
    value: &str,
    ctor: &str,
    expecting: &str,
    len: usize,
) -> String {
    let mut seq = String::new();
    let mut build = String::new();
    for i in 0..len {
        write!(
            seq,
            "let __f{i} = match ::serde::de::SeqAccess::next_element(&mut __seq)? {{ \
               ::core::option::Option::Some(__v) => __v, \
               ::core::option::Option::None => return ::core::result::Result::Err(\
                 ::serde::de::Error::invalid_length({i}, &{expecting:?})), }};"
        )
        .unwrap();
        write!(build, "__f{i},").unwrap();
    }
    format!(
        "struct {visitor}; \
         impl<'de> ::serde::de::Visitor<'de> for {visitor} {{ \
           type Value = {value}; \
           fn expecting(&self, __f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {{ \
             __f.write_str({expecting:?}) }} \
           fn visit_seq<__A: ::serde::de::SeqAccess<'de>>(self, mut __seq: __A) \
             -> ::core::result::Result<{value}, __A::Error> {{ \
             {seq} ::core::result::Result::Ok({ctor}({build})) }} \
         }}"
    )
}

fn names_const(names: &[&str]) -> String {
    format!(
        "&[{}]",
        names
            .iter()
            .map(|n| format!("{n:?}"))
            .collect::<Vec<_>>()
            .join(", ")
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(Fields::Unit) => format!(
            "struct __Visitor; \
             impl<'de> ::serde::de::Visitor<'de> for __Visitor {{ \
               type Value = {name}; \
               fn expecting(&self, __f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {{ \
                 __f.write_str(\"unit struct {name}\") }} \
               fn visit_unit<__E: ::serde::de::Error>(self) -> ::core::result::Result<{name}, __E> {{ \
                 ::core::result::Result::Ok({name}) }} }} \
             __d.deserialize_unit_struct({name:?}, __Visitor)"
        ),
        Body::Struct(Fields::Tuple(fields)) if fields.len() == 1 => format!(
            "struct __Visitor; \
             impl<'de> ::serde::de::Visitor<'de> for __Visitor {{ \
               type Value = {name}; \
               fn expecting(&self, __f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {{ \
                 __f.write_str(\"tuple struct {name}\") }} \
               fn visit_newtype_struct<__D2: ::serde::Deserializer<'de>>(self, __d2: __D2) \
                 -> ::core::result::Result<{name}, __D2::Error> {{ \
                 ::core::result::Result::Ok({name}(::serde::Deserialize::deserialize(__d2)?)) }} \
               fn visit_seq<__A: ::serde::de::SeqAccess<'de>>(self, mut __seq: __A) \
                 -> ::core::result::Result<{name}, __A::Error> {{ \
                 match ::serde::de::SeqAccess::next_element(&mut __seq)? {{ \
                   ::core::option::Option::Some(__v) => ::core::result::Result::Ok({name}(__v)), \
                   ::core::option::Option::None => ::core::result::Result::Err(\
                     ::serde::de::Error::invalid_length(0, &\"tuple struct {name} with 1 element\")), }} }} }} \
             __d.deserialize_newtype_struct({name:?}, __Visitor)"
        ),
        Body::Struct(Fields::Tuple(fields)) => format!(
            "{} __d.deserialize_tuple_struct({name:?}, {}, __Visitor)",
            gen_tuple_visitor("__Visitor", name, name, &format!("tuple struct {name}"), fields.len()),
            fields.len()
        ),
        Body::Struct(Fields::Named(fields)) => {
            let names: Vec<&str> = fields.iter().map(field_name).collect();
            format!(
                "{} __d.deserialize_struct({name:?}, {}, __Visitor)",
                gen_named_visitor("__Visitor", name, name, &format!("struct {name}"), fields),
                names_const(&names)
            )
        }
        Body::Enum(variants) => {
            let names: Vec<&str> = variants.iter().map(|v| v.name.as_str()).collect();
            let mut helpers = gen_identifier("__Variant", &names, false);
            let mut arms = String::new();
            for (i, variant) in variants.iter().enumerate() {
                let v = &variant.name;
                let ctor = format!("{name}::{v}");
                match &variant.fields {
                    Fields::Unit => write!(
                        arms,
                        "(__Variant::__V{i}, __access) => {{ \
                           ::serde::de::VariantAccess::unit_variant(__access)?; \
                           ::core::result::Result::Ok({ctor}) }}"
                    )
                    .unwrap(),
                    Fields::Tuple(fields) if fields.len() == 1 => write!(
                        arms,
                        "(__Variant::__V{i}, __access) => ::core::result::Result::map(\
                           ::serde::de::VariantAccess::newtype_variant(__access), {ctor}),"
                    )
                    .unwrap(),
                    Fields::Tuple(fields) => {
                        let visitor = format!("__Tuple{i}");
                        helpers.push_str(&gen_tuple_visitor(
                            &visitor,
                            name,
                            &ctor,
                            &format!("tuple variant {ctor}"),
                            fields.len(),
                        ));
                        write!(
                            arms,
                            "(__Variant::__V{i}, __access) => \
                             ::serde::de::VariantAccess::tuple_variant(__access, {}, {visitor}),",
                            fields.len()
                        )
                        .unwrap();
                    }
                    Fields::Named(fields) => {
                        let visitor = format!("__Struct{i}");
                        helpers.push_str(&gen_named_visitor(
                            &visitor,
                            name,
                            &ctor,
                            &format!("struct variant {ctor}"),
                            fields,
                        ));
                        let field_names: Vec<&str> = fields.iter().map(field_name).collect();
                        write!(
                            arms,
                            "(__Variant::__V{i}, __access) => \
                             ::serde::de::VariantAccess::struct_variant(__access, {}, {visitor}),",
                            names_const(&field_names)
                        )
                        .unwrap();
                    }
                }
            }
            format!(
                "{helpers} \
                 struct __Visitor; \
                 impl<'de> ::serde::de::Visitor<'de> for __Visitor {{ \
                   type Value = {name}; \
                   fn expecting(&self, __f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {{ \
                     __f.write_str(\"enum {name}\") }} \
                   fn visit_enum<__A: ::serde::de::EnumAccess<'de>>(self, __data: __A) \
                     -> ::core::result::Result<{name}, __A::Error> {{ \
                     match ::serde::de::EnumAccess::variant::<__Variant>(__data)? {{ {arms} }} }} }} \
                 __d.deserialize_enum({name:?}, {}, __Visitor)",
                names_const(&names)
            )
        }
    };
    format!(
        "#[automatically_derived] impl<'de> ::serde::Deserialize<'de> for {name} {{ \
         fn deserialize<__D: ::serde::Deserializer<'de>>(__d: __D) \
         -> ::core::result::Result<Self, __D::Error> {{ {body} }} }}"
    )
}
