//! `#[derive(Serialize, Deserialize)]` for the offline serde stand-in.
//!
//! Written against `proc_macro` alone (no `syn`/`quote`): the item is read
//! token by token and the impl is assembled as source text. It covers what
//! the ipa crates derive on: structs (named, tuple, unit) and enums (unit,
//! newtype, tuple and struct variants) without generic parameters, with
//! the attributes `rename_all`, `default` and `default = "path"`. Anything
//! else stops the build with a message instead of deriving wrongly.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Default)]
struct Attrs {
    rename_all: Option<String>,
    /// `Some(None)` for `default`, `Some(Some(path))` for `default = "path"`.
    default: Option<Option<String>>,
}

struct Field {
    /// Name in Rust source.
    ident: String,
    /// Key in JSON.
    key: String,
    default: Option<Option<String>>,
}

enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Variant {
    ident: String,
    key: String,
    shape: Shape,
}

enum Body {
    Struct(Shape),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    body: Body,
}

fn rename(ident: &str, rule: Option<&str>) -> String {
    match rule {
        None => ident.to_string(),
        Some("lowercase") => ident.to_lowercase(),
        Some("snake_case") => {
            let mut out = String::new();
            for (i, c) in ident.chars().enumerate() {
                if c.is_uppercase() && i > 0 {
                    out.push('_');
                }
                out.extend(c.to_lowercase());
            }
            out
        }
        Some(other) => panic!("serde stand-in: rename_all = \"{other}\" is not supported"),
    }
}

/// Read `#[...]` attributes off the front of `tokens`, keeping what the
/// `serde(...)` ones say.
fn take_attrs(tokens: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>) -> Attrs {
    let mut attrs = Attrs::default();
    while matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        tokens.next();
        let Some(TokenTree::Group(group)) = tokens.next() else {
            panic!("serde stand-in: malformed attribute");
        };
        let mut inner = group.stream().into_iter();
        match (inner.next(), inner.next()) {
            (Some(TokenTree::Ident(name)), Some(TokenTree::Group(args)))
                if name.to_string() == "serde" =>
            {
                parse_serde_args(args.stream(), &mut attrs);
            }
            _ => {}
        }
    }
    attrs
}

fn parse_serde_args(args: TokenStream, attrs: &mut Attrs) {
    let mut args = args.into_iter().peekable();
    while let Some(tok) = args.next() {
        let TokenTree::Ident(name) = tok else {
            panic!("serde stand-in: unexpected token `{tok}` in #[serde(...)]");
        };
        let value = match args.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                args.next();
                match args.next() {
                    Some(TokenTree::Literal(lit)) => {
                        Some(lit.to_string().trim_matches('"').to_string())
                    }
                    other => panic!("serde stand-in: expected a string, found {other:?}"),
                }
            }
            _ => None,
        };
        match (name.to_string().as_str(), value) {
            ("rename_all", Some(rule)) => attrs.rename_all = Some(rule),
            ("default", path) => attrs.default = Some(path),
            (other, _) => panic!("serde stand-in: attribute `{other}` is not supported"),
        }
        if let Some(TokenTree::Punct(p)) = args.peek() {
            if p.as_char() == ',' {
                args.next();
            }
        }
    }
}

fn skip_visibility(tokens: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>) {
    if matches!(tokens.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        tokens.next();
        if matches!(tokens.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            tokens.next();
        }
    }
}

/// Skip tokens up to and including the next comma outside angle brackets
/// (generic arguments are not token groups). True if any token was skipped.
fn skip_past_comma(tokens: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>) -> bool {
    let mut depth = 0usize;
    let mut any = false;
    for tok in tokens.by_ref() {
        if let TokenTree::Punct(p) = &tok {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth = depth.saturating_sub(1),
                ',' if depth == 0 => return true,
                _ => {}
            }
        }
        any = true;
    }
    any
}

fn named_fields(stream: TokenStream, rename_all: Option<&str>) -> Vec<Field> {
    let mut tokens = stream.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        let attrs = take_attrs(&mut tokens);
        skip_visibility(&mut tokens);
        let Some(tok) = tokens.next() else { break };
        let TokenTree::Ident(ident) = tok else {
            panic!("serde stand-in: expected a field name, found `{tok}`");
        };
        let ident = ident.to_string();
        // The `:` and the type; the type is never needed, inference gets
        // it from the constructor.
        skip_past_comma(&mut tokens);
        fields.push(Field {
            key: rename(ident.trim_start_matches("r#"), rename_all),
            ident,
            default: attrs.default,
        });
    }
    fields
}

fn tuple_arity(stream: TokenStream) -> usize {
    let mut tokens = stream.into_iter().peekable();
    let mut n = 0;
    while skip_past_comma(&mut tokens) {
        n += 1;
        if tokens.peek().is_none() {
            break;
        }
    }
    n
}

fn shape_of(group: &proc_macro::Group, rename_all: Option<&str>) -> Shape {
    match group.delimiter() {
        Delimiter::Brace => Shape::Named(named_fields(group.stream(), rename_all)),
        Delimiter::Parenthesis => Shape::Tuple(tuple_arity(group.stream())),
        _ => panic!("serde stand-in: unexpected delimiter"),
    }
}

fn variants(stream: TokenStream, rename_all: Option<&str>) -> Vec<Variant> {
    let mut tokens = stream.into_iter().peekable();
    let mut out = Vec::new();
    loop {
        // Variant attributes (`#[default]`, docs) carry nothing we use.
        take_attrs(&mut tokens);
        let Some(tok) = tokens.next() else { break };
        let TokenTree::Ident(ident) = tok else {
            panic!("serde stand-in: expected a variant name, found `{tok}`");
        };
        let ident = ident.to_string();
        let shape = match tokens.peek() {
            Some(TokenTree::Group(g)) => {
                // Field names inside a variant are not renamed by the
                // enum's `rename_all`, as in serde.
                let shape = shape_of(g, None);
                tokens.next();
                shape
            }
            _ => Shape::Unit,
        };
        // A discriminant, if any, and the comma.
        skip_past_comma(&mut tokens);
        out.push(Variant {
            key: rename(&ident, rename_all),
            ident,
            shape,
        });
    }
    out
}

fn parse(input: TokenStream) -> Item {
    let mut tokens = input.into_iter().peekable();
    let attrs = take_attrs(&mut tokens);
    skip_visibility(&mut tokens);
    let kind = match tokens.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("serde stand-in: expected `struct` or `enum`, found {other:?}"),
    };
    let name = match tokens.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("serde stand-in: expected a type name, found {other:?}"),
    };
    if matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde stand-in: generic parameters on `{name}` are not supported");
    }
    let rule = attrs.rename_all.as_deref();
    let body = match (kind.as_str(), tokens.next()) {
        ("struct", Some(TokenTree::Group(g))) => Body::Struct(shape_of(&g, rule)),
        ("struct", Some(TokenTree::Punct(p))) if p.as_char() == ';' => Body::Struct(Shape::Unit),
        ("enum", Some(TokenTree::Group(g))) => Body::Enum(variants(g.stream(), rule)),
        (kind, other) => panic!("serde stand-in: cannot derive for `{kind}` at {other:?}"),
    };
    Item { name, body }
}

fn binders(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("v{i}")).collect()
}

/// Statements writing `fields` as an object; `access` turns a field name
/// into the expression that borrows it.
fn ser_named(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut s = String::from("out.begin_object();");
    for f in fields {
        s += &format!("out.field({:?}, {});", f.key, access(&f.ident));
    }
    s + "out.end_object();"
}

/// Statements writing `exprs` as an array.
fn ser_tuple(exprs: &[String]) -> String {
    let mut s = String::from("out.begin_array();");
    for e in exprs {
        s += &format!("out.element({e});");
    }
    s + "out.end_array();"
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse(input);
    let body = match &item.body {
        Body::Struct(Shape::Unit) => "out.null();".to_string(),
        Body::Struct(Shape::Tuple(1)) => "::serde::Serialize::serialize(&self.0, out);".to_string(),
        Body::Struct(Shape::Tuple(n)) => {
            let exprs: Vec<String> = (0..*n).map(|i| format!("&self.{i}")).collect();
            ser_tuple(&exprs)
        }
        Body::Struct(Shape::Named(fields)) => ser_named(fields, |f| format!("&self.{f}")),
        Body::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let (pattern, content) = match &v.shape {
                    Shape::Unit => {
                        arms += &format!("Self::{} => out.string({:?}),", v.ident, v.key);
                        continue;
                    }
                    Shape::Tuple(1) => ("(v0)".to_string(), "out.element(v0);".to_string()),
                    Shape::Tuple(n) => {
                        let names = binders(*n);
                        (format!("({})", names.join(",")), ser_tuple(&names))
                    }
                    Shape::Named(fields) => {
                        let names: Vec<&str> = fields.iter().map(|f| f.ident.as_str()).collect();
                        (
                            format!("{{ {} }}", names.join(",")),
                            ser_named(fields, |f| f.to_string()),
                        )
                    }
                };
                arms += &format!(
                    "Self::{}{pattern} => {{ out.begin_object(); out.key({:?}); {content} out.end_object(); }}",
                    v.ident, v.key
                );
            }
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "impl ::serde::Serialize for {} {{
            fn serialize(&self, out: &mut ::serde::ser::Writer) {{ {body} }}
        }}",
        item.name
    )
    .parse()
    .expect("generated Serialize impl parses")
}

/// An expression reading an object into `ctor {{ fields }}`.
fn de_named(ctor: &str, fields: &[Field]) -> String {
    let keys: Vec<String> = fields.iter().map(|f| format!("{:?}", f.key)).collect();
    let mut slots = String::new();
    let mut arms = String::new();
    let mut inits = String::new();
    for (i, f) in fields.iter().enumerate() {
        slots += &format!("let mut f{i} = ::core::option::Option::None;");
        arms += &format!(
            "::core::option::Option::Some({i}usize) => f{i} = ::core::option::Option::Some(::serde::Deserialize::deserialize(p)?),"
        );
        let missing = match &f.default {
            None => format!("::serde::de::missing_field({:?})?", f.key),
            Some(None) => "::core::default::Default::default()".to_string(),
            Some(Some(path)) => format!("{path}()"),
        };
        inits += &format!(
            "{}: match f{i} {{ ::core::option::Option::Some(v) => v, ::core::option::Option::None => {missing} }},",
            f.ident
        );
    }
    format!(
        "{{
            p.open(b'{{')?;
            {slots}
            let mut first = true;
            while p.seq_next(&mut first, b'}}')? {{
                match p.key_index(&[{}])? {{
                    {arms}
                    _ => p.skip()?,
                }}
            }}
            {ctor} {{ {inits} }}
        }}",
        keys.join(",")
    )
}

/// An expression reading an array of `n` elements into `ctor(..)`.
fn de_tuple(ctor: &str, n: usize) -> String {
    let elems: Vec<&str> = (0..n)
        .map(|_| "::serde::de::tuple_element(p, &mut first)?")
        .collect();
    format!(
        "{{
            p.open(b'[')?;
            let mut first = true;
            let value = {ctor}({});
            ::serde::de::tuple_end(p, &mut first)?;
            value
        }}",
        elems.join(",")
    )
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse(input);
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(Shape::Unit) => format!(
            "if p.null() {{ ::core::result::Result::Ok({name}) }} else {{ ::core::result::Result::Err(p.error(\"expected null\")) }}"
        ),
        Body::Struct(Shape::Tuple(1)) => {
            format!("::core::result::Result::Ok({name}(::serde::Deserialize::deserialize(p)?))")
        }
        Body::Struct(Shape::Tuple(n)) => {
            format!("::core::result::Result::Ok({})", de_tuple(name, *n))
        }
        Body::Struct(Shape::Named(fields)) => {
            format!("::core::result::Result::Ok({})", de_named(name, fields))
        }
        Body::Enum(variants) => {
            let keys: Vec<String> = variants.iter().map(|v| format!("{:?}", v.key)).collect();
            let keys = keys.join(",");
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for (i, v) in variants.iter().enumerate() {
                let ctor = format!("{name}::{}", v.ident);
                let value = match &v.shape {
                    Shape::Unit => {
                        unit_arms += &format!("{i}usize => ::core::result::Result::Ok({ctor}),");
                        format!(
                            "{{ if !p.null() {{ return ::core::result::Result::Err(p.error(\"expected null\")); }} {ctor} }}"
                        )
                    }
                    Shape::Tuple(1) => format!("{ctor}(::serde::Deserialize::deserialize(p)?)"),
                    Shape::Tuple(n) => de_tuple(&ctor, *n),
                    Shape::Named(fields) => de_named(&ctor, fields),
                };
                tagged_arms += &format!("::core::option::Option::Some({i}usize) => {value},");
            }
            format!(
                "match p.peek() {{
                    ::core::option::Option::Some(b'\"') => match p.variant_index(&[{keys}])? {{
                        {unit_arms}
                        _ => ::core::result::Result::Err(p.error(\"variant of {name} needs a value\")),
                    }},
                    ::core::option::Option::Some(b'{{') => {{
                        p.open(b'{{')?;
                        let value = match p.key_index(&[{keys}])? {{
                            {tagged_arms}
                            _ => return ::core::result::Result::Err(p.error(\"unknown variant of {name}\")),
                        }};
                        p.close(b'}}')?;
                        ::core::result::Result::Ok(value)
                    }}
                    _ => ::core::result::Result::Err(p.error(\"expected a variant of {name}\")),
                }}"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{
            fn deserialize(p: &mut ::serde::de::Parser<'_>) -> ::core::result::Result<Self, ::serde::de::Error> {{ {body} }}
        }}"
    )
    .parse()
    .expect("generated Deserialize impl parses")
}
