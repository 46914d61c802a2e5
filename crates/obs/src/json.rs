//! The one JSON module of the workspace's artifacts: a [`Value`] the
//! writers build and [`Value::to_json`] serializes, and [`parse`], which
//! reads a document back into one.
//!
//! Values are integers, strings and `null`, never floats, and strings are
//! escaped in one place. Object members keep their order. Each container
//! carries its [`Layout`]: that is how `costmodel.json` and
//! `metrics.json` stay multi-line while ledger lines, trace lines and
//! `timeseries.json` stay compact, byte for byte. The run ledger
//! re-serializes what it read, so anything the writer would not have
//! written fails there.

// Integer-only: a float sum is order-sensitive, so merges would not be exact.
#![deny(clippy::float_arithmetic)]

use std::fmt::Write as _;

/// How a container separates and indents its members.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// `{"a":1,"b":[1,2]}`; what [`parse`] gives every container.
    Compact,
    /// `{"a": 1, "b": [1, 2]}`
    Inline,
    /// `{ "a": 1, "b": 2 }`
    Padded,
    /// One member per line, two spaces deeper than the container.
    Lines,
}

/// A JSON document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    Null,
    Int(i128),
    Str(String),
    Arr(Layout, Vec<Value>),
    Obj(Layout, Vec<(String, Value)>),
}

macro_rules! int_values {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::Int(v as i128)
            }
        }
    )*};
}
int_values!(u32, u64, usize, i64);

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

/// `None` is `null`.
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

impl Value {
    /// An object of `members`, in order.
    pub fn obj<K>(layout: Layout, members: impl IntoIterator<Item = (K, Value)>) -> Value
    where
        K: Into<String>,
    {
        Value::Obj(layout, members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of `items`, in order.
    pub fn arr<T: Into<Value>>(layout: Layout, items: impl IntoIterator<Item = T>) -> Value {
        Value::Arr(layout, items.into_iter().map(Into::into).collect())
    }

    /// Serializes the document, each container in its own layout.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out, 0);
        out
    }

    fn write_json(&self, out: &mut String, depth: usize) {
        let (layout, brackets, members): (_, _, Vec<(Option<&str>, &Value)>) = match self {
            Value::Null => return out.push_str("null"),
            Value::Int(v) => {
                let _ = write!(out, "{v}");
                return;
            }
            Value::Str(s) => return write_escaped(out, s),
            Value::Arr(layout, items) => (*layout, "[]", items.iter().map(|v| (None, v)).collect()),
            Value::Obj(layout, members) => {
                (*layout, "{}", members.iter().map(|(k, v)| (Some(k.as_str()), v)).collect())
            }
        };
        let (open, close) = brackets.split_at(1);
        out.push_str(open);
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match layout {
                Layout::Compact => {}
                Layout::Inline if i == 0 => {}
                Layout::Inline | Layout::Padded => out.push(' '),
                Layout::Lines => indent(out, depth + 1),
            }
            if let Some(key) = key {
                write_escaped(out, key);
                out.push_str(if layout == Layout::Compact { ":" } else { ": " });
            }
            value.write_json(out, depth + 1);
        }
        match layout {
            _ if members.is_empty() => {}
            Layout::Padded => out.push(' '),
            Layout::Lines => indent(out, depth),
            Layout::Compact | Layout::Inline => {}
        }
        out.push_str(close);
    }

    /// Member `key` of an object; `None` for a missing key or a non-object.
    pub fn member(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(_, members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer as a `T`, if this is an integer and it fits.
    pub fn integer<T: TryFrom<i128>>(&self) -> Option<T> {
        match self {
            Value::Int(v) => T::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn string(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    out.push('\n');
    out.extend(std::iter::repeat_n("  ", depth));
}

/// Writes `s` as a string literal: quotes, backslashes and control
/// characters escaped, everything else (non-ASCII included) as is.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deeper containers are refused rather than recursed into; no artifact
/// nests past four.
const MAX_DEPTH: usize = 32;

/// Parses one document; anything but whitespace after it is an error.
///
/// # Errors
/// What was expected and the byte offset where it was not found.
pub fn parse(text: &str) -> Result<Value, String> {
    let (b, mut at) = (text.as_bytes(), 0);
    let value = parse_value(b, &mut at, 0)?;
    match peek(b, &mut at) {
        None => Ok(value),
        Some(_) => Err(format!("trailing characters at byte {at}")),
    }
}

/// The next byte after any whitespace, without consuming it.
fn peek(b: &[u8], at: &mut usize) -> Option<u8> {
    while matches!(b.get(*at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *at += 1;
    }
    b.get(*at).copied()
}

/// Consumes `byte` (after any whitespace) or fails naming it.
fn expect(b: &[u8], at: &mut usize, byte: u8) -> Result<(), String> {
    if peek(b, at) != Some(byte) {
        return Err(format!("expected '{}' at byte {at}", char::from(byte)));
    }
    *at += 1;
    Ok(())
}

/// Reads the members of a container whose opening bracket was consumed,
/// through its `close` bracket; `key` reads what precedes each value.
fn parse_members<K>(
    b: &[u8],
    at: &mut usize,
    depth: usize,
    close: u8,
    key: impl Fn(&[u8], &mut usize) -> Result<K, String>,
) -> Result<Vec<(K, Value)>, String> {
    let mut members = Vec::new();
    if peek(b, at) == Some(close) {
        *at += 1;
        return Ok(members);
    }
    loop {
        let k = key(b, at)?;
        members.push((k, parse_value(b, at, depth + 1)?));
        if peek(b, at) == Some(close) {
            *at += 1;
            return Ok(members);
        }
        expect(b, at, b',')?;
    }
}

fn parse_value(b: &[u8], at: &mut usize, depth: usize) -> Result<Value, String> {
    match peek(b, at) {
        Some(b'{' | b'[') if depth >= MAX_DEPTH => {
            Err(format!("nested deeper than {MAX_DEPTH} at byte {at}"))
        }
        Some(b'{') => {
            *at += 1;
            let key = |b: &[u8], at: &mut usize| {
                let key = parse_string(b, at)?;
                expect(b, at, b':').map(|()| key)
            };
            parse_members(b, at, depth, b'}', key).map(|m| Value::Obj(Layout::Compact, m))
        }
        Some(b'[') => {
            *at += 1;
            let items = parse_members(b, at, depth, b']', |_, _| Ok(()))?;
            Ok(Value::Arr(Layout::Compact, items.into_iter().map(|((), v)| v).collect()))
        }
        Some(b'"') => parse_string(b, at).map(Value::Str),
        Some(b'n') if b.get(*at..*at + 4) == Some(b"null") => {
            *at += 4;
            Ok(Value::Null)
        }
        _ => {
            let start = *at;
            *at += usize::from(b.get(*at) == Some(&b'-'));
            while b.get(*at).is_some_and(u8::is_ascii_digit) {
                *at += 1;
            }
            let digits = b.get(start..*at).and_then(|d| std::str::from_utf8(d).ok());
            let int = digits.and_then(|d| d.parse().ok()).map(Value::Int);
            int.ok_or_else(|| format!("expected a value at byte {start}"))
        }
    }
}

fn parse_string(b: &[u8], at: &mut usize) -> Result<String, String> {
    expect(b, at, b'"')?;
    let mut out = Vec::new();
    loop {
        let Some(&c) = b.get(*at) else {
            return Err("unterminated string".to_string());
        };
        *at += 1;
        let unescaped = match c {
            b'"' => return String::from_utf8(out).map_err(|_| "string is not UTF-8".to_string()),
            b'\\' => {
                *at += 1;
                match b.get(*at - 1) {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'n') => '\n',
                    Some(b'r') => '\r',
                    Some(b't') => '\t',
                    Some(b'b') => '\u{8}',
                    Some(b'f') => '\u{c}',
                    Some(b'u') => {
                        let hex = b.get(*at..*at + 4).and_then(|h| std::str::from_utf8(h).ok());
                        *at += 4;
                        let code = hex.and_then(|h| u32::from_str_radix(h, 16).ok());
                        let code = code.and_then(char::from_u32);
                        code.ok_or_else(|| format!("bad \\u escape before byte {at}"))?
                    }
                    _ => return Err(format!("bad escape before byte {at}")),
                }
            }
            c => {
                out.push(c);
                continue;
            }
        };
        out.extend_from_slice(unescaped.encode_utf8(&mut [0; 4]).as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Layout::{Compact, Inline, Lines, Padded};

    #[test]
    fn layouts_separate_and_indent_as_named() {
        let doc = Value::obj(
            Lines,
            [
                ("a", 1u64.into()),
                ("b", Value::obj(Padded, [("x", (-2i64).into()), ("y", None::<u64>.into())])),
                ("c", Value::arr(Inline, [Value::from("s"), Value::arr(Inline, [1u32, 2])])),
                ("d", Value::obj::<&str>(Lines, [])),
                ("e", Value::arr(Lines, [Value::obj(Compact, [("k", "v".into())])])),
            ],
        );
        assert_eq!(
            doc.to_json(),
            "{\n  \"a\": 1,\n  \"b\": { \"x\": -2, \"y\": null },\n  \"c\": [\"s\", [1, 2]],\n  \
             \"d\": {},\n  \"e\": [\n    {\"k\":\"v\"}\n  ]\n}"
        );
    }

    #[test]
    fn strings_escape_once_and_read_back() {
        let nasty = "a\"b\\c\nd\r\t\u{1}\u{1f}é🦀/";
        let doc = Value::obj(Compact, [(nasty, nasty.into())]);
        let escaped = "\"a\\\"b\\\\c\\nd\\r\\t\\u0001\\u001fé🦀/\"";
        assert_eq!(doc.to_json(), format!("{{{escaped}:{escaped}}}"));
        assert_eq!(parse(&doc.to_json()), Ok(doc));
        assert_eq!(
            parse("\"\\/\\b\\f\\u00e9\""),
            Ok(Value::Str("/\u{8}\u{c}é".to_string()))
        );
    }

    #[test]
    fn reads_nested_documents_in_order() {
        let text = r#" {"n": -12, "big": 18446744073709551615, "a": [null, "x", {}], "o": {"k": []}} "#;
        let v = parse(text).unwrap();
        assert_eq!(v.member("n").and_then(Value::integer::<i64>), Some(-12));
        assert_eq!(v.member("n").and_then(Value::integer::<u64>), None, "negative is no u64");
        assert_eq!(v.member("big").and_then(Value::integer::<u64>), Some(u64::MAX));
        let empty = Value::obj::<&str>(Compact, []);
        assert_eq!(v.member("a"), Some(&Value::arr(Compact, [Value::Null, "x".into(), empty])));
        assert_eq!(v.member("o").and_then(|o| o.member("k")), Some(&Value::Arr(Compact, vec![])));
        let Value::Obj(_, members) = &v else {
            panic!("an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["n", "big", "a", "o"]);
        assert_eq!(parse(&v.to_json()), Ok(v), "a parsed document writes back compact");
    }

    #[test]
    fn rejects_malformed_documents() {
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "[1,]",
            "[1 2]",
            "\"open",
            "{} x",
            "nul",
            "1.5",
            "-",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "{1:2}",
            "true",
            &deep,
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
