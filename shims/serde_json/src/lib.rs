//! Offline stand-in for `serde_json`.
//!
//! Converts the serde shim's [`Value`] tree to and from JSON text. Supports
//! everything this repository serializes: objects, arrays, strings with
//! escapes, integers (kept exact up to `u64`/`i64`), and floats rendered via
//! Rust's shortest-round-trip `Display`.

pub use serde::Value;

use std::fmt;

/// A JSON (de)serialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    fn new(msg: impl fmt::Display) -> Self {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::de::Error> for Error {
    fn from(e: serde::de::Error) -> Self {
        Error(e.to_string())
    }
}

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Serialize to compact JSON text.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    render(&value.to_value(), &mut out, None, 0);
    Ok(out)
}

/// Serialize to pretty-printed JSON text (two-space indent).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    render(&value.to_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// Deserialize a value from JSON text.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T> {
    let value = parse(s)?;
    Ok(T::from_value(&value)?)
}

/// The deepest nesting of arrays and objects [`parse`] accepts, as in
/// upstream serde_json. The parser recurses once per level, so the bound
/// keeps hostile input (say a megabyte of `[`) from overflowing the stack;
/// past it, parsing returns an [`Error`].
pub const MAX_DEPTH: usize = 128;

/// Parse JSON text into a [`Value`] without binding it to a type.
pub fn parse(s: &str) -> Result<Value> {
    let bytes = s.as_bytes();
    let mut p = Parser {
        src: s,
        bytes,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

// ------------------------------------------------------------- rendering

fn render(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                out.push_str(&f.to_string());
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => render_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                render(item, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, value)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                render_string(key, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                render(value, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// --------------------------------------------------------------- parsing

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            None => Err(Error::new("unexpected end of input")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(other) => Err(Error::new(format!(
                "unexpected character `{}` at byte {}",
                other as char, self.pos
            ))),
        }
    }

    /// Parse one array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::new(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(Error::new(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::new("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let first = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&first) {
                                // Surrogate pair.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let second = self.hex4()?;
                                    let combined = 0x10000
                                        + ((first - 0xd800) << 10)
                                        + (second.wrapping_sub(0xdc00) & 0x3ff);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(first)
                            };
                            out.push(c.ok_or_else(|| {
                                Error::new(format!("invalid \\u escape at byte {}", self.pos))
                            })?);
                            continue;
                        }
                        _ => {
                            return Err(Error::new(format!(
                                "invalid escape at byte {}",
                                self.pos
                            )))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape in one
                    // go. Both are ASCII, so the run ends on a character
                    // boundary of the source.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.src[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(Error::new("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| Error::new("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| Error::new("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(to_string(&-3i64).unwrap(), "-3");
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string("hi\n\"there\"").unwrap(), "\"hi\\n\\\"there\\\"\"");
        let f: f64 = from_str("2.5").unwrap();
        assert_eq!(f, 2.5);
        let u: u64 = from_str("18446744073709551615").unwrap();
        assert_eq!(u, u64::MAX);
    }

    #[test]
    fn roundtrip_collections() {
        let v: Vec<(String, usize)> = vec![("a".into(), 1), ("b".into(), 2)];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[[\"a\",1],[\"b\",2]]");
        let back: Vec<(String, usize)> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn parses_nested_objects() {
        let v = parse(r#"{"a": [1, 2.5, null], "b": {"c": "x"}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nope").is_err());
        assert!(parse("1 2").is_err());
    }

    fn nested_arrays(depth: usize) -> String {
        format!("{}{}", "[".repeat(depth), "]".repeat(depth))
    }

    fn nested_objects(depth: usize) -> String {
        format!("{}null{}", r#"{"a":"#.repeat(depth), "}".repeat(depth))
    }

    #[test]
    fn nesting_is_bounded() {
        for doc in [nested_arrays(MAX_DEPTH), nested_objects(MAX_DEPTH)] {
            assert!(parse(&doc).is_ok(), "{MAX_DEPTH} levels parse");
        }
        for doc in [nested_arrays(MAX_DEPTH + 1), nested_objects(MAX_DEPTH + 1)] {
            let err = parse(&doc).unwrap_err();
            assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        }
        // Far past the bound, the parser still returns instead of
        // overflowing its stack, and the depth resets between documents.
        assert!(parse(&"[".repeat(1 << 20)).is_err());
        assert!(parse(&r#"{"a":"#.repeat(1 << 18)).is_err());
        let wide = format!("[{}]", vec![nested_arrays(MAX_DEPTH - 1); 3].join(","));
        assert!(parse(&wide).is_ok(), "siblings do not add up their depth");
    }

    #[test]
    fn strings_copy_runs_between_escapes() {
        let v: String = from_str(r#""héllo \"wörld\" \u00e9 ✓""#).unwrap();
        assert_eq!(v, "héllo \"wörld\" é ✓");
        // A long string parses in time linear in its length.
        let long = "ab✓".repeat(1 << 18);
        let v: String = from_str(&format!("\"{long}\"")).unwrap();
        assert_eq!(v, long);
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn pretty_prints() {
        let v: Vec<u32> = vec![1, 2];
        assert_eq!(to_string_pretty(&v).unwrap(), "[\n  1,\n  2\n]");
    }
}
