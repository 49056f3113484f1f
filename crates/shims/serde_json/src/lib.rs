//! Offline drop-in subset of `serde_json`.
//!
//! Works over the vendored `serde` shim's [`Value`] tree: [`to_string`] /
//! [`to_string_pretty`] render a tree produced by `Serialize::to_value`,
//! and [`from_str`] parses JSON back into a tree handed to
//! `Deserialize::from_value`. Numbers parse to `Value::Int` (an `i128`,
//! lossless for the `u64` sector/timestamp fields this workspace stores)
//! when they have no fraction or exponent, otherwise to `Value::Float`.
//! Floats are rendered with Rust's shortest-roundtrip `{}` formatting.

pub use serde::Value;
use serde::{DeError, Deserialize, Serialize};

/// Error type for both directions (serialization itself cannot fail in the
/// shim, so in practice this reports parse/decode problems).
pub type Error = DeError;

/// Result alias mirroring `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Deepest array/object nesting [`from_str`] accepts (upstream
/// `serde_json`'s default recursion limit); deeper input is an `Err`, not
/// a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// Serialize to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serialize to an indented (2-space) JSON string.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Deserialize from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(DeError::new(format!(
            "trailing characters at byte {}",
            p.pos
        )));
    }
    T::from_value(&v)
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => write_float(out, *f),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            write_seq(out, indent, depth, items.is_empty(), '[', ']', |out, d| {
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        push_sep(out, indent, d);
                    }
                    write_value(out, item, indent, d);
                }
            })
        }
        Value::Object(fields) => {
            write_seq(out, indent, depth, fields.is_empty(), '{', '}', |out, d| {
                for (i, (k, item)) in fields.iter().enumerate() {
                    if i > 0 {
                        push_sep(out, indent, d);
                    }
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_value(out, item, indent, d);
                }
            })
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    empty: bool,
    open: char,
    close: char,
    body: impl FnOnce(&mut String, usize),
) {
    out.push(open);
    if empty {
        out.push(close);
        return;
    }
    if let Some(w) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(w * (depth + 1)));
    }
    body(out, depth + 1);
    if let Some(w) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(w * depth));
    }
    out.push(close);
}

fn push_sep(out: &mut String, indent: Option<usize>, depth: usize) {
    out.push(',');
    if let Some(w) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(w * depth));
    }
}

fn write_float(out: &mut String, f: f64) {
    if f.is_finite() {
        let s = f.to_string();
        out.push_str(&s);
        // serde_json always distinguishes floats from ints; keep that so a
        // reparse yields Float again.
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        // Real serde_json errors on non-finite floats; emitting null keeps
        // reports usable and is explicitly lossy.
        out.push_str("null");
    }
}

fn write_string(out: &mut String, s: &str) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
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
            Err(DeError::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(DeError::new(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Value::Null),
            Some(b't') => self.eat_lit("true", Value::Bool(true)),
            Some(b'f') => self.eat_lit("false", Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            Some(b) => Err(DeError::new(format!(
                "unexpected character `{}` at byte {}",
                b as char, self.pos
            ))),
            None => Err(DeError::new("unexpected end of input")),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth == MAX_DEPTH {
            return Err(DeError::new(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(DeError::new(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => {
                    return Err(DeError::new(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: runs of plain bytes are copied as validated UTF-8.
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            if self.pos > start {
                s.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| DeError::new("invalid UTF-8 in string"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| DeError::new("unexpected end of input in escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{0008}'),
                        b'f' => s.push('\u{000C}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| DeError::new("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| DeError::new("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| DeError::new("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for this
                            // workspace's ASCII field names/reports.
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| DeError::new("bad \\u code point"))?,
                            );
                        }
                        other => {
                            return Err(DeError::new(format!(
                                "unknown escape `\\{}`",
                                other as char
                            )))
                        }
                    }
                }
                _ => return Err(DeError::new("unterminated string")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| DeError::new("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| DeError::new(format!("invalid number `{text}`")))
        } else {
            text.parse::<i128>()
                .map(Value::Int)
                .map_err(|_| DeError::new(format!("invalid number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering() {
        let v = Value::Object(vec![
            ("a".to_string(), Value::Int(1)),
            (
                "b".to_string(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
            ("c".to_string(), Value::Float(1.5)),
        ]);
        let mut out = String::new();
        write_value(&mut out, &v, None, 0);
        assert_eq!(out, r#"{"a":1,"b":[true,null],"c":1.5}"#);
    }

    #[test]
    fn pretty_rendering_indents() {
        let v = Value::Object(vec![("a".to_string(), Value::Array(vec![Value::Int(1)]))]);
        let mut out = String::new();
        write_value(&mut out, &v, Some(2), 0);
        assert_eq!(out, "{\n  \"a\": [\n    1\n  ]\n}");
    }

    #[test]
    fn parse_roundtrip() {
        let src =
            r#"{"x": -3, "big": 18446744073709551615, "f": 2.5e-1, "s": "a\"b\n", "v": [1, 2]}"#;
        let v: Value = {
            let mut p = Parser {
                bytes: src.as_bytes(),
                pos: 0,
                depth: 0,
            };
            p.skip_ws();
            p.parse_value().unwrap()
        };
        let fields = v.as_object().unwrap();
        assert_eq!(fields[0].1, Value::Int(-3));
        assert_eq!(fields[1].1, Value::Int(u64::MAX as i128));
        assert_eq!(fields[2].1, Value::Float(0.25));
        assert_eq!(fields[3].1, Value::String("a\"b\n".to_string()));
        assert_eq!(
            fields[4].1,
            Value::Array(vec![Value::Int(1), Value::Int(2)])
        );
    }

    #[test]
    fn float_always_distinguishable_from_int() {
        let mut out = String::new();
        write_float(&mut out, 3.0);
        assert_eq!(out, "3.0");
    }

    #[test]
    fn nesting_is_capped_without_recursing_further() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str::<Value>(&nest(MAX_DEPTH)).is_ok());
        assert!(from_str::<Value>(&nest(MAX_DEPTH + 1)).is_err());
        assert!(from_str::<Value>(&format!("{}1", r#"{"a":"#.repeat(MAX_DEPTH + 1))).is_err());
        // Far past any thread stack: an error, not an abort.
        assert!(from_str::<Value>(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn from_str_rejects_trailing_garbage() {
        assert!(from_str::<u64>("7 x").is_err());
        assert_eq!(from_str::<u64>(" 7 ").unwrap(), 7);
    }
}
