#![forbid(unsafe_code)]
//! Offline stand-in for `serde_json`: JSON text in and out of the shim
//! [`serde::Value`] model.
//!
//! Guarantees the sweep-engine cache and golden files rely on:
//!
//! * **Canonical output** — object keys are emitted in lexicographic order
//!   (the `Value` object is a `BTreeMap`), so serializing the same data
//!   always produces the same bytes regardless of construction order.
//! * **Round-trip floats** — floats print via Rust's shortest-round-trip
//!   `{}` formatting, with a trailing `.0` forced onto integral floats so
//!   the int/float distinction survives reparsing.
//!
//! The writer builds no temporaries: a [`Value`] is written where it lies
//! ([`Serialize::as_value`] borrows it), numbers are formatted straight into
//! the output buffer, and string runs that need no escaping are copied in
//! one piece.

use std::fmt::Write as _;

pub use serde::{Error, Value};
use serde::{Deserialize, Serialize};

/// Serialize to compact JSON text.
pub fn to_string<T: Serialize>(t: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &t.as_value(), None, 0);
    Ok(out)
}

/// Serialize to human-readable JSON text (two-space indent).
pub fn to_string_pretty<T: Serialize>(t: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &t.as_value(), Some(2), 0);
    Ok(out)
}

/// Convert any serializable value into the JSON model.
pub fn to_value<T: Serialize>(t: &T) -> Result<Value, Error> {
    Ok(t.to_value())
}

/// Rebuild a typed value from the JSON model.
pub fn from_value<T: Deserialize>(v: &Value) -> Result<T, Error> {
    T::from_value(v)
}

/// Parse JSON text into a typed value.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let v = parse(s)?;
    T::from_value(&v)
}

// ------------------------------------------------------------------ writing

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => write!(out, "{i}").expect("writing to a String cannot fail"),
        Value::Float(f) => write_float(out, *f),
        Value::Str(s) => write_string(out, s),
        Value::Array(a) => {
            if a.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, e) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, e, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(m) => {
            if m.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, e)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, e, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_float(out: &mut String, f: f64) {
    if f.is_nan() || f.is_infinite() {
        // JSON has no NaN/inf; mirror serde_json's `null`.
        out.push_str("null");
    } else {
        let start = out.len();
        write!(out, "{f}").expect("writing to a String cannot fail");
        // Keep the float/int distinction in the text form.
        if !out[start..].bytes().any(|b| matches!(b, b'.' | b'e' | b'E')) {
            out.push_str(".0");
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    // Start of the run not yet copied. Every byte that needs escaping is
    // ASCII, so each run ends on a char boundary.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

// ------------------------------------------------------------------ parsing

/// Deepest array/object nesting [`parse`] accepts. The parser recurses once
/// per level, so without a cap a deeply nested request body (20,000 `[`
/// will do) overflows the thread's stack and aborts the process. The
/// deepest document the simulator writes nests 5 levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

/// Parse JSON text into a [`Value`]. Nesting deeper than [`MAX_DEPTH`] is an
/// error naming the byte offset where the cap was crossed.
pub fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg(format!("trailing input at byte {}", p.pos)));
    }
    Ok(v)
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

    /// Consume exactly four hex digits (the body of a `\uXXXX` escape).
    fn hex4(&mut self) -> Result<u32, Error> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::msg("eof in \\u escape"))?;
        let code = u32::from_str_radix(
            std::str::from_utf8(hex).map_err(|_| Error::msg("bad \\u"))?,
            16,
        )
        .map_err(|_| Error::msg("bad \\u"))?;
        self.pos += 4;
        Ok(code)
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(Error::msg(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Value::Null),
            Some(b't') => self.eat_lit("true", Value::Bool(true)),
            Some(b'f') => self.eat_lit("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(Error::msg(format!("unexpected byte at {}", self.pos))),
        }
    }

    /// Parse one array or object with `f`, one level deeper.
    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::msg(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(out));
                }
                _ => return Err(Error::msg(format!("bad array at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut out = std::collections::BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(out));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            out.insert(k, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(out));
                }
                _ => return Err(Error::msg(format!("bad object at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::msg("invalid utf8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| Error::msg("eof in escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let code = self.hex4()?;
                            let ch = match code {
                                // High surrogate: must be followed by a low
                                // surrogate escape; the pair combines into
                                // one supplementary-plane scalar.
                                0xD800..=0xDBFF => {
                                    if self.bytes.get(self.pos..self.pos + 2)
                                        != Some(&b"\\u"[..])
                                    {
                                        return Err(Error::msg(
                                            "unexpected end of surrogate pair in \\u escape",
                                        ));
                                    }
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..=0xDFFF).contains(&lo) {
                                        return Err(Error::msg(
                                            "lone leading surrogate in \\u escape",
                                        ));
                                    }
                                    let c = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c).expect("surrogate pair is a valid scalar")
                                }
                                0xDC00..=0xDFFF => {
                                    return Err(Error::msg(
                                        "lone trailing surrogate in \\u escape",
                                    ))
                                }
                                c => char::from_u32(c).expect("non-surrogate BMP code is a scalar"),
                            };
                            out.push(ch);
                        }
                        _ => return Err(Error::msg("unknown escape")),
                    }
                }
                _ => return Err(Error::msg("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
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
            .map_err(|_| Error::msg("bad number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::msg(format!("bad float '{text}'")))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .or_else(|_| text.parse::<f64>().map(Value::Float))
                .map_err(|_| Error::msg(format!("bad int '{text}'")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        let text = r#"{"b":[1,2.5,null,true],"a":"x\ny"}"#;
        let v = parse(text).unwrap();
        let out = to_string(&v).unwrap();
        // Canonical: keys sorted.
        assert_eq!(out, r#"{"a":"x\ny","b":[1,2.5,null,true]}"#);
        assert_eq!(parse(&out).unwrap(), v);
    }

    #[test]
    fn floats_keep_their_floatness() {
        let v = Value::Float(2.0);
        let s = to_string(&v).unwrap();
        assert_eq!(s, "2.0");
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn pretty_is_reparsable() {
        let v = parse(r#"{"k":[{"x":1}],"s":"hi"}"#).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    fn nested_arrays(depth: usize) -> String {
        "[".repeat(depth) + &"]".repeat(depth)
    }

    #[test]
    fn nesting_is_capped_without_overflowing_the_stack() {
        let err = parse(&nested_arrays(100_000)).unwrap_err().to_string();
        assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
        let objects = "{\"k\":".repeat(100_000) + "1" + &"}".repeat(100_000);
        assert!(parse(&objects).is_err());

        let v = parse(&nested_arrays(MAX_DEPTH)).unwrap();
        let mut depth = 0;
        let mut cur = &v;
        while let Value::Array(items) = cur {
            depth += 1;
            match items.first() {
                Some(inner) => cur = inner,
                None => break,
            }
        }
        assert_eq!(depth, MAX_DEPTH);
        assert!(parse(&nested_arrays(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn typed_from_str() {
        let xs: Vec<f64> = from_str("[1.5, 2, 3.25]").unwrap();
        assert_eq!(xs, vec![1.5, 2.0, 3.25]);
    }
}
