//! A minimal JSON tree for the artifact pipeline.
//!
//! The experiment artifacts (`artifacts/*.json`), the cell cache and the
//! sweep server's wire protocol are produced and consumed through this
//! hand-rolled value type. It covers exactly what they need and no more:
//!
//! * objects preserve **insertion order** (a `Vec` of pairs), so
//!   serialization is deterministic and artifacts diff cleanly;
//! * numbers are `f64`; 64-bit quantities that exceed an `f64`'s 53-bit
//!   mantissa (seeds, content hashes) travel as `0x…` hex strings via
//!   [`Json::hex`] / [`Json::as_hex_u64`];
//! * rendering is stable: the same tree always produces the same bytes
//!   (float formatting uses Rust's shortest round-trip `Display`);
//! * a finished tree can keep its compact rendering ([`Json::spliced`]),
//!   so a document that repeats it, such as every answer carrying one
//!   cached cell, copies those bytes instead of walking the tree again.
//!
//! The artifact schema is documented in `docs/artifacts.md`.

use std::fmt::Write as _;
use std::sync::Arc;

/// A JSON value.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (rendered with shortest round-trip formatting).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
    /// A tree kept with its compact rendering, built by [`Json::spliced`].
    /// [`Json::render_compact`] copies the stored bytes; rendering pretty,
    /// the accessors and `==` read the tree, so the node reads and renders
    /// exactly as its tree does. Clones share the node.
    Spliced(Arc<Splice>),
}

/// A tree and its compact rendering, held by [`Json::Spliced`]. The
/// fields are private and [`Json::spliced`] is the only constructor, so
/// the bytes are always the tree's.
#[derive(Debug)]
pub struct Splice {
    tree: Json,
    compact: Box<str>,
}

impl PartialEq for Json {
    fn eq(&self, other: &Json) -> bool {
        match (self.tree(), other.tree()) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Num(a), Json::Num(b)) => a == b,
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::Obj(a), Json::Obj(b)) => a == b,
            _ => false,
        }
    }
}

/// Why a JSON document failed to parse or a field failed to convert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description, including byte offset where relevant.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.message)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(message: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError {
        message: message.into(),
    })
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Build a number from anything float-convertible.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Encode a `u64` losslessly as a `0x…` hex string (seeds, hashes).
    pub fn hex(v: u64) -> Json {
        Json::Str(format!("{v:#018x}"))
    }

    /// Encode a `usize`/small `u64` as a number (exact below 2^53).
    pub fn uint(v: u64) -> Json {
        debug_assert!(v < (1 << 53), "uint too large for f64: {v}");
        Json::Num(v as f64)
    }

    /// Keep `tree` with its compact rendering, made here once: every
    /// later compact rendering of the node, or of a document holding it,
    /// copies those bytes.
    pub fn spliced(tree: Json) -> Json {
        if let Json::Spliced(_) = tree {
            return tree;
        }
        let compact = tree.render_compact().into_boxed_str();
        Json::Spliced(Arc::new(Splice { tree, compact }))
    }

    /// The value itself, or a [`Json::Spliced`] node's tree.
    fn tree(&self) -> &Json {
        match self {
            Json::Spliced(splice) => &splice.tree,
            json => json,
        }
    }

    /// Append a field to an object. Panics on non-objects, a spliced
    /// object included (builder use).
    pub fn with(mut self, key: impl Into<String>, value: Json) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.into(), value)),
            _ => panic!("Json::with on a non-object"),
        }
        self
    }

    /// Look up an object field.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self.tree() {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object field or a descriptive error (for artifact loading).
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        match self.get(key) {
            Some(v) => Ok(v),
            None => err(format!("missing field `{key}`")),
        }
    }

    /// Typed accessor: string field.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the field is missing or not a string.
    pub fn field_str(&self, key: &str) -> Result<&str, JsonError> {
        self.field(key)?.as_str().ok_or_else(|| JsonError {
            message: format!("`{key}` is not a string"),
        })
    }

    /// Typed accessor: exact unsigned-integer field.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the field is missing or not an exact
    /// unsigned integer.
    pub fn field_u64(&self, key: &str) -> Result<u64, JsonError> {
        self.field(key)?.as_u64().ok_or_else(|| JsonError {
            message: format!("`{key}` is not an unsigned integer"),
        })
    }

    /// Typed accessor: numeric field.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the field is missing or not a number.
    pub fn field_f64(&self, key: &str) -> Result<f64, JsonError> {
        self.field(key)?.as_f64().ok_or_else(|| JsonError {
            message: format!("`{key}` is not a number"),
        })
    }

    /// Typed accessor: [`Json::hex`]-encoded `u64` field.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the field is missing or not a
    /// `0x…` hex string.
    pub fn field_hex_u64(&self, key: &str) -> Result<u64, JsonError> {
        self.field(key)?.as_hex_u64().ok_or_else(|| JsonError {
            message: format!("`{key}` is not a hex string"),
        })
    }

    /// Typed accessor: boolean field.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the field is missing or not a
    /// boolean.
    pub fn field_bool(&self, key: &str) -> Result<bool, JsonError> {
        self.field(key)?.as_bool().ok_or_else(|| JsonError {
            message: format!("`{key}` is not a boolean"),
        })
    }

    /// Typed accessor: array field.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the field is missing or not an
    /// array.
    pub fn field_arr(&self, key: &str) -> Result<&[Json], JsonError> {
        self.field(key)?.as_arr().ok_or_else(|| JsonError {
            message: format!("`{key}` is not an array"),
        })
    }

    /// The string payload, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self.tree() {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if any.
    pub fn as_f64(&self) -> Option<f64> {
        match self.tree() {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an exact unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0 && n < (1u64 << 53) as f64).then_some(n as u64)
    }

    /// Decode a [`Json::hex`]-encoded `u64`.
    pub fn as_hex_u64(&self) -> Option<u64> {
        let s = self.as_str()?.strip_prefix("0x")?;
        u64::from_str_radix(s, 16).ok()
    }

    /// The boolean payload, if any.
    pub fn as_bool(&self) -> Option<bool> {
        match self.tree() {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items, if any.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self.tree() {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render compactly (no whitespace).
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Render with 2-space indentation and a trailing newline — the
    /// on-disk artifact format (stable bytes for a given tree).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in, colon) = match indent {
            Some(w) => (
                "\n",
                " ".repeat(w * depth),
                " ".repeat(w * (depth + 1)),
                ": ",
            ),
            None => ("", String::new(), String::new(), ":"),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_escaped(out, key);
                    out.push_str(colon);
                    value.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
            Json::Spliced(splice) => match indent {
                None => out.push_str(&splice.compact),
                Some(_) => splice.tree.write(out, indent, depth),
            },
        }
    }

    /// Parse a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with a byte offset on malformed input
    /// (including trailing garbage, non-finite numbers and arrays or
    /// objects nested more than 128 deep).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(value)
    }
}

/// Stable number formatting: integers without a fractional part render as
/// integers; everything else uses Rust's shortest round-trip `Display`.
/// The integers, most of what the artifacts and the wire carry, are
/// written digit by digit rather than through `fmt`.
fn write_number(out: &mut String, n: f64) {
    debug_assert!(n.is_finite(), "JSON cannot carry {n}");
    if n.fract() == 0.0 && n.abs() < 1e15 {
        // At most 15 digits; `-0.0` is not below zero, so it renders `0`.
        let mut digits = [0u8; 15];
        let mut at = digits.len();
        let mut v = n.abs() as u64;
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        if n < 0.0 {
            out.push('-');
        }
        out.push_str(std::str::from_utf8(&digits[at..]).expect("ascii digits"));
    } else {
        let _ = write!(out, "{n}");
    }
}

/// A JSON string literal: `"`, `\` and U+0000–U+001F escaped, every
/// run of bytes between them copied in one push.
fn write_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        if byte >= 0x20 && byte != b'"' && byte != b'\\' {
            continue;
        }
        // Every byte of a multi-byte character is 0x80 or above, so `i`
        // is a character boundary.
        out.push_str(&s[run..i]);
        run = i + 1;
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(byte >> 4)]));
                out.push(char::from(HEX[usize::from(byte & 0xf)]));
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so an unbounded depth lets one request line
/// overflow a thread's stack; the deepest committed document nests 8.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => err(format!(
                "unexpected `{}` at byte {}",
                char::from(c),
                self.pos
            )),
            None => err("unexpected end of input"),
        }
    }

    /// Parse one array or object, one nesting level deeper.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| JsonError {
                    message: format!("invalid utf-8 at byte {start}"),
                })?,
            );
            match self.peek() {
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let Some(unit) = self.hex4(self.pos + 1) else {
                                return err(format!("bad \\u escape at byte {}", self.pos));
                            };
                            self.pos += 4;
                            let scalar = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: must pair with a
                                // following `\uDC00..\uDFFF` low half.
                                let escaped = self.bytes.get(self.pos + 1) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 2) == Some(&b'u');
                                let low = if escaped {
                                    self.hex4(self.pos + 3)
                                } else {
                                    None
                                };
                                match low {
                                    Some(low) if (0xDC00..0xE000).contains(&low) => {
                                        self.pos += 6;
                                        0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                                    }
                                    _ => {
                                        return err(format!(
                                            "unpaired surrogate \\u escape at byte {}",
                                            self.pos
                                        ))
                                    }
                                }
                            } else {
                                unit
                            };
                            match char::from_u32(scalar) {
                                Some(c) => out.push(c),
                                None => return err(format!("bad \\u escape at byte {}", self.pos)),
                            }
                        }
                        _ => return err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                _ => return err("unterminated string"),
            }
        }
    }

    /// Four hex digits starting at `at`, as a code unit.
    fn hex4(&self, at: usize) -> Option<u32> {
        self.bytes
            .get(at..at + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => err(format!("invalid number `{text}` at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The writer before its fast paths, kept as their oracle: the tree
    /// walk of [`Json::write`] with a splice's tree walked like any
    /// other, and the leaves formatted through `fmt` one `char` at a
    /// time.
    mod reference {
        use super::super::Json;
        use std::fmt::Write as _;

        pub fn render(json: &Json, indent: Option<usize>) -> String {
            let mut out = String::new();
            write(json, &mut out, indent, 0);
            if indent.is_some() {
                out.push('\n');
            }
            out
        }

        fn write(json: &Json, out: &mut String, indent: Option<usize>, depth: usize) {
            let (nl, pad, pad_in, colon) = match indent {
                Some(w) => (
                    "\n",
                    " ".repeat(w * depth),
                    " ".repeat(w * (depth + 1)),
                    ": ",
                ),
                None => ("", String::new(), String::new(), ":"),
            };
            match json {
                Json::Null => out.push_str("null"),
                Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Json::Num(n) => write_number(out, *n),
                Json::Str(s) => write_escaped(out, s),
                Json::Arr(items) if items.is_empty() => out.push_str("[]"),
                Json::Arr(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(nl);
                        out.push_str(&pad_in);
                        write(item, out, indent, depth + 1);
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    out.push(']');
                }
                Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
                Json::Obj(fields) => {
                    out.push('{');
                    for (i, (key, value)) in fields.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(nl);
                        out.push_str(&pad_in);
                        write_escaped(out, key);
                        out.push_str(colon);
                        write(value, out, indent, depth + 1);
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    out.push('}');
                }
                Json::Spliced(splice) => write(&splice.tree, out, indent, depth),
            }
        }

        fn write_number(out: &mut String, n: f64) {
            if n.fract() == 0.0 && n.abs() < 1e15 {
                let _ = write!(out, "{}", n as i64);
            } else {
                let _ = write!(out, "{n}");
            }
        }

        fn write_escaped(out: &mut String, s: &str) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }
    }

    /// Random trees from one seed (SplitMix64): strings over the escaped
    /// range, `"`, `\`, DEL and multi-byte UTF-8; numbers at the integer
    /// path's edges, fractional and exponent-form values, random
    /// integers around ±10^15 and random finite bit patterns.
    struct Trees(u64);

    impl Trees {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn string(&mut self) -> String {
            let special = [
                '"', '\\', '\u{7f}', 'é', '€', '\u{2028}', '😀', 'a', 'Z', ' ', '/',
            ];
            (0..self.below(9))
                .map(|_| match self.below(3) {
                    0 => char::from(self.below(0x20) as u8),
                    _ => special[self.below(special.len())],
                })
                .collect()
        }

        fn number(&mut self) -> f64 {
            let edges = [
                0.0,
                -0.0,
                1.0,
                -1.0,
                999_999_999_999_999.0,
                -999_999_999_999_999.0,
                1e15,
                -1e15,
                0.5,
                -0.25,
                1.0 / 3.0,
                0.917_129_3,
                1e-7,
                -2.5e-300,
                1.5e300,
                6.02e23,
                f64::MIN_POSITIVE,
                f64::MAX,
            ];
            match self.below(4) {
                0 | 1 => edges[self.below(edges.len())],
                2 => (self.next() % 4_000_000_000_000_001) as f64 - 2e15,
                _ => Some(f64::from_bits(self.next()))
                    .filter(|n| n.is_finite())
                    .unwrap_or(0.5),
            }
        }

        fn tree(&mut self, depth: usize) -> Json {
            let kinds = if depth < 4 { 7 } else { 4 };
            match self.below(kinds) {
                0 => Json::Null,
                1 => Json::Bool(self.below(2) == 1),
                2 => Json::Num(self.number()),
                3 => Json::Str(self.string()),
                4 | 5 => Json::Arr((0..self.below(4)).map(|_| self.tree(depth + 1)).collect()),
                _ => Json::Obj(
                    (0..self.below(4))
                        .map(|_| (self.string(), self.tree(depth + 1)))
                        .collect(),
                ),
            }
        }

        /// `tree` with random subtrees wrapped in splice nodes.
        fn splice_some(&mut self, tree: &Json) -> Json {
            let copy = match tree {
                Json::Arr(items) => Json::Arr(items.iter().map(|i| self.splice_some(i)).collect()),
                Json::Obj(fields) => Json::Obj(
                    fields
                        .iter()
                        .map(|(k, v)| (k.clone(), self.splice_some(v)))
                        .collect(),
                ),
                leaf => leaf.clone(),
            };
            if self.below(3) == 0 {
                Json::spliced(copy)
            } else {
                copy
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn fast_writer_renders_the_reference_bytes(seed in any::<u64>()) {
            let mut trees = Trees(seed);
            let tree = trees.tree(0);
            let spliced = trees.splice_some(&tree);
            let compact = reference::render(&tree, None);
            let pretty = reference::render(&tree, Some(2));
            for json in [&tree, &spliced] {
                prop_assert_eq!(json.render_compact(), compact.clone());
                prop_assert_eq!(json.render_pretty(), pretty.clone());
            }
            prop_assert_eq!(&spliced, &tree);
            prop_assert_eq!(Json::parse(&compact).expect("parse"), tree);
        }
    }

    #[test]
    fn spliced_node_reads_as_its_tree() {
        let tree = Json::obj()
            .with("name", Json::str("cell"))
            .with("n", Json::uint(7))
            .with("ok", Json::Bool(true))
            .with("rows", Json::Arr(vec![Json::num(0.5), Json::Null]));
        let spliced = Json::spliced(tree.clone());
        assert_eq!(spliced, tree);
        assert_eq!(
            Json::spliced(spliced.clone()).render_compact(),
            tree.render_compact()
        );
        assert_eq!(spliced.field_str("name"), Ok("cell"));
        assert_eq!(spliced.field_u64("n"), Ok(7));
        assert_eq!(spliced.field_bool("ok"), Ok(true));
        assert_eq!(spliced.field_arr("rows"), tree.field_arr("rows"));
        assert_eq!(Json::spliced(Json::str("x")).as_str(), Some("x"));
        assert_eq!(Json::spliced(Json::num(2.5)).as_f64(), Some(2.5));
        let doc = Json::obj().with("cell", spliced);
        assert_eq!(
            doc.render_compact(),
            Json::obj().with("cell", tree.clone()).render_compact()
        );
        assert_eq!(
            doc.render_pretty(),
            Json::obj().with("cell", tree).render_pretty()
        );
    }

    #[test]
    fn round_trips_nested_trees() {
        let tree = Json::obj()
            .with("name", Json::str("table3"))
            .with("hash", Json::hex(0xdead_beef_0042_1111))
            .with("quick", Json::Bool(true))
            .with("acc", Json::num(0.9171))
            .with(
                "rows",
                Json::Arr(vec![
                    Json::Arr(vec![Json::str("a \"quoted\"\nlabel"), Json::num(3.0)]),
                    Json::Null,
                ]),
            );
        for text in [tree.render_compact(), tree.render_pretty()] {
            assert_eq!(Json::parse(&text).expect("parse"), tree);
        }
        assert_eq!(
            tree.get("hash").and_then(Json::as_hex_u64),
            Some(0xdead_beef_0042_1111)
        );
    }

    #[test]
    fn float_formatting_is_round_trip_exact() {
        for v in [0.1f64, 1.0 / 3.0, 0.917_129_3, 65.0, -0.25] {
            let text = Json::Num(v).render_compact();
            assert_eq!(Json::parse(&text).unwrap().as_f64(), Some(v), "{text}");
        }
    }

    #[test]
    fn surrogate_pair_escapes_decode() {
        let parsed = Json::parse("\"\\ud83d\\ude00 ok \\u00e9\"").unwrap();
        assert_eq!(parsed.as_str(), Some("\u{1f600} ok é"));
        // Unpaired halves are malformed JSON.
        assert!(Json::parse("\"\\ud83d\"").is_err());
        assert!(Json::parse("\"\\ud83d x\"").is_err());
        assert!(Json::parse("\"\\ude00\"").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("1e999").is_err());
    }

    #[test]
    fn rejects_documents_nested_too_deep() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let e = Json::parse(&nested(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert_eq!(e.message, "nesting deeper than 128 at byte 128");
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&objects).is_err());
        // Depth is nesting, not a count of containers.
        let wide = format!("[{}]", vec!["[[]]"; 4 * MAX_DEPTH].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn object_order_is_preserved() {
        let parsed = Json::parse("{\"z\":1,\"a\":2}").unwrap();
        assert_eq!(parsed.render_compact(), "{\"z\":1,\"a\":2}");
    }
}
