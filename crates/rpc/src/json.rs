//! A minimal, allocation-conscious JSON reader/writer for the RPC API.
//!
//! The build is offline (no `serde_json`), so the wire format is
//! hand-rolled here: a strict recursive-descent parser over the subset
//! the API speaks
//! (objects, arrays, strings with `\uXXXX` escapes, finite numbers,
//! booleans, null) and a writer with correct string escaping. The
//! parser is **total**: any byte sequence produces either a [`Json`]
//! value or a typed [`JsonError`] — never a panic — and recursion is
//! depth-bounded so adversarial nesting cannot blow the worker's stack
//! (property-tested in `tests/properties.rs`).

use std::fmt;

/// Maximum nesting depth the parser accepts. The API uses ≤ 3 levels;
/// 32 leaves headroom without letting `[[[[…]]]]` recurse unboundedly.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always finite — the grammar cannot spell
    /// infinities or NaN).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys keep the last value
    /// on lookup-by-iteration order below).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member of an object by key (`None` for non-objects and missing
    /// keys). Duplicate keys resolve to the **last** occurrence, like
    /// serde_json.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a finite f64, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a u64, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Why a body failed to parse. Every variant maps to a 400-class API
/// error — the server never panics on hostile bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonError {
    /// Input ended mid-value.
    Truncated,
    /// An unexpected byte at this offset.
    Unexpected(usize),
    /// Nesting beyond [`MAX_DEPTH`].
    TooDeep,
    /// A number token that does not parse as a finite f64.
    BadNumber(usize),
    /// A malformed `\` escape or control byte inside a string.
    BadString(usize),
    /// Valid value followed by trailing non-whitespace.
    Trailing(usize),
    /// The body is not UTF-8.
    NotUtf8,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Truncated => write!(f, "body truncated mid-value"),
            JsonError::Unexpected(at) => write!(f, "unexpected byte at offset {at}"),
            JsonError::TooDeep => write!(f, "nesting deeper than {MAX_DEPTH}"),
            JsonError::BadNumber(at) => write!(f, "malformed number at offset {at}"),
            JsonError::BadString(at) => write!(f, "malformed string at offset {at}"),
            JsonError::Trailing(at) => write!(f, "trailing bytes at offset {at}"),
            JsonError::NotUtf8 => write!(f, "body is not valid UTF-8"),
        }
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON value from `bytes` (the whole body must be the
/// value, modulo surrounding whitespace).
///
/// # Errors
///
/// Returns a [`JsonError`] on any malformed, truncated or
/// over-nested input.
pub fn parse(bytes: &[u8]) -> Result<Json, JsonError> {
    let text = std::str::from_utf8(bytes).map_err(|_| JsonError::NotUtf8)?;
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError::Trailing(p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &[u8]) -> bool {
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::TooDeep);
        }
        match self.peek() {
            None => Err(JsonError::Truncated),
            Some(b'n') => {
                if self.eat(b"null") {
                    Ok(Json::Null)
                } else {
                    Err(JsonError::Unexpected(self.pos))
                }
            }
            Some(b't') => {
                if self.eat(b"true") {
                    Ok(Json::Bool(true))
                } else {
                    Err(JsonError::Unexpected(self.pos))
                }
            }
            Some(b'f') => {
                if self.eat(b"false") {
                    Ok(Json::Bool(false))
                } else {
                    Err(JsonError::Unexpected(self.pos))
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        Some(_) => return Err(JsonError::Unexpected(self.pos)),
                        None => return Err(JsonError::Truncated),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.skip_ws();
                    if self.peek() != Some(b'"') {
                        return Err(match self.peek() {
                            None => JsonError::Truncated,
                            Some(_) => JsonError::Unexpected(self.pos),
                        });
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if self.peek() != Some(b':') {
                        return Err(match self.peek() {
                            None => JsonError::Truncated,
                            Some(_) => JsonError::Unexpected(self.pos),
                        });
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let value = self.value(depth + 1)?;
                    members.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(members));
                        }
                        Some(_) => return Err(JsonError::Unexpected(self.pos)),
                        None => return Err(JsonError::Truncated),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(JsonError::Unexpected(self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        // `str::parse::<f64>` accepts exactly the JSON number grammar
        // over this alphabet (plus a few harmless extensions like `1.`),
        // and cannot produce NaN from it; infinities from overflow are
        // rejected below so `Json::Num` stays finite.
        let token = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii token");
        match token.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(JsonError::BadNumber(start)),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        debug_assert_eq!(self.peek(), Some(b'"'));
        let start = self.pos;
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError::Truncated),
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or(JsonError::Truncated)?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| JsonError::BadString(start))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError::BadString(start))?;
                            // Surrogates are rejected rather than paired:
                            // the API never emits astral-plane escapes.
                            let c = char::from_u32(code).ok_or(JsonError::BadString(start))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        Some(_) => return Err(JsonError::BadString(start)),
                        None => return Err(JsonError::Truncated),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(JsonError::BadString(start)),
                Some(_) => {
                    // Multi-byte UTF-8 passes through verbatim (the body
                    // was validated as UTF-8 up front).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).expect("validated utf-8");
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }
}

/// Escapes `s` as the inside of a JSON string literal (no surrounding
/// quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a string as a quoted JSON literal.
pub fn quote(s: &str) -> String {
    format!("\"{}\"", escape(s))
}
