//! A minimal, dependency-free JSON value with a parser and serialiser.
//!
//! The wire protocol is JSON-lines, and the build environment is offline
//! (no serde), so the server hand-rolls the little JSON it needs. Two
//! deliberate restrictions keep it exact for this engine:
//!
//! * numbers are **unsigned 64-bit integers** — every numeric quantity in
//!   the protocol (dictionary-encoded values, session ids, counters, page
//!   sizes) is a `u64`, and refusing floats avoids silently corrupting ids
//!   above 2^53;
//! * object keys are kept in insertion order (lookup is linear, objects are
//!   small).
//!
//! [`Json`] is the *parser's* result. Messages are written without building
//! a tree: `JsonSink` puts each field a message visits straight into the
//! output line, and `JsonSource` hands the fields of a parsed line back to
//! the same visitor (`Sink` / `Source` in `crate::protocol`).

use crate::protocol::{Kinds, Sink, Source};
use re_obs::CounterField;
use re_storage::Tuple;
use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An unsigned integer (the only number form the protocol uses).
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered key/value pairs).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key (linear scan).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parse a JSON document (must consume the whole input).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let bytes = input.as_bytes();
        let mut p = Parser {
            bytes,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(p.err("trailing characters after the JSON document"));
        }
        Ok(value)
    }
}

/// A parse error with a byte position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub position: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.position)
    }
}

impl std::error::Error for JsonError {}

/// Deepest nesting of arrays and objects a document may have. The
/// protocol's own messages need four levels; the cap is what keeps a peer's
/// line of `[[[[…` from recursing the parsing thread off its stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            position: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
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
            Some(b'0'..=b'9') => self.number(),
            Some(b'-') => Err(self.err("negative numbers are not part of the protocol")),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("only unsigned integers are part of the protocol"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|digits| digits.parse::<u64>().ok())
            .map(Json::UInt)
            .ok_or_else(|| self.err("integer out of u64 range"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // surrogate pair
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                self.eat(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid unicode escape"))?);
                        }
                        _ => return Err(self.err("unknown escape sequence")),
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape verbatim:
                    // one UTF-8 validation per run keeps a long string
                    // linear.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|b| matches!(b, b'"' | b'\\'))
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
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
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

fn escape_into(out: &mut String, s: &str) {
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

fn uint_into(out: &mut String, n: u64) {
    let _ = write!(out, "{n}");
}

fn array_into<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut each: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        each(out, item);
    }
    out.push(']');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_into(&mut out);
        f.write_str(&out)
    }
}

impl Json {
    fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::UInt(n) => uint_into(out, *n),
            Json::Str(s) => escape_into(out, s),
            Json::Arr(items) => array_into(out, items, |out, v| v.write_into(out)),
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(out, k);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// The JSON [`Sink`]: one object per message, a named key per visited
/// field in visiting order, absent optional fields omitted.
#[derive(Default)]
pub(crate) struct JsonSink(String);

impl JsonSink {
    /// Close the object and return the line (no trailing newline).
    pub(crate) fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }

    fn key(&mut self, key: &str) {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        escape_into(&mut self.0, key);
        self.0.push(':');
    }

    fn uint_rows<R: AsRef<[u64]>>(&mut self, key: &str, rows: &[R]) {
        self.key(key);
        array_into(&mut self.0, rows, |out, row| {
            array_into(out, row.as_ref(), |out, &v| uint_into(out, v))
        });
    }
}

impl Sink for JsonSink {
    fn kind(&mut self, kinds: &Kinds, name: &str) {
        if kinds.ok_flag {
            self.bool("ok", name != "error");
        }
        self.str(kinds.key, name);
    }

    fn u64(&mut self, key: &str, value: u64) {
        self.key(key);
        uint_into(&mut self.0, value);
    }

    fn bool(&mut self, key: &str, value: bool) {
        self.key(key);
        self.0.push_str(if value { "true" } else { "false" });
    }

    fn str(&mut self, key: &str, value: &str) {
        self.key(key);
        escape_into(&mut self.0, value);
    }

    fn opt_str(&mut self, key: &str, value: &str) {
        if !value.is_empty() {
            self.str(key, value);
        }
    }

    fn opt_u64(&mut self, key: &str, value: Option<u64>) {
        if let Some(value) = value {
            self.u64(key, value);
        }
    }

    fn strings(&mut self, key: &str, value: &[String]) {
        self.key(key);
        array_into(&mut self.0, value, |out, s| escape_into(out, s));
    }

    fn rows(&mut self, key: &str, value: &[Tuple]) {
        self.uint_rows(key, value);
    }

    fn counters(&mut self, fields: &[CounterField], values: &[u64]) {
        for (field, &value) in fields.iter().zip(values) {
            self.u64(field.key, value);
        }
    }

    fn counter_rows<const N: usize>(&mut self, key: &str, rows: &[[u64; N]]) {
        self.uint_rows(key, rows);
    }
}

/// The JSON [`Source`]: the fields of one parsed line, looked up by key.
/// A required key that is absent or of the wrong type is an error, and so
/// is an optional key of the wrong type.
pub(crate) struct JsonSource<'a> {
    json: &'a Json,
    /// The variant name, once read: the subject of the error messages.
    kind: &'static str,
}

fn uint_row(row: &Json) -> Option<Vec<u64>> {
    row.as_arr()?.iter().map(Json::as_u64).collect()
}

impl<'a> JsonSource<'a> {
    pub(crate) fn new(json: &'a Json) -> Self {
        JsonSource { json, kind: "" }
    }

    fn optional<T>(
        &self,
        key: &str,
        what: &str,
        get: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let found = self.json.get(key).map(get);
        found
            .map(|v| v.ok_or_else(|| self.needs(what, key)))
            .transpose()
    }

    fn required<T>(
        &self,
        key: &str,
        what: &str,
        get: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        let found = self.json.get(key).and_then(get);
        found.ok_or_else(|| self.needs(what, key))
    }

    fn needs(&self, what: &str, key: &str) -> String {
        format!("`{}` needs {what} `{key}`", self.kind)
    }
}

impl Source for JsonSource<'_> {
    fn kind(&mut self, kinds: &Kinds) -> Result<&'static str, String> {
        let name = self.json.get(kinds.key).and_then(Json::as_str);
        let name = name.ok_or_else(|| format!("missing `{}`", kinds.key))?;
        let known = kinds.names.iter().copied().find(|&n| n == name);
        self.kind = known.ok_or_else(|| format!("unknown `{}` `{name}`", kinds.key))?;
        Ok(self.kind)
    }

    fn u64(&mut self, key: &str) -> Result<u64, String> {
        self.required(key, "an unsigned integer", Json::as_u64)
    }

    fn bool(&mut self, key: &str) -> Result<bool, String> {
        self.required(key, "a boolean", Json::as_bool)
    }

    fn str(&mut self, key: &str) -> Result<String, String> {
        self.required(key, "a string", |v| v.as_str().map(str::to_string))
    }

    fn opt_str(&mut self, key: &str) -> Result<String, String> {
        let value = self.optional(key, "a string", |v| v.as_str().map(str::to_string))?;
        Ok(value.unwrap_or_default())
    }

    fn opt_u64(&mut self, key: &str) -> Result<Option<u64>, String> {
        self.optional(key, "an unsigned integer", Json::as_u64)
    }

    fn strings(&mut self, key: &str) -> Result<Vec<String>, String> {
        self.required(key, "an array of strings", |v| {
            let items = v.as_arr()?.iter();
            items.map(|s| s.as_str().map(str::to_string)).collect()
        })
    }

    fn rows(&mut self, key: &str) -> Result<Vec<Tuple>, String> {
        self.required(key, "an array of unsigned-integer rows", |v| {
            v.as_arr()?.iter().map(uint_row).collect()
        })
    }

    fn counters<const N: usize>(
        &mut self,
        fields: &[CounterField; N],
        required: bool,
    ) -> Result<[u64; N], String> {
        let mut values = [0; N];
        for (value, field) in values.iter_mut().zip(fields) {
            *value = if required {
                self.u64(field.key)?
            } else {
                let lenient = self.json.get(field.key).and_then(Json::as_u64);
                lenient.unwrap_or(0)
            };
        }
        Ok(values)
    }

    fn counter_rows<const N: usize>(&mut self, key: &str) -> Result<Vec<[u64; N]>, String> {
        self.required(key, "an array of counter rows", |v| {
            let rows = v.as_arr()?.iter();
            rows.map(|row| uint_row(row)?.try_into().ok()).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_beyond_the_cap_is_an_error_not_a_stack_overflow() {
        // One level of recursion per `[` or `{` would let a line of a few
        // hundred thousand of them overflow the reactor thread's stack.
        for open in ["[", "{\"a\":"] {
            let err = Json::parse(&open.repeat(200_000)).unwrap_err();
            assert_eq!(err.message, "nesting deeper than 64 levels");
        }
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deepest).is_ok());
        assert!(Json::parse(&format!("[{deepest}]")).is_err());
    }

    #[test]
    fn a_long_string_is_scanned_once() {
        // A statement of a few megabytes must cost one pass, not one
        // re-validation of the rest of the input per character (minutes on
        // the reactor thread); multi-byte runs between escapes come through
        // unchanged.
        let sql = "é∑ plain ".repeat(300_000);
        let line = format!("{{\"sql\":\"{sql}\\n\\u00e9{sql}\"}}");
        let parsed = Json::parse(&line).unwrap();
        let got = parsed.get("sql").unwrap().as_str().unwrap();
        assert_eq!(got, format!("{sql}\né{sql}"));
    }

    #[test]
    fn roundtrips_nested_documents() {
        let text = r#"{"cmd":"open","db":"dblp","k":18446744073709551615,"rows":[[1,2],[3,4]],"flag":true,"none":null}"#;
        let parsed = Json::parse(text).unwrap();
        assert_eq!(parsed.get("cmd").unwrap().as_str(), Some("open"));
        assert_eq!(
            parsed.get("k").unwrap().as_u64(),
            Some(u64::MAX),
            "u64::MAX survives (a float-based parser would corrupt it)"
        );
        assert_eq!(Json::parse(&parsed.to_string()).unwrap(), parsed);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = Json::Str("line1\nline2\t\"quoted\" \\ back ünïcode \u{0001}".to_string());
        let parsed = Json::parse(&original.to_string()).unwrap();
        assert_eq!(parsed, original);
        // surrogate pair
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::Str("😀".to_string()));
    }

    #[test]
    fn rejects_floats_negatives_and_garbage() {
        assert!(Json::parse("1.5").is_err());
        assert!(Json::parse("-3").is_err());
        assert!(Json::parse("1e9").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("18446744073709551616").is_err(), "u64 overflow");
    }

    #[test]
    fn whitespace_is_tolerated() {
        let parsed = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : { } } ").unwrap();
        assert_eq!(parsed.get("a").unwrap().as_arr().unwrap().len(), 2);
    }
}
