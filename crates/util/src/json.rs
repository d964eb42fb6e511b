//! A small JSON model with a deterministic writer and a strict parser.
//!
//! Replaces `serde`/`serde_json` for everything the workspace serializes:
//! run summaries, figure exports, and the content-addressed run cache.
//! Design points that matter here:
//!
//! * **Deterministic output.** Objects keep insertion order ([`Json::Obj`]
//!   is a `Vec`, not a map), numbers format canonically, and the writer has
//!   no configuration — encoding the same value twice yields the same
//!   bytes, which is what makes cached `RunStats` byte-comparable against
//!   fresh runs.
//! * **Lossless integers.** `u64` and `i64` keep their own variants; a
//!   simulation easily exceeds 2^53 cycles, where an f64-only model (and
//!   JavaScript) would silently round.
//! * **Round-tripping floats.** `f64` values print via Rust's shortest
//!   round-trip formatting and parse back to the identical bit pattern.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Object as an ordered field list (insertion order preserved).
    Obj(Vec<(String, Json)>),
}

/// Types that encode themselves as JSON.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

/// Types that decode themselves from JSON.
pub trait FromJson: Sized {
    fn from_json(j: &Json) -> Result<Self, String>;

    /// Parse a JSON document and decode it.
    fn from_text(text: &str) -> Result<Self, String> {
        Self::from_json(&Json::parse(text)?)
    }
}

/// Implement [`ToJson`] and [`FromJson`] for a plain record from one field
/// list: `json_record!(path::Type { field_a, field_b });`.
///
/// Each field encodes under the key `stringify!(field)`, and the list
/// order is the object's key order — so it is byte order, and part of
/// every cache key hashed over the encoding. Decoding builds a struct
/// literal through [`Json::field`], so a field left out of the list is a
/// compile error. Types whose decoding does more than read fields (tagged
/// enums, sparse encodings, decode-time validation) implement the traits
/// by hand.
#[macro_export]
macro_rules! json_record {
    ($ty:path { $($field:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::obj(::std::vec![
                    $((::core::stringify!($field), $crate::ToJson::to_json(&self.$field)),)+
                ])
            }
        }

        impl $crate::FromJson for $ty {
            fn from_json(j: &$crate::Json) -> ::core::result::Result<Self, ::std::string::String> {
                ::core::result::Result::Ok(Self {
                    $($field: j.field(::core::stringify!($field))?,)+
                })
            }
        }
    };
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Look up an object field.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Look up a required object field.
    pub fn req(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    /// Decode a required object field.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, String> {
        T::from_json(self.req(key)?).map_err(|e| format!("field `{key}`: {e}"))
    }

    pub fn as_u64(&self) -> Result<u64, String> {
        match self {
            Json::U64(v) => Ok(*v),
            Json::I64(v) if *v >= 0 => Ok(*v as u64),
            other => Err(format!("expected unsigned integer, got {other:?}")),
        }
    }

    pub fn as_i64(&self) -> Result<i64, String> {
        match self {
            Json::I64(v) => Ok(*v),
            Json::U64(v) if *v <= i64::MAX as u64 => Ok(*v as i64),
            other => Err(format!("expected integer, got {other:?}")),
        }
    }

    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            Json::F64(v) => Ok(*v),
            Json::U64(v) => Ok(*v as f64),
            Json::I64(v) => Ok(*v as f64),
            other => Err(format!("expected number, got {other:?}")),
        }
    }

    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Json::Bool(v) => Ok(*v),
            other => Err(format!("expected bool, got {other:?}")),
        }
    }

    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("expected string, got {other:?}")),
        }
    }

    pub fn as_arr(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(v) => Ok(v),
            other => Err(format!("expected array, got {other:?}")),
        }
    }

    pub fn as_obj(&self) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(v) => Ok(v),
            other => Err(format!("expected object, got {other:?}")),
        }
    }

    /// Parse a JSON document (must consume the whole input). Nesting
    /// deeper than 128 arrays/objects is an error, so hostile input cannot
    /// overflow the stack of the recursive-descent parser.
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Pretty-print with two-space indentation and a trailing newline —
    /// the on-disk format of exports and the run cache.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                out.push_str(&v.to_string());
            }
            Json::I64(v) => {
                out.push_str(&v.to_string());
            }
            Json::F64(v) => write_f64(out, *v),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, '[', ']', items.len(), |out, i, ind| {
                items[i].write(out, ind);
            }),
            Json::Obj(fields) => write_seq(out, indent, '{', '}', fields.len(), |out, i, ind| {
                let (k, v) = &fields[i];
                write_escaped(out, k);
                out.push_str(": ");
                v.write(out, ind);
            }),
        }
    }
}

impl fmt::Display for Json {
    /// Compact encoding (no whitespace beyond `": "` separators in pretty
    /// mode — compact mode has none at all).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    let inner = indent.map(|d| d + 1);
    for i in 0..len {
        if let Some(d) = inner {
            out.push('\n');
            out.push_str(&"  ".repeat(d));
        }
        item(out, i, inner);
        if i + 1 < len {
            out.push(',');
            if indent.is_none() {
                // compact: no space
            }
        }
    }
    if let Some(d) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(d));
    }
    out.push(close);
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` is Rust's shortest representation that round-trips, and
        // always contains '.' or 'e' so it re-parses as F64.
        out.push_str(&format!("{v:?}"));
    } else {
        // JSON has no NaN/Inf; none of our statistics produce them, but a
        // total encoder must pick something decodable.
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`Json::parse`] accepts. Every document
/// the workspace writes nests fewer than 10 levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    /// Parse one array or object one level deeper, bounded by [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
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
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while self.pos < self.bytes.len()
                && self.bytes[self.pos] != b'"'
                && self.bytes[self.pos] != b'\\'
            {
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string")?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let cp = self.hex4()?;
                            if (0xD800..0xDC00).contains(&cp) {
                                // Surrogate pair.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".into());
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                s.push(char::from_u32(c).ok_or("invalid surrogate pair")?);
                            } else {
                                s.push(char::from_u32(cp).ok_or("invalid codepoint")?);
                            }
                        }
                        _ => return Err(format!("bad escape `\\{}`", esc as char)),
                    }
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| "bad \\u escape")?;
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".into())
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        // JSON has no infinities: an overflowing literal is an error, not
        // a value the writer could never reproduce.
        let finite = |text: &str| match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::F64(v)),
            Ok(_) => Err(format!("number `{text}` out of range")),
            Err(e) => Err(format!("bad number `{text}`: {e}")),
        };
        if float {
            finite(text)
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Json::I64)
                .map_err(|e| format!("bad number `{text}`: {e}"))
        } else {
            text.parse::<u64>().map(Json::U64).or_else(|_| finite(text))
        }
    }
}

macro_rules! int_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::U64(*self as u64)
            }
        }
        impl FromJson for $t {
            fn from_json(j: &Json) -> Result<Self, String> {
                let v = j.as_u64()?;
                <$t>::try_from(v).map_err(|_| format!("{v} out of range for {}", stringify!($t)))
            }
        }
    )*};
}

int_json!(u8, u16, u32, u64, usize);

impl ToJson for i64 {
    fn to_json(&self) -> Json {
        Json::I64(*self)
    }
}

impl FromJson for i64 {
    fn from_json(j: &Json) -> Result<Self, String> {
        j.as_i64()
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl FromJson for f64 {
    fn from_json(j: &Json) -> Result<Self, String> {
        j.as_f64()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(j: &Json) -> Result<Self, String> {
        j.as_bool()
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(j: &Json) -> Result<Self, String> {
        j.as_str().map(str::to_string)
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(j: &Json) -> Result<Self, String> {
        j.as_arr()?.iter().map(T::from_json).collect()
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson + Default + Copy, const N: usize> FromJson for [T; N] {
    fn from_json(j: &Json) -> Result<Self, String> {
        let items = j.as_arr()?;
        if items.len() != N {
            return Err(format!("expected {N} entries, got {}", items.len()));
        }
        let mut out = [T::default(); N];
        for (slot, item) in out.iter_mut().zip(items) {
            *slot = T::from_json(item)?;
        }
        Ok(out)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(j: &Json) -> Result<Self, String> {
        match j {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for (text, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("0", Json::U64(0)),
            ("18446744073709551615", Json::U64(u64::MAX)),
            ("-42", Json::I64(-42)),
            ("0.5", Json::F64(0.5)),
            ("\"hi\"", Json::Str("hi".into())),
        ] {
            assert_eq!(Json::parse(text).unwrap(), value, "{text}");
            assert_eq!(Json::parse(&value.to_string()).unwrap(), value);
        }
    }

    #[test]
    fn u64_precision_is_lossless() {
        // 2^53 + 1 is not representable in f64 — the dedicated U64 variant
        // must carry it exactly.
        let v = (1u64 << 53) + 1;
        let j = Json::U64(v);
        assert_eq!(Json::parse(&j.to_string()).unwrap().as_u64().unwrap(), v);
    }

    #[test]
    fn f64_round_trips_bit_exactly() {
        for v in [0.1, 1.0 / 3.0, 1e-300, 2.5e17, f64::MIN_POSITIVE, -0.0] {
            let j = Json::F64(v);
            let back = Json::parse(&j.to_string()).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
    }

    #[test]
    fn string_escapes() {
        let s = "line\nquote\"back\\slash\ttab\u{1}unicode\u{263A}";
        let j = Json::Str(s.into());
        assert_eq!(Json::parse(&j.to_string()).unwrap().as_str().unwrap(), s);
        // Explicit \u escapes, including a surrogate pair.
        assert_eq!(
            Json::parse(r#""A☺😀""#).unwrap(),
            Json::Str("A\u{263A}\u{1F600}".into())
        );
    }

    #[test]
    fn nested_structure_round_trips() {
        let v = Json::obj(vec![
            ("name", Json::Str("run".into())),
            ("cycles", Json::U64(123456789)),
            ("ratios", Json::Arr(vec![Json::F64(0.25), Json::F64(0.75)])),
            (
                "nested",
                Json::obj(vec![("empty_arr", Json::Arr(vec![])), ("null", Json::Null)]),
            ),
        ]);
        for text in [v.to_string(), v.pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn deterministic_encoding() {
        let v = Json::obj(vec![("b", Json::U64(1)), ("a", Json::U64(2))]);
        assert_eq!(v.to_string(), v.clone().to_string());
        assert_eq!(v.to_string(), r#"{"b": 1,"a": 2}"#);
        // Insertion order is preserved, not sorted.
        let fields = v.as_obj().unwrap();
        assert_eq!(fields[0].0, "b");
    }

    #[test]
    fn pretty_output_shape() {
        let v = Json::obj(vec![("a", Json::Arr(vec![Json::U64(1), Json::U64(2)]))]);
        let p = v.pretty();
        assert!(
            p.contains("{\n  \"a\": [\n    1,\n    2\n  ]\n}\n"),
            "got: {p}"
        );
    }

    #[test]
    fn parse_errors_are_reported() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"unterminated",
            "01x",
            "{\"a\" 1}",
            "nul",
            "[1] junk",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        let big_int = format!("1{}", "0".repeat(400));
        for text in ["1e999", "-1e999", big_int.as_str()] {
            let err = Json::parse(text).unwrap_err();
            assert!(err.contains("out of range"), "{text}: {err}");
        }
        // Past u64 but finite: still a number.
        assert_eq!(
            Json::parse("18446744073709551616").unwrap(),
            Json::F64(18446744073709551616.0)
        );
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let nested = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let obj = "{\"a\": ".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&obj).unwrap_err().contains("nesting deeper"));
        // Far past the cap, on the default 2 MiB spawned-thread stack: an
        // error, not a stack overflow that aborts the process.
        let deep = nested(10_000);
        let r = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || Json::parse(&deep).is_err())
            .unwrap()
            .join()
            .unwrap();
        assert!(r);
    }

    #[derive(Debug, PartialEq)]
    struct Point {
        x: u32,
        label: String,
        tags: Vec<u8>,
    }
    crate::json_record!(Point { x, label, tags });

    #[test]
    fn json_record_encodes_in_list_order_and_round_trips() {
        let p = Point {
            x: 7,
            label: "a".into(),
            tags: vec![1, 2],
        };
        let text = p.to_json().to_string();
        assert_eq!(text, r#"{"x": 7,"label": "a","tags": [1,2]}"#);
        assert_eq!(Point::from_text(&text).unwrap(), p);
        let err = Point::from_text(r#"{"x": 7,"label": "a"}"#).unwrap_err();
        assert_eq!(err, "missing field `tags`");
        let err = Point::from_text(r#"{"x": 4294967296,"label": "a","tags": []}"#).unwrap_err();
        assert_eq!(err, "field `x`: 4294967296 out of range for u32");
    }

    #[test]
    fn derived_impls_round_trip() {
        let v: Vec<u64> = vec![1, 2, 3];
        assert_eq!(Vec::<u64>::from_json(&v.to_json()).unwrap(), v);
        let a: [u64; 4] = [9, 8, 7, 6];
        assert_eq!(<[u64; 4]>::from_json(&a.to_json()).unwrap(), a);
        let o: Option<u16> = None;
        assert_eq!(Option::<u16>::from_json(&o.to_json()).unwrap(), o);
        assert!(u16::from_json(&Json::U64(70000)).is_err());
        let err = <[u64; 4]>::from_json(&vec![1u64, 2].to_json()).unwrap_err();
        assert_eq!(err, "expected 4 entries, got 2");
    }
}
