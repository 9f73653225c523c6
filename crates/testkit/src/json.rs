//! A self-contained JSON encoder/decoder.
//!
//! Replaces the `serde`/`serde_json` derive stack: types implement
//! [`ToJson`]/[`FromJson`] by hand against the [`Json`] tree. The codec is
//! deliberately small — it supports exactly what this workspace writes
//! (the IR encodings `program_hash` hashes, coverage and ledger records,
//! trace lines, bench rows, netdriver control messages) — and
//! deterministic: map-like data is emitted in a caller-controlled order so
//! encoded output is byte-stable across runs.
//!
//! Integers are carried as `u128`/`i128` so 128-bit bitvector payloads
//! round-trip losslessly; they are written as bare JSON integer literals,
//! which standard JSON permits (precision limits are an interop concern,
//! not a grammar one, and we control both ends).

use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a cap one small hostile frame
/// (`[[[[…`) overflows the decoding thread's stack. Everything this
/// workspace parses (control frames, trace and ledger lines, bench
/// specs) nests fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Non-negative integers (the common case for widths, ids, payloads).
    UInt(u128),
    /// Negative integers only; non-negative values normalize to `UInt`.
    Int(i128),
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Ordered key/value pairs — order is preserved, not sorted, so the
    /// encoder controls determinism.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required-field lookup with a typed error.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::new(format!("missing field `{key}`")))
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(JsonError::new(format!("expected array, got {}", other.kind()))),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(JsonError::new(format!("expected string, got {}", other.kind()))),
        }
    }

    /// The value as an unsigned integer.
    pub fn as_u128(&self) -> Result<u128, JsonError> {
        match self {
            Json::UInt(v) => Ok(*v),
            other => Err(JsonError::new(format!(
                "expected unsigned integer, got {}",
                other.kind()
            ))),
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::new(format!("expected bool, got {}", other.kind()))),
        }
    }

    /// The value as a float (integers coerce).
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Float(v) => Ok(*v),
            Json::UInt(v) => Ok(*v as f64),
            Json::Int(v) => Ok(*v as f64),
            other => Err(JsonError::new(format!("expected number, got {}", other.kind()))),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::UInt(_) | Json::Int(_) => "integer",
            Json::Float(_) => "float",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Serializes to compact JSON text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::UInt(v) => out.push_str(&v.to_string()),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Float(v) => {
                if v.is_finite() {
                    // Keep a decimal point so the value re-parses as Float.
                    let s = format!("{v}");
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null"); // JSON has no Inf/NaN
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::new(format!(
                "trailing input at byte {}",
                p.pos
            )));
        }
        Ok(v)
    }
}

fn write_escaped(s: &str, out: &mut String) {
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

/// Decode/parse failure with a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> JsonError {
        JsonError { msg: msg.into() }
    }

    /// Prefixes the message with a decoding context (type or field name).
    pub fn context(self, ctx: &str) -> JsonError {
        JsonError {
            msg: format!("{ctx}: {}", self.msg),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(JsonError::new(format!(
                "invalid literal at byte {}",
                self.pos
            )))
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
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(b) => Err(JsonError::new(format!(
                "unexpected byte `{}` at {}",
                b as char, self.pos
            ))),
            None => Err(JsonError::new("unexpected end of input")),
        }
    }

    /// Parses one array or object, refusing to open more than
    /// [`MAX_DEPTH`] at once.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError::new(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
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
                _ => return Err(JsonError::new(format!("bad array at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(JsonError::new(format!("bad object at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| JsonError::new("invalid utf-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| JsonError::new("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError::new("bad \\u escape"))?;
                            // Surrogates are not produced by our encoder;
                            // map unpaired ones to the replacement char.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(JsonError::new("bad escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(JsonError::new("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits are ascii");
        if is_float {
            let v: f64 = text
                .parse()
                .map_err(|_| JsonError::new(format!("bad number `{text}`")))?;
            Ok(Json::Float(v))
        } else if let Some(rest) = text.strip_prefix('-') {
            let mag: u128 = rest
                .parse()
                .map_err(|_| JsonError::new(format!("bad number `{text}`")))?;
            let v = if mag == 1u128 << 127 {
                i128::MIN
            } else {
                let m = i128::try_from(mag).map_err(|_| {
                    JsonError::new(format!("integer out of range `{text}`"))
                })?;
                -m
            };
            Ok(Json::Int(v))
        } else {
            let v: u128 = text
                .parse()
                .map_err(|_| JsonError::new(format!("bad number `{text}`")))?;
            Ok(Json::UInt(v))
        }
    }
}

/// Encoding into the [`Json`] tree.
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;

    /// Convenience: straight to compact text.
    fn to_json_text(&self) -> String {
        self.to_json().to_text()
    }
}

/// Decoding from the [`Json`] tree (control messages decode their scalar
/// fields through it).
pub trait FromJson: Sized {
    /// Reconstructs a value, rejecting shape mismatches.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

macro_rules! impl_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::UInt(*self as u128)
            }
        }
    )*};
}
impl_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_from_json_uint {
    ($($t:ty),*) => {$(
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let raw = v.as_u128()?;
                <$t>::try_from(raw).map_err(|_| {
                    JsonError::new(format!(
                        "{raw} out of range for {}",
                        stringify!($t)
                    ))
                })
            }
        }
    )*};
}
impl_from_json_uint!(u16, u64);

impl ToJson for u128 {
    fn to_json(&self) -> Json {
        Json::UInt(*self)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}
impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.as_str()?.to_owned())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

/// Helper for enum-style encodings: `{"tag": ...payload...}`.
pub fn tagged(tag: &str, payload: Json) -> Json {
    Json::Obj(vec![(tag.to_owned(), payload)])
}

/// Helper for decoding enum-style encodings: the single `(tag, payload)`
/// pair of a one-key object, or a bare string tag for unit variants.
pub fn untag(v: &Json) -> Result<(&str, &Json), JsonError> {
    const UNIT: &Json = &Json::Null;
    match v {
        Json::Str(tag) => Ok((tag, UNIT)),
        Json::Obj(pairs) if pairs.len() == 1 => {
            Ok((pairs[0].0.as_str(), &pairs[0].1))
        }
        other => Err(JsonError::new(format!(
            "expected enum tag, got {}",
            other.kind()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) {
        let text = v.to_text();
        let back = Json::parse(&text).expect("parse back");
        assert_eq!(&back, v, "round-trip through `{text}`");
    }

    #[test]
    fn scalar_roundtrips() {
        roundtrip(&Json::Null);
        roundtrip(&Json::Bool(true));
        roundtrip(&Json::Bool(false));
        roundtrip(&Json::UInt(0));
        roundtrip(&Json::UInt(u128::MAX));
        roundtrip(&Json::Int(-1));
        roundtrip(&Json::Int(i128::MIN));
        roundtrip(&Json::Float(1.5));
        roundtrip(&Json::Float(-0.25));
        roundtrip(&Json::Str("hello".into()));
        roundtrip(&Json::Str("quote\" slash\\ nl\n tab\t".into()));
        roundtrip(&Json::Str("unicode: λ∀ 日本".into()));
    }

    #[test]
    fn container_roundtrips() {
        roundtrip(&Json::Arr(vec![]));
        roundtrip(&Json::Obj(vec![]));
        roundtrip(&Json::Arr(vec![
            Json::UInt(1),
            Json::Str("x".into()),
            Json::Arr(vec![Json::Null]),
        ]));
        roundtrip(&Json::Obj(vec![
            ("a".into(), Json::UInt(1)),
            ("b".into(), Json::Obj(vec![("c".into(), Json::Bool(false))])),
        ]));
    }

    #[test]
    fn whole_float_reparses_as_float() {
        let text = Json::Float(2.0).to_text();
        assert_eq!(text, "2.0");
        assert_eq!(Json::parse(&text).unwrap(), Json::Float(2.0));
    }

    #[test]
    fn negative_zero_stays_integer_zero() {
        // "-0" parses as Int(0)? We normalize: -0 magnitude 0 negates to 0.
        assert_eq!(Json::parse("-0").unwrap(), Json::Int(0));
    }

    #[test]
    fn parses_whitespace_and_rejects_trailing() {
        assert_eq!(
            Json::parse(" { \"k\" : [ 1 , 2 ] } ").unwrap(),
            Json::Obj(vec![(
                "k".into(),
                Json::Arr(vec![Json::UInt(1), Json::UInt(2)])
            )])
        );
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest(MAX_DEPTH + 1)).is_err());
        let deep = format!("{{\"t\":{}", "[".repeat(100_000));
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.to_string().contains("nesting deeper"), "{err}");
    }

    #[test]
    fn typed_roundtrips() {
        let decode = |v: &dyn ToJson| Json::parse(&v.to_json_text()).unwrap();
        assert_eq!(u64::from_json(&decode(&u64::MAX)).unwrap(), u64::MAX);
        assert_eq!(u16::from_json(&decode(&9u16)).unwrap(), 9);
        let s = "p\"q".to_owned();
        assert_eq!(String::from_json(&decode(&s)).unwrap(), s);

        assert_eq!(vec![1u32, 2, 3].to_json_text(), "[1,2,3]");
    }

    #[test]
    fn out_of_range_uint_rejected() {
        assert!(u16::from_json(&Json::UInt(1 << 16)).is_err());
        assert!(u16::from_json(&Json::UInt(u16::MAX as u128)).is_ok());
    }

    #[test]
    fn tagged_enum_helpers() {
        let v = tagged("Exact", Json::UInt(7));
        let (tag, payload) = untag(&v).unwrap();
        assert_eq!(tag, "Exact");
        assert_eq!(payload, &Json::UInt(7));

        let unit = Json::Str("Accept".into());
        let (tag, payload) = untag(&unit).unwrap();
        assert_eq!(tag, "Accept");
        assert_eq!(payload, &Json::Null);
    }
}
