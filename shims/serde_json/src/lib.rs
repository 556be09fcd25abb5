//! Offline stand-in for `serde_json`, rendering and parsing the serde
//! shim's [`Value`] tree. Follows serde_json's observable conventions:
//! struct → object with fields in declaration order, non-finite floats
//! → `null`, floats printed via Rust's shortest-roundtrip `{}` format,
//! numbers without fraction/exponent parsed as integers (`i64`, then
//! `u64`, and only past `u64::MAX` as a float).

pub use serde::value::Value;

/// Error from JSON rendering or parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error: {}", self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error::new(e.to_string())
    }
}

/// Result alias matching serde_json's.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes `value` to a compact JSON string.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, None, 0);
    Ok(out)
}

/// Serializes `value` to a pretty-printed (2-space indent) JSON string.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// Parses a JSON string into any shim-`Deserialize` type.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T> {
    let value = parse_value(s)?;
    Ok(T::from_value(&value)?)
}

// ---- writer ---------------------------------------------------------

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_float(f: f64, out: &mut String) {
    if !f.is_finite() {
        out.push_str("null");
    } else if f == f.trunc() && f.abs() < 1e15 {
        // serde_json prints whole floats with a trailing ".0"
        out.push_str(&format!("{f:.1}"));
    } else {
        out.push_str(&format!("{f}"));
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

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Float(f) => write_float(*f, out),
        Value::Str(s) => write_escaped(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                    if indent.is_none() {
                        // compact: no space after comma, as serde_json
                    }
                }
                newline_indent(out, indent, depth + 1);
                write_value(item, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

// ---- parser ---------------------------------------------------------

/// Deepest nesting of arrays and objects the parser follows (the real
/// serde_json's limit). The parser recurses per level, and documents
/// arrive from outside the program: unbounded, a body of `[` characters
/// overflows the stack — an abort no `catch_unwind` sees.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

fn parse_value(s: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing data at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
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
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn nested(&mut self, container: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    /// Four hex digits at `pos`, consumed.
    fn hex4(&mut self) -> Result<u32> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::new("truncated \\u escape"))?;
        let mut code = 0;
        for &b in hex {
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| Error::new("bad \\u escape"))?;
            code = code * 16 + digit;
        }
        self.pos += 4;
        Ok(code)
    }

    /// The scalar a `\u` escape names, `pos` just past the `u`. A high
    /// surrogate must be followed by the escaped low half of its pair;
    /// a lone or reversed half names no scalar.
    fn unicode_escape(&mut self) -> Result<char> {
        let mut code = self.hex4()?;
        if (0xd800..0xdc00).contains(&code) && self.bytes[self.pos..].starts_with(b"\\u") {
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xdc00..0xe000).contains(&low) {
                return Err(Error::new("bad \\u surrogate pair"));
            }
            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
        }
        char::from_u32(code).ok_or_else(|| Error::new("bad \\u code point"))
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
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        other => {
                            return Err(Error::new(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // multi-byte UTF-8 sequences pass through untouched
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xc0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| Error::new("invalid UTF-8 in string"))?,
                    );
                }
            }
        }
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
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .or_else(|_| text.parse::<u64>().map(Value::UInt))
                .or_else(|_| text.parse::<f64>().map(Value::Float))
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        }
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
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected `,` or `]`, got {:?} at byte {}",
                        other.map(|b| b as char),
                        self.pos
                    )));
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}`, got {:?} at byte {}",
                        other.map(|b| b as char),
                        self.pos
                    )));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for src in ["null", "true", "-42", "3.5", "\"hi\\nthere\"", "[]", "{}"] {
            let v = parse_value(src).unwrap();
            let mut out = String::new();
            write_value(&v, &mut out, None, 0);
            let v2 = parse_value(&out).unwrap();
            assert_eq!(v, v2, "{src}");
        }
    }

    #[test]
    fn u64_above_i64_max_is_exact_end_to_end() {
        for n in [u64::MAX, 1 << 63, i64::MAX as u64 + 1] {
            for text in [to_string(&n).unwrap(), to_string_pretty(&n).unwrap()] {
                assert_eq!(text, n.to_string(), "printed digit for digit");
                assert_eq!(from_str::<u64>(&text).unwrap(), n);
            }
        }
        // Everything `i64` holds keeps its `Int` representation and bytes.
        assert_eq!(
            parse_value("9223372036854775807").unwrap(),
            Value::Int(i64::MAX)
        );
        assert_eq!(
            to_string(&(i64::MAX as u64)).unwrap(),
            "9223372036854775807"
        );
        // A digest rounded through `f64` by the old writer still loads.
        assert_eq!(
            from_str::<Option<u64>>("11195938974252812000").unwrap(),
            Some(11195938974252812000)
        );
        assert_eq!(from_str::<u64>("18446744073709551616").unwrap(), u64::MAX);
        assert!(from_str::<usize>("-1").is_err());
    }

    #[test]
    fn nested_roundtrip() {
        let src = r#"{"a": [1, 2.5, {"b": null}], "c": "x"}"#;
        let v = parse_value(src).unwrap();
        assert_eq!(v["a"][1].as_f64(), Some(2.5));
        assert!(v["a"][2]["b"].is_null());
        let compact = to_string(&v).unwrap();
        let v2: Value = from_str(&compact).unwrap();
        assert_eq!(v, v2);
    }

    fn nest(depth: usize) -> String {
        "[".repeat(depth) + &"]".repeat(depth)
    }

    #[test]
    fn nesting_is_bounded_not_recursed_into_the_guard_page() {
        assert!(parse_value(&nest(MAX_DEPTH)).is_ok());
        assert!(parse_value(&nest(MAX_DEPTH + 1)).is_err());
        let objects = r#"{"a":"#.repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(parse_value(&objects).is_err());
        // Siblings are not nesting.
        let wide = format!("[{}]", vec![nest(MAX_DEPTH - 1); 4].join(","));
        assert!(parse_value(&wide).is_ok());
        // The gateway's largest body, all `[`, on a stack an eighth of
        // the default: an `Err`, not a dead process.
        let verdict = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| parse_value(&"[".repeat(262_144)).is_err())
            .expect("spawn")
            .join()
            .expect("the parser thread survives");
        assert!(verdict);
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_halves_are_rejected() {
        let grin: String = from_str(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(grin, "\u{1F600}");
        assert_eq!(grin.chars().count(), 1);
        let text = to_string(&grin).unwrap();
        assert_eq!(from_str::<String>(&text).unwrap(), grin);
        assert_eq!(
            from_str::<String>(r#""a\uD83D\uDE00b""#).unwrap(),
            "a\u{1F600}b"
        );
        for bad in [
            r#""\ud83d""#,       // lone high half
            r#""\ud83dx""#,      // high half, then no escape
            r#""\ude00""#,       // lone low half
            r#""\ude00\ud83d""#, // reversed pair
            r#""\ud83d\u0041""#, // high half, then a non-surrogate
            r#""\ud83d\ud83d""#, // two high halves
            r#""\u+123""#,       // sign is not a hex digit
        ] {
            assert!(from_str::<String>(bad).is_err(), "{bad}");
        }
    }
}
