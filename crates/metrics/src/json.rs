//! Minimal JSON for the files this workspace writes: the few value
//! writers every hand-rolled line builder shares, and a reader.
//!
//! The reader is a zero-dependency recursive-descent parser over the
//! subset the writers produce (objects, arrays, strings without exotic
//! escapes, numbers, booleans, null) — enough for `ftnoc report` to
//! re-read a `--metrics-out` file, not a general-purpose JSON library.

use std::fmt::Write as _;

/// A finite float in Rust's shortest round-trip form; anything else,
/// including `None`, as `null` — JSON has no NaN/Infinity literals.
pub fn fnum(v: impl Into<Option<f64>>) -> String {
    match v.into() {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "null".to_string(),
    }
}

/// Appends `values` comma-separated: the inside of a JSON array.
pub fn push_u64_list(out: &mut String, values: impl IntoIterator<Item = u64>) {
    for (i, v) in values.into_iter().enumerate() {
        let _ = write!(out, "{}{v}", if i > 0 { "," } else { "" });
    }
}

/// Appends `{"name":value,...}`, pairing `names` with `values` in order.
pub fn push_u64_object(out: &mut String, names: &[&str], values: &[u64]) {
    out.push('{');
    for (i, (name, v)) in names.iter().zip(values).enumerate() {
        let _ = write!(out, "{}\"{name}\":{v}", if i > 0 { "," } else { "" });
    }
    out.push('}');
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as f64; integers up to 2^53 round-trip).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a u64, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as an f64 number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Shorthand: `get(key)` then [`Value::as_u64`].
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.get(key)?.as_u64()
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// Returns a human-readable message with a byte offset on malformed
/// input, nesting deeper than 64 levels, or trailing garbage.
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if b.get(*pos) == Some(&ch) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", ch as char))
    }
}

/// Deepest `[` / `{` nesting [`parse`] accepts. The emitter nests three
/// deep; each level is one stack frame of this recursive descent, so a
/// hostile line could otherwise overflow the stack.
const MAX_DEPTH: usize = 64;

/// Parses the value at `pos`, which sits inside `depth` arrays/objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"))
        }
        Some(b'{') => parse_obj(b, pos, depth + 1),
        Some(b'[') => parse_arr(b, pos, depth + 1),
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(b, pos),
        _ => Err(format!("unexpected input at byte {pos}")),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                out.push(match esc {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    _ => return Err(format!("unsupported escape at byte {}", *pos - 1)),
                });
            }
            _ => out.push(c as char),
        }
    }
    Err("unterminated string".into())
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        expect(b, pos, b':')?;
        members.push((key, parse_value(b, pos, depth)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_emitters_shapes() {
        let v = parse(
            r#"{"kind":"interval","cycle":100,"avg":12.5,"ok":true,"none":null,
               "routers":{"flits":[1,2,3]},"empty":[],"eo":{}}"#,
        )
        .unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("interval"));
        assert_eq!(v.u64_field("cycle"), Some(100));
        assert_eq!(v.get("avg").unwrap().as_f64(), Some(12.5));
        assert_eq!(v.get("none"), Some(&Value::Null));
        let flits = v.get("routers").unwrap().get("flits").unwrap();
        let nums: Vec<u64> = flits
            .as_arr()
            .unwrap()
            .iter()
            .map(|x| x.as_u64().unwrap())
            .collect();
        assert_eq!(nums, [1, 2, 3]);
        assert_eq!(v.get("empty").unwrap().as_arr(), Some(&[][..]));
    }

    #[test]
    fn numbers_and_negatives() {
        assert_eq!(parse("-3.5e2").unwrap().as_f64(), Some(-350.0));
        assert_eq!(parse("18014398509481984").unwrap().as_u64(), Some(1 << 54));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            parse(r#""a\"b\\c\nd""#).unwrap().as_str(),
            Some("a\"b\\c\nd")
        );
    }

    #[test]
    fn malformed_inputs_error_with_position() {
        for bad in ["{", "[1,", "{\"a\":}", "tru", "\"open", "1 2"] {
            let e = parse(bad).unwrap_err();
            assert!(!e.is_empty(), "{bad}");
        }
    }

    /// A 200 000-deep line is refused at the cap instead of overflowing
    /// the stack, and the cap itself still parses. (The deepest line the
    /// emitter writes round-trips in `emit`'s `interval_line_round_trips`.)
    #[test]
    fn nesting_past_the_cap_is_an_error() {
        let e = parse(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(e, "nesting deeper than 64 at byte 64");
        assert!(parse(&format!("{}{}", "[".repeat(64), "]".repeat(64))).is_ok());
    }
}
