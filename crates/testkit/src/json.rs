//! The tiny JSON subset the testkit needs: string escaping for JSON
//! writers, flat `{"name": integer, ...}` objects for golden-counter
//! files, and a small general [`JsonValue`] reader for validating
//! structured test artifacts (the Chrome trace export). The flat-object
//! path stays integer-only on purpose — goldens must stay trivially
//! diffable and lossless for `u64` (no float round-trip).

use std::collections::BTreeMap;

/// Escapes a string for embedding in a JSON document (quotes not included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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

/// Serializes a flat `name -> u64` map as a pretty, stable JSON object
/// (keys in name order, one per line — the golden-file format).
pub fn write_flat_u64_object(map: &BTreeMap<String, u64>) -> String {
    let mut out = String::from("{\n");
    let mut first = true;
    for (k, v) in map {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!("  \"{}\": {}", escape(k), v));
    }
    out.push_str("\n}\n");
    out
}

/// Parses a flat JSON object of string keys and unsigned-integer values.
///
/// # Errors
///
/// Returns a message naming the offending byte offset for anything outside
/// the golden-file subset (nesting, floats, negative numbers, trailing
/// garbage).
pub fn parse_flat_u64_object(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut map = BTreeMap::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.parse_string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.parse_u64()?;
            if map.insert(key.clone(), value).is_some() {
                return Err(format!("duplicate key '{key}'"));
            }
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => {
                    return Err(format!(
                        "expected ',' or '}}', got {other:?} at byte {}",
                        p.pos
                    ))
                }
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(map)
}

/// A parsed general JSON value. Numbers are `f64` (fine for validation:
/// every integer a trace emits is well below 2^53). Objects preserve key
/// order as a `Vec` so assertions can check emission order.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in document order (duplicate keys are rejected).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as an unsigned integer, if whole and in range.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53)).then_some(n as u64)
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses a complete JSON document into a [`JsonValue`].
///
/// # Errors
///
/// Returns a message naming the offending byte offset for malformed
/// documents, duplicate object keys, or trailing garbage.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!(
                "expected '{}', got {other:?} at byte {}",
                want as char, self.pos
            )),
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.next().ok_or("truncated \\u escape")?;
                            code = code * 16
                                + (d as char).to_digit(16).ok_or("bad \\u escape digit")?;
                        }
                        out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                    }
                    other => return Err(format!("unsupported escape {other:?}")),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-decode the UTF-8 sequence starting at this byte.
                    let start = self.pos - 1;
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = (start + len).min(self.bytes.len());
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|e| format!("bad UTF-8 in string: {e}"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                let mut members: Vec<(String, JsonValue)> = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.parse_value()?;
                    if members.iter().any(|(k, _)| *k == key) {
                        return Err(format!("duplicate key '{key}'"));
                    }
                    members.push((key, value));
                    self.skip_ws();
                    match self.next() {
                        Some(b',') => continue,
                        Some(b'}') => return Ok(JsonValue::Object(members)),
                        other => {
                            return Err(format!(
                                "expected ',' or '}}', got {other:?} at byte {}",
                                self.pos
                            ))
                        }
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.next() {
                        Some(b',') => continue,
                        Some(b']') => return Ok(JsonValue::Array(items)),
                        other => {
                            return Err(format!(
                                "expected ',' or ']', got {other:?} at byte {}",
                                self.pos
                            ))
                        }
                    }
                }
            }
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn parse_literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected '{word}' at byte {}", self.pos))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
        };
        digits(self);
        if self.peek() == Some(b'.') {
            self.pos += 1;
            digits(self);
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self);
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .unwrap()
            .parse()
            .map(JsonValue::Number)
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }

    fn parse_u64(&mut self) -> Result<u64, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected unsigned integer at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .unwrap()
            .parse()
            .map_err(|e| format!("integer out of u64 range at byte {start}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut m = BTreeMap::new();
        m.insert("gpu.cycles".to_string(), 123456u64);
        m.insert("l1.shader_load.hit".to_string(), 0u64);
        m.insert("weird \"key\"\n".to_string(), u64::MAX);
        let text = write_flat_u64_object(&m);
        assert_eq!(parse_flat_u64_object(&text).unwrap(), m);
    }

    #[test]
    fn empty_object() {
        assert!(parse_flat_u64_object("{}").unwrap().is_empty());
        assert!(parse_flat_u64_object(" { } ").unwrap().is_empty());
    }

    #[test]
    fn u64_max_is_lossless() {
        let text = format!("{{\"x\": {}}}", u64::MAX);
        assert_eq!(parse_flat_u64_object(&text).unwrap()["x"], u64::MAX);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_flat_u64_object("{\"a\": 1} extra").is_err());
        assert!(parse_flat_u64_object("{\"a\": -1}").is_err());
        assert!(parse_flat_u64_object("{\"a\": 1.5}").is_err());
        assert!(parse_flat_u64_object("{\"a\": 1, \"a\": 2}").is_err());
        assert!(parse_flat_u64_object("{\"a\" 1}").is_err());
    }

    #[test]
    fn general_value_parser() {
        let doc = r#"{"traceEvents": [{"ph": "B", "ts": 1.5, "pid": 0, "ok": true},
                       {"neg": -2e3, "nothing": null, "list": []}], "other": {}}"#;
        let v = parse_json(doc).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("B"));
        assert_eq!(events[0].get("ts").unwrap().as_f64(), Some(1.5));
        assert_eq!(events[0].get("pid").unwrap().as_u64(), Some(0));
        assert_eq!(events[0].get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(events[1].get("neg").unwrap().as_f64(), Some(-2000.0));
        assert_eq!(events[1].get("nothing"), Some(&JsonValue::Null));
        assert_eq!(events[1].get("list").unwrap().as_array(), Some(&[][..]));
        assert_eq!(v.get("other"), Some(&JsonValue::Object(vec![])));
    }

    #[test]
    fn general_parser_rejects_malformed() {
        assert!(parse_json("").is_err());
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("truth").is_err());
        assert!(parse_json("{\"a\": 1} x").is_err());
        assert!(parse_json("{\"a\": 1, \"a\": 2}").is_err());
    }

    #[test]
    fn as_u64_bounds() {
        assert_eq!(
            parse_json("9007199254740992").unwrap().as_u64(),
            Some(1 << 53)
        );
        assert_eq!(parse_json("1.5").unwrap().as_u64(), None);
        assert_eq!(parse_json("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn output_is_sorted_and_stable() {
        let mut m = BTreeMap::new();
        m.insert("zeta".to_string(), 1);
        m.insert("alpha".to_string(), 2);
        let text = write_flat_u64_object(&m);
        let alpha = text.find("alpha").unwrap();
        let zeta = text.find("zeta").unwrap();
        assert!(alpha < zeta);
        assert_eq!(text, write_flat_u64_object(&m));
    }
}
