//! A minimal JSON reader and string quoting — enough for daemon response
//! lines, `BENCHMARK.json`, and the benchmark's own result lines.
//!
//! The daemon's protocol parser (`sws_designer::protocol::Json`) rejects
//! fractions, which `BENCHMARK.json` bounds and result values carry, so
//! the benchmark keeps this reader of its own.

/// A parsed JSON value. Objects keep their source key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parse one complete JSON value; trailing bytes are an error.
    pub fn parse(s: &str) -> Result<Value, String> {
        let b = s.as_bytes();
        let mut pos = 0;
        let v = value(b, &mut pos)?;
        ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing bytes at {pos}"));
        }
        Ok(v)
    }

    /// Field lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// A number that is a whole non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64()
            .filter(|n| *n >= 0.0 && n.fract() == 0.0 && *n < 9.007_199_254_740_992e15)
            .map(|n| n as u64)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Quote `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

fn ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn eat(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                ws(b, pos);
                let key = string(b, pos)?;
                ws(b, pos);
                eat(b, pos, b':')?;
                fields.push((key, value(b, pos)?));
                ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(value(b, pos)?);
                ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Value::Str(string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Value::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Value::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Value::Null)
        }
        Some(c) if *c == b'-' || c.is_ascii_digit() => {
            let start = *pos;
            while b
                .get(*pos)
                .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
            {
                *pos += 1;
            }
            std::str::from_utf8(&b[start..*pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .filter(|n| n.is_finite())
                .map(Value::Num)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }
        Some(c) => Err(format!("unexpected `{}` at byte {}", *c as char, *pos)),
        None => Err("unexpected end of input".to_string()),
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    eat(b, pos, b'"')?;
    let mut out = Vec::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return String::from_utf8(out).map_err(|_| "invalid UTF-8".to_string()),
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                let ch = match esc {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    b'b' => '\u{0008}',
                    b'f' => '\u{000C}',
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or("bad \\u escape")?;
                        *pos += 4;
                        char::from_u32(hex).unwrap_or('\u{FFFD}')
                    }
                    other => return Err(format!("bad escape `\\{}`", other as char)),
                };
                let mut buf = [0u8; 4];
                out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
            }
            c => out.push(c),
        }
    }
    Err("unterminated string".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_values_and_fractions() {
        let v = Value::parse(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\tyé"},"d":true,"e":null}"#)
            .expect("parses");
        let a = v.get("a").and_then(Value::as_array).expect("array");
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2].as_f64(), Some(-300.0));
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_u64(), None);
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Value::as_str),
            Some("x\tyé")
        );
        assert_eq!(v.get("d").and_then(Value::as_bool), Some(true));
        assert!(Value::parse("{} x").is_err());
    }

    #[test]
    fn quote_round_trips() {
        let s = "a\"b\\c\nd\u{1}é";
        assert_eq!(Value::parse(&quote(s)).expect("parses").as_str(), Some(s));
    }
}
