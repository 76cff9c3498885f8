//! The JSONL wire format for the design service.
//!
//! One request per line, one response per line. Requests are plain JSON
//! objects with a `type` field (any key order). Responses are serialized
//! with a **pinned key order**, without `core::fmt`, and end in a
//! `checksum` field: the eight-lane SplitMix64 line checksum
//! ([`checksum::line_checksum`]) of every byte before it, the same
//! self-verifying single-line idiom as `crash-report.json`, so a truncated
//! or hand-edited response is detectable with
//! [`crate::crash::checksum_valid`]. The golden protocol fixtures
//! (`tests/serve_protocol.rs`) pin the rendering byte-for-byte.
//!
//! See `docs/serve.md` for the full schema.

use std::io::{self, Write};
use sws_core::ConceptKind;
use sws_repository::checksum::{self, Checksum, LINE_LANES};
use sws_trace::export::escape_json_into;

use crate::service::{ErrorCode, LogRecord, OpEnvelope, Request, Response};

// ---------------------------------------------------------------------
// Rendering (responses)
// ---------------------------------------------------------------------

/// A streamed response line leaves in pieces of at least this many bytes
/// (the last piece excepted); a shorter line leaves in one write.
pub const SLICE: usize = 64 << 10;

/// `"value"`, escaped straight into `out`.
fn push_json_str(out: &mut String, value: &str) {
    out.push('"');
    escape_json_into(out, value);
    out.push('"');
}

/// `,"key":`, the start of every field after the first.
fn push_key(out: &mut String, key: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    push_key(out, key);
    push_json_str(out, value);
}

/// `n` in decimal, written without `core::fmt`: a field costs a few
/// pushes.
fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// `,"key":n`.
fn push_u64_field(out: &mut String, key: &str, n: u64) {
    push_key(out, key);
    push_u64(out, n);
}

/// `,"key":true` or `,"key":false`.
fn push_bool_field(out: &mut String, key: &str, value: bool) {
    push_key(out, key);
    out.push_str(if value { "true" } else { "false" });
}

/// The line buffer the response renderer appends to. With a stream, each
/// time the buffer reaches [`SLICE`] at an item boundary its bytes are
/// written out, folded into the checksum and dropped; without one, the
/// buffer ends up holding the whole line.
struct LineWriter<'a> {
    buf: &'a mut String,
    sum: Checksum<LINE_LANES>,
    out: Option<&'a mut dyn Write>,
}

impl LineWriter<'_> {
    /// An item boundary: stream the buffer once it holds a slice. The
    /// slice is written before it is checksummed, so the peer reads it
    /// while the checksum runs.
    fn boundary(&mut self) -> io::Result<()> {
        if let Some(out) = self.out.as_mut().filter(|_| self.buf.len() >= SLICE) {
            out.write_all(self.buf.as_bytes())?;
            self.sum.update(self.buf.as_bytes());
            self.buf.clear();
        }
        Ok(())
    }

    /// `,"key":"value"` for a value of any length, given in pieces: escaped
    /// as it is streamed, unless `escaped` says the pieces already are.
    fn long_str_field<'s>(
        &mut self,
        key: &str,
        pieces: impl IntoIterator<Item = &'s str>,
        escaped: bool,
    ) -> io::Result<()> {
        push_key(self.buf, key);
        self.buf.push('"');
        for piece in pieces {
            self.stream(piece, !escaped)?;
        }
        self.buf.push('"');
        Ok(())
    }

    /// Append `value`, escaping it if `escape`. With a stream, it goes in
    /// slices that each top the buffer up to [`SLICE`] bytes, cut at char
    /// boundaries, with an item boundary after each.
    fn stream(&mut self, value: &str, escape: bool) -> io::Result<()> {
        let mut rest = value;
        while !rest.is_empty() {
            let room = match self.out {
                Some(_) => SLICE.saturating_sub(self.buf.len()),
                None => rest.len(),
            };
            let mut cut = room.clamp(1, rest.len());
            while !rest.is_char_boundary(cut) {
                cut += 1;
            }
            let (slice, tail) = rest.split_at(cut);
            if escape {
                escape_json_into(self.buf, slice);
            } else {
                self.buf.push_str(slice);
            }
            self.boundary()?;
            rest = tail;
        }
        Ok(())
    }

    /// `,"key":[…]`, rendering each item with `item` and streaming at the
    /// boundary after it.
    fn list<T>(
        &mut self,
        key: &str,
        items: &[T],
        mut item: impl FnMut(&mut String, &T),
    ) -> io::Result<()> {
        push_key(self.buf, key);
        self.buf.push('[');
        for (i, x) in items.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            item(self.buf, x);
            self.boundary()?;
        }
        self.buf.push(']');
        Ok(())
    }

    fn records(&mut self, key: &str, records: &[LogRecord]) -> io::Result<()> {
        self.list(key, records, |out, r| {
            out.push_str("{\"seq\":");
            push_u64(out, r.seq);
            push_str_field(out, "session", &r.session);
            push_str_field(out, "context", r.context.tag());
            push_str_field(out, "stmt", &r.statement);
            out.push('}');
        })
    }

    /// Close the line with the checksum over every byte before it, written
    /// or still buffered.
    fn close(mut self) {
        self.sum.update(self.buf.as_bytes());
        self.buf.push_str(",\"checksum\":\"");
        checksum::push_hex(self.buf, self.sum.finish());
        self.buf.push_str("\"}");
    }
}

/// Bytes to reserve for `resp`'s line: an `exported` line's escaped ODL
/// (exact for the blocks, with room for the escapes of a text), plus the
/// newline a JSONL transport appends.
fn line_capacity(resp: &Response) -> usize {
    match resp {
        Response::Exported { odl, .. } => odl.len() + odl.len() / 8 + 128,
        Response::ExportedBlocks { odl, .. } => odl.json_len() + 128,
        _ => 128,
    }
}

/// The one response renderer: every field of `resp`, in the pinned key
/// order, up to the closing checksum.
fn render(resp: &Response, line: &mut LineWriter<'_>) -> io::Result<()> {
    let out = &mut *line.buf;
    out.push_str("{\"type\":\"");
    out.push_str(resp.tag());
    out.push('"');
    match resp {
        Response::Opened {
            session,
            rev,
            types,
            concepts,
        } => {
            push_str_field(out, "session", session);
            push_u64_field(out, "rev", *rev);
            push_u64_field(out, "types", *types as u64);
            push_u64_field(out, "concepts", *concepts as u64);
        }
        Response::Accepted {
            session,
            base_rev,
            rev,
            applied,
            warnings,
        } => {
            push_str_field(out, "session", session);
            push_u64_field(out, "base_rev", *base_rev);
            push_u64_field(out, "rev", *rev);
            push_u64_field(out, "applied", *applied as u64);
            line.list("warnings", warnings, |out, w| push_json_str(out, w))?;
        }
        Response::Conflict {
            session,
            base_rev,
            rev,
            auto_rebasable,
            delta,
            conflicts,
        } => {
            push_str_field(out, "session", session);
            push_u64_field(out, "base_rev", *base_rev);
            push_u64_field(out, "rev", *rev);
            push_bool_field(out, "auto_rebasable", *auto_rebasable);
            line.records("delta", delta)?;
            line.list("conflicts", conflicts, |out, c| {
                out.push_str("{\"op\":");
                push_u64(out, c.op as u64);
                push_u64_field(out, "seq", c.seq);
                push_str_field(out, "reason", &c.reason);
                out.push('}');
            })?;
        }
        Response::Rejected {
            session,
            rev,
            index,
            error,
        } => {
            push_str_field(out, "session", session);
            push_u64_field(out, "rev", *rev);
            push_u64_field(out, "index", *index as u64);
            push_str_field(out, "error", error);
        }
        Response::Linted {
            rev,
            ops,
            passes,
            findings,
        } => {
            push_u64_field(out, "rev", *rev);
            push_u64_field(out, "ops", *ops as u64);
            push_bool_field(out, "passes", *passes);
            line.list("findings", findings, |out, f| {
                out.push_str("{\"index\":");
                push_u64(out, f.index as u64);
                push_str_field(out, "code", &f.code);
                push_str_field(out, "severity", &f.severity);
                push_str_field(out, "message", &f.message);
                out.push('}');
            })?;
        }
        Response::Reported {
            rev,
            types,
            concepts,
            errors,
            warnings,
        } => {
            push_u64_field(out, "rev", *rev);
            push_u64_field(out, "types", *types as u64);
            push_u64_field(out, "concepts", *concepts as u64);
            push_u64_field(out, "errors", *errors as u64);
            push_u64_field(out, "warnings", *warnings as u64);
        }
        Response::Exported { rev, odl } => {
            push_u64_field(out, "rev", *rev);
            line.long_str_field("odl", [odl.as_str()], false)?;
        }
        Response::ExportedBlocks { rev, odl } => {
            push_u64_field(out, "rev", *rev);
            line.long_str_field("odl", odl.json_pieces(), true)?;
        }
        Response::LogSlice { rev, since, ops } => {
            push_u64_field(out, "rev", *rev);
            push_u64_field(out, "since", *since);
            line.records("ops", ops)?;
        }
        Response::Checkpointed {
            rev,
            generation,
            ops_covered,
        } => {
            push_u64_field(out, "rev", *rev);
            match generation {
                Some(g) => push_u64_field(out, "generation", *g),
                None => {
                    push_key(out, "generation");
                    out.push_str("null");
                }
            }
            push_u64_field(out, "ops_covered", *ops_covered);
        }
        Response::Pong { rev, sessions } => {
            push_u64_field(out, "rev", *rev);
            push_u64_field(out, "sessions", *sessions as u64);
        }
        Response::Bye => {}
        Response::Error { code, message } => {
            push_str_field(out, "code", code.tag());
            push_str_field(out, "message", message);
        }
    }
    Ok(())
}

/// Serialize a response as one JSON line (no trailing newline), closing
/// with the checksum over every preceding byte. This is [`write_response`]'s
/// renderer with the line kept in memory; an `exported` line is sized up
/// front with room for the escapes and the newline a JSONL transport
/// appends.
pub fn render_response(resp: &Response) -> String {
    let mut buf = String::with_capacity(line_capacity(resp));
    let mut line = LineWriter {
        buf: &mut buf,
        sum: Checksum::line(),
        out: None,
    };
    // Without a stream nothing is written, so nothing can fail.
    let _ = render(resp, &mut line);
    line.close();
    buf
}

/// Write `resp` to `out` as the bytes of [`render_response`] plus `'\n'`,
/// streaming as it renders: whenever `buf` reaches [`SLICE`] bytes between
/// two list items or two slices of the ODL, they are written out and
/// checksummed. An `exported` line of the published blocks
/// ([`Response::ExportedBlocks`]) copies their stored escapes; one of a
/// text escapes it slice by slice. The checksum field and the newline go
/// in the last write, so a line under one slice leaves in exactly one
/// write.
///
/// `buf` is the caller's line buffer, cleared here and reusable across
/// responses; it never holds more than one slice plus one item.
pub fn write_response(resp: &Response, buf: &mut String, out: &mut impl Write) -> io::Result<()> {
    buf.clear();
    // A streamed line needs room for one slice and its escapes at most.
    buf.reserve(line_capacity(resp).min(SLICE + SLICE / 8 + 128));
    let mut line = LineWriter {
        buf,
        sum: Checksum::line(),
        out: Some(&mut *out),
    };
    render(resp, &mut line)?;
    line.close();
    buf.push('\n');
    out.write_all(buf.as_bytes())
}

// ---------------------------------------------------------------------
// Parsing (requests)
// ---------------------------------------------------------------------

/// Parse one request line. The error string is the human half of a
/// `malformed_frame` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = Json::parse(line)?;
    let obj = value.as_object().ok_or("request is not a JSON object")?;
    let ty = get_str(obj, "type")?;
    match ty {
        "open" => Ok(Request::Open {
            session: get_str(obj, "session")?.to_string(),
        }),
        "submit" => Ok(Request::Submit {
            session: get_str(obj, "session")?.to_string(),
            base_rev: get_u64(obj, "base_rev")?,
            ops: get_ops(obj)?,
        }),
        "lint" => Ok(Request::Lint {
            session: get_str(obj, "session")?.to_string(),
            ops: get_ops(obj)?,
        }),
        "report" => Ok(Request::Report {
            session: get_str(obj, "session")?.to_string(),
        }),
        "export" => Ok(Request::Export {
            session: get_str(obj, "session")?.to_string(),
        }),
        "log" => Ok(Request::Log {
            session: get_str(obj, "session")?.to_string(),
            since: get_u64(obj, "since").unwrap_or(0),
        }),
        "checkpoint" => Ok(Request::Checkpoint {
            session: get_str(obj, "session")?.to_string(),
        }),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown request type `{other}`")),
    }
}

fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field `{key}`"))
}

fn get_str<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a str, String> {
    get(obj, key)?
        .as_str()
        .ok_or_else(|| format!("field `{key}` must be a string"))
}

fn get_u64(obj: &[(String, Json)], key: &str) -> Result<u64, String> {
    get(obj, key)?
        .as_u64()
        .ok_or_else(|| format!("field `{key}` must be a non-negative integer"))
}

/// The `ops` array: `[{"context": "<tag>", "stmt": "<statement>"}, …]`.
/// `context` defaults to `wagon_wheel`.
fn get_ops(obj: &[(String, Json)]) -> Result<Vec<OpEnvelope>, String> {
    let arr = get(obj, "ops")?
        .as_array()
        .ok_or("field `ops` must be an array")?;
    arr.iter()
        .enumerate()
        .map(|(i, item)| {
            let op = item
                .as_object()
                .ok_or_else(|| format!("ops[{i}] must be an object"))?;
            let context = match op.iter().find(|(k, _)| k == "context") {
                None => ConceptKind::WagonWheel,
                Some((_, v)) => {
                    let tag = v
                        .as_str()
                        .ok_or_else(|| format!("ops[{i}].context must be a string"))?;
                    ConceptKind::from_tag(tag).ok_or_else(|| {
                        format!(
                            "ops[{i}].context must be wagon_wheel | generalization | \
                             aggregation | instance_of, got `{tag}`"
                        )
                    })?
                }
            };
            let statement = get_str(op, "stmt")
                .map_err(|_| format!("ops[{i}] is missing the `stmt` string"))?
                .to_string();
            Ok(OpEnvelope { context, statement })
        })
        .collect()
}

// ---------------------------------------------------------------------
// Minimal JSON
// ---------------------------------------------------------------------

/// A minimal JSON value — just enough for the request grammar (objects,
/// arrays, strings, non-negative integers, booleans, null; floats and
/// negatives are rejected, the protocol never produces them). The bench
/// crate has a sibling parser for `BENCH_*.json`; it cannot be shared
/// (the dependency runs the other way), and neither wants a full JSON
/// library for a five-field protocol. Public so protocol clients (the
/// differential and crash test harnesses) can parse response lines with
/// the same grammar the server parses requests with.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
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

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The fields in source order, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Field lookup on an object (`None` on other variants too).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Parse one complete JSON value; trailing bytes are an error, and so
    /// is nesting deeper than [`MAX_DEPTH`].
    pub fn parse(s: &str) -> Result<Json, String> {
        let bytes = s.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, MAX_DEPTH)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes after the JSON value (at {pos})"));
        }
        Ok(value)
    }
}

/// How deeply arrays and objects may nest in one value. The parser
/// recurses once per level, so the limit bounds its stack; requests need
/// three levels (frame, `ops`, op envelope).
pub const MAX_DEPTH: usize = 32;

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && (b[*pos] as char).is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

/// Parse one value; `depth` is how many more arrays or objects may open.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{' | b'[') if depth == 0 => Err(format!(
            "JSON nested deeper than {MAX_DEPTH} levels (at byte {})",
            *pos
        )),
        Some(b'{') => parse_object(b, pos, depth - 1),
        Some(b'[') => parse_array(b, pos, depth - 1),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(c) if c.is_ascii_digit() => {
            let start = *pos;
            while b.get(*pos).is_some_and(u8::is_ascii_digit) {
                *pos += 1;
            }
            if matches!(b.get(*pos), Some(b'.') | Some(b'e') | Some(b'E')) {
                return Err(format!(
                    "only non-negative integers are accepted (at byte {start})"
                ));
            }
            std::str::from_utf8(&b[start..*pos])
                .ok()
                .and_then(|s| s.parse().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }
        Some(c) => Err(format!("unexpected `{}` at byte {}", *c as char, *pos)),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos, depth)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = b.get(*pos).copied().ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000C}'),
                    b'u' => out.push(parse_unicode_escape(b, pos)?),
                    other => return Err(format!("bad escape `\\{}`", other as char)),
                }
            }
            _ => {
                // Continuation bytes of multi-byte UTF-8 sequences pass
                // through unchanged.
                let start = *pos - 1;
                let mut end = *pos;
                while end < b.len() && (b[end] & 0xC0) == 0x80 {
                    end += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..end]).map_err(|_| "invalid UTF-8")?);
                *pos = end;
            }
        }
    }
    Err("unterminated string".to_string())
}

/// The char of a `\uXXXX` escape whose `\u` was just consumed. A high
/// surrogate must be followed by a `\u`-escaped low one, and the pair
/// makes one char; a surrogate on its own is an error.
fn parse_unicode_escape(b: &[u8], pos: &mut usize) -> Result<char, String> {
    let at = *pos - 2;
    let unit = parse_hex4(b, pos)?;
    let code = match unit {
        0xD800..=0xDBFF => {
            let low = match b.get(*pos..*pos + 2) {
                Some(b"\\u") => {
                    *pos += 2;
                    parse_hex4(b, pos)?
                }
                _ => 0,
            };
            if !(0xDC00..=0xDFFF).contains(&low) {
                return Err(format!("lone surrogate in \\u escape at byte {at}"));
            }
            0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
        }
        0xDC00..=0xDFFF => return Err(format!("lone surrogate in \\u escape at byte {at}")),
        _ => unit,
    };
    char::from_u32(code).ok_or_else(|| format!("bad \\u escape at byte {at}"))
}

/// Exactly four ASCII hex digits at `pos`, as a number.
fn parse_hex4(b: &[u8], pos: &mut usize) -> Result<u32, String> {
    let digits = b
        .get(*pos..*pos + 4)
        .filter(|digits| digits.iter().all(u8::is_ascii_hexdigit))
        .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
    *pos += 4;
    Ok(digits.iter().fold(0, |code, &d| {
        code * 16 + char::from(d).to_digit(16).unwrap_or(0)
    }))
}

// ---------------------------------------------------------------------
// The transport-independent dispatch helper
// ---------------------------------------------------------------------

/// Parse one frame and dispatch it. A parse failure becomes a
/// `malformed_frame` error response — the connection survives.
pub fn dispatch(service: &crate::service::DesignService, line: &str) -> Response {
    match parse_request(line) {
        Ok(request) => service.handle(request),
        Err(message) => Response::Error {
            code: ErrorCode::MalformedFrame,
            message,
        },
    }
}

/// [`dispatch`], returning both the typed response and its rendered line.
pub fn respond(service: &crate::service::DesignService, line: &str) -> (Response, String) {
    let response = dispatch(service, line);
    let rendered = render_response(&response);
    (response, rendered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::checksum_valid;

    #[test]
    fn requests_parse_with_any_key_order() {
        let req = parse_request(
            r#"{"base_rev": 3, "ops": [{"stmt": "add_type_definition(X)"}], "type": "submit", "session": "s"}"#,
        )
        .expect("parses");
        match req {
            Request::Submit {
                session,
                base_rev,
                ops,
            } => {
                assert_eq!(session, "s");
                assert_eq!(base_rev, 3);
                assert_eq!(ops.len(), 1);
                assert_eq!(ops[0].context, ConceptKind::WagonWheel);
                assert_eq!(ops[0].statement, "add_type_definition(X)");
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_request(r#"{"type":"ping"}"#),
            Ok(Request::Ping)
        ));
        assert!(matches!(
            parse_request(r#"{"type":"log","session":"s"}"#),
            Ok(Request::Log { since: 0, .. })
        ));
    }

    #[test]
    fn malformed_frames_are_rejected_with_reasons() {
        for (frame, needle) in [
            ("not json", "unexpected"),
            ("{\"type\":\"submit\",\"session\":\"s\"}", "base_rev"),
            ("{\"type\":\"warp\"}", "unknown request type"),
            ("{\"type\":\"open\"}", "missing field `session`"),
            ("{\"type\":\"ping\"} trailing", "trailing"),
            (
                r#"{"type":"submit","session":"s","base_rev":0,"ops":[{"stmt":"x","context":"nope"}]}"#,
                "context",
            ),
            (
                r#"{"type":"submit","session":"s","base_rev":1.5,"ops":[]}"#,
                "integer",
            ),
        ] {
            let err = parse_request(frame).expect_err(frame);
            assert!(err.contains(needle), "`{frame}` → `{err}`");
        }
    }

    #[test]
    fn responses_are_checksummed_single_lines() {
        let resp = Response::Conflict {
            session: "alice".into(),
            base_rev: 2,
            rev: 4,
            auto_rebasable: true,
            delta: vec![crate::service::LogRecord {
                seq: 2,
                session: "bob".into(),
                context: ConceptKind::WagonWheel,
                statement: "add_type_definition(X)".into(),
            }],
            conflicts: vec![],
        };
        let line = render_response(&resp);
        assert!(!line.contains('\n'));
        assert!(checksum_valid(&line), "{line}");
        sws_trace::export::jsonl::check_value(&line).expect("valid JSON");
        // Pinned key order is part of the format.
        let keys = [
            "type",
            "session",
            "base_rev",
            "rev",
            "auto_rebasable",
            "delta",
            "conflicts",
            "checksum",
        ];
        let mut last = 0;
        for key in keys {
            let at = line.find(&format!("\"{key}\":")).expect(key);
            assert!(at >= last, "key {key} out of order in {line}");
            last = at;
        }
    }

    fn parse_str(json: &str) -> Result<String, String> {
        Json::parse(json).map(|value| value.as_str().expect("a string").to_string())
    }

    #[test]
    fn surrogate_pairs_decode_to_one_char() {
        assert_eq!(parse_str(r#""\ud83d\ude00""#).as_deref(), Ok("😀"));
        assert_eq!(parse_str(r#""a\uD83D\uDE01b""#).as_deref(), Ok("a😁b"));
        // Two different pairs name two different sessions.
        let open = |s: &str| match parse_request(&format!(r#"{{"type":"open","session":"{s}"}}"#)) {
            Ok(Request::Open { session }) => session,
            other => panic!("{other:?}"),
        };
        assert_ne!(open(r"\ud83d\ude00"), open(r"\ud83d\ude01"));
        assert_eq!(open(r"\ud83d\ude00"), "😀");
    }

    #[test]
    fn nesting_past_the_depth_limit_is_a_parse_error() {
        let nested = |depth: usize, open: &str, close: &str| {
            format!("{}0{}", open.repeat(depth), close.repeat(depth))
        };
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            assert!(Json::parse(&nested(MAX_DEPTH, open, close)).is_ok());
            let err = Json::parse(&nested(MAX_DEPTH + 1, open, close)).expect_err("too deep");
            assert!(err.contains("nested deeper than 32 levels"), "{err}");
        }
        // Far past the limit, the parser stops at the limit instead of
        // recursing once per byte.
        let err = parse_request(&"[".repeat(100_000)).expect_err("too deep");
        assert!(err.contains("at byte 32"), "{err}");
        let err = parse_request(&"{\"a\":".repeat(100_000)).expect_err("too deep");
        assert!(err.contains("nested deeper"), "{err}");
    }

    #[test]
    fn lone_surrogates_are_parse_errors() {
        for json in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
            r#""\ud83d\n""#,
        ] {
            let err = parse_str(json).expect_err(json);
            assert!(err.contains("lone surrogate"), "{json} → {err}");
        }
        let err = parse_request(r#"{"type":"open","session":"\udfff"}"#).expect_err("lone low");
        assert!(err.contains("lone surrogate"), "{err}");
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse_str(r#""\u0041\u00e9\u00E9""#).as_deref(), Ok("Aéé"));
        for json in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u04g1""#,
            r#""\u041""#,
            r#""\u""#,
            r#""\ud83d\u+e00""#,
        ] {
            let err = parse_str(json).expect_err(json);
            assert!(err.contains("bad \\u escape"), "{json} → {err}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let parsed = Json::parse(r#"{"a":"tab\tnl\nq\"uniAé"}"#).expect("parses");
        let obj = parsed.as_object().expect("object");
        assert_eq!(obj[0].1.as_str(), Some("tab\tnl\nq\"uniAé"));
    }
}
