//! Exporters: human-readable span tree and hand-serialized JSON lines.

use crate::histogram::Histogram;
use crate::recorder::{Event, EventKind, TraceSession};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Format a nanosecond duration for humans (`412ns`, `13.2µs`, `4.7ms`,
/// `1.25s`).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

fn push_fields(out: &mut String, event: &Event) {
    for (k, v) in &event.fields {
        let _ = write!(out, " {k}={v}");
    }
}

/// Render the event stream as an indented tree: one line per span (open
/// fields, then close fields, then duration), point events as leaves.
pub fn render_tree(events: &[Event]) -> String {
    let mut lines: Vec<String> = Vec::new();
    // span_id -> (line index, depth)
    let mut open: HashMap<u64, (usize, usize)> = HashMap::new();
    let mut depth = 0usize;
    for event in events {
        match &event.kind {
            EventKind::SpanOpen => {
                let mut line = format!("{}{}", "  ".repeat(depth), event.name);
                push_fields(&mut line, event);
                open.insert(event.span_id, (lines.len(), depth));
                lines.push(line);
                depth += 1;
            }
            EventKind::SpanClose { dur_ns } => {
                depth = depth.saturating_sub(1);
                match open.remove(&event.span_id) {
                    Some((idx, _)) => {
                        let line = &mut lines[idx];
                        push_fields(line, event);
                        let _ = write!(line, " ({})", fmt_ns(*dur_ns));
                    }
                    None => {
                        // Close without a matching open in this slice
                        // (stream was truncated): render standalone.
                        let mut line = format!("{}{} [close]", "  ".repeat(depth), event.name);
                        push_fields(&mut line, event);
                        let _ = write!(line, " ({})", fmt_ns(*dur_ns));
                        lines.push(line);
                    }
                }
            }
            EventKind::Point => {
                let mut line = format!("{}· {}", "  ".repeat(depth), event.name);
                push_fields(&mut line, event);
                lines.push(line);
            }
        }
    }
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

/// Escape a string for a JSON string literal (contents only, no quotes).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

fn field_json(value: &crate::recorder::FieldValue) -> String {
    use crate::recorder::FieldValue;
    match value {
        FieldValue::Str(s) => format!("\"{}\"", escape_json(s)),
        FieldValue::U64(v) => format!("{v}"),
        FieldValue::I64(v) => format!("{v}"),
        FieldValue::F64(v) => {
            if v.is_finite() {
                format!("{v}")
            } else {
                // JSON has no NaN/Inf; stringify them.
                format!("\"{v}\"")
            }
        }
        FieldValue::Bool(v) => format!("{v}"),
    }
}

/// Serialize one event as a single JSON object (the `to_jsonl` line
/// format). Also used by the `swsd` crash dumper, which must not build a
/// serializer of its own inside a panic hook.
pub fn event_json(event: &Event) -> String {
    let (kind, dur) = match &event.kind {
        EventKind::SpanOpen => ("span_open", None),
        EventKind::SpanClose { dur_ns } => ("span_close", Some(*dur_ns)),
        EventKind::Point => ("event", None),
    };
    let mut out = format!(
        "{{\"type\":\"{kind}\",\"seq\":{},\"ts_ns\":{},\"name\":\"{}\",\"span\":{},\"parent\":{}",
        event.seq,
        event.ts_ns,
        escape_json(event.name),
        event.span_id,
        event.parent,
    );
    if let Some(dur_ns) = dur {
        let _ = write!(out, ",\"dur_ns\":{dur_ns}");
    }
    if !event.fields.is_empty() {
        out.push_str(",\"fields\":{");
        for (i, (k, v)) in event.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape_json(k), field_json(v));
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// Serialize a whole session as JSON lines: one object per event, then one
/// per counter, then one per histogram (with log2-bucket quantiles).
pub fn to_jsonl(session: &TraceSession) -> String {
    let mut out = String::new();
    for event in &session.events {
        out.push_str(&event_json(event));
        out.push('\n');
    }
    for (name, value) in &session.counters {
        let _ = writeln!(
            out,
            "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{value}}}",
            escape_json(name)
        );
    }
    for (name, hist) in &session.histograms {
        let _ = writeln!(
            out,
            "{{\"type\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum_ns\":{},\"min_ns\":{},\"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
            escape_json(name),
            hist.count(),
            hist.sum(),
            hist.min(),
            hist.p50(),
            hist.p99(),
            hist.max(),
        );
    }
    out
}

// ---------------------------------------------------------------------
// Metric summaries (the report's Instrumentation section).
// ---------------------------------------------------------------------

/// Latency statistics for one histogram.
#[derive(Debug, Clone)]
pub struct HistStats {
    /// Histogram name.
    pub name: String,
    /// Sample count.
    pub count: u64,
    /// Median (log2-bucket resolution), nanoseconds.
    pub p50_ns: u64,
    /// 99th percentile (log2-bucket resolution), nanoseconds.
    pub p99_ns: u64,
    /// Largest sample, nanoseconds.
    pub max_ns: u64,
    /// Total, nanoseconds.
    pub sum_ns: u64,
}

impl HistStats {
    /// Compute the stats of a named histogram.
    pub fn of(name: &str, hist: &Histogram) -> Self {
        HistStats {
            name: name.to_string(),
            count: hist.count(),
            p50_ns: hist.p50(),
            p99_ns: hist.p99(),
            max_ns: hist.max(),
            sum_ns: hist.sum(),
        }
    }
}

/// Rows kept in [`TraceSummary::hot_paths`].
const HOT_PATHS_TOP_N: usize = 8;

/// Allocation totals attributed to one span name (only populated when
/// the `alloc-stats` feature instrumented the spans).
#[derive(Debug, Clone, PartialEq)]
pub struct AllocStats {
    /// Span name.
    pub name: String,
    /// Span invocations that reported allocation deltas.
    pub spans: u64,
    /// Total allocations inside those spans.
    pub count: u64,
    /// Total bytes requested inside those spans.
    pub bytes: u64,
}

/// The counters and histogram stats of a session, ready to render.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Counter totals, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram stats, sorted by name.
    pub histograms: Vec<HistStats>,
    /// Number of events captured.
    pub events: usize,
    /// The hottest call-tree nodes by exclusive time (the top 8).
    pub hot_paths: Vec<crate::profile::HotPath>,
    /// Per-span-name allocation totals (empty unless spans carried
    /// `alloc.count`/`alloc.bytes` fields, i.e. the `alloc-stats`
    /// feature).
    pub allocations: Vec<AllocStats>,
}

fn collect_allocations(events: &[Event]) -> Vec<AllocStats> {
    use crate::recorder::FieldValue;
    let mut by_name: std::collections::BTreeMap<&str, (u64, u64, u64)> =
        std::collections::BTreeMap::new();
    for event in events {
        if !matches!(event.kind, EventKind::SpanClose { .. }) {
            continue;
        }
        let field = |key: &str| {
            event.fields.iter().find_map(|(k, v)| match v {
                FieldValue::U64(n) if *k == key => Some(*n),
                _ => None,
            })
        };
        if let (Some(count), Some(bytes)) = (field("alloc.count"), field("alloc.bytes")) {
            let entry = by_name.entry(event.name).or_insert((0, 0, 0));
            entry.0 += 1;
            entry.1 += count;
            entry.2 += bytes;
        }
    }
    by_name
        .into_iter()
        .map(|(name, (spans, count, bytes))| AllocStats {
            name: name.to_string(),
            spans,
            count,
            bytes,
        })
        .collect()
}

impl TraceSummary {
    /// Summarize a session.
    pub fn of(session: &TraceSession) -> Self {
        TraceSummary {
            counters: session.counters.clone(),
            histograms: session
                .histograms
                .iter()
                .map(|(name, hist)| HistStats::of(name, hist))
                .collect(),
            events: session.events.len(),
            hot_paths: crate::profile::Profile::from_events(&session.events)
                .hot_paths(HOT_PATHS_TOP_N),
            allocations: collect_allocations(&session.events),
        }
    }

    /// True if there is nothing to report.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty() && self.events == 0
    }

    /// Render as indented plain text (used by `DesignReport`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "  {} event(s) captured", self.events);
        if !self.counters.is_empty() {
            out.push_str("  counters:\n");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "    {name} = {value}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("  timings (count / p50 / p99 / max):\n");
            for h in &self.histograms {
                let _ = writeln!(
                    out,
                    "    {} = {} / {} / {} / {}",
                    h.name,
                    h.count,
                    fmt_ns(h.p50_ns),
                    fmt_ns(h.p99_ns),
                    fmt_ns(h.max_ns)
                );
            }
        }
        if !self.hot_paths.is_empty() {
            out.push_str("  hot paths (count / excl / incl):\n");
            for p in &self.hot_paths {
                let _ = writeln!(
                    out,
                    "    {} = {} / {} / {}",
                    p.path,
                    p.count,
                    fmt_ns(p.exclusive_ns),
                    fmt_ns(p.inclusive_ns)
                );
            }
        }
        if !self.allocations.is_empty() {
            out.push_str("  allocations (spans / count / bytes):\n");
            for a in &self.allocations {
                let _ = writeln!(
                    out,
                    "    {} = {} / {} / {}",
                    a.name, a.spans, a.count, a.bytes
                );
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Hand-written JSONL checker (used by the tests; no serde anywhere).
// ---------------------------------------------------------------------

/// Line-delimited-JSON validation.
pub mod jsonl {
    /// Check that every non-empty line of `s` is one complete JSON value.
    /// Returns the number of lines validated.
    pub fn check(s: &str) -> Result<usize, String> {
        let mut n = 0;
        for (i, line) in s.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            check_value(line).map_err(|e| format!("line {}: {e}: {line}", i + 1))?;
            n += 1;
        }
        Ok(n)
    }

    /// Check that `line` is exactly one JSON value (with optional
    /// surrounding whitespace).
    pub fn check_value(line: &str) -> Result<(), String> {
        let bytes = line.as_bytes();
        let mut pos = 0usize;
        skip_ws(bytes, &mut pos);
        value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(())
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\r' | b'\n') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {pos}", c as char))
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<(), String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => object(b, pos),
            Some(b'[') => array(b, pos),
            Some(b'"') => string(b, pos),
            Some(b't') => literal(b, pos, "true"),
            Some(b'f') => literal(b, pos, "false"),
            Some(b'n') => literal(b, pos, "null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
            Some(c) => Err(format!("unexpected `{}` at byte {pos}", *c as char)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(b: &[u8], pos: &mut usize) -> Result<(), String> {
        expect(b, pos, b'{')?;
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(());
        }
        loop {
            skip_ws(b, pos);
            string(b, pos)?;
            skip_ws(b, pos);
            expect(b, pos, b':')?;
            value(b, pos)?;
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
            }
        }
    }

    fn array(b: &[u8], pos: &mut usize) -> Result<(), String> {
        expect(b, pos, b'[')?;
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(());
        }
        loop {
            value(b, pos)?;
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected `,` or `]` at byte {pos}")),
            }
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<(), String> {
        expect(b, pos, b'"')?;
        while *pos < b.len() {
            match b[*pos] {
                b'"' => {
                    *pos += 1;
                    return Ok(());
                }
                b'\\' => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                        Some(b'u') => {
                            *pos += 1;
                            for _ in 0..4 {
                                if !b.get(*pos).is_some_and(u8::is_ascii_hexdigit) {
                                    return Err(format!("bad \\u escape at byte {pos}"));
                                }
                                *pos += 1;
                            }
                        }
                        _ => return Err(format!("bad escape at byte {pos}")),
                    }
                }
                c if c < 0x20 => return Err(format!("raw control byte at {pos}")),
                _ => *pos += 1,
            }
        }
        Err("unterminated string".into())
    }

    fn number(b: &[u8], pos: &mut usize) -> Result<(), String> {
        let start = *pos;
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        let digits_at = |p: &mut usize| {
            let s = *p;
            while b.get(*p).is_some_and(u8::is_ascii_digit) {
                *p += 1;
            }
            *p > s
        };
        if !digits_at(pos) {
            return Err(format!("bad number at byte {start}"));
        }
        if b.get(*pos) == Some(&b'.') {
            *pos += 1;
            if !digits_at(pos) {
                return Err(format!("bad fraction at byte {pos}"));
            }
        }
        if matches!(b.get(*pos), Some(b'e' | b'E')) {
            *pos += 1;
            if matches!(b.get(*pos), Some(b'+' | b'-')) {
                *pos += 1;
            }
            if !digits_at(pos) {
                return Err(format!("bad exponent at byte {pos}"));
            }
        }
        Ok(())
    }

    fn literal(b: &[u8], pos: &mut usize, word: &str) -> Result<(), String> {
        if b[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {pos}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(412), "412ns");
        assert_eq!(fmt_ns(13_200), "13.2µs");
        assert_eq!(fmt_ns(4_700_000), "4.70ms");
        assert_eq!(fmt_ns(1_250_000_000), "1.25s");
    }

    #[test]
    fn escaping_covers_controls_and_quotes() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn checker_accepts_valid_json() {
        for ok in [
            "{}",
            "[]",
            "{\"a\":1,\"b\":[true,false,null],\"c\":{\"d\":\"e\\n\"}}",
            "-1.5e-3",
            "\"hi\"",
        ] {
            jsonl::check_value(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn checker_rejects_invalid_json() {
        for bad in [
            "{",
            "{\"a\":}",
            "[1,]",
            "tru",
            "\"unterminated",
            "{\"a\":1} extra",
            "01abc",
            "\"bad\\q\"",
        ] {
            assert!(jsonl::check_value(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn checker_counts_lines() {
        assert_eq!(jsonl::check("{}\n\n[1,2]\n").unwrap(), 2);
        assert!(jsonl::check("{}\nnope\n").is_err());
    }
}
