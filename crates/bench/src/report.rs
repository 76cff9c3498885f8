//! The one versioned schema behind every `BENCH_*.json` artifact, plus
//! the baseline comparison that `bench_compare` runs in CI.
//!
//! Every bench binary serializes a [`BenchReport`]: group name, seed,
//! iteration count, the host's available parallelism, the size/thread
//! sweeps it covered, and one `{name, p50_ns, p90_ns}` row per measured
//! routine. The JSON is hand-written (this workspace has no serde) with a
//! pinned key order, and [`BenchReport::parse`] reads it back with a
//! minimal recursive-descent parser — enough for baselines committed
//! under `benches/baselines/` to round-trip.
//!
//! [`compare`] diffs a fresh report against a baseline with a per-metric
//! relative tolerance: a metric regresses when `fresh > baseline × (1 +
//! tolerance)` on p50 or p90, and a metric present in the baseline but
//! missing from the fresh run is always a failure (a silently dropped
//! routine must not pass the guard).

use crate::timing::Runner;

/// Version of the `BENCH_*.json` schema.
pub const SCHEMA_VERSION: u64 = 1;

/// One measured routine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metric {
    /// Routine label, e.g. `full/1000` or `edit_verify/500`.
    pub name: String,
    pub p50_ns: u64,
    pub p90_ns: u64,
}

/// One bench binary's machine-readable output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchReport {
    /// Bench group, e.g. `consistency`.
    pub name: String,
    pub seed: u64,
    pub iters: u64,
    /// `std::thread::available_parallelism()` on the producing host — a
    /// comparison across very different hosts is still a comparison, but
    /// this records the context.
    pub host_parallelism: u64,
    /// The size sweep the run covered (empty when not size-swept).
    pub sizes: Vec<u64>,
    /// The thread sweep the run covered (empty when not thread-swept).
    pub threads: Vec<u64>,
    pub metrics: Vec<Metric>,
}

impl BenchReport {
    /// A report shell for `name`; metric rows come from
    /// [`BenchReport::push`] or [`BenchReport::from_runner`].
    pub fn new(name: &str, seed: u64, iters: u64) -> Self {
        BenchReport {
            name: name.to_string(),
            seed,
            iters,
            host_parallelism: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
            sizes: Vec::new(),
            threads: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Add one metric row.
    pub fn push(&mut self, name: &str, p50_ns: u64, p90_ns: u64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            p50_ns,
            p90_ns,
        });
    }

    /// Copy every routine a [`Runner`] measured into metric rows, using
    /// the exact (raw-sample) quantiles rather than the log2-bucketed
    /// histogram ones — regression ratios need better than power-of-two
    /// resolution.
    pub fn from_runner(name: &str, seed: u64, runner: &Runner) -> Self {
        let mut report = BenchReport::new(name, seed, runner.iters() as u64);
        let labels: Vec<String> = runner.results().map(|(l, _)| l.to_string()).collect();
        for label in labels {
            let p50 = runner.exact_quantile(&label, 0.50).unwrap_or(0);
            let p90 = runner.exact_quantile(&label, 0.90).unwrap_or(0);
            report.push(&label, p50, p90);
        }
        report
    }

    /// The metric named `name`, if present.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Serialize with the pinned key order (`schema_version, name, seed,
    /// iters, host_parallelism, sizes, threads, metrics`).
    pub fn to_json(&self) -> String {
        let list = |xs: &[u64]| xs.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
        let mut out = format!(
            "{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"name\": \"{}\",\n  \
             \"seed\": {},\n  \"iters\": {},\n  \"host_parallelism\": {},\n  \
             \"sizes\": [{}],\n  \"threads\": [{}],\n  \"metrics\": [\n",
            escape(&self.name),
            self.seed,
            self.iters,
            self.host_parallelism,
            list(&self.sizes),
            list(&self.threads),
        );
        for (i, m) in self.metrics.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"p50_ns\": {}, \"p90_ns\": {}}}{}\n",
                escape(&m.name),
                m.p50_ns,
                m.p90_ns,
                if i + 1 < self.metrics.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse a report produced by [`BenchReport::to_json`] (tolerates any
    /// key order and extra whitespace; rejects unknown schema versions).
    pub fn parse(json: &str) -> Result<BenchReport, String> {
        let value = json::parse(json)?;
        let obj = value.as_object().ok_or("report is not a JSON object")?;
        let version = get_u64(obj, "schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {version} (this build reads {SCHEMA_VERSION})"
            ));
        }
        let u64_list = |key: &str| -> Result<Vec<u64>, String> {
            match find(obj, key) {
                Some(v) => v
                    .as_array()
                    .ok_or_else(|| format!("`{key}` is not an array"))?
                    .iter()
                    .map(|x| {
                        x.as_u64()
                            .ok_or_else(|| format!("`{key}` holds a non-integer"))
                    })
                    .collect(),
                None => Ok(Vec::new()),
            }
        };
        let mut metrics = Vec::new();
        for m in find(obj, "metrics")
            .ok_or("missing `metrics`")?
            .as_array()
            .ok_or("`metrics` is not an array")?
        {
            let m = m.as_object().ok_or("metric is not an object")?;
            metrics.push(Metric {
                name: get_str(m, "name")?,
                p50_ns: get_u64(m, "p50_ns")?,
                p90_ns: get_u64(m, "p90_ns")?,
            });
        }
        Ok(BenchReport {
            name: get_str(obj, "name")?,
            seed: get_u64(obj, "seed")?,
            iters: get_u64(obj, "iters")?,
            host_parallelism: get_u64(obj, "host_parallelism")?,
            sizes: u64_list("sizes")?,
            threads: u64_list("threads")?,
            metrics,
        })
    }

    /// Write the report to `path` (stderr notice; a write failure is a
    /// warning, not a bench failure).
    pub fn write(&self, path: &str) {
        match std::fs::write(path, self.to_json()) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
}

fn escape(s: &str) -> String {
    sws_trace::export::escape_json(s)
}

fn find<'a>(obj: &'a [(String, json::Value)], key: &str) -> Option<&'a json::Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn get_u64(obj: &[(String, json::Value)], key: &str) -> Result<u64, String> {
    find(obj, key)
        .and_then(json::Value::as_u64)
        .ok_or_else(|| format!("missing or non-integer `{key}`"))
}

fn get_str(obj: &[(String, json::Value)], key: &str) -> Result<String, String> {
    find(obj, key)
        .and_then(json::Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string `{key}`"))
}

// ---------------------------------------------------------------------
// Baseline comparison
// ---------------------------------------------------------------------

/// Verdict for one baseline metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Within tolerance (carries the worse of the p50/p90 ratios).
    Ok(f64),
    /// Beyond tolerance on p50 and/or p90 (carries the worse ratio).
    Regressed(f64),
    /// Present in the baseline, absent from the fresh run.
    Missing,
}

/// One row of a [`Comparison`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompareRow {
    pub metric: String,
    pub baseline_p50_ns: u64,
    pub fresh_p50_ns: u64,
    pub verdict: Verdict,
}

/// The result of diffing a fresh report against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub rows: Vec<CompareRow>,
    pub tolerance: f64,
    /// Metrics the fresh run added that have no baseline yet (informational).
    pub unbaselined: Vec<String>,
}

impl Comparison {
    /// True when no metric regressed or went missing.
    pub fn passed(&self) -> bool {
        self.rows
            .iter()
            .all(|r| matches!(r.verdict, Verdict::Ok(_)))
    }

    /// Failing rows only.
    pub fn failures(&self) -> impl Iterator<Item = &CompareRow> {
        self.rows
            .iter()
            .filter(|r| !matches!(r.verdict, Verdict::Ok(_)))
    }

    /// Render the per-metric table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<36} {:>12} {:>12} {:>8}  verdict (tolerance {:.0}%)\n",
            "metric",
            "base p50",
            "fresh p50",
            "ratio",
            self.tolerance * 100.0
        );
        for row in &self.rows {
            let (ratio, verdict) = match row.verdict {
                Verdict::Ok(r) => (format!("{r:.2}x"), "ok".to_string()),
                Verdict::Regressed(r) => (format!("{r:.2}x"), "REGRESSED".to_string()),
                Verdict::Missing => ("-".to_string(), "MISSING".to_string()),
            };
            out.push_str(&format!(
                "{:<36} {:>12} {:>12} {:>8}  {verdict}\n",
                row.metric,
                sws_trace::fmt_ns(row.baseline_p50_ns),
                sws_trace::fmt_ns(row.fresh_p50_ns),
                ratio,
            ));
        }
        for name in &self.unbaselined {
            out.push_str(&format!("{name:<36} (no baseline yet)\n"));
        }
        out
    }
}

/// Diff `fresh` against `baseline`: every baseline metric must be present
/// and within `tolerance` (relative; `0.25` = +25%) on both p50 and p90.
pub fn compare(baseline: &BenchReport, fresh: &BenchReport, tolerance: f64) -> Comparison {
    let ratio = |fresh: u64, base: u64| fresh as f64 / base.max(1) as f64;
    let mut rows = Vec::new();
    for base in &baseline.metrics {
        let row = match fresh.metric(&base.name) {
            Some(m) => {
                let worst = ratio(m.p50_ns, base.p50_ns).max(ratio(m.p90_ns, base.p90_ns));
                let verdict = if worst > 1.0 + tolerance {
                    Verdict::Regressed(worst)
                } else {
                    Verdict::Ok(worst)
                };
                CompareRow {
                    metric: base.name.clone(),
                    baseline_p50_ns: base.p50_ns,
                    fresh_p50_ns: m.p50_ns,
                    verdict,
                }
            }
            None => CompareRow {
                metric: base.name.clone(),
                baseline_p50_ns: base.p50_ns,
                fresh_p50_ns: 0,
                verdict: Verdict::Missing,
            },
        };
        rows.push(row);
    }
    let unbaselined = fresh
        .metrics
        .iter()
        .filter(|m| baseline.metric(&m.name).is_none())
        .map(|m| m.name.clone())
        .collect();
    Comparison {
        rows,
        tolerance,
        unbaselined,
    }
}

// ---------------------------------------------------------------------
// Minimal JSON value parser (reports only; no serde in this workspace)
// ---------------------------------------------------------------------

mod json {
    /// Just enough of a JSON value tree to read a [`super::BenchReport`].
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
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                    Some(*n as u64)
                }
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(xs) => Some(xs),
                _ => None,
            }
        }

        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(pairs) => Some(pairs),
                _ => None,
            }
        }
    }

    /// Parse one complete JSON value (surrounding whitespace allowed).
    pub fn parse(s: &str) -> Result<Value, String> {
        let b = s.as_bytes();
        let mut pos = 0usize;
        skip_ws(b, &mut pos);
        let v = value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\r' | b'\n') {
            *pos += 1;
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => object(b, pos),
            Some(b'[') => array(b, pos),
            Some(b'"') => Ok(Value::Str(string(b, pos)?)),
            Some(b't') => literal(b, pos, "true", Value::Bool(true)),
            Some(b'f') => literal(b, pos, "false", Value::Bool(false)),
            Some(b'n') => literal(b, pos, "null", Value::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
            Some(c) => Err(format!("unexpected `{}` at byte {pos}", *c as char)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(b: &[u8], pos: &mut usize, word: &str, v: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {pos}"))
        }
    }

    fn number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {pos}"));
        }
        *pos += 1;
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
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = b
                                .get(*pos..*pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            *pos += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape `\\{}`", esc as char)),
                    }
                }
                _ => {
                    // Multi-byte UTF-8: copy the raw bytes through.
                    let len = utf8_len(c);
                    let end = *pos - 1 + len;
                    let chunk = b.get(*pos - 1..end).ok_or("truncated UTF-8")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    *pos = end;
                }
            }
        }
        Err("unterminated string".into())
    }

    fn utf8_len(first: u8) -> usize {
        match first {
            0x00..=0x7f => 1,
            0xc0..=0xdf => 2,
            0xe0..=0xef => 3,
            _ => 4,
        }
    }

    fn array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        *pos += 1; // [
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(value(b, pos)?);
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

    fn object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        *pos += 1; // {
        let mut pairs = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            skip_ws(b, pos);
            let key = string(b, pos)?;
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b':') {
                return Err(format!("expected `:` at byte {pos}"));
            }
            *pos += 1;
            pairs.push((key, value(b, pos)?));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut r = BenchReport::new("consistency", 42, 200);
        r.sizes = vec![100, 500];
        r.threads = vec![1, 4];
        r.push("full/100", 1_000, 1_500);
        r.push("full/500", 9_000, 12_000);
        r
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample();
        let json = report.to_json();
        sws_trace::export::jsonl::check_value(json.trim()).expect("valid JSON");
        assert_eq!(BenchReport::parse(&json).unwrap(), report);
        // Pinned top-level key order.
        let order = [
            "schema_version",
            "name",
            "seed",
            "iters",
            "host_parallelism",
            "sizes",
            "threads",
            "metrics",
        ];
        let mut last = 0;
        for key in order {
            let at = json.find(&format!("\"{key}\"")).expect("key present");
            assert!(at >= last, "`{key}` out of order");
            last = at;
        }
    }

    #[test]
    fn unknown_schema_version_is_rejected() {
        let json = sample()
            .to_json()
            .replace("\"schema_version\": 1", "\"schema_version\": 999");
        let err = BenchReport::parse(&json).unwrap_err();
        assert!(err.contains("schema_version 999"), "{err}");
        assert!(BenchReport::parse("{").is_err());
        assert!(BenchReport::parse("[1,2]").is_err());
    }

    #[test]
    fn compare_flags_regressions_beyond_tolerance() {
        let base = sample();
        let mut fresh = sample();
        // +10% on full/100: inside a 25% tolerance.
        fresh.metrics[0].p50_ns = 1_100;
        fresh.metrics[0].p90_ns = 1_650;
        // +50% p50 on full/500: out.
        fresh.metrics[1].p50_ns = 13_500;
        let cmp = compare(&base, &fresh, 0.25);
        assert!(!cmp.passed());
        assert!(matches!(cmp.rows[0].verdict, Verdict::Ok(_)));
        match cmp.rows[1].verdict {
            Verdict::Regressed(r) => assert!(r > 1.49 && r < 1.51, "ratio {r}"),
            ref v => panic!("expected regression, got {v:?}"),
        }
        let rendered = cmp.render();
        assert!(rendered.contains("REGRESSED"), "{rendered}");

        // Within tolerance both ways passes.
        let cmp = compare(&base, &base, 0.25);
        assert!(cmp.passed());
    }

    #[test]
    fn p90_alone_can_regress_a_metric() {
        let base = sample();
        let mut fresh = sample();
        fresh.metrics[0].p90_ns = 3_000; // 2x p90, p50 unchanged
        let cmp = compare(&base, &fresh, 0.25);
        assert!(!cmp.passed());
        assert!(matches!(cmp.rows[0].verdict, Verdict::Regressed(_)));
    }

    #[test]
    fn missing_metric_fails_and_new_metric_is_informational() {
        let base = sample();
        let mut fresh = sample();
        fresh.metrics.remove(1);
        fresh.push("brand_new/1", 5, 6);
        let cmp = compare(&base, &fresh, 0.25);
        assert!(!cmp.passed());
        assert!(matches!(cmp.rows[1].verdict, Verdict::Missing));
        assert_eq!(cmp.unbaselined, vec!["brand_new/1".to_string()]);
        assert_eq!(cmp.failures().count(), 1);
        let rendered = cmp.render();
        assert!(rendered.contains("MISSING"), "{rendered}");
        assert!(rendered.contains("no baseline yet"), "{rendered}");
    }

    #[test]
    fn from_runner_copies_every_histogram() {
        let mut runner = Runner::with_iters("demo", 5);
        runner.bench("a", || std::hint::black_box(1 + 1));
        runner.bench("b", || std::hint::black_box(2 + 2));
        let report = BenchReport::from_runner("demo", 7, &runner);
        assert_eq!(report.iters, 5);
        assert_eq!(report.metrics.len(), 2);
        assert_eq!(report.metrics[0].name, "a");
        assert!(report.host_parallelism >= 1);
    }
}
