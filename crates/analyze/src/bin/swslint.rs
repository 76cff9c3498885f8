//! `swslint` — source-invariant linter for this workspace.
//!
//! Token-level (not AST-level) checks for invariants the compiler cannot
//! express, run in CI over the whole workspace:
//!
//! - **unwrap**: no bare `.unwrap()` outside test code (`#[cfg(test)]`
//!   modules, `#[test]` fns, `tests/`, `benches/`, the bench and
//!   proptest-shim crates). `.expect("message")` is allowed everywhere.
//! - **trace-names**, both ways: every `span!("…")` / `span("…")` /
//!   `counter("…")` name outside test code must appear in a
//!   `docs/observability.md` table (rows ending in `*` are prefix
//!   wildcards), and every dotted name in a table's first cell must be
//!   emitted by some such site in `crates/`, `src/` or `tests/`, test code
//!   included (a `*` row by at least one), so rows for deleted names go.
//! - **string-keys**: no `…Map<String, …>` in `sws-model`/`sws-core` —
//!   schema names must cross as interned `Symbol`s. A deliberate exception
//!   carries a `// swslint: allow(string-keys): reason` comment.
//! - **repo-io**: inside `crates/repository`, only `src/io.rs` (the
//!   `RepoIo` boundary) and test code may touch `std::fs`.
//! - **forbid-unsafe**: every crate's `lib.rs` must carry
//!   `#![forbid(unsafe_code)]` (or the `cfg_attr` variant for crates with
//!   feature-gated unsafe, e.g. the alloc-stats allocator in `sws-trace`).
//!
//! The scanner masks comments and string literals first (preserving byte
//! offsets), then brace-matches `#[cfg(test)]` / `#[test]` items so rules
//! can exempt test regions precisely — a trailing `#[cfg(test)]` helper in
//! the middle of a file does not exempt the code after it.
//!
//! Exit codes: 0 clean, 8 findings, 5 I/O error.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const EXIT_LINT: u8 = 8;
const EXIT_IO: u8 = 5;

struct Lint {
    file: String,
    line: usize,
    rule: &'static str,
    message: String,
}

/// A source file with comments and string-literal bodies blanked out
/// (offsets preserved), plus the captured string literals.
struct Masked {
    code: Vec<u8>,
    /// `(byte_offset_of_opening_quote, contents)` for each string literal.
    strings: Vec<(usize, String)>,
    /// Sorted byte ranges covered by test-only items.
    test_ranges: Vec<(usize, usize)>,
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let root = args.next().map(PathBuf::from).unwrap_or_else(|| ".".into());
    if !root.join("Cargo.toml").is_file() {
        eprintln!(
            "swslint: {} does not look like a workspace root",
            root.display()
        );
        return ExitCode::from(EXIT_IO);
    }
    let trace_names = match fs::read_to_string(root.join("docs/observability.md")) {
        Ok(doc) => parse_trace_table(&doc),
        Err(e) => {
            eprintln!("swslint: cannot read docs/observability.md: {e}");
            return ExitCode::from(EXIT_IO);
        }
    };

    let mut files = Vec::new();
    collect_rs(&root.join("crates"), &mut files);
    collect_rs(&root.join("src"), &mut files);
    collect_rs(&root.join("tests"), &mut files);
    files.sort();

    let mut lints = Vec::new();
    let mut emitted = Vec::new();
    for path in &files {
        let src = match fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("swslint: cannot read {}: {e}", path.display());
                return ExitCode::from(EXIT_IO);
            }
        };
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let m = mask(&src);
        check_file(&rel, &src, &m, &trace_names, &mut lints);
        emitted.extend(emitted_names(&m));
    }
    check_documented_names(&trace_names, &emitted, &mut lints);
    check_forbid_unsafe(&root, &mut lints);

    if lints.is_empty() {
        println!("swslint: {} file(s), no findings", files.len());
        return ExitCode::SUCCESS;
    }
    lints.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    for l in &lints {
        println!("{}:{}: [{}] {}", l.file, l.line, l.rule, l.message);
    }
    println!(
        "swslint: {} finding(s) in {} file(s)",
        lints.len(),
        files.len()
    );
    ExitCode::from(EXIT_LINT)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Paths whose whole contents are test/bench support: bare unwrap allowed.
fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.starts_with("crates/bench/")
        || rel.starts_with("crates/proptest-shim/")
}

fn check_file(rel: &str, src: &str, m: &Masked, trace_names: &[TraceRow], lints: &mut Vec<Lint>) {
    let line_of = |off: usize| {
        src.as_bytes()[..off]
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
            + 1
    };
    let lint = |lints: &mut Vec<Lint>, off: usize, rule: &'static str, message: String| {
        lints.push(Lint {
            file: rel.to_string(),
            line: line_of(off),
            rule,
            message,
        });
    };

    // unwrap -----------------------------------------------------------
    if !is_test_path(rel) {
        for off in find_all(&m.code, b".unwrap()") {
            if !in_ranges(&m.test_ranges, off) {
                lint(
                    lints,
                    off,
                    "unwrap",
                    "bare `.unwrap()` outside test code; use `.expect(\"why this cannot fail\")`"
                        .into(),
                );
            }
        }
    }

    // trace-names ------------------------------------------------------
    // The trace crate itself (macro definitions, doc examples) is exempt.
    if !rel.starts_with("crates/trace/") {
        for &(off, ref s) in &m.strings {
            if !is_trace_name_site(&m.code, off) || in_ranges(&m.test_ranges, off) {
                continue;
            }
            let known = trace_names.iter().any(|t| t.matches(s));
            if !known {
                lint(
                    lints,
                    off,
                    "trace-names",
                    format!("trace name `{s}` is not documented in docs/observability.md"),
                );
            }
        }
    }

    // string-keys ------------------------------------------------------
    if rel.starts_with("crates/model/") || rel.starts_with("crates/core/") {
        for off in find_all(&m.code, b"Map<String") {
            if in_ranges(&m.test_ranges, off) {
                continue;
            }
            let line = line_of(off);
            if has_waiver(src, line, "string-keys") {
                continue;
            }
            lint(
                lints,
                off,
                "string-keys",
                "String-keyed map in the Symbol zone; intern the key or add a \
                 `// swslint: allow(string-keys): reason` waiver"
                    .into(),
            );
        }
    }

    // repo-io ----------------------------------------------------------
    if rel.starts_with("crates/repository/") && !rel.ends_with("/io.rs") {
        for off in find_all(&m.code, b"std::fs") {
            if !in_ranges(&m.test_ranges, off) {
                lint(
                    lints,
                    off,
                    "repo-io",
                    "filesystem access outside the RepoIo boundary (src/io.rs)".into(),
                );
            }
        }
    }
}

/// Every crate's `lib.rs` (and the root one) must forbid unsafe code,
/// either unconditionally or behind `cfg_attr` for feature-gated unsafe.
fn check_forbid_unsafe(root: &Path, lints: &mut Vec<Lint>) {
    let mut libs = vec![root.join("src/lib.rs")];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            let lib = entry.path().join("src/lib.rs");
            if lib.is_file() {
                libs.push(lib);
            }
        }
    }
    libs.sort();
    for lib in libs {
        let Ok(src) = fs::read_to_string(&lib) else {
            continue;
        };
        if !src.contains("forbid(unsafe_code)") {
            lints.push(Lint {
                file: lib
                    .strip_prefix(root)
                    .unwrap_or(&lib)
                    .to_string_lossy()
                    .replace('\\', "/"),
                line: 1,
                rule: "forbid-unsafe",
                message: "crate root is missing `#![forbid(unsafe_code)]` \
                          (or a `cfg_attr` variant for feature-gated unsafe)"
                    .into(),
            });
        }
    }
}

/// Does the code immediately before the string at `off` end with a
/// `span!(` / `span(` / `counter(` call?
fn is_trace_name_site(code: &[u8], off: usize) -> bool {
    let head = &code[..off];
    let trimmed_len = head
        .iter()
        .rposition(|&b| !b.is_ascii_whitespace())
        .map_or(0, |i| i + 1);
    let head = &head[..trimmed_len];
    [&b"span!("[..], &b"span("[..], &b"counter("[..]]
        .iter()
        .any(|pat| head.ends_with(pat))
}

/// `// swslint: allow(rule)` on the same line, or anywhere in the
/// contiguous comment block directly above it, waives a finding.
fn has_waiver(src: &str, line: usize, rule: &str) -> bool {
    let needle = format!("swslint: allow({rule})");
    let lines: Vec<&str> = src.lines().collect();
    let idx = line.saturating_sub(1);
    if lines.get(idx).is_some_and(|l| l.contains(&needle)) {
        return true;
    }
    lines[..idx]
        .iter()
        .rev()
        .take_while(|l| l.trim_start().starts_with("//"))
        .any(|l| l.contains(&needle))
}

fn find_all(haystack: &[u8], needle: &[u8]) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while from + needle.len() <= haystack.len() {
        match haystack[from..]
            .windows(needle.len())
            .position(|w| w == needle)
        {
            Some(p) => {
                out.push(from + p);
                from += p + 1;
            }
            None => break,
        }
    }
    out
}

fn in_ranges(ranges: &[(usize, usize)], off: usize) -> bool {
    ranges.iter().any(|&(s, e)| off >= s && off < e)
}

/// One documented trace name: a backticked token from the first cell of
/// a `docs/observability.md` table row, with its 1-based line.
struct TraceRow {
    line: usize,
    name: String,
}

impl TraceRow {
    /// Does the emitted name `s` fall under this row (`*` = prefix)?
    fn matches(&self, s: &str) -> bool {
        self.name
            .strip_suffix('*')
            .map_or(self.name == s, |prefix| s.starts_with(prefix))
    }
}

/// The names every `span!(` / `span(` / `counter(` string-literal site in
/// one file emits, test code included.
fn emitted_names(m: &Masked) -> impl Iterator<Item = String> + '_ {
    m.strings
        .iter()
        .filter(|(off, _)| is_trace_name_site(&m.code, *off))
        .map(|(_, s)| s.clone())
}

/// The reverse of the per-site rule: every dotted documented name (or
/// `*` prefix) must be emitted by at least one site, so a row outlives
/// neither its emitter nor a rename.
fn check_documented_names(trace_names: &[TraceRow], emitted: &[String], lints: &mut Vec<Lint>) {
    for row in trace_names {
        if !row.name.contains('.') || emitted.iter().any(|s| row.matches(s)) {
            continue;
        }
        lints.push(Lint {
            file: "docs/observability.md".into(),
            line: row.line,
            rule: "trace-names",
            message: format!(
                "documented trace name `{}` has no span!/span/counter site in crates/, src/ or tests/",
                row.name
            ),
        });
    }
}

/// Read the `docs/observability.md` tables: every backticked token in the
/// first cell of a table row is a documented span/counter name (a cell may
/// document several, e.g. `` `ws.ops_applied`, `ws.ops_rejected` ``).
fn parse_trace_table(doc: &str) -> Vec<TraceRow> {
    let mut names = Vec::new();
    for (i, line) in doc.lines().enumerate() {
        let line = line.trim();
        if !line.starts_with('|') {
            continue;
        }
        let Some(cell) = line.trim_start_matches('|').split('|').next() else {
            continue;
        };
        let mut rest = cell.trim();
        while let Some(open) = rest.find('`') {
            let Some(len) = rest[open + 1..].find('`') else {
                break;
            };
            names.push(TraceRow {
                line: i + 1,
                name: rest[open + 1..open + 1 + len].to_string(),
            });
            rest = &rest[open + len + 2..];
        }
    }
    names
}

/// Blank out comments and string/char literal bodies, preserving offsets,
/// capture string literals, and record `#[cfg(test)]` / `#[test]` item
/// ranges by brace matching.
fn mask(src: &str) -> Masked {
    let bytes = src.as_bytes();
    let mut code = bytes.to_vec();
    let mut strings = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    code[i] = b' ';
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 1;
                code[i] = b' ';
                code[i + 1] = b' ';
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        code[i + 1] = b' ';
                        i += 1;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        code[i + 1] = b' ';
                        i += 1;
                    }
                    if bytes[i] != b'\n' {
                        code[i] = b' ';
                    }
                    i += 1;
                }
            }
            b'r' | b'b'
                if matches!(bytes.get(i + 1), Some(&b'"') | Some(&b'#'))
                    && raw_str_len(&bytes[i..]).is_some() =>
            {
                let len = raw_str_len(&bytes[i..]).expect("checked above");
                for c in code.iter_mut().skip(i + 1).take(len - 1) {
                    if *c != b'\n' {
                        *c = b' ';
                    }
                }
                i += len;
            }
            b'"' => {
                let start = i;
                i += 1;
                let mut lit = String::new();
                while i < bytes.len() && bytes[i] != b'"' {
                    if bytes[i] == b'\\' && i + 1 < bytes.len() {
                        lit.push(bytes[i] as char);
                        lit.push(bytes[i + 1] as char);
                        code[i] = b' ';
                        code[i + 1] = b' ';
                        i += 2;
                        continue;
                    }
                    lit.push(bytes[i] as char);
                    if bytes[i] != b'\n' {
                        code[i] = b' ';
                    }
                    i += 1;
                }
                strings.push((start, lit));
                i += 1;
            }
            b'\'' => {
                // Char literal or lifetime. A lifetime has no closing quote
                // nearby; a char literal is 'x' or an escape like '\n'.
                if bytes.get(i + 1) == Some(&b'\\') && bytes.get(i + 3) == Some(&b'\'') {
                    code[i + 1] = b' ';
                    code[i + 2] = b' ';
                    i += 4;
                } else if bytes.get(i + 2) == Some(&b'\'') && bytes.get(i + 1) != Some(&b'\'') {
                    code[i + 1] = b' ';
                    i += 3;
                } else {
                    i += 1; // lifetime
                }
            }
            _ => i += 1,
        }
    }
    let test_ranges = find_test_ranges(&code);
    Masked {
        code,
        strings,
        test_ranges,
    }
}

/// Length of a raw (or raw-byte) string literal starting at `bytes[0]`
/// (which is `r` or `b`), or `None` if this is not one.
fn raw_str_len(bytes: &[u8]) -> Option<usize> {
    let mut j = 0;
    if bytes[0] == b'b' {
        j = 1;
    }
    if bytes.get(j) != Some(&b'r') && j == 1 {
        return None;
    }
    if bytes[0] == b'r' {
        j = 1;
    } else {
        j += 1; // past the 'r' after 'b'
    }
    let mut hashes = 0;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if bytes.get(j) != Some(&b'"') {
        return None;
    }
    j += 1;
    let closer: Vec<u8> = std::iter::once(b'"')
        .chain(std::iter::repeat_n(b'#', hashes))
        .collect();
    while j < bytes.len() {
        if bytes[j..].starts_with(&closer) {
            return Some(j + closer.len());
        }
        j += 1;
    }
    Some(bytes.len())
}

/// Find byte ranges of items annotated `#[test]` or `#[cfg(test)]`-like,
/// by brace matching on masked code. The range runs from the attribute to
/// the item's closing `}` (or terminating `;`).
fn find_test_ranges(code: &[u8]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    for start in find_all(code, b"#[") {
        let Some(close) = code[start..].iter().position(|&b| b == b']') else {
            continue;
        };
        let attr: String = code[start + 2..start + close]
            .iter()
            .map(|&b| b as char)
            .filter(|c| !c.is_whitespace())
            .collect();
        let is_test_attr =
            attr == "test" || attr.starts_with("cfg(test") || attr.starts_with("cfg(all(test");
        if !is_test_attr {
            continue;
        }
        // Walk to the end of the annotated item: the matching `}` of its
        // first block, or a `;` before any block opens.
        let mut j = start + close + 1;
        let mut depth = 0usize;
        let mut end = code.len();
        while j < code.len() {
            match code[j] {
                b'{' => depth += 1,
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        end = j + 1;
                        break;
                    }
                }
                b';' if depth == 0 => {
                    end = j + 1;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        ranges.push((start, end));
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "| Name | Kind |\n\
                       |---|---|\n\
                       | `ws.apply` | span |\n\
                       | `serve.*` | span |\n\
                       | `gone.name`, `ws.ops_applied` | counter |\n\
                       | `plain` | note |\n";

    fn trace_lints(lints: &[Lint]) -> Vec<(usize, String)> {
        lints
            .iter()
            .filter(|l| l.rule == "trace-names")
            .map(|l| (l.line, l.message.clone()))
            .collect()
    }

    #[test]
    fn emitted_names_must_be_documented() {
        let rows = parse_trace_table(DOC);
        let src = "fn f() {\n\
                   let _s = sws_trace::span!(\"ws.apply\", op = 1);\n\
                   sws_trace::counter(\"serve.conns\", 1);\n\
                   let _u = sws_trace::span(\"ws.undocumented\");\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod tests { fn g() { sws_trace::span(\"test.only\"); } }\n";
        let mut lints = Vec::new();
        check_file("crates/x/src/lib.rs", src, &mask(src), &rows, &mut lints);
        assert_eq!(
            trace_lints(&lints),
            [(
                4,
                "trace name `ws.undocumented` is not documented in docs/observability.md".into()
            )]
        );
    }

    #[test]
    fn documented_names_must_be_emitted() {
        let rows = parse_trace_table(DOC);
        let mut emitted = vec!["ws.apply".to_string(), "ws.ops_applied".to_string()];
        let mut lints = Vec::new();
        check_documented_names(&rows, &emitted, &mut lints);
        // The unmatched `*` row and the stale name; `plain` is not dotted.
        let flagged: Vec<(usize, &str)> = lints
            .iter()
            .map(|l| (l.line, l.message.split('`').nth(1).unwrap()))
            .collect();
        assert_eq!(flagged, [(4, "serve.*"), (5, "gone.name")]);

        // Test code is an emitter too, and one site satisfies a `*` row.
        let src = "#[cfg(test)]\n\
                   mod tests { fn g() {\n\
                   let _s = sws_trace::span(\"serve.conn\");\n\
                   sws_trace::counter(\"gone.name\", 1);\n\
                   } }\n";
        emitted.extend(emitted_names(&mask(src)));
        let mut lints = Vec::new();
        check_documented_names(&rows, &emitted, &mut lints);
        assert!(trace_lints(&lints).is_empty());
    }
}
