//! Diagnostics: stable codes, findings, and the machine-readable report.
//!
//! Codes are append-only and never renumbered (scripts and CI greps may
//! pin them):
//!
//! | Code | Meaning |
//! |------|---------|
//! | A001 | use-before-def: a referenced type/member does not exist |
//! | A002 | use-after-delete: the referent existed, but an earlier op in this script deleted it |
//! | A003 | duplicate-def: name/edge/key/extent already defined |
//! | A004 | stale-value: a modify's `old` does not match the current schema |
//! | A005 | cycle: the op would close a generalization or hierarchy cycle |
//! | A006 | inherited-conflict: the member would collide with an inherited member |
//! | A007 | semantic-stability: a move off the shrink-wrap generalization path |
//! | A008 | unresolvable-order-by: a key/order-by names an attribute that is not visible |
//! | A009 | structural-misuse: self link, child-end modification, order-by on child end |
//! | A010 | referential: unknown domain type, inadmissible size constraint |
//! | A011 | not-permitted: Table 1 forbids the op in its concept-schema context |
//! | W101 | redundant: a modify whose `new` equals its `old` (no-op) |
//! | W102 | delete-of-own-create: deletes a construct this same script created |
//! | W103 | dead-store: a modify whose construct a later op in the script deletes |
//! | I201 | commuting adjacent pair (safe to reorder) |
//!
//! [`LintReport::to_json`] follows the crash-report discipline: one line,
//! pinned key order, and a trailing SplitMix64 checksum over everything
//! before it, so external tooling can both diff reports textually and
//! verify they were not truncated. Its checksum is the one-lane form
//! ([`checksum`]), not the eight-lane line form that `swsd serve`
//! responses and crash reports carry: a lint report is short, and its
//! values stay pinned.

use std::fmt;
use sws_core::{ConstraintCategory, ConstraintViolation, OpError};
use sws_trace::export::escape_json;

/// Report format version, bumped on any key change.
pub const SCHEMA_VERSION: u32 = 1;

/// Severity of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The executor would reject the script at this operation.
    Error,
    /// Legal but suspicious (redundant / conflicting operations).
    Warning,
    /// Neutral structure notes (commutation).
    Info,
}

impl Severity {
    /// Lowercase name used in the JSON report.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One diagnostic, anchored to an operation index in the script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Zero-based index of the operation in the script.
    pub index: usize,
    /// Stable diagnostic code (see the module table).
    pub code: &'static str,
    /// Severity.
    pub severity: Severity,
    /// The operation, rendered canonically.
    pub op: String,
    /// Human-readable explanation.
    pub message: String,
}

/// The analyzer's verdict on one script.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LintReport {
    /// Number of operations in the script.
    pub ops: usize,
    /// All findings, in script order (errors only at `stopped_at`).
    pub findings: Vec<Finding>,
    /// Index of the operation the executor would reject, if any. The
    /// analyzer stops interpreting there, exactly like
    /// `Workspace::apply_script`.
    pub stopped_at: Option<usize>,
    /// The exact error `Workspace::apply` would return at `stopped_at` —
    /// the differential oracle compares this against a real run.
    pub predicted: Option<OpError>,
    /// Adjacent operation pairs `(i, i+1)` that commute (independent
    /// footprints; safe to reorder). Computed for the accepted prefix.
    pub commuting_pairs: Vec<(usize, usize)>,
}

impl LintReport {
    /// True when nothing was found at any severity.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// True when the executor would accept the whole script.
    pub fn passes(&self) -> bool {
        self.stopped_at.is_none()
    }

    /// Count findings of one severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == severity)
            .count()
    }

    /// Render the report as exactly one JSON line with pinned key order:
    /// `schema_version`, `ops`, `stopped_at`, `clean`, `findings`,
    /// `commuting_pairs`, `checksum`. The checksum ([`checksum`], the
    /// repository's one-lane content checksum) covers every byte before
    /// its own key.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.findings.len() * 96);
        out.push_str(&format!("{{\"schema_version\":{SCHEMA_VERSION}"));
        out.push_str(&format!(",\"ops\":{}", self.ops));
        match self.stopped_at {
            Some(i) => out.push_str(&format!(",\"stopped_at\":{i}")),
            None => out.push_str(",\"stopped_at\":null"),
        }
        out.push_str(&format!(",\"clean\":{}", self.is_clean()));
        out.push_str(",\"findings\":[");
        for (n, f) in self.findings.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"index\":{},\"code\":\"{}\",\"severity\":\"{}\",\"op\":\"{}\",\"message\":\"{}\"}}",
                f.index,
                f.code,
                f.severity.name(),
                escape_json(&f.op),
                escape_json(&f.message),
            ));
        }
        out.push_str("],\"commuting_pairs\":[");
        for (n, (a, b)) in self.commuting_pairs.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{a},{b}]"));
        }
        out.push(']');
        let sum = checksum(out.as_bytes());
        out.push_str(&format!(",\"checksum\":\"{sum:016x}\"}}"));
        out
    }

    /// Verify the checksum of a line produced by [`Self::to_json`].
    pub fn checksum_valid(line: &str) -> bool {
        let Some(pos) = line.rfind(",\"checksum\":\"") else {
            return false;
        };
        let body = &line[..pos];
        let tail = &line[pos + ",\"checksum\":\"".len()..];
        let Some(hex) = tail.strip_suffix("\"}") else {
            return false;
        };
        u64::from_str_radix(hex, 16).ok() == Some(checksum(body.as_bytes()))
    }

    /// Render a human-readable multi-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_clean() {
            out.push_str(&format!("lint: {} op(s), no findings\n", self.ops));
        } else {
            out.push_str(&format!(
                "lint: {} op(s), {} error(s), {} warning(s), {} info\n",
                self.ops,
                self.count(Severity::Error),
                self.count(Severity::Warning),
                self.count(Severity::Info),
            ));
        }
        for f in &self.findings {
            out.push_str(&format!(
                "  [{}] {} op #{}: {} — {}\n",
                f.code, f.severity, f.index, f.op, f.message
            ));
        }
        if let Some(i) = self.stopped_at {
            out.push_str(&format!(
                "  script stops at op #{i}; the apply pipeline would reject it there\n"
            ));
        }
        if !self.commuting_pairs.is_empty() {
            out.push_str(&format!(
                "  {} adjacent pair(s) commute and may be reordered\n",
                self.commuting_pairs.len()
            ));
        }
        out
    }
}

/// Map one precondition violation to its stable code. `deleted_earlier`
/// refines existence failures: true when the missing name was removed by
/// an earlier operation of the same script (use-after-delete rather than
/// use-before-def).
pub fn code_for(v: &ConstraintViolation, deleted_earlier: bool) -> &'static str {
    match v {
        ConstraintViolation::GeneralizationCycle { .. }
        | ConstraintViolation::HierarchyCycle { .. } => "A005",
        ConstraintViolation::InheritedConflict { .. } => "A006",
        ConstraintViolation::AttributeNotVisible { .. } => "A008",
        ConstraintViolation::SelfLink { .. }
        | ConstraintViolation::NotParentEnd { .. }
        | ConstraintViolation::OrderByOnChildEnd { .. } => "A009",
        _ => match v.category() {
            ConstraintCategory::Existence => {
                if deleted_earlier {
                    "A002"
                } else {
                    "A001"
                }
            }
            ConstraintCategory::Uniqueness => "A003",
            ConstraintCategory::Currency => "A004",
            ConstraintCategory::SemanticStability => "A007",
            // Remaining structural/referential variants are matched above;
            // keep a total mapping for future checker variants.
            ConstraintCategory::Structural => "A005",
            ConstraintCategory::Referential => "A010",
        },
    }
}

/// SplitMix64 checksum with one lane — the same construction as
/// `sws_repository::checksum::checksum`, the repository's one-lane disk
/// form, restated here so the analysis crate stays free of the I/O layer
/// (a designer test pins the two implementations together).
pub fn checksum(bytes: &[u8]) -> u64 {
    const SEED: u64 = 0x5357_5352_4550_4f31;
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let mut state = SEED;
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        state = mix(state
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from_le_bytes(word)));
    }
    mix(state ^ bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_one_line_with_valid_checksum() {
        let report = LintReport {
            ops: 2,
            findings: vec![Finding {
                index: 1,
                code: "A001",
                severity: Severity::Error,
                op: "delete_type_definition(Ghost)".into(),
                message: "type `Ghost` does not exist".into(),
            }],
            stopped_at: Some(1),
            predicted: None,
            commuting_pairs: vec![(0, 1)],
        };
        let line = report.to_json();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"schema_version\":1,\"ops\":2,\"stopped_at\":1"));
        assert!(LintReport::checksum_valid(&line));
        assert!(!LintReport::checksum_valid(&line.replace("Ghost", "Blast")));
        assert!(sws_trace::export::jsonl::check_value(&line).is_ok());
    }

    #[test]
    fn empty_report_is_clean_and_stable() {
        let line = LintReport::default().to_json();
        assert!(line.contains("\"clean\":true"));
        assert!(line.contains("\"stopped_at\":null"));
        assert!(LintReport::checksum_valid(&line));
    }
}
