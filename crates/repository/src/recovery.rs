//! Salvage-mode recovery reporting.
//!
//! When [`crate::Repository::load_salvage`] meets damage — a torn op-log
//! tail, a checksum-mismatched file, a missing derived artifact — it does
//! not fail: it replays the longest valid prefix of the op log, moves the
//! bad lines to `session.ops.quarantine`, regenerates what can be
//! regenerated, and returns a [`RecoveryReport`] describing, file by file
//! and op by op, what was kept and what was lost. In the spirit of
//! *Generating Significant Examples for Conceptual Schema Validation*
//! (PAPERS.md), the report is example-level: it names the first bad line
//! and its content, not just a count.

use std::fmt;

/// How the `MANIFEST` looked on load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestStatus {
    /// Present and self-consistent.
    Ok,
    /// Absent: a legacy (v0) directory, loaded without whole-file
    /// verification.
    Missing,
    /// Present but torn or malformed; contents ignored.
    Damaged(String),
}

/// What kind of damage a file suffered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DamageKind {
    /// Listed in the manifest but absent on disk.
    Missing,
    /// Content does not match its manifest checksum.
    ChecksumMismatch,
    /// Content failed to parse.
    Unparseable,
    /// Checksum is valid but the content differs from the replayed
    /// session, although its MANIFEST entry claims the head or records
    /// no coverage (a file whose coverage says it lags is regenerated
    /// without being damage). No data loss.
    Stale,
}

impl DamageKind {
    fn describe(self) -> &'static str {
        match self {
            DamageKind::Missing => "missing",
            DamageKind::ChecksumMismatch => "checksum mismatch",
            DamageKind::Unparseable => "unparseable",
            DamageKind::Stale => "stale",
        }
    }
}

/// One damaged file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileDamage {
    /// File name within the session directory.
    pub file: String,
    /// What happened to it.
    pub kind: DamageKind,
    /// Human-readable specifics (e.g. the parse error).
    pub detail: String,
}

/// Which layer of the fallback chain actually produced the loaded state.
///
/// Ordered fastest-first: newest snapshot + tail, then an older retained
/// snapshot + a longer tail, then a full replay of the archived log, each
/// tried only when the previous layer's snapshot fails verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadPath {
    /// No checkpoint existed: the whole op log was replayed (also the
    /// path for legacy and never-checkpointed directories).
    #[default]
    FullLog,
    /// The fast path: the newest committed snapshot plus the op-log tail.
    Snapshot {
        /// Checkpoint generation of the snapshot used.
        generation: u64,
    },
    /// Degraded: the newest snapshot was damaged; an older retained
    /// snapshot was used with a correspondingly longer tail.
    FallbackSnapshot {
        /// Checkpoint generation of the snapshot used.
        generation: u64,
    },
    /// Degraded: every retained snapshot was damaged; the state was
    /// rebuilt by replaying the archived log plus the tail from scratch.
    FallbackFullReplay,
}

impl LoadPath {
    /// Did the load have to fall back past the committed fast path?
    pub fn is_degraded(self) -> bool {
        matches!(
            self,
            LoadPath::FallbackSnapshot { .. } | LoadPath::FallbackFullReplay
        )
    }

    fn describe(self) -> String {
        match self {
            LoadPath::FullLog => "full op-log replay (no checkpoint)".into(),
            LoadPath::Snapshot { generation } => {
                format!("snapshot generation {generation} + tail")
            }
            LoadPath::FallbackSnapshot { generation } => {
                format!("FALLBACK to older snapshot generation {generation} + longer tail")
            }
            LoadPath::FallbackFullReplay => "FALLBACK to full replay of the archived log".into(),
        }
    }
}

/// The first op-log record that failed validation or replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadOp {
    /// 1-based line number in `session.ops`.
    pub line: usize,
    /// The raw line content.
    pub content: String,
    /// Why it was rejected (checksum, parse, or replay).
    pub reason: String,
}

/// What salvage-mode loading found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Manifest verification outcome.
    pub manifest: ManifestStatus,
    /// Files that were damaged (missing, corrupted, unparseable, stale).
    pub damage: Vec<FileDamage>,
    /// Ops replayed from the longest valid prefix of the log.
    pub ops_replayed: usize,
    /// Op-log lines dropped (the first bad line and everything after it).
    pub ops_dropped: usize,
    /// The final record was torn mid-write (crash signature): it lacked a
    /// newline or failed its line checksum at the very tail of the log.
    pub torn_tail: bool,
    /// The first bad op-log record, if any.
    pub first_bad_op: Option<BadOp>,
    /// Lines moved to the quarantine file.
    pub quarantined: usize,
    /// The numbered quarantine file the lines were moved to
    /// (`session.ops.quarantine.N`) — successive salvages never overwrite
    /// earlier forensic evidence.
    pub quarantine_file: Option<String>,
    /// Which fallback layer produced the loaded state.
    pub load_path: LoadPath,
    /// Ops covered by the snapshot the load started from (0 without one);
    /// total session ops = `snapshot_ops + ops_replayed`.
    pub snapshot_ops: u64,
    /// Derived files rewritten from the replayed state during healing.
    pub regenerated: Vec<String>,
    /// The session directory was repaired on disk (quarantine written,
    /// valid prefix and derived files rewritten, manifest refreshed).
    pub healed: bool,
    /// Consistency findings on the salvaged session (0 = consistent).
    pub consistency_findings: usize,
}

impl RecoveryReport {
    /// A report describing a perfectly clean load.
    pub fn clean(
        manifest: ManifestStatus,
        ops_replayed: usize,
        consistency_findings: usize,
    ) -> Self {
        RecoveryReport {
            manifest,
            damage: Vec::new(),
            ops_replayed,
            ops_dropped: 0,
            torn_tail: false,
            first_bad_op: None,
            quarantined: 0,
            quarantine_file: None,
            load_path: LoadPath::FullLog,
            snapshot_ops: 0,
            regenerated: Vec::new(),
            healed: false,
            consistency_findings,
        }
    }

    /// The load had to fall back past the committed snapshot fast path —
    /// the state is correct but was rebuilt from a deeper layer.
    pub fn degraded(&self) -> bool {
        self.load_path.is_degraded()
    }

    /// No damage of any kind was observed.
    pub fn is_clean(&self) -> bool {
        self.damage.is_empty()
            && self.ops_dropped == 0
            && !self.torn_tail
            && !matches!(self.manifest, ManifestStatus::Damaged(_))
    }

    /// Designer work was actually lost: ops were dropped, or a
    /// non-derived file was damaged beyond staleness. `custom.odl` /
    /// `mapping.txt` (regenerated exactly by replay) and `snapshot.N`
    /// files (recovered exactly by a deeper fallback layer — a fallback
    /// that loses ops sets `ops_dropped`) do not count.
    pub fn data_loss(&self) -> bool {
        self.ops_dropped > 0
            || self.damage.iter().any(|d| {
                d.kind != DamageKind::Stale
                    && d.file != crate::CUSTOM_FILE
                    && d.file != crate::MAPPING_FILE
                    && !d.file.starts_with("snapshot.")
            })
    }

    /// Render the designer-facing recovery summary.
    pub fn render(&self) -> String {
        let mut out = String::from("recovery report:\n");
        match &self.manifest {
            ManifestStatus::Ok => {}
            ManifestStatus::Missing => {
                out.push_str("  manifest: missing (legacy v0 directory)\n");
            }
            ManifestStatus::Damaged(detail) => {
                out.push_str(&format!("  manifest: damaged ({detail})\n"));
            }
        }
        for d in &self.damage {
            out.push_str(&format!(
                "  file {}: {} — {}\n",
                d.file,
                d.kind.describe(),
                d.detail
            ));
        }
        if self.load_path != LoadPath::FullLog {
            out.push_str(&format!("  load path: {}\n", self.load_path.describe()));
        }
        if self.snapshot_ops > 0 {
            out.push_str(&format!(
                "  snapshot: {} op(s) already folded in\n",
                self.snapshot_ops
            ));
        }
        out.push_str(&format!(
            "  op log: {} op(s) replayed, {} dropped{}\n",
            self.ops_replayed,
            self.ops_dropped,
            if self.torn_tail {
                " (torn tail: the final record was cut mid-write)"
            } else {
                ""
            }
        ));
        if let Some(bad) = &self.first_bad_op {
            out.push_str(&format!(
                "  first bad record: line {} ({}): {:?}\n",
                bad.line, bad.reason, bad.content
            ));
        }
        if self.quarantined > 0 {
            let file = self
                .quarantine_file
                .as_deref()
                .unwrap_or(crate::QUARANTINE_FILE);
            out.push_str(&format!(
                "  quarantined {} line(s) to {file}\n",
                self.quarantined
            ));
        }
        if !self.regenerated.is_empty() {
            out.push_str(&format!(
                "  regenerated from replay: {}\n",
                self.regenerated.join(", ")
            ));
        }
        if self.healed {
            out.push_str("  session directory repaired on disk\n");
        }
        out.push_str(&format!(
            "  salvaged session consistency: {}\n",
            if self.consistency_findings == 0 {
                "clean".to_string()
            } else {
                format!("{} finding(s)", self.consistency_findings)
            }
        ));
        out
    }
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_report_is_clean() {
        let r = RecoveryReport::clean(ManifestStatus::Ok, 5, 0);
        assert!(r.is_clean());
        assert!(!r.data_loss());
        assert!(r.render().contains("5 op(s) replayed, 0 dropped"));
    }

    #[test]
    fn derived_damage_is_not_data_loss() {
        let mut r = RecoveryReport::clean(ManifestStatus::Ok, 2, 0);
        r.damage.push(FileDamage {
            file: crate::CUSTOM_FILE.into(),
            kind: DamageKind::ChecksumMismatch,
            detail: "corrupted".into(),
        });
        assert!(!r.is_clean());
        assert!(!r.data_loss());
        // But a damaged op log is.
        r.ops_dropped = 1;
        assert!(r.data_loss());
    }

    #[test]
    fn render_names_the_first_bad_line() {
        let mut r = RecoveryReport::clean(ManifestStatus::Missing, 1, 2);
        r.ops_dropped = 1;
        r.torn_tail = true;
        r.first_bad_op = Some(BadOp {
            line: 2,
            content: "wagon_wheel\tadd_".into(),
            reason: "line checksum mismatch".into(),
        });
        r.quarantined = 1;
        let text = r.render();
        assert!(text.contains("legacy v0"));
        assert!(text.contains("torn tail"));
        assert!(text.contains("line 2 (line checksum mismatch)"));
        assert!(text.contains("2 finding(s)"));
    }

    #[test]
    fn fallback_paths_are_degraded_and_named() {
        let mut r = RecoveryReport::clean(ManifestStatus::Ok, 7, 0);
        assert!(!r.degraded());
        r.load_path = LoadPath::Snapshot { generation: 2 };
        r.snapshot_ops = 100;
        assert!(!r.degraded());
        assert!(r.render().contains("snapshot generation 2 + tail"));
        assert!(r.render().contains("100 op(s) already folded in"));
        r.load_path = LoadPath::FallbackSnapshot { generation: 1 };
        assert!(r.degraded());
        assert!(r
            .render()
            .contains("FALLBACK to older snapshot generation 1"));
        r.load_path = LoadPath::FallbackFullReplay;
        assert!(r.degraded());
        assert!(r.render().contains("FALLBACK to full replay"));
    }

    #[test]
    fn snapshot_damage_alone_is_not_data_loss() {
        let mut r = RecoveryReport::clean(ManifestStatus::Ok, 3, 0);
        r.load_path = LoadPath::FallbackSnapshot { generation: 1 };
        r.damage.push(FileDamage {
            file: "snapshot.2".into(),
            kind: DamageKind::ChecksumMismatch,
            detail: "corrupted".into(),
        });
        assert!(!r.is_clean());
        assert!(!r.data_loss());
        r.ops_dropped = 1;
        assert!(r.data_loss());
    }

    #[test]
    fn quarantine_render_uses_the_numbered_file() {
        let mut r = RecoveryReport::clean(ManifestStatus::Ok, 1, 0);
        r.quarantined = 2;
        r.quarantine_file = Some("session.ops.quarantine.3".into());
        assert!(r
            .render()
            .contains("quarantined 2 line(s) to session.ops.quarantine.3"));
    }
}
