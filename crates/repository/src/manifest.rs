//! The `MANIFEST` file: format version plus per-file checksums.
//!
//! Written atomically *last* during a save, the manifest is the commit
//! record of the session directory: every whole-file artifact
//! (`shrink_wrap.odl`, `custom.odl`, `mapping.txt`, `local_names.txt`) is
//! listed with its length and checksum. `session.ops` is deliberately
//! *not* listed — it is append-only and self-validating line by line, so
//! appends need not rewrite the manifest.
//!
//! Format (tab-separated, one entry per line, self-checksummed):
//!
//! ```text
//! sws-repository v1
//! file\t<len>\t<checksum-hex16>\t<name>[\t<ops>]
//! ...
//! end\t<checksum-hex16 of everything above>
//! ```
//!
//! The optional trailing `<ops>` field of a derived file (`custom.odl`,
//! `mapping.txt`) is the op count it covers: the session's total ops when
//! the file was written. A checkpoint carries the committed entries over
//! unchanged, so a derived file may lag the head; load compares it with
//! the replay only when it claims to cover the head. Entries written
//! before the field existed have none (their coverage is unknown). The
//! `splitn(5)` parser of builds since checkpointing ignores the field;
//! builds from before read it as part of the name, so they skip the two
//! derived files' checksums but still load the directory.
//!
//! A checkpointed directory (see `crate::snapshot`) is committed by a
//! **v2** manifest, which additionally carries the checkpoint generation
//! and the retained snapshot files:
//!
//! ```text
//! sws-repository v2
//! checkpoint\t<generation>
//! snap\t<gen>\t<ops-covered>\t<len>\t<checksum-hex16>
//! file\t<len>\t<checksum-hex16>\t<name>[\t<ops>]
//! ...
//! end\t<checksum-hex16 of everything above>
//! ```
//!
//! A directory that has never been checkpointed keeps writing the v1
//! form, so pre-checkpoint builds still read it; a v2
//! manifest makes those builds refuse with `UnsupportedVersion` rather
//! than silently ignore the snapshot that the (truncated) op log depends
//! on.
//!
//! A manifest that is missing is a legacy (v0) directory; a manifest that
//! fails its own trailer checksum or does not parse is *damaged* — salvage
//! loading then falls back to per-line op-log validation and reports it.

use std::collections::BTreeMap;
use std::fmt;

use crate::checksum::{checksum, from_hex, to_hex};

/// Current on-disk format version.
pub const FORMAT_VERSION: u32 = 2;

/// File name of the manifest.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// One whole-file entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileEntry {
    /// File length in bytes.
    pub len: u64,
    /// Content checksum.
    pub checksum: u64,
    /// Ops a derived file covers; `None` for the files ops do not change
    /// and for entries written before coverage was recorded.
    pub ops: Option<u64>,
}

impl FileEntry {
    /// Does `data` have this entry's length and checksum?
    pub fn matches(&self, data: &[u8]) -> bool {
        self.len == data.len() as u64 && self.checksum == checksum(data)
    }
}

/// One retained checkpoint snapshot, as listed in a v2 manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotRef {
    /// Checkpoint generation (names the `snapshot.<gen>` file).
    pub generation: u64,
    /// Ops the snapshot covers (the tail replays sequence numbers
    /// `>= ops`).
    pub ops: u64,
    /// Snapshot file length in bytes.
    pub len: u64,
    /// Snapshot file content checksum.
    pub checksum: u64,
}

/// Checkpoint state carried by a v2 manifest.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CheckpointMeta {
    /// Highest checkpoint generation ever committed (monotonic).
    pub generation: u64,
    /// Retained snapshots, oldest first (newest last). The newest is the
    /// fast path; older ones are salvage fallback layers.
    pub snapshots: Vec<SnapshotRef>,
}

impl CheckpointMeta {
    /// The newest retained snapshot, if any.
    pub fn newest(&self) -> Option<&SnapshotRef> {
        self.snapshots.last()
    }

    /// Sequence number the durable op-log tail starts at: the newest
    /// snapshot's coverage, or 0 when nothing is checkpointed.
    pub fn tail_start(&self) -> u64 {
        self.newest().map_or(0, |s| s.ops)
    }
}

/// A parsed manifest.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Format version from the header line.
    pub version: u32,
    /// Entries by file name.
    pub entries: BTreeMap<String, FileEntry>,
    /// Checkpoint state (v2); `None` for never-checkpointed directories.
    pub checkpoint: Option<CheckpointMeta>,
}

/// Why a manifest failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// Header line absent or malformed.
    BadHeader,
    /// The version is newer than this build understands.
    UnsupportedVersion(u32),
    /// An entry line is malformed (1-based line number).
    BadEntry(usize),
    /// The `end` trailer is missing (torn manifest) or its checksum does
    /// not cover the preceding bytes.
    BadTrailer,
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::BadHeader => f.write_str("malformed manifest header"),
            ManifestError::UnsupportedVersion(v) => {
                write!(f, "unsupported manifest version v{v}")
            }
            ManifestError::BadEntry(line) => write!(f, "malformed manifest entry at line {line}"),
            ManifestError::BadTrailer => {
                f.write_str("manifest trailer missing or checksum mismatch (torn write?)")
            }
        }
    }
}

impl Manifest {
    /// A fresh manifest. It stays at the v1 wire format until a
    /// checkpoint is attached — never-checkpointed directories remain
    /// byte-compatible with pre-checkpoint builds.
    pub fn new() -> Self {
        Manifest {
            version: 1,
            entries: BTreeMap::new(),
            checkpoint: None,
        }
    }

    /// Attach checkpoint state, upgrading the manifest to the v2 wire
    /// format. A meta with no generation and no snapshots downgrades back
    /// to v1 (nothing to record).
    pub fn set_checkpoint(&mut self, meta: CheckpointMeta) {
        if meta.generation == 0 && meta.snapshots.is_empty() {
            self.checkpoint = None;
            self.version = 1;
        } else {
            self.checkpoint = Some(meta);
            self.version = FORMAT_VERSION;
        }
    }

    /// Record a file's content and, for a derived file, the ops it covers.
    pub fn insert(&mut self, name: &str, data: &[u8], ops: Option<u64>) {
        self.entries.insert(
            name.to_string(),
            FileEntry {
                len: data.len() as u64,
                checksum: checksum(data),
                ops,
            },
        );
    }

    /// Does `data` match the recorded entry for `name`? `None` when the
    /// manifest has no entry for that file.
    pub fn verify(&self, name: &str, data: &[u8]) -> Option<bool> {
        self.entries.get(name).map(|e| e.matches(data))
    }

    /// Render to the on-disk format (self-checksummed). The header
    /// version follows the content: v2 when checkpoint state is present,
    /// v1 otherwise.
    pub fn render(&self) -> String {
        let version = if self.checkpoint.is_some() {
            FORMAT_VERSION
        } else {
            1
        };
        let mut body = format!("sws-repository v{version}\n");
        if let Some(ckpt) = &self.checkpoint {
            body.push_str(&format!("checkpoint\t{}\n", ckpt.generation));
            for snap in &ckpt.snapshots {
                body.push_str(&format!(
                    "snap\t{}\t{}\t{}\t{}\n",
                    snap.generation,
                    snap.ops,
                    snap.len,
                    to_hex(snap.checksum)
                ));
            }
        }
        for (name, entry) in &self.entries {
            body.push_str(&format!(
                "file\t{}\t{}\t{name}",
                entry.len,
                to_hex(entry.checksum)
            ));
            if let Some(ops) = entry.ops {
                body.push_str(&format!("\t{ops}"));
            }
            body.push('\n');
        }
        let trailer = to_hex(checksum(body.as_bytes()));
        body.push_str(&format!("end\t{trailer}\n"));
        body
    }

    /// Parse the on-disk format, verifying the trailer checksum.
    pub fn parse(text: &str) -> Result<Manifest, ManifestError> {
        // Split off the trailer: the last non-empty line must be `end\t<hex>`
        // and its checksum must cover every byte before it.
        let trimmed = text.strip_suffix('\n').unwrap_or(text);
        let (body, trailer_line) = match trimmed.rfind('\n') {
            Some(pos) => (&text[..pos + 1], &trimmed[pos + 1..]),
            None => return Err(ManifestError::BadTrailer),
        };
        let sum = trailer_line
            .strip_prefix("end\t")
            .and_then(from_hex)
            .ok_or(ManifestError::BadTrailer)?;
        if sum != checksum(body.as_bytes()) {
            return Err(ManifestError::BadTrailer);
        }

        let mut lines = body.lines().enumerate();
        let (_, header) = lines.next().ok_or(ManifestError::BadHeader)?;
        let version: u32 = header
            .strip_prefix("sws-repository v")
            .and_then(|v| v.parse().ok())
            .ok_or(ManifestError::BadHeader)?;
        if version > FORMAT_VERSION {
            return Err(ManifestError::UnsupportedVersion(version));
        }

        let mut manifest = Manifest {
            version,
            entries: BTreeMap::new(),
            checkpoint: None,
        };
        for (i, line) in lines {
            let bad = || ManifestError::BadEntry(i + 1);
            let mut fields = line.splitn(5, '\t');
            match fields.next() {
                Some("file") => {
                    let len: u64 = fields.next().and_then(|f| f.parse().ok()).ok_or_else(bad)?;
                    let sum = fields.next().and_then(from_hex).ok_or_else(bad)?;
                    let name = fields.next().filter(|n| !n.is_empty()).ok_or_else(bad)?;
                    let ops = fields.next().map(str::parse).transpose();
                    let ops = ops.map_err(|_| bad())?;
                    manifest.entries.insert(
                        name.to_string(),
                        FileEntry {
                            len,
                            checksum: sum,
                            ops,
                        },
                    );
                }
                Some("checkpoint") => {
                    let generation = fields.next().and_then(|f| f.parse().ok()).ok_or_else(bad)?;
                    manifest
                        .checkpoint
                        .get_or_insert_with(CheckpointMeta::default)
                        .generation = generation;
                }
                Some("snap") => {
                    let generation = fields.next().and_then(|f| f.parse().ok()).ok_or_else(bad)?;
                    let ops = fields.next().and_then(|f| f.parse().ok()).ok_or_else(bad)?;
                    let len = fields.next().and_then(|f| f.parse().ok()).ok_or_else(bad)?;
                    let sum = fields.next().and_then(from_hex).ok_or_else(bad)?;
                    manifest
                        .checkpoint
                        .get_or_insert_with(CheckpointMeta::default)
                        .snapshots
                        .push(SnapshotRef {
                            generation,
                            ops,
                            len,
                            checksum: sum,
                        });
                }
                _ => return Err(bad()),
            }
        }
        Ok(manifest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip() {
        let mut m = Manifest::new();
        m.insert("shrink_wrap.odl", b"interface A { }", None);
        m.insert("custom.odl", b"interface A { attribute long x; }", Some(3));
        let text = m.render();
        let parsed = Manifest::parse(&text).unwrap();
        assert_eq!(parsed, m);
        assert_eq!(
            parsed.verify("shrink_wrap.odl", b"interface A { }"),
            Some(true)
        );
        assert_eq!(
            parsed.verify("shrink_wrap.odl", b"interface B { }"),
            Some(false)
        );
        assert_eq!(parsed.verify("unlisted", b""), None);
    }

    #[test]
    fn coverage_is_a_trailing_field_and_optional() {
        let mut m = Manifest::new();
        m.insert("custom.odl", b"x", Some(7));
        m.insert("shrink_wrap.odl", b"y", None);
        let text = m.render();
        assert!(text.contains("\tcustom.odl\t7\n"), "{text}");
        assert!(text.contains("\tshrink_wrap.odl\n"), "{text}");
        let parsed = Manifest::parse(&text).unwrap();
        assert_eq!(parsed.entries["custom.odl"].ops, Some(7));
        assert_eq!(parsed.entries["shrink_wrap.odl"].ops, None);
        // A bad coverage field is a malformed entry, not a silent `None`.
        let body = format!(
            "sws-repository v1\nfile\t1\t{}\tcustom.odl\tmany\n",
            to_hex(checksum(b"x"))
        );
        let text = format!("{body}end\t{}\n", to_hex(checksum(body.as_bytes())));
        assert_eq!(Manifest::parse(&text), Err(ManifestError::BadEntry(2)));
    }

    #[test]
    fn torn_manifest_detected() {
        let mut m = Manifest::new();
        m.insert("custom.odl", b"x", Some(0));
        let text = m.render();
        // Truncate mid-file: the trailer is gone or no longer matches.
        for cut in [1, text.len() / 2, text.len() - 2] {
            assert!(Manifest::parse(&text[..cut]).is_err(), "cut at {cut}");
        }
        // Flip a byte in an entry line: trailer mismatch.
        let tampered = text.replacen("custom", "custom".to_uppercase().as_str(), 1);
        assert_eq!(Manifest::parse(&tampered), Err(ManifestError::BadTrailer));
    }

    #[test]
    fn future_version_rejected() {
        let body = "sws-repository v99\n";
        let text = format!("{body}end\t{}\n", to_hex(checksum(body.as_bytes())));
        assert_eq!(
            Manifest::parse(&text),
            Err(ManifestError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn empty_manifest_round_trips() {
        let m = Manifest::new();
        assert_eq!(Manifest::parse(&m.render()).unwrap(), m);
    }

    #[test]
    fn checkpointed_manifest_upgrades_to_v2_and_round_trips() {
        let mut m = Manifest::new();
        m.insert("shrink_wrap.odl", b"interface A { }", None);
        m.set_checkpoint(CheckpointMeta {
            generation: 4,
            snapshots: vec![
                SnapshotRef {
                    generation: 3,
                    ops: 100,
                    len: 2048,
                    checksum: 0xdead,
                },
                SnapshotRef {
                    generation: 4,
                    ops: 150,
                    len: 2112,
                    checksum: 0xbeef,
                },
            ],
        });
        let text = m.render();
        assert!(text.starts_with("sws-repository v2\n"), "{text}");
        assert!(text.contains("checkpoint\t4\n"));
        let parsed = Manifest::parse(&text).unwrap();
        assert_eq!(parsed, m);
        let ckpt = parsed.checkpoint.unwrap();
        assert_eq!(ckpt.tail_start(), 150);
        assert_eq!(ckpt.newest().unwrap().generation, 4);
    }

    #[test]
    fn empty_checkpoint_meta_stays_v1() {
        let mut m = Manifest::new();
        m.insert("custom.odl", b"x", Some(0));
        m.set_checkpoint(CheckpointMeta::default());
        assert!(m.render().starts_with("sws-repository v1\n"));
        assert_eq!(Manifest::parse(&m.render()).unwrap(), m);
    }
}
