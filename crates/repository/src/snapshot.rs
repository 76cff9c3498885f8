//! The `snapshot.<generation>` file: a self-checksummed image of the
//! working schema at a checkpoint, so load becomes snapshot + short tail
//! instead of a full op-log replay.
//!
//! Format (`snapshot.v2`, tab-separated, byte-framed, self-checksummed):
//!
//! ```text
//! sws-snapshot v2
//! section\tmeta\t<len>\t<checksum-hex16>
//! <len bytes of meta payload>
//! section\tworking\t<len>\t<checksum-hex16>
//! <len bytes of canonical working-schema ODL>
//! section\tmoved\t<len>\t<checksum-hex16>
//! <len bytes of move-table lines>
//! end\t<checksum-hex16 of everything above>
//! ```
//!
//! Every section carries its own SplitMix64 checksum and the trailer
//! covers the whole file, so a torn or bit-flipped snapshot is detected
//! before any of it is trusted; the loader then falls back one layer
//! (previous snapshot, then full-log replay — see `docs/robustness.md`).
//!
//! The `meta` payload records the checkpoint `generation` and `ops`, the
//! number of committed ops the snapshot covers (its global sequence
//! coverage). The `moved` payload is the [`MoveTable`] at coverage
//! ([`MoveTable::render`]): the shrink-wrap ↔ custom mapping needs to know
//! where history left the shrink wrap's attributes and operations, and
//! the graph ops themselves are never replayed again.
//!
//! A `snapshot.v1` file carries a `moves` section instead: the covered
//! prefix's `modify_attribute` / `modify_operation` ops verbatim. It still
//! loads: [`Snapshot::parse`] folds those ops into a table against the
//! shrink wrap.

use std::fmt;

use crate::checksum::{checksum, from_hex, to_hex};
use sws_core::MoveTable;
use sws_model::SchemaGraph;

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 2;

/// File name of the snapshot at checkpoint `generation`.
pub fn snapshot_file(generation: u64) -> String {
    format!("snapshot.{generation}")
}

/// A parsed (or to-be-written) checkpoint snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Checkpoint generation this snapshot belongs to.
    pub generation: u64,
    /// Number of committed ops baked into the image (sequence coverage:
    /// the tail replays records with sequence numbers `>= ops`).
    pub ops: u64,
    /// Canonical extended-ODL text of the working schema at coverage.
    pub working_odl: String,
    /// The move table at coverage.
    pub moved: MoveTable,
}

/// Why a snapshot failed to parse or verify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Header line absent or malformed.
    BadHeader,
    /// The version is newer than this build understands.
    UnsupportedVersion(u32),
    /// A section is malformed, truncated, or checksum-mismatched.
    BadSection(String),
    /// The `end` trailer is missing (torn snapshot) or its checksum does
    /// not cover the preceding bytes.
    BadTrailer,
    /// A required section is absent.
    MissingSection(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadHeader => f.write_str("malformed snapshot header"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version v{v}")
            }
            SnapshotError::BadSection(detail) => write!(f, "malformed snapshot section: {detail}"),
            SnapshotError::BadTrailer => {
                f.write_str("snapshot trailer missing or checksum mismatch (torn write?)")
            }
            SnapshotError::MissingSection(name) => {
                write!(f, "snapshot is missing its `{name}` section")
            }
        }
    }
}

impl Snapshot {
    /// Render to the on-disk format (self-checksummed).
    pub fn render(&self) -> String {
        let mut body = format!("sws-snapshot v{SNAPSHOT_VERSION}\n");
        let section = |body: &mut String, name: &str, payload: &str| {
            body.push_str(&format!(
                "section\t{name}\t{}\t{}\n",
                payload.len(),
                to_hex(checksum(payload.as_bytes()))
            ));
            body.push_str(payload);
            body.push('\n');
        };
        let meta = format!("generation\t{}\nops\t{}\n", self.generation, self.ops);
        section(&mut body, "meta", &meta);
        section(&mut body, "working", &self.working_odl);
        section(&mut body, "moved", &self.moved.render());
        let trailer = to_hex(checksum(body.as_bytes()));
        body.push_str(&format!("end\t{trailer}\n"));
        body
    }

    /// Parse the on-disk format (v1 or v2), verifying the trailer and
    /// every section checksum. A v1 snapshot's move ops are folded into
    /// its table against `shrink_wrap`, the schema the session started
    /// from. Never panics on arbitrary damaged input.
    pub fn parse(bytes: &[u8], shrink_wrap: &SchemaGraph) -> Result<Snapshot, SnapshotError> {
        // Trailer first: the final newline-terminated line must be
        // `end\t<hex>` and must cover every byte before it.
        let trimmed = bytes.strip_suffix(b"\n").unwrap_or(bytes);
        let pos = trimmed
            .iter()
            .rposition(|&b| b == b'\n')
            .ok_or(SnapshotError::BadTrailer)?;
        let (body, trailer_line) = (&bytes[..pos + 1], &trimmed[pos + 1..]);
        let sum = std::str::from_utf8(trailer_line)
            .ok()
            .and_then(|l| l.strip_prefix("end\t"))
            .and_then(from_hex)
            .ok_or(SnapshotError::BadTrailer)?;
        if sum != checksum(body) {
            return Err(SnapshotError::BadTrailer);
        }

        // Header.
        let header_end = body
            .iter()
            .position(|&b| b == b'\n')
            .ok_or(SnapshotError::BadHeader)?;
        let version: u32 = std::str::from_utf8(&body[..header_end])
            .ok()
            .and_then(|h| h.strip_prefix("sws-snapshot v"))
            .and_then(|v| v.parse().ok())
            .ok_or(SnapshotError::BadHeader)?;
        if version > SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }

        // Sections, framed by the byte lengths in their headers.
        let bad = |detail: &str| SnapshotError::BadSection(detail.to_string());
        let mut generation = None;
        let mut ops = None;
        let mut working_odl = None;
        let mut moved = None;
        let mut at = header_end + 1;
        while at < body.len() {
            let line_end = body[at..]
                .iter()
                .position(|&b| b == b'\n')
                .map(|p| at + p)
                .ok_or_else(|| bad("truncated section header"))?;
            let header =
                std::str::from_utf8(&body[at..line_end]).map_err(|_| bad("non-UTF-8 header"))?;
            let mut fields = header.splitn(4, '\t');
            if fields.next() != Some("section") {
                return Err(bad(&format!("expected a section header, got {header:?}")));
            }
            let name = fields.next().ok_or_else(|| bad("missing section name"))?;
            let len: usize = fields
                .next()
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| bad("missing section length"))?;
            let section_sum = fields
                .next()
                .and_then(from_hex)
                .ok_or_else(|| bad("missing section checksum"))?;
            let start = line_end + 1;
            let end = start
                .checked_add(len)
                .filter(|&e| e < body.len())
                .ok_or_else(|| bad(&format!("section {name}: payload truncated")))?;
            let payload = &body[start..end];
            if checksum(payload) != section_sum {
                return Err(bad(&format!("section {name}: checksum mismatch")));
            }
            if body[end] != b'\n' {
                return Err(bad(&format!("section {name}: unterminated payload")));
            }
            at = end + 1;
            let text = std::str::from_utf8(payload)
                .map_err(|_| bad(&format!("section {name}: non-UTF-8 payload")))?;
            match name {
                "meta" => {
                    for line in text.lines() {
                        match line.split_once('\t') {
                            Some(("generation", v)) => {
                                generation =
                                    Some(v.parse().map_err(|_| bad("malformed generation"))?);
                            }
                            Some(("ops", v)) => {
                                ops = Some(v.parse().map_err(|_| bad("malformed ops count"))?);
                            }
                            // Unknown meta keys are forward-compatible.
                            _ => {}
                        }
                    }
                }
                "working" => working_odl = Some(text.to_string()),
                "moved" if version >= 2 => {
                    let table = MoveTable::parse(text)
                        .map_err(|line| bad(&format!("malformed move-table line {line:?}")))?;
                    moved = Some(table);
                }
                "moves" if version < 2 => {
                    let mut table = MoveTable::default();
                    for line in text.lines() {
                        let (_, op) = crate::parse_log_body(line)
                            .ok_or_else(|| bad(&format!("malformed move record {line:?}")))?;
                        table.fold(shrink_wrap, &op);
                    }
                    moved = Some(table);
                }
                // Unknown sections within a known version are tolerated.
                _ => {}
            }
        }
        let moves_section = if version >= 2 { "moved" } else { "moves" };
        Ok(Snapshot {
            generation: generation.ok_or(SnapshotError::MissingSection("meta"))?,
            ops: ops.ok_or(SnapshotError::MissingSection("meta"))?,
            working_odl: working_odl.ok_or(SnapshotError::MissingSection("working"))?,
            moved: moved.ok_or(SnapshotError::MissingSection(moves_section))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shrink_wrap() -> SchemaGraph {
        let src = "interface Person { long age(); } \
                   interface Employee : Person { attribute long badge; }";
        sws_model::schema_to_graph(&sws_odl::parse_schema(src).unwrap()).unwrap()
    }

    fn parse(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        Snapshot::parse(bytes, &shrink_wrap())
    }

    fn sample() -> Snapshot {
        let mut moved = MoveTable::default();
        for op in [
            "modify_attribute(Employee, badge, Person)",
            "delete_operation(Person, age)",
        ] {
            moved.fold(&shrink_wrap(), &sws_core::parse_statement(op).unwrap());
        }
        Snapshot {
            generation: 3,
            ops: 120,
            working_odl: "interface Person {\n    attribute string name;\n}\n".into(),
            moved,
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let snap = sample();
        let text = snap.render();
        assert!(text.starts_with("sws-snapshot v2\n"));
        assert!(text.contains("attribute\tEmployee\tbadge\tPerson\tlive\n"));
        assert!(text.contains("operation\tPerson\tage\tPerson\tdeleted\n"));
        assert_eq!(parse(text.as_bytes()).unwrap(), snap);
    }

    #[test]
    fn empty_moves_and_empty_schema_round_trip() {
        let snap = Snapshot {
            generation: 1,
            ops: 0,
            working_odl: String::new(),
            moved: MoveTable::default(),
        };
        assert_eq!(parse(snap.render().as_bytes()).unwrap(), snap);
    }

    /// A v1 file as the previous format wrote it: a `moves` section of
    /// move ops, folded against the shrink wrap.
    #[test]
    fn a_v1_snapshot_parses_by_folding_its_move_ops() {
        let mut body = String::from("sws-snapshot v1\n");
        for (name, payload) in [
            ("meta", "generation\t1\nops\t2\n"),
            ("working", ""),
            (
                "moves",
                "generalization\tmodify_attribute(Employee, badge, Person)\n",
            ),
        ] {
            body.push_str(&format!(
                "section\t{name}\t{}\t{}\n{payload}\n",
                payload.len(),
                to_hex(checksum(payload.as_bytes()))
            ));
        }
        let trailer = to_hex(checksum(body.as_bytes()));
        body.push_str(&format!("end\t{trailer}\n"));
        let snap = parse(body.as_bytes()).unwrap();
        assert_eq!((snap.generation, snap.ops), (1, 2));
        assert_eq!(
            snap.moved.render(),
            "attribute\tEmployee\tbadge\tPerson\tlive\n"
        );
    }

    #[test]
    fn truncation_detected_at_every_cut() {
        let text = sample().render();
        // Every proper truncation must fail. The one exception is losing
        // only the final newline (cut = len - 1): the trailer and every
        // section are still intact and verifiable, so that parse succeeds.
        for cut in 0..text.len() - 1 {
            assert!(
                parse(&text.as_bytes()[..cut]).is_err(),
                "cut at {cut} parsed"
            );
        }
        assert!(parse(&text.as_bytes()[..text.len() - 1]).is_ok());
    }

    #[test]
    fn bit_flip_detected_everywhere() {
        let text = sample().render();
        let bytes = text.as_bytes();
        for i in 0..bytes.len() {
            let mut tampered = bytes.to_vec();
            tampered[i] ^= 0x01;
            assert!(parse(&tampered).is_err(), "flip at byte {i} parsed");
        }
    }

    #[test]
    fn future_version_rejected() {
        let mut snap_text = String::from("sws-snapshot v99\n");
        let trailer = to_hex(checksum(snap_text.as_bytes()));
        snap_text.push_str(&format!("end\t{trailer}\n"));
        assert_eq!(
            parse(snap_text.as_bytes()),
            Err(SnapshotError::UnsupportedVersion(99))
        );
    }
}
