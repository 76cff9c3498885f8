//! The schema repository (paper Fig. 1, activity 12): durable storage for
//! the shrink wrap schema, the design workspace, the custom schema, and the
//! mapping.
//!
//! The paper's prototype persisted the repository as an ObjectStore
//! database. We substitute a transparent, replayable representation (see
//! DESIGN.md §2 and docs/robustness.md): a session directory containing
//!
//! * `shrink_wrap.odl` — the shrink wrap schema as extended-ODL text,
//! * `session.ops` — the operation log, **append-only**, one
//!   `<checksum>\t<seq>\t<context>\t<statement>` line per applied
//!   operation in the modification language (the checksum covers the rest
//!   of the line, so a torn tail is detectable record by record; the
//!   global sequence number makes truncation and archiving idempotent);
//!   each accepted multi-op batch is one append, headed by a
//!   `# batch <first_seq> <n> <checksum>` line so salvage keeps a torn
//!   batch all or none,
//! * `snapshot.<gen>` — checkpoint images of the working schema (see
//!   [`snapshot`]), so load replays only the short tail after the newest
//!   snapshot instead of the whole log,
//! * `session.ops.archive` — the append-only archive of every op-log
//!   prefix truncated by a checkpoint (never rewritten: full-log replay
//!   stays possible as the salvage layer of last resort),
//! * `custom.odl` — the derived custom schema (informative; written by
//!   saves, not by checkpoints, and compared byte for byte with the replay
//!   on load when its MANIFEST entry says it covers the head),
//! * `mapping.txt` — the rendered shrink-wrap ↔ custom mapping
//!   (informative, written with `custom.odl`),
//! * `MANIFEST` — format version plus per-file checksums and checkpoint
//!   state, written atomically last: the commit record of a save or a
//!   checkpoint.
//!
//! All I/O goes through the [`io::RepoIo`] abstraction; saves are
//! write-temp → fsync → atomic-rename, so a crash at any point leaves
//! either the old or the new content of every file, never a torn mixture
//! (the property tests in `tests/crash_consistency.rs` sweep every
//! injected crash point and assert exactly that against the `diff_graphs`
//! oracle).
//!
//! Two load modes:
//!
//! * [`Repository::load`] — strict: replays `session.ops` against
//!   `shrink_wrap.odl` through the full permission/constraint pipeline and
//!   fails on the first inconsistency, so a loaded session is exactly as
//!   valid as the live one that saved it.
//! * [`Repository::load_salvage`] — salvage: verifies checksums, replays
//!   the longest valid prefix of the op log, quarantines bad lines to
//!   `session.ops.quarantine`, repairs the directory, and returns a
//!   structured [`RecoveryReport`] instead of an error. Only an unusable
//!   shrink wrap schema is fatal.
#![forbid(unsafe_code)]

use std::cell::OnceCell;
use std::fmt;
use std::io as stdio;
use std::path::Path;

pub mod checksum;
pub mod io;
pub mod manifest;
pub mod recovery;
pub mod snapshot;

use std::collections::BTreeMap;

use checksum::{from_hex, looks_like_hex, to_hex};
use io::{RealIo, RepoIo};
pub use manifest::{CheckpointMeta, SnapshotRef, FORMAT_VERSION, MANIFEST_FILE};
use manifest::{Manifest, ManifestError};
pub use recovery::{BadOp, DamageKind, FileDamage, LoadPath, ManifestStatus, RecoveryReport};
pub use snapshot::{snapshot_file, Snapshot, SnapshotError};

use sws_core::concept::normalize_single_root;
use sws_core::consistency::ConsistencyReport;
use sws_core::oplang::{parse_statement, print_op};
use sws_core::{
    AliasError, AliasTable, AppliedOp, ConceptKind, Mapping, ModOp, OpError, Workspace,
};
use sws_model::{graph_to_schema, schema_to_graph, LowerError, SchemaGraph};
use sws_odl::{parse_schema, print_schema, OdlError};

/// File name of the shrink wrap schema.
pub const SHRINK_WRAP_FILE: &str = "shrink_wrap.odl";
/// File name of the op log.
pub const SESSION_FILE: &str = "session.ops";
/// File name of the derived custom schema.
pub const CUSTOM_FILE: &str = "custom.odl";
/// File name of the rendered mapping.
pub const MAPPING_FILE: &str = "mapping.txt";
/// File name of the local-name (alias) table (§5 extension).
pub const ALIASES_FILE: &str = "local_names.txt";
/// Base name bad op-log lines are quarantined to by salvage loading; the
/// actual files are numbered (`session.ops.quarantine.N`) so repeated
/// salvages never overwrite earlier forensic evidence.
pub const QUARANTINE_FILE: &str = "session.ops.quarantine";
/// File name of the append-only archive of checkpoint-truncated op-log
/// prefixes. Never rewritten or pruned: it is the full-replay fallback.
pub const ARCHIVE_FILE: &str = "session.ops.archive";

/// Errors loading or saving a repository.
#[derive(Debug)]
pub enum RepoError {
    /// Filesystem failure.
    Io(stdio::Error),
    /// The shrink wrap ODL did not parse.
    Odl(OdlError),
    /// The shrink wrap schema did not lower.
    Lower(LowerError),
    /// Replaying line `line` of the op log failed.
    Replay { line: usize, source: OpError },
    /// A malformed or checksum-mismatched op-log line.
    BadLogLine { line: usize, content: String },
    /// A malformed local-names line.
    BadAliasLine { line: usize },
    /// An alias collided when registering it.
    Alias(AliasError),
    /// `custom.odl` exists but disagrees with the replayed session.
    CustomMismatch,
    /// A file failed checksum or structural verification (strict mode).
    Corrupt { file: String, detail: String },
    /// The directory was written by a newer format version.
    UnsupportedVersion(u32),
}

impl fmt::Display for RepoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepoError::Io(e) => write!(f, "I/O error: {e}"),
            RepoError::Odl(e) => write!(f, "{e}"),
            RepoError::Lower(e) => write!(f, "{e}"),
            RepoError::Replay { line, source } => {
                write!(f, "replay failed at op-log line {line}: {source}")
            }
            RepoError::BadLogLine { line, content } => {
                write!(f, "malformed op-log line {line}: {content:?}")
            }
            RepoError::BadAliasLine { line } => {
                write!(f, "malformed local-names line {line}")
            }
            RepoError::Alias(e) => write!(f, "{e}"),
            RepoError::CustomMismatch => {
                f.write_str("custom.odl does not match the replayed session")
            }
            RepoError::Corrupt { file, detail } => {
                write!(f, "corrupt session file {file}: {detail}")
            }
            RepoError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "session directory uses format v{v}, newer than this build (v{FORMAT_VERSION})"
                )
            }
        }
    }
}

impl std::error::Error for RepoError {}

impl From<stdio::Error> for RepoError {
    fn from(e: stdio::Error) -> Self {
        RepoError::Io(e)
    }
}

impl From<OdlError> for RepoError {
    fn from(e: OdlError) -> Self {
        RepoError::Odl(e)
    }
}

impl From<LowerError> for RepoError {
    fn from(e: LowerError) -> Self {
        RepoError::Lower(e)
    }
}

impl From<AliasError> for RepoError {
    fn from(e: AliasError) -> Self {
        RepoError::Alias(e)
    }
}

/// How [`Repository::load_with`] treats damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Fail on the first inconsistency (checksum, parse, replay).
    Strict,
    /// Keep the longest valid prefix, quarantine the rest, report.
    Salvage,
}

/// Render one durable op-log record:
/// `<checksum>\t<seq>\t<context>\t<statement>\n`, where the checksum
/// covers everything after its tab. `seq` is the op's global sequence
/// number across the whole session (archived prefixes included), which
/// makes checkpoint truncation and archiving idempotent: a record is
/// identified by its sequence, not its position in a file.
pub fn durable_log_line(seq: u64, context: ConceptKind, op: &ModOp) -> String {
    let body = format!("{seq}\t{}\t{}", context.tag(), print_op(op));
    format!("{}\t{body}\n", to_hex(checksum::checksum(body.as_bytes())))
}

/// Start of the header line that precedes each multi-op batch in the op
/// log: `# batch <first_seq> <n> <checksum>`, where the checksum covers
/// the batch's `n` record lines, newlines included. Loaders that predate
/// batches skip it as a comment.
const BATCH_TAG: &str = "# batch ";

/// Append one accepted batch of op records, numbered from `first_seq`, to
/// `dir/session.ops` with a single write and fsync — the autosave hot
/// path. A batch of one writes exactly its [`durable_log_line`]; a longer
/// batch is preceded by a checksummed header so that salvage keeps a
/// batch torn by a crash all or none. An empty batch writes nothing.
pub fn append_log_records<'a>(
    io: &dyn RepoIo,
    dir: &Path,
    first_seq: u64,
    records: impl IntoIterator<Item = (ConceptKind, &'a ModOp)>,
) -> Result<(), RepoError> {
    let mut body = String::new();
    let mut n = 0u64;
    for (context, op) in records {
        body.push_str(&durable_log_line(first_seq + n, context, op));
        n += 1;
    }
    if n == 0 {
        return Ok(());
    }
    if n > 1 {
        let sum = to_hex(checksum::checksum(body.as_bytes()));
        body.insert_str(0, &format!("{BATCH_TAG}{first_seq} {n} {sum}\n"));
    }
    let mut sp = sws_trace::span!("repo.append", bytes = body.len(), ops = n);
    io.append_sync(&dir.join(SESSION_FILE), body.as_bytes())?;
    sp.record("verdict", "ok");
    Ok(())
}

/// Append one op record: [`append_log_records`] with a batch of one.
pub fn append_log_line(
    io: &dyn RepoIo,
    dir: &Path,
    seq: u64,
    context: ConceptKind,
    op: &ModOp,
) -> Result<(), RepoError> {
    append_log_records(io, dir, seq, [(context, op)])
}

/// The repository: a [`Workspace`] plus persistence.
#[derive(Debug, Clone)]
pub struct Repository {
    workspace: Workspace,
    /// Abstract roots synthesized at ingest (single-root normalization).
    created_roots: Vec<String>,
    /// Local names (§5 extension): canonical → designer-chosen.
    aliases: AliasTable,
    /// Checkpoint state as committed on disk (generation + retained
    /// snapshots); default for never-checkpointed sessions.
    checkpoint: CheckpointMeta,
    /// The shrink wrap's ODL text, rendered on first use: the shrink wrap
    /// never changes, so every save and checkpoint writes these bytes.
    shrink_wrap_odl: OnceCell<String>,
}

/// A write that passed its commit point: the checkpoint state it
/// committed, and how the cleanup after the commit went.
type Committed<T> = (CheckpointMeta, Result<T, RepoError>);

/// What [`Repository::checkpoint_with`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointOutcome {
    /// The committed checkpoint generation.
    pub generation: u64,
    /// Total ops the new snapshot covers.
    pub ops_covered: u64,
    /// Ops moved from the live tail into the archive.
    pub archived_ops: u64,
    /// Bytes appended to the archive.
    pub archived_bytes: u64,
    /// Snapshot files pruned by the retention policy (newest + previous).
    pub pruned: Vec<String>,
}

impl Repository {
    /// Ingest a shrink wrap schema: normalize multi-root generalization
    /// hierarchies (paper §3.2) and open a fresh workspace on the result.
    pub fn ingest(mut shrink_wrap: SchemaGraph) -> Self {
        let created_roots = normalize_single_root(&mut shrink_wrap);
        let workspace = Workspace::new(shrink_wrap);
        Repository::with_workspace(workspace, created_roots)
    }

    /// Ingest a shrink wrap schema and resume the workspace from a
    /// checkpointed working image covering `snap.ops` ops instead of a
    /// copy of the shrink wrap. The caller seeds `checkpoint` from the
    /// snapshot it verified.
    fn ingest_resumed(mut shrink_wrap: SchemaGraph, working: SchemaGraph, snap: &Snapshot) -> Self {
        let created_roots = normalize_single_root(&mut shrink_wrap);
        let moves = snap.moved.clone();
        let workspace = Workspace::resume(shrink_wrap, working, snap.ops, moves);
        Repository::with_workspace(workspace, created_roots)
    }

    fn with_workspace(workspace: Workspace, created_roots: Vec<String>) -> Self {
        Repository {
            workspace,
            created_roots,
            aliases: AliasTable::new(),
            checkpoint: CheckpointMeta::default(),
            shrink_wrap_odl: OnceCell::new(),
        }
    }

    /// Ingest from extended-ODL source text.
    pub fn ingest_odl(source: &str) -> Result<Self, RepoError> {
        let ast = parse_schema(source)?;
        let graph = schema_to_graph(&ast)?;
        Ok(Repository::ingest(graph))
    }

    /// The live workspace.
    pub fn workspace(&self) -> &Workspace {
        &self.workspace
    }

    /// The live workspace, mutably (to apply operations).
    pub fn workspace_mut(&mut self) -> &mut Workspace {
        &mut self.workspace
    }

    /// Abstract roots created by single-root normalization at ingest.
    pub fn created_roots(&self) -> &[String] {
        &self.created_roots
    }

    /// The custom schema as canonical extended-ODL text (canonical names).
    pub fn custom_schema_odl(&self) -> String {
        self.workspace.custom_odl().text()
    }

    /// The custom schema as extended-ODL text with the designer's local
    /// names applied (§5 extension). Equal to
    /// [`Self::custom_schema_odl`] when no aliases are registered.
    pub fn custom_schema_local_odl(&self) -> String {
        print_schema(
            &self
                .aliases
                .apply(&graph_to_schema(self.workspace.working())),
        )
    }

    /// The local-name table.
    pub fn aliases(&self) -> &AliasTable {
        &self.aliases
    }

    /// Swap in a whole local-name table, returning the one it replaces
    /// (how the designer undoes and redoes an alias change).
    pub fn replace_aliases(&mut self, aliases: AliasTable) -> AliasTable {
        std::mem::replace(&mut self.aliases, aliases)
    }

    /// Register a local name for a type.
    pub fn set_type_alias(&mut self, canonical: &str, local: &str) -> Result<(), RepoError> {
        let schema = graph_to_schema(self.workspace.working());
        self.aliases.set_type_alias(&schema, canonical, local)?;
        Ok(())
    }

    /// Register a local name for a member of a type.
    pub fn set_member_alias(
        &mut self,
        ty: &str,
        canonical: &str,
        local: &str,
    ) -> Result<(), RepoError> {
        let schema = graph_to_schema(self.workspace.working());
        self.aliases
            .set_member_alias(&schema, ty, canonical, local)?;
        Ok(())
    }

    /// The shrink wrap schema as canonical extended-ODL text.
    pub fn shrink_wrap_odl(&self) -> String {
        self.shrink_wrap_text().to_string()
    }

    /// The shrink wrap's ODL text, rendered once per repository.
    fn shrink_wrap_text(&self) -> &str {
        self.shrink_wrap_odl
            .get_or_init(|| print_schema(&graph_to_schema(self.workspace.shrink_wrap())))
    }

    /// Take back the last in-memory op through the workspace's undo
    /// journal (see [`Workspace::undo_last`]). Committed snapshots that
    /// covered the undone op describe a history that no longer exists:
    /// they are dropped here, before new ops can bring the op count back
    /// up to their coverage, while the generation counter keeps counting
    /// so the next checkpoint never reuses a snapshot file name.
    pub fn undo_last(&mut self) -> Option<AppliedOp> {
        let record = self.workspace.undo_last()?;
        let total = self.total_ops();
        self.checkpoint.snapshots.retain(|s| s.ops <= total);
        Some(record)
    }

    /// Total committed ops across the whole session: the retired or
    /// snapshotted prefix plus the workspace's history window.
    pub fn total_ops(&self) -> u64 {
        self.workspace.total_ops()
    }

    /// Checkpoint state (generation + retained snapshots) as committed.
    pub fn checkpoint_state(&self) -> &CheckpointMeta {
        &self.checkpoint
    }

    /// Sequence number the durable op-log tail starts at.
    pub fn tail_start(&self) -> u64 {
        self.checkpoint.tail_start()
    }

    /// Run the consistency checks on the custom schema (served by the
    /// workspace's incremental engine).
    pub fn consistency(&self) -> ConsistencyReport {
        self.workspace.consistency()
    }

    /// The history window in the human-readable line format (no
    /// checksums), as shown by the `log` REPL command.
    pub fn render_log(&self) -> String {
        let mut out = String::new();
        for record in self.workspace.log() {
            out.push_str(record.context.tag());
            out.push('\t');
            out.push_str(&print_op(&record.op));
            out.push('\n');
        }
        out
    }

    /// The whole history window in the durable checksummed-line format.
    pub fn render_durable_log(&self) -> String {
        self.render_log_from(self.workspace.base_seq())
    }

    /// Render the durable form of every window entry with a global
    /// sequence number `>= from_seq`, which the window must reach back to.
    fn render_log_from(&self, from_seq: u64) -> String {
        let base = self.workspace.base_seq();
        debug_assert!(
            from_seq >= base,
            "the window starts at {base}, not {from_seq}"
        );
        let skip = from_seq.saturating_sub(base) as usize;
        let mut out = String::new();
        for (i, record) in self.workspace.log().iter().enumerate().skip(skip) {
            let seq = base + i as u64;
            out.push_str(&durable_log_line(seq, record.context, &record.op));
        }
        out
    }

    /// Save the session to `dir` (created if needed) on the real
    /// filesystem.
    pub fn save(&self, dir: &Path) -> Result<(), RepoError> {
        self.save_with(&RealIo, dir)
    }

    /// Save through an explicit I/O implementation. Every file is written
    /// atomically (write-temp → fsync → rename); the `MANIFEST` — the
    /// commit record carrying per-file checksums and checkpoint state —
    /// is written last.
    ///
    /// The op-log tail is rewritten from where the directory's live tail
    /// starts. When the history window no longer reaches back that far
    /// (older entries were retired, or the directory is new to a session
    /// resumed from a snapshot), the save instead writes a snapshot
    /// covering the head and leaves the tail empty, as a checkpoint does.
    pub fn save_with(&self, io: &dyn RepoIo, dir: &Path) -> Result<(), RepoError> {
        self.write_save(io, dir)?.1
    }

    /// [`Self::save_with`], then take the checkpoint state the save
    /// committed as this repository's own: what a session does for the
    /// directory it attaches, so later checkpoints and saves there
    /// continue from it.
    pub fn save_attached(&mut self, io: &dyn RepoIo, dir: &Path) -> Result<(), RepoError> {
        let (meta, cleanup) = self.write_save(io, dir)?;
        self.checkpoint = meta;
        cleanup
    }

    /// The save behind [`Self::save_with`]: the checkpoint state it
    /// committed, then how the post-commit cleanup of a snapshot save went.
    fn write_save(&self, io: &dyn RepoIo, dir: &Path) -> Result<Committed<()>, RepoError> {
        let mut sp = sws_trace::span!("repo.save");
        io.create_dir_all(dir)?;
        let meta = self.effective_checkpoint(io, dir);
        if meta.tail_start() < self.workspace.base_seq() {
            let (meta, cleanup) = self.commit_snapshot(io, dir, meta, "", true)?;
            sws_trace::counter("repo.save.snapshots", 1);
            sp.record("verdict", "snapshot");
            return Ok((meta, cleanup.map(drop)));
        }
        // The op log is self-validating per line and append-only, so it is
        // not manifested: appends must not invalidate the manifest.
        io.write_atomic(
            &dir.join(SESSION_FILE),
            self.render_log_from(meta.tail_start()).as_bytes(),
        )?;
        let custom = self.workspace.custom_odl().text();
        let mut manifest = self.commit_files(io, dir, Some(&custom))?;
        sp.record("files", manifest.entries.len() + 2);
        manifest.set_checkpoint(meta.clone());
        io.write_atomic(&dir.join(MANIFEST_FILE), manifest.render().as_bytes())?;
        Ok((meta, Ok(())))
    }

    /// The checkpoint state a save may legitimately commit right now:
    /// snapshots whose coverage exceeds the current op count (an undo
    /// through the bare workspace, bypassing [`Self::undo_last`]) or whose
    /// file is gone (pruned by a later checkpoint on disk) are dropped, so
    /// the manifest never references a snapshot the tail being written
    /// does not compose with.
    fn effective_checkpoint(&self, io: &dyn RepoIo, dir: &Path) -> CheckpointMeta {
        let total = self.total_ops();
        let mut meta = self.checkpoint.clone();
        meta.snapshots
            .retain(|s| s.ops <= total && io.exists(&dir.join(snapshot_file(s.generation))));
        meta
    }

    /// The files a commit lists, written or kept. A save passes the
    /// assembled custom-schema ODL as `custom`: every file is written
    /// from the head, the derived ones with the ops they cover. A
    /// checkpoint passes `None`: the committed MANIFEST's files are kept
    /// as they are, derived ones lagging the head. Either way a file a
    /// load needs that the list lacks is written: the local names, when
    /// there are any, then the shrink wrap. The shrink wrap goes last on
    /// purpose: a crash earlier in a fresh-directory save leaves *no*
    /// loadable session (the pre-save state) rather than one with a
    /// silently truncated op log.
    fn commit_files(
        &self,
        io: &dyn RepoIo,
        dir: &Path,
        custom: Option<&str>,
    ) -> Result<Manifest, RepoError> {
        let mut manifest = Manifest::new();
        let write = |manifest: &mut Manifest, name: &str, data: &str, ops| {
            io.write_atomic(&dir.join(name), data.as_bytes())?;
            manifest.insert(name, data.as_bytes(), ops);
            Ok::<_, RepoError>(())
        };
        if let Some(custom) = custom {
            let total = Some(self.total_ops());
            let mapping = Mapping::derive(&self.workspace).render();
            write(&mut manifest, CUSTOM_FILE, custom, total)?;
            write(&mut manifest, MAPPING_FILE, &mapping, total)?;
        } else if io.exists(&dir.join(MANIFEST_FILE)) {
            let text = io.read(&dir.join(MANIFEST_FILE))?;
            if let Ok(committed) = Manifest::parse(&String::from_utf8_lossy(&text)) {
                manifest.entries = committed.entries;
            }
        }
        if !self.aliases.is_empty() && !manifest.entries.contains_key(ALIASES_FILE) {
            write(&mut manifest, ALIASES_FILE, &self.aliases.render(), None)?;
        }
        if !manifest.entries.contains_key(SHRINK_WRAP_FILE) {
            write(
                &mut manifest,
                SHRINK_WRAP_FILE,
                self.shrink_wrap_text(),
                None,
            )?;
        }
        Ok(manifest)
    }

    /// Checkpoint to `dir` on the real filesystem. See
    /// [`Self::checkpoint_with`].
    pub fn checkpoint(&mut self, dir: &Path) -> Result<Option<CheckpointOutcome>, RepoError> {
        self.checkpoint_with(&RealIo, dir)
    }

    /// Write a checkpoint: snapshot the working schema, archive the
    /// replayed tail, commit both via a new MANIFEST generation, then
    /// truncate the tail — so the next load is snapshot + short tail
    /// instead of a full replay. The derived files (`custom.odl`,
    /// `mapping.txt`) and the shrink wrap are not rewritten: the new
    /// MANIFEST lists them as the committed one did.
    ///
    /// Ordering is the crash contract (every step goes through the same
    /// atomic [`RepoIo`] primitives the save path uses):
    ///
    /// 1. `snapshot.<gen>` written atomically (an orphan until committed);
    /// 2. the tail's records appended to `session.ops.archive` (duplicate
    ///    appends after a crashed attempt are resolved by sequence
    ///    numbers, last occurrence wins) — when the history window still
    ///    holds them all; otherwise the snapshot alone covers them;
    /// 3. the v2 MANIFEST naming the snapshot and the committed files —
    ///    the **commit point**: a crash before this loads the old state,
    ///    after it the new;
    /// 4. `session.ops` truncated (stale records are skipped by their
    ///    sequence numbers even if this never lands);
    /// 5. snapshots beyond the retention pair (newest + previous) removed.
    ///
    /// Returns `Ok(None)` when there is nothing new to checkpoint.
    pub fn checkpoint_with(
        &mut self,
        io: &dyn RepoIo,
        dir: &Path,
    ) -> Result<Option<CheckpointOutcome>, RepoError> {
        let total = self.total_ops();
        let meta = self.effective_checkpoint(io, dir);
        let tail_start = meta.tail_start();
        if total == tail_start {
            return Ok(None);
        }
        let mut sp = sws_trace::span!("repo.checkpoint", ops = total);
        io.create_dir_all(dir)?;
        let (archived, archived_ops) = if tail_start >= self.workspace.base_seq() {
            (self.render_log_from(tail_start), total - tail_start)
        } else {
            (String::new(), 0)
        };
        let (new_meta, cleanup) = self.commit_snapshot(io, dir, meta, &archived, false)?;
        let generation = new_meta.generation;
        self.checkpoint = new_meta;
        sws_trace::counter("repo.checkpoint.written", 1);
        sws_trace::counter("repo.checkpoint.ops_covered", total);
        sws_trace::counter("repo.checkpoint.archived_bytes", archived.len() as u64);
        let pruned = cleanup?;
        sws_trace::counter("repo.checkpoint.pruned", pruned.len() as u64);
        sp.record("generation", generation as usize);
        Ok(Some(CheckpointOutcome {
            generation,
            ops_covered: total,
            archived_ops,
            archived_bytes: archived.len() as u64,
            pruned,
        }))
    }

    /// Steps 1–5 of [`Self::checkpoint_with`] on top of `meta`, the
    /// directory's effective checkpoint state: a snapshot of the head,
    /// `archived` appended to the archive (skipped when empty), the
    /// commit, the tail truncation and the pruning, listing
    /// `fresh_files` (a save's) or the committed ones (a checkpoint's; see
    /// [`Self::commit_files`]). An error before the
    /// commit point is the outer one; past it, the committed state comes
    /// back with the cleanup's outcome (the pruned snapshot files).
    fn commit_snapshot(
        &self,
        io: &dyn RepoIo,
        dir: &Path,
        meta: CheckpointMeta,
        archived: &str,
        fresh_files: bool,
    ) -> Result<Committed<Vec<String>>, RepoError> {
        let total = self.total_ops();
        // 1. The snapshot image: working schema + the move table the
        //    mapping derivation needs, covering every op up to `total`.
        let generation = meta.generation + 1;
        let snap = Snapshot {
            generation,
            ops: total,
            // Assembled once: a save's `custom.odl` shares it.
            working_odl: self.workspace.custom_odl().text(),
            moved: self.workspace.move_table(),
        };
        let snap_bytes = snap.render();
        io.write_atomic(&dir.join(snapshot_file(generation)), snap_bytes.as_bytes())?;

        // 2. Archive the records the truncation will drop from the tail.
        if !archived.is_empty() {
            io.append_sync(&dir.join(ARCHIVE_FILE), archived.as_bytes())?;
        }

        // 3. Commit: the v2 manifest naming the new snapshot (and
        //    retaining the previous newest as a fallback) and the files.
        let custom = fresh_files.then_some(snap.working_odl.as_str());
        let mut manifest = self.commit_files(io, dir, custom)?;
        let mut retained = meta.snapshots;
        let pruned: Vec<String> = if retained.is_empty() {
            Vec::new()
        } else {
            retained
                .drain(..retained.len() - 1)
                .map(|s| snapshot_file(s.generation))
                .collect()
        };
        retained.push(SnapshotRef {
            generation,
            ops: total,
            len: snap_bytes.len() as u64,
            checksum: checksum::checksum(snap_bytes.as_bytes()),
        });
        let new_meta = CheckpointMeta {
            generation,
            snapshots: retained,
        };
        manifest.set_checkpoint(new_meta.clone());
        io.write_atomic(&dir.join(MANIFEST_FILE), manifest.render().as_bytes())?;

        // 4–5. Post-commit cleanup. Failures here are reported but cannot
        // un-commit: stale tail records are skipped by sequence number and
        // orphan snapshots are ignored by the manifest.
        let cleanup = (|| {
            io.write_atomic(&dir.join(SESSION_FILE), b"")?;
            for name in &pruned {
                io.remove(&dir.join(name))?;
            }
            Ok(pruned)
        })();
        Ok((new_meta, cleanup))
    }

    /// Load a session from `dir` strictly: replay the whole op log through
    /// the full pipeline, verify every checksum and the stored custom
    /// schema, and fail on the first inconsistency.
    pub fn load(dir: &Path) -> Result<Self, RepoError> {
        Repository::load_with(&RealIo, dir, LoadMode::Strict).map(|(repo, _)| repo)
    }

    /// Load a session from `dir` in salvage mode: keep the longest valid
    /// prefix of the op log, quarantine bad lines, repair the directory,
    /// and report. Fails only when the shrink wrap schema itself is
    /// unreadable or unparseable.
    pub fn load_salvage(dir: &Path) -> Result<(Self, RecoveryReport), RepoError> {
        Repository::load_with(&RealIo, dir, LoadMode::Salvage)
    }

    /// Load through an explicit I/O implementation in the given mode.
    pub fn load_with(
        io: &dyn RepoIo,
        dir: &Path,
        mode: LoadMode,
    ) -> Result<(Self, RecoveryReport), RepoError> {
        let salvage = mode == LoadMode::Salvage;
        let mut sp = sws_trace::span!(
            "repo.load",
            mode = if salvage { "salvage" } else { "strict" }
        );
        let mut damage: Vec<FileDamage> = Vec::new();
        let mut regenerated: Vec<String> = Vec::new();

        // --- MANIFEST: the commit record --------------------------------
        let manifest_path = dir.join(MANIFEST_FILE);
        let (manifest, manifest_status) = if io.exists(&manifest_path) {
            let text = String::from_utf8_lossy(&io.read(&manifest_path)?).into_owned();
            match Manifest::parse(&text) {
                Ok(m) => (Some(m), ManifestStatus::Ok),
                Err(ManifestError::UnsupportedVersion(v)) => {
                    // Never reinterpret (or "repair") a future format.
                    return Err(RepoError::UnsupportedVersion(v));
                }
                Err(e) if salvage => (None, ManifestStatus::Damaged(e.to_string())),
                Err(e) => {
                    return Err(RepoError::Corrupt {
                        file: MANIFEST_FILE.into(),
                        detail: e.to_string(),
                    })
                }
            }
        } else {
            (None, ManifestStatus::Missing)
        };
        let verify = |name: &str, data: &[u8]| -> Option<bool> {
            manifest.as_ref().and_then(|m| m.verify(name, data))
        };

        // --- shrink wrap: the one unsalvageable file ---------------------
        let sw_bytes = io.read(&dir.join(SHRINK_WRAP_FILE))?;
        if verify(SHRINK_WRAP_FILE, &sw_bytes) == Some(false) {
            if !salvage {
                return Err(RepoError::Corrupt {
                    file: SHRINK_WRAP_FILE.into(),
                    detail: "checksum mismatch".into(),
                });
            }
            damage.push(FileDamage {
                file: SHRINK_WRAP_FILE.into(),
                kind: DamageKind::ChecksumMismatch,
                detail: "checksum mismatch; parsing anyway".into(),
            });
        }
        let sw_text = String::from_utf8_lossy(&sw_bytes);
        let ast = parse_schema(&sw_text)?;
        let graph = schema_to_graph(&ast)?;

        // --- op log: scan the tail (longest valid prefix) -----------------
        let manifest_ckpt = manifest
            .as_ref()
            .and_then(|m| m.checkpoint.clone())
            .unwrap_or_default();
        let log_path = dir.join(SESSION_FILE);
        let tail_text = if io.exists(&log_path) {
            match io.read(&log_path) {
                Ok(bytes) => String::from_utf8_lossy(&bytes).into_owned(),
                Err(e) if salvage => {
                    damage.push(FileDamage {
                        file: SESSION_FILE.into(),
                        kind: DamageKind::Unparseable,
                        detail: format!("unreadable: {e}"),
                    });
                    String::new()
                }
                Err(e) => return Err(RepoError::Io(e)),
            }
        } else {
            String::new()
        };
        let tail = scan_log(&tail_text, true);
        if let (false, Some(bad)) = (salvage, &tail.first_bad) {
            return Err(RepoError::BadLogLine {
                line: bad.line,
                content: bad.content.clone(),
            });
        }
        let mut ops_dropped = tail.dropped;
        let torn_tail = tail.torn_tail;
        let mut first_bad_op = tail.first_bad;
        let mut quarantine_lines = tail.quarantine_lines;
        let mut load_path = LoadPath::FullLog;
        let mut snapshot_ops = 0u64;

        // --- checkpoint layers: newest snapshot, older snapshot, full
        // replay — each tried only when the previous layer fails ----------
        let read_snapshot =
            |snap_ref: &SnapshotRef| -> Result<(Snapshot, SchemaGraph), (DamageKind, String)> {
                let path = dir.join(snapshot_file(snap_ref.generation));
                if !io.exists(&path) {
                    return Err((DamageKind::Missing, "listed in MANIFEST but missing".into()));
                }
                let bytes = io
                    .read(&path)
                    .map_err(|e| (DamageKind::Unparseable, format!("unreadable: {e}")))?;
                if bytes.len() as u64 != snap_ref.len
                    || checksum::checksum(&bytes) != snap_ref.checksum
                {
                    return Err((
                        DamageKind::ChecksumMismatch,
                        "checksum disagrees with MANIFEST".into(),
                    ));
                }
                let snap = Snapshot::parse(&bytes, &graph)
                    .map_err(|e| (DamageKind::Unparseable, e.to_string()))?;
                if snap.generation != snap_ref.generation || snap.ops != snap_ref.ops {
                    return Err((
                        DamageKind::ChecksumMismatch,
                        "snapshot metadata disagrees with MANIFEST".into(),
                    ));
                }
                let wgraph = parse_schema(&snap.working_odl)
                    .map_err(RepoError::from)
                    .and_then(|a| schema_to_graph(&a).map_err(RepoError::from))
                    .map_err(|e| (DamageKind::Unparseable, format!("working image: {e}")))?;
                Ok((snap, wgraph))
            };
        let mut resumed: Option<Repository> = None;
        for (i, snap_ref) in manifest_ckpt.snapshots.iter().enumerate().rev() {
            let newest = i + 1 == manifest_ckpt.snapshots.len();
            match read_snapshot(snap_ref) {
                Ok((snap, wgraph)) => {
                    let mut r = Repository::ingest_resumed(graph.clone(), wgraph, &snap);
                    // Layers above this one are damaged: the committed
                    // state this session may build on ends here.
                    r.checkpoint = CheckpointMeta {
                        generation: manifest_ckpt.generation,
                        snapshots: manifest_ckpt.snapshots[..=i].to_vec(),
                    };
                    load_path = if newest {
                        LoadPath::Snapshot {
                            generation: snap.generation,
                        }
                    } else {
                        sws_trace::counter("repo.recovery.fallback_snapshot", 1);
                        LoadPath::FallbackSnapshot {
                            generation: snap.generation,
                        }
                    };
                    snapshot_ops = snap.ops;
                    resumed = Some(r);
                    break;
                }
                Err((kind, detail)) => {
                    sws_trace::counter("repo.recovery.snapshot_corrupt", 1);
                    if !salvage {
                        // Strict never falls back: the committed fast path
                        // is damaged, so the directory is corrupt.
                        return Err(RepoError::Corrupt {
                            file: snapshot_file(snap_ref.generation),
                            detail,
                        });
                    }
                    damage.push(FileDamage {
                        file: snapshot_file(snap_ref.generation),
                        kind,
                        detail,
                    });
                }
            }
        }
        let had_snapshots = !manifest_ckpt.snapshots.is_empty();
        // The saved shrink wrap is already normalized; ingest is idempotent.
        let mut repo = resumed.unwrap_or_else(|| {
            let mut r = Repository::ingest(graph);
            r.checkpoint = CheckpointMeta {
                generation: manifest_ckpt.generation,
                snapshots: Vec::new(),
            };
            if had_snapshots {
                load_path = LoadPath::FallbackFullReplay;
                sws_trace::counter("repo.recovery.fallback_full_replay", 1);
            }
            r
        });

        // --- replay: archive (salvage only) merged with the tail ----------
        // Strict trusts the committed snapshot + tail alone. Salvage also
        // merges the archive: the full-replay layer and damaged-manifest
        // recoveries need the truncated prefixes back, and the archive is
        // scanned skip-invalid (a crashed checkpoint retry may leave torn
        // duplicate segments; sequence numbers dedupe them, last
        // occurrence wins, live tail over archive). An intact manifest
        // also says where the live tail starts: archived records from
        // there on are copies of tail records or records of ops an undo
        // took back, so only the prefix before it is taken from the
        // archive.
        let archive_path = dir.join(ARCHIVE_FILE);
        let mut archive = if salvage && io.exists(&archive_path) {
            match io.read(&archive_path) {
                Ok(bytes) => scan_log(&String::from_utf8_lossy(&bytes), false).records,
                Err(_) => Vec::new(),
            }
        } else {
            Vec::new()
        };
        if manifest.is_some() {
            let tail_start = manifest_ckpt.tail_start();
            archive.retain(|r| r.seq < tail_start);
        }
        let mut tail_records = tail.records;
        for r in &mut tail_records {
            r.from_tail = true;
        }
        let base_seq = repo.workspace.base_seq();
        let records = merge_records(archive, tail_records, base_seq);
        let (applied, stop) = replay_records(&mut repo.workspace, &records, base_seq);
        let ops_replayed = applied;
        if let Some(stop) = stop {
            let (index, reason) = match &stop {
                ReplayStop::Gap {
                    index,
                    expected,
                    found,
                } => (
                    *index,
                    format!("sequence gap: expected op {expected}, found op {found}"),
                ),
                ReplayStop::Apply { index, source } => {
                    if !salvage {
                        return Err(RepoError::Replay {
                            line: records[*index].line,
                            source: source.clone(),
                        });
                    }
                    (*index, format!("replay rejected: {source}"))
                }
            };
            if !salvage {
                return Err(RepoError::Corrupt {
                    file: SESSION_FILE.into(),
                    detail: reason,
                });
            }
            // The failed record ends the valid prefix: it and every later
            // record (whose preconditions may depend on the lost op) are
            // dropped; the tail's share is quarantined.
            let failed = &records[index];
            ops_dropped += records.len() - index;
            first_bad_op = Some(BadOp {
                line: failed.line,
                content: durable_log_line(failed.seq, failed.context, &failed.op)
                    .trim_end()
                    .to_string(),
                reason,
            });
            if let Some(first_tail) = records[index..].iter().find(|r| r.from_tail) {
                quarantine_lines = tail_text
                    .lines()
                    .skip(first_tail.line - 1)
                    .map(|l| l.to_string())
                    .collect();
            }
        }

        // --- local names --------------------------------------------------
        // A save with no local names does not list the file, so a MANIFEST
        // that omits it says the table is empty, whatever an earlier save
        // left on disk.
        let alias_path = dir.join(ALIASES_FILE);
        let listed = manifest
            .as_ref()
            .is_none_or(|m| m.entries.contains_key(ALIASES_FILE));
        if listed && io.exists(&alias_path) {
            let bytes = io.read(&alias_path)?;
            let checksum_ok = verify(ALIASES_FILE, &bytes);
            if checksum_ok == Some(false) && !salvage {
                return Err(RepoError::Corrupt {
                    file: ALIASES_FILE.into(),
                    detail: "checksum mismatch".into(),
                });
            }
            let text = String::from_utf8_lossy(&bytes);
            match AliasTable::parse(&text) {
                Ok(table) => {
                    repo.aliases = table;
                    if checksum_ok == Some(false) {
                        damage.push(FileDamage {
                            file: ALIASES_FILE.into(),
                            kind: DamageKind::ChecksumMismatch,
                            detail: "checksum mismatch; parsed anyway".into(),
                        });
                    }
                }
                Err(line) if salvage => damage.push(FileDamage {
                    file: ALIASES_FILE.into(),
                    kind: DamageKind::Unparseable,
                    detail: format!("malformed line {line}; local names dropped"),
                }),
                Err(line) => return Err(RepoError::BadAliasLine { line }),
            }
        }

        // --- derived files: checked by checksum and bytes, regenerable ----
        // An entry's coverage says which op count its file describes. A
        // checkpoint does not rewrite derived files, so one that lags the
        // head is committed state: strict accepts it, salvage regenerates
        // it. One that claims the head, or predates coverage, must equal
        // the replay byte for byte. A file the MANIFEST does not list is
        // not part of the committed directory.
        let head = repo.total_ops();
        for name in [CUSTOM_FILE, MAPPING_FILE] {
            let entry = manifest.as_ref().and_then(|m| m.entries.get(name));
            let path = dir.join(name);
            if entry.is_none() && (manifest.is_some() || !io.exists(&path)) {
                continue;
            }
            let (kind, detail, note) = if !io.exists(&path) {
                (
                    DamageKind::Missing,
                    "listed in MANIFEST but missing",
                    "regenerated",
                )
            } else {
                let bytes = io.read(&path)?;
                if entry.is_some_and(|e| !e.matches(&bytes)) {
                    (
                        DamageKind::ChecksumMismatch,
                        "checksum mismatch",
                        "regenerated from replay",
                    )
                } else if entry.and_then(|e| e.ops).is_some_and(|ops| ops < head) {
                    if salvage {
                        regenerated.push(name.into());
                    }
                    continue;
                } else if name == CUSTOM_FILE && bytes != repo.custom_schema_odl().as_bytes() {
                    if !salvage {
                        return Err(RepoError::CustomMismatch);
                    }
                    (
                        DamageKind::Stale,
                        "does not match the replayed session",
                        "regenerated",
                    )
                } else {
                    continue;
                }
            };
            if !salvage {
                return Err(RepoError::Corrupt {
                    file: name.into(),
                    detail: detail.into(),
                });
            }
            damage.push(FileDamage {
                file: name.into(),
                kind,
                detail: format!("{detail}; {note}"),
            });
            regenerated.push(name.into());
        }

        // --- assemble the report -----------------------------------------
        let mut report = RecoveryReport::clean(
            manifest_status,
            ops_replayed,
            repo.consistency().findings.len(),
        );
        report.damage = damage;
        report.ops_dropped = ops_dropped;
        report.torn_tail = torn_tail;
        report.first_bad_op = first_bad_op;
        report.regenerated = regenerated;
        report.load_path = load_path;
        report.snapshot_ops = snapshot_ops;

        // --- heal: quarantine bad lines, rewrite a clean directory -------
        if salvage && !report.is_clean() {
            sws_trace::counter("repo.recovery.salvaged", 1);
            sws_trace::counter("repo.recovery.ops_replayed", report.ops_replayed as u64);
            sws_trace::counter("repo.recovery.ops_dropped", report.ops_dropped as u64);
            sws_trace::counter("repo.recovery.files_damaged", report.damage.len() as u64);
        }
        // A clean load heals too when derived files lag the head.
        if salvage && !(report.is_clean() && report.regenerated.is_empty()) {
            let mut quarantine_file = None;
            let healed = (|| -> Result<(), RepoError> {
                if !quarantine_lines.is_empty() {
                    let name = next_quarantine_file(io, dir);
                    let mut blob = format!(
                        "# quarantined {} line(s) from {}\n",
                        quarantine_lines.len(),
                        SESSION_FILE
                    );
                    for line in &quarantine_lines {
                        blob.push_str(line);
                        blob.push('\n');
                    }
                    io.write_atomic(&dir.join(&name), blob.as_bytes())?;
                    quarantine_file = Some(name);
                }
                // Damaged snapshots are gone as far as the session is
                // concerned (repo.checkpoint excludes them); remove the
                // files so a later save or checkpoint cannot re-trust them.
                for d in &report.damage {
                    if d.file.starts_with("snapshot.") {
                        io.remove(&dir.join(&d.file))?;
                    }
                }
                // A full save rewrites the valid op-log tail, regenerates
                // the derived files, and recommits the manifest (now
                // referencing only the surviving snapshot layers).
                repo.save_with(io, dir)
            })();
            match healed {
                Ok(()) => {
                    report.quarantined = quarantine_lines.len();
                    report.quarantine_file = quarantine_file;
                    report.healed = true;
                }
                Err(_) => {
                    // Read-only medium: the salvaged session is still
                    // usable, the directory just stays as found.
                    report.healed = false;
                }
            }
        }

        sp.record("ops_replayed", report.ops_replayed);
        sp.record("ops_dropped", report.ops_dropped);
        sp.record("damaged", report.damage.len());
        Ok((repo, report))
    }
}

/// Parse one durable op-log line:
/// `<checksum>\t<seq>\t<context>\t<statement>`, also accepting the
/// earlier checksummed form without a sequence field and the legacy v0
/// form `<context>\t<statement>` (a concept tag can never look like a
/// 16-hex-digit checksum, and is never all digits like a sequence
/// number). Returns the explicit sequence number when the record carries
/// one; positional numbering is the caller's fallback.
fn parse_durable_log_line(line: &str) -> Result<(Option<u64>, ConceptKind, ModOp), String> {
    if let Some((first, body)) = line.split_once('\t') {
        if looks_like_hex(first) {
            let sum = from_hex(first).ok_or("malformed checksum field")?;
            if sum != checksum::checksum(body.as_bytes()) {
                return Err("line checksum mismatch".into());
            }
            if let Some((seq_field, rest)) = body.split_once('\t') {
                if !seq_field.is_empty() && seq_field.bytes().all(|b| b.is_ascii_digit()) {
                    let seq = seq_field
                        .parse::<u64>()
                        .map_err(|_| "sequence number out of range".to_string())?;
                    let (context, op) =
                        parse_log_body(rest).ok_or_else(|| "malformed record".to_string())?;
                    return Ok((Some(seq), context, op));
                }
            }
            let (context, op) =
                parse_log_body(body).ok_or_else(|| "malformed record".to_string())?;
            return Ok((None, context, op));
        }
    }
    let (context, op) = parse_log_body(line).ok_or_else(|| "malformed record".to_string())?;
    Ok((None, context, op))
}

/// Parse the `<context>\t<statement>` body (tab or space separated).
pub(crate) fn parse_log_body(line: &str) -> Option<(ConceptKind, ModOp)> {
    let (tag, stmt) = line.split_once(['\t', ' '])?;
    let context = ConceptKind::from_tag(tag)?;
    let op = parse_statement(stmt.trim()).ok()?;
    Some((context, op))
}

/// One scanned op-log record with its resolved global sequence number.
#[derive(Debug, Clone)]
struct LogRecord {
    seq: u64,
    context: ConceptKind,
    op: ModOp,
    /// 1-based line number in the file the record was scanned from.
    line: usize,
    /// Scanned from the live tail (`session.ops`) rather than the archive.
    from_tail: bool,
}

/// Outcome of scanning one op-log file.
struct LogScan {
    records: Vec<LogRecord>,
    /// First bad line (prefix mode only).
    first_bad: Option<BadOp>,
    /// Non-empty, non-comment lines from the first bad one on.
    dropped: usize,
    /// The bad line, or the batch it heads, runs off the end of the file:
    /// a crash tore it.
    torn_tail: bool,
    /// Raw lines from the first bad one on (prefix mode only).
    quarantine_lines: Vec<String>,
}

/// Scan an op-log file into records. Sequence numbers are taken from the
/// records themselves when present; records without one (legacy forms)
/// are numbered positionally, continuing after the last explicit number.
///
/// `prefix_only` is the live tail's contract: the first bad line ends the
/// valid prefix and is reported. The archive is instead scanned
/// skip-invalid (`prefix_only = false`): a crashed checkpoint retry can
/// legitimately leave a torn segment mid-archive, and the sequence-number
/// merge recovers every record around it — debris there is not damage.
fn scan_log(text: &str, prefix_only: bool) -> LogScan {
    let mut scan = LogScan {
        records: Vec::new(),
        first_bad: None,
        dropped: 0,
        torn_tail: false,
        quarantine_lines: Vec::new(),
    };
    let ends_with_newline = text.ends_with('\n');
    let lines: Vec<&str> = text.lines().collect();
    // Does a line span ending at index `last` reach past what the file
    // holds, or end it without a newline? Then a crash tore it.
    let runs_off_the_end =
        |last: usize| last >= lines.len() || (last + 1 == lines.len() && !ends_with_newline);
    let mut next_seq = 0u64;
    for (i, raw) in lines.iter().enumerate() {
        let line = raw.trim();
        let header = line.starts_with(BATCH_TAG)
            || (line.starts_with('#') && runs_off_the_end(i) && "# batch".starts_with(line));
        let parsed = if prefix_only && header {
            // A batch header, or what a crash left of one: the batch must
            // have arrived whole, or it ends the valid prefix.
            match check_batch(&lines, i, runs_off_the_end) {
                Ok(()) => continue,
                Err(bad) => Err(bad),
            }
        } else if line.is_empty() || line.starts_with('#') {
            continue;
        } else {
            parse_durable_log_line(line).map_err(|reason| (reason, runs_off_the_end(i)))
        };
        match parsed {
            Ok((explicit, context, op)) => {
                let seq = explicit.unwrap_or(next_seq);
                next_seq = seq + 1;
                scan.records.push(LogRecord {
                    seq,
                    context,
                    op,
                    line: i + 1,
                    from_tail: false,
                });
            }
            Err((reason, torn)) => {
                if !prefix_only {
                    continue;
                }
                scan.dropped = lines[i..]
                    .iter()
                    .filter(|l| {
                        let t = l.trim();
                        !t.is_empty() && !t.starts_with('#')
                    })
                    .count();
                scan.torn_tail = torn;
                scan.first_bad = Some(BadOp {
                    line: i + 1,
                    content: raw.to_string(),
                    reason,
                });
                scan.quarantine_lines = lines[i..].iter().map(|l| l.to_string()).collect();
                break;
            }
        }
    }
    scan
}

/// Check that the batch whose header is `lines[i]` arrived whole: a
/// well-formed header, then `n` record lines whose bytes match its
/// checksum, the first carrying the header's sequence number. `Err`
/// carries the reason and whether the batch was torn off the end of the
/// file rather than damaged in place.
fn check_batch(
    lines: &[&str],
    i: usize,
    runs_off_the_end: impl Fn(usize) -> bool,
) -> Result<(), (String, bool)> {
    let fields: Vec<&str> = lines[i]
        .trim()
        .strip_prefix(BATCH_TAG)
        .unwrap_or_default()
        .split(' ')
        .collect();
    let header = match fields[..] {
        [first, n, sum] => n
            .parse::<usize>()
            .ok()
            .zip(from_hex(sum))
            .map(|(n, sum)| (first, n, sum)),
        _ => None,
    };
    let Some((first, n, sum)) = header else {
        return Err(("malformed batch header".into(), runs_off_the_end(i)));
    };
    let last = i.saturating_add(n);
    let Some(records) = lines.get(i + 1..=last) else {
        let present = lines.len() - i - 1;
        return Err((
            format!("torn batch: {present} of {n} records present"),
            true,
        ));
    };
    if runs_off_the_end(last) {
        return Err(("torn batch: its last record has no newline".into(), true));
    }
    let mut hash = checksum::Checksum::new();
    for record in records {
        hash.update(record.as_bytes());
        hash.update(b"\n");
    }
    if hash.finish() != sum {
        return Err(("batch checksum mismatch".into(), false));
    }
    if records.first().and_then(|r| r.split('\t').nth(1)) != Some(first) {
        return Err(("batch header disagrees with its first record".into(), false));
    }
    Ok(())
}

/// Merge archive and tail records by global sequence number, keeping only
/// sequences `>= from` (records below are already folded into the
/// snapshot being resumed). Insertion order makes the policy: within the
/// archive the *last* occurrence of a sequence wins (re-appended segments
/// supersede torn ones), and the live tail wins over the archive.
fn merge_records(archive: Vec<LogRecord>, tail: Vec<LogRecord>, from: u64) -> Vec<LogRecord> {
    let mut by_seq: BTreeMap<u64, LogRecord> = BTreeMap::new();
    for r in archive.into_iter().chain(tail) {
        by_seq.insert(r.seq, r);
    }
    by_seq.split_off(&from).into_values().collect()
}

/// Why a replay stopped early.
enum ReplayStop {
    /// The records are not contiguous from the expected sequence number:
    /// an op is missing, so nothing after the hole can be trusted.
    Gap {
        index: usize,
        expected: u64,
        found: u64,
    },
    /// A record was rejected by the op pipeline.
    Apply { index: usize, source: OpError },
}

/// Replay `records` (sorted by sequence) into `ws`, requiring contiguous
/// sequence numbers starting at `expected`. Returns how many applied and
/// why the replay stopped, if it did.
fn replay_records(
    ws: &mut Workspace,
    records: &[LogRecord],
    mut expected: u64,
) -> (usize, Option<ReplayStop>) {
    for (index, r) in records.iter().enumerate() {
        if r.seq != expected {
            return (
                index,
                Some(ReplayStop::Gap {
                    index,
                    expected,
                    found: r.seq,
                }),
            );
        }
        match ws.apply(r.context, r.op.clone()) {
            Ok(_) => expected += 1,
            Err(source) => return (index, Some(ReplayStop::Apply { index, source })),
        }
    }
    (records.len(), None)
}

/// First unused numbered quarantine file name
/// (`session.ops.quarantine.1`, `.2`, …): successive salvages never
/// overwrite earlier forensic evidence.
fn next_quarantine_file(io: &dyn RepoIo, dir: &Path) -> String {
    (1u64..)
        .map(|n| format!("{QUARANTINE_FILE}.{n}"))
        .find(|name| !io.exists(&dir.join(name)))
        .expect("unbounded numbering")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_core::ModOp;
    use sws_odl::DomainType;

    fn repo() -> Repository {
        let src = r#"
        schema Dept {
            interface Person { attribute string name; }
            interface Employee : Person {
                attribute long badge;
                relationship Department works_in_a inverse Department::has;
            }
            interface Department {
                extent departments;
                relationship set<Employee> has inverse Employee::works_in_a;
            }
        }"#;
        Repository::ingest_odl(src).unwrap()
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sws_repo_test_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_round_trip() {
        let mut repo = repo();
        repo.workspace_mut()
            .apply(
                ConceptKind::WagonWheel,
                ModOp::AddTypeDefinition {
                    ty: "Project".into(),
                },
            )
            .unwrap();
        repo.workspace_mut()
            .apply(
                ConceptKind::WagonWheel,
                ModOp::AddAttribute {
                    ty: "Project".into(),
                    domain: DomainType::String,
                    size: Some(32),
                    name: "code_name".into(),
                },
            )
            .unwrap();
        repo.workspace_mut()
            .apply(
                ConceptKind::Generalization,
                ModOp::ModifyRelationshipTargetType {
                    ty: "Department".into(),
                    path: "has".into(),
                    old_target: "Employee".into(),
                    new_target: "Person".into(),
                },
            )
            .unwrap();

        let dir = tmpdir("round_trip");
        repo.save(&dir).unwrap();
        let loaded = Repository::load(&dir).unwrap();
        assert_eq!(
            graph_to_schema(loaded.workspace().working()),
            graph_to_schema(repo.workspace().working())
        );
        assert_eq!(loaded.workspace().log().len(), 3);
        // The replayed impact matches too.
        assert_eq!(
            loaded.workspace().log()[2].impact,
            repo.workspace().log()[2].impact
        );
        // The save is manifested and every line is checksummed.
        let manifest_text = std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        assert!(manifest_text.starts_with("sws-repository v1\n"));
        let log = std::fs::read_to_string(dir.join(SESSION_FILE)).unwrap();
        for line in log.lines() {
            let (sum, _) = line.split_once('\t').unwrap();
            assert!(looks_like_hex(sum), "{line}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_v0_directory_still_loads() {
        // A pre-manifest directory: plain log lines, no MANIFEST.
        let repo = repo();
        let dir = tmpdir("legacy");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(SHRINK_WRAP_FILE), repo.shrink_wrap_odl()).unwrap();
        std::fs::write(
            dir.join(SESSION_FILE),
            "wagon_wheel\tadd_type_definition(Project)\n",
        )
        .unwrap();
        let loaded = Repository::load(&dir).unwrap();
        assert_eq!(loaded.workspace().log().len(), 1);
        let (loaded2, report) = Repository::load_salvage(&dir).unwrap();
        assert_eq!(loaded2.workspace().log().len(), 1);
        assert_eq!(report.manifest, ManifestStatus::Missing);
        assert!(report.is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ingest_normalizes_multi_root_hierarchies() {
        let src = r#"
        interface A { }
        interface B { }
        interface C : A, B { }"#;
        let repo = Repository::ingest_odl(src).unwrap();
        assert_eq!(repo.created_roots().len(), 1);
        assert!(repo
            .workspace()
            .shrink_wrap()
            .type_id(&repo.created_roots()[0])
            .is_some());
    }

    #[test]
    fn tampered_custom_schema_detected() {
        let repo = repo();
        let dir = tmpdir("tampered");
        repo.save(&dir).unwrap();
        std::fs::write(dir.join(CUSTOM_FILE), "schema X { interface Alien { } }").unwrap();
        // Strict: the manifest checksum catches the tampering.
        assert!(matches!(
            Repository::load(&dir),
            Err(RepoError::Corrupt { file, .. }) if file == CUSTOM_FILE
        ));
        // Salvage: regenerate and report, no error.
        let (loaded, report) = Repository::load_salvage(&dir).unwrap();
        assert!(!report.is_clean());
        assert!(!report.data_loss());
        assert!(report
            .damage
            .iter()
            .any(|d| d.file == CUSTOM_FILE && d.kind == DamageKind::ChecksumMismatch));
        assert_eq!(loaded.custom_schema_odl(), repo.custom_schema_odl());
        // Healing rewrote the file; a second load is clean.
        let (_, report2) = Repository::load_salvage(&dir).unwrap();
        assert!(report2.is_clean(), "{report2:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_log_line_reported_with_number() {
        let repo = repo();
        let dir = tmpdir("badlog");
        repo.save(&dir).unwrap();
        std::fs::write(
            dir.join(SESSION_FILE),
            "# comment\nnot_a_context\tadd_type_definition(X)\n",
        )
        .unwrap();
        match Repository::load(&dir) {
            Err(RepoError::BadLogLine { line, .. }) => assert_eq!(line, 2),
            other => panic!("{other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_failure_reports_line_and_cause() {
        let repo = repo();
        let dir = tmpdir("replayfail");
        repo.save(&dir).unwrap();
        // An op that violates Table 1: a move in a wagon wheel context.
        std::fs::write(
            dir.join(SESSION_FILE),
            "wagon_wheel\tmodify_attribute(Employee, badge, Person)\n",
        )
        .unwrap();
        std::fs::remove_file(dir.join(CUSTOM_FILE)).unwrap();
        match Repository::load(&dir) {
            Err(RepoError::Replay { line: 1, source }) => {
                assert!(matches!(source, OpError::NotPermitted { .. }));
            }
            other => panic!("{other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_then_load_replays_the_appended_op() {
        let repo = repo();
        let dir = tmpdir("append");
        repo.save(&dir).unwrap();
        append_log_line(
            &RealIo,
            &dir,
            repo.total_ops(),
            ConceptKind::WagonWheel,
            &ModOp::AddTypeDefinition { ty: "Annex".into() },
        )
        .unwrap();
        // custom.odl lags the replay by the appended op, and its MANIFEST
        // entry says so: strict load accepts it.
        assert!(Repository::load(&dir).is_ok());
        // Salvage regenerates the derived files; no designer work is lost.
        let (loaded, report) = Repository::load_salvage(&dir).unwrap();
        assert_eq!(loaded.workspace().log().len(), 1);
        assert!(loaded.workspace().working().type_id("Annex").is_some());
        assert!(!report.data_loss());
        assert!(report.healed);
        // Healed: both strict and salvage load cleanly now.
        assert!(Repository::load(&dir).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Rewrite `dir`'s MANIFEST as a build from before coverage wrote it:
    /// the same entries without their trailing op counts.
    fn strip_coverage(io: &dyn RepoIo, dir: &Path) {
        let path = dir.join(MANIFEST_FILE);
        let text = String::from_utf8(io.read(&path).unwrap()).unwrap();
        let mut manifest = Manifest::parse(&text).unwrap();
        for entry in manifest.entries.values_mut() {
            entry.ops = None;
        }
        io.write_atomic(&path, manifest.render().as_bytes())
            .unwrap();
    }

    #[test]
    fn directories_without_coverage_still_load_strictly() {
        use io::MemIo;
        let dir = Path::new("/mem/uncovered");
        for checkpointed in [false, true] {
            let disk = MemIo::new();
            let mut repo = repo();
            apply_add(&mut repo, "P1");
            repo.save_with(&disk, dir).unwrap();
            if checkpointed {
                repo.checkpoint_with(&disk, dir).unwrap().unwrap();
            }
            strip_coverage(&disk, dir);
            // custom.odl is the head's: the byte check accepts it.
            let (loaded, _) = Repository::load_with(&disk, dir, LoadMode::Strict).unwrap();
            assert_eq!(loaded.custom_schema_odl(), repo.custom_schema_odl());
            // With no coverage to tell a lagging file from a wrong one, an
            // appended op makes it a mismatch, as before coverage.
            let op = ModOp::AddTypeDefinition { ty: "P2".into() };
            append_log_line(&disk, dir, 1, ConceptKind::WagonWheel, &op).unwrap();
            assert!(
                matches!(
                    Repository::load_with(&disk, dir, LoadMode::Strict),
                    Err(RepoError::CustomMismatch)
                ),
                "checkpointed: {checkpointed}"
            );
            let (salvaged, report) = Repository::load_with(&disk, dir, LoadMode::Salvage).unwrap();
            assert_eq!(salvaged.total_ops(), 2);
            assert!(!report.data_loss() && report.healed, "{report:?}");
        }
    }

    #[test]
    fn a_checkpoint_after_an_unattached_save_lists_every_file() {
        use io::MemIo;
        let disk = MemIo::new();
        let dir = Path::new("/mem/unattached");
        let mut repo = repo();
        repo.set_type_alias("Employee", "StaffMember").unwrap();
        repo.save_with(&disk, dir).unwrap();
        apply_add(&mut repo, "P1");
        repo.checkpoint_with(&disk, dir).unwrap().unwrap();

        let text = String::from_utf8(disk.read(&dir.join(MANIFEST_FILE)).unwrap()).unwrap();
        let manifest = Manifest::parse(&text).unwrap();
        let snapshots = manifest.checkpoint.clone().unwrap().snapshots;
        let mut listed = 0;
        for path in disk.paths() {
            let name = path.file_name().unwrap().to_str().unwrap();
            let bytes = disk.read(&path).unwrap();
            if let Some(generation) = name.strip_prefix("snapshot.") {
                let generation: u64 = generation.parse().unwrap();
                let snap = snapshots.iter().find(|s| s.generation == generation);
                assert!(snap.is_some_and(|s| s.checksum == checksum::checksum(&bytes)));
            } else if ![SESSION_FILE, ARCHIVE_FILE, MANIFEST_FILE].contains(&name) {
                assert_eq!(manifest.verify(name, &bytes), Some(true), "{name}");
                listed += 1;
            }
        }
        assert_eq!(
            listed, 4,
            "custom.odl, mapping.txt, local names, shrink wrap"
        );
        // custom.odl still covers the save, not the checkpoint.
        assert_eq!(manifest.entries[CUSTOM_FILE].ops, Some(0));
        let (loaded, _) = Repository::load_with(&disk, dir, LoadMode::Strict).unwrap();
        assert_eq!(loaded.custom_schema_odl(), repo.custom_schema_odl());
    }

    #[test]
    fn a_checkpoint_into_a_fresh_directory_writes_the_shrink_wrap() {
        use io::MemIo;
        let disk = MemIo::new();
        let dir = Path::new("/mem/fresh");
        let mut repo = repo();
        apply_add(&mut repo, "P1");
        repo.checkpoint_with(&disk, dir).unwrap().unwrap();
        assert!(!disk.exists(&dir.join(CUSTOM_FILE)));
        let (loaded, report) = Repository::load_with(&disk, dir, LoadMode::Salvage).unwrap();
        assert!(
            report.is_clean() && report.regenerated.is_empty(),
            "{report:?}"
        );
        assert_eq!(loaded.custom_schema_odl(), repo.custom_schema_odl());
    }

    #[test]
    fn a_batch_is_one_append_and_a_torn_one_is_salvaged_all_or_none() {
        use io::MemIo;
        let dir = Path::new("/mem/batch");
        let pre = repo();
        let ops: Vec<ModOp> = ["B1", "B2", "B3"]
            .map(|ty| ModOp::AddTypeDefinition { ty: ty.into() })
            .into();
        let base = MemIo::new();
        pre.save_with(&base, dir).unwrap();
        let log = dir.join(SESSION_FILE);
        let before = base.contents(&log).unwrap();

        // A batch of one is exactly the single-record line.
        let one = base.snapshot();
        append_log_records(&one, dir, 0, [(ConceptKind::WagonWheel, &ops[0])]).unwrap();
        let line = durable_log_line(0, ConceptKind::WagonWheel, &ops[0]);
        assert_eq!(
            one.contents(&log).unwrap()[before.len()..],
            *line.as_bytes()
        );

        let whole = base.snapshot();
        let records = ops.iter().map(|op| (ConceptKind::WagonWheel, op));
        append_log_records(&whole, dir, 0, records).unwrap();
        let full = whole.contents(&log).unwrap();
        let text = String::from_utf8_lossy(&full[before.len()..]).into_owned();
        assert!(text.starts_with("# batch 0 3 "), "{text}");
        assert_eq!(text.lines().count(), 4, "{text}");

        // Every prefix of the one write: all three ops or none of them.
        for cut in before.len()..=full.len() {
            let disk = base.snapshot();
            disk.write_atomic(&log, &full[..cut]).unwrap();
            let (loaded, report) = Repository::load_with(&disk, dir, LoadMode::Salvage).unwrap();
            if cut == full.len() {
                assert_eq!(loaded.total_ops(), 3);
                assert!(!report.torn_tail && !report.data_loss(), "{report:?}");
            } else {
                assert_eq!(loaded.total_ops(), 0, "cut at {cut}: {report:?}");
                assert_eq!(report.torn_tail, cut > before.len(), "cut at {cut}");
                // Healed: the next append starts on a clean line.
                let (_, again) = Repository::load_with(&disk, dir, LoadMode::Salvage).unwrap();
                assert!(again.is_clean(), "cut at {cut}: {again:?}");
            }
        }

        // A batch damaged in place is not taken for a torn one.
        let disk = base.snapshot();
        let flipped = text.replacen("B2", "Bx", 1);
        let image = [&before[..], flipped.as_bytes(), line.as_bytes()].concat();
        disk.write_atomic(&log, &image).unwrap();
        let (loaded, report) = Repository::load_with(&disk, dir, LoadMode::Salvage).unwrap();
        assert_eq!(loaded.total_ops(), 0);
        assert!(!report.torn_tail, "{report:?}");
        assert_eq!(
            report.first_bad_op.unwrap().reason,
            "batch checksum mismatch"
        );
    }

    #[test]
    fn salvage_quarantines_the_bad_tail() {
        let mut repo = repo();
        for ty in ["P1", "P2", "P3"] {
            repo.workspace_mut()
                .apply(
                    ConceptKind::WagonWheel,
                    ModOp::AddTypeDefinition { ty: ty.into() },
                )
                .unwrap();
        }
        let dir = tmpdir("quarantine");
        repo.save(&dir).unwrap();
        // Corrupt the second record: one flipped byte breaks its checksum.
        let log = std::fs::read_to_string(dir.join(SESSION_FILE)).unwrap();
        let corrupted = log.replacen("P2", "Px", 1);
        std::fs::write(dir.join(SESSION_FILE), &corrupted).unwrap();

        let (loaded, report) = Repository::load_salvage(&dir).unwrap();
        // Longest valid prefix: exactly one op survives.
        assert_eq!(report.ops_replayed, 1);
        assert_eq!(report.ops_dropped, 2);
        assert!(report.data_loss());
        assert!(!report.torn_tail);
        let bad = report.first_bad_op.as_ref().unwrap();
        assert_eq!(bad.line, 2);
        assert!(bad.reason.contains("checksum"), "{}", bad.reason);
        assert_eq!(report.quarantined, 2);
        assert!(loaded.workspace().working().type_id("P1").is_some());
        assert!(loaded.workspace().working().type_id("P2").is_none());
        // The bad lines landed in the numbered quarantine file; the log
        // was rewritten to the valid prefix and now loads cleanly.
        let qfile = report.quarantine_file.as_deref().unwrap();
        assert_eq!(qfile, &format!("{QUARANTINE_FILE}.1"));
        let q = std::fs::read_to_string(dir.join(qfile)).unwrap();
        assert!(q.contains("Px"));
        let (_, report2) = Repository::load_salvage(&dir).unwrap();
        assert!(report2.is_clean());
        assert_eq!(report2.ops_replayed, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn aliases_persist_and_render() {
        let mut repo = repo();
        repo.set_type_alias("Employee", "StaffMember").unwrap();
        repo.set_member_alias("Employee", "badge", "staff_id")
            .unwrap();
        // Canonical output unchanged; local output renamed.
        assert!(repo.custom_schema_odl().contains("interface Employee"));
        let local = repo.custom_schema_local_odl();
        assert!(local.contains("interface StaffMember : Person"), "{local}");
        assert!(local.contains("attribute long staff_id;"));
        assert!(local.contains("relationship set<StaffMember> has"));

        let dir = tmpdir("aliases");
        repo.save(&dir).unwrap();
        let loaded = Repository::load(&dir).unwrap();
        assert_eq!(loaded.aliases(), repo.aliases());
        assert_eq!(
            loaded.custom_schema_local_odl(),
            repo.custom_schema_local_odl()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn alias_collisions_surface_as_repo_errors() {
        let mut repo = repo();
        assert!(matches!(
            repo.set_type_alias("Employee", "Person"),
            Err(RepoError::Alias(_))
        ));
    }

    #[test]
    fn log_format_is_line_per_op() {
        let mut repo = repo();
        repo.workspace_mut()
            .apply(
                ConceptKind::WagonWheel,
                ModOp::AddTypeDefinition { ty: "X".into() },
            )
            .unwrap();
        let log = repo.render_log();
        assert_eq!(log, "wagon_wheel\tadd_type_definition(X)\n");
        // The durable format prefixes a checksum and the global sequence
        // number; the checksum covers everything after its own tab.
        let durable = repo.render_durable_log();
        let (sum, body) = durable.trim_end().split_once('\t').unwrap();
        assert_eq!(body, "0\twagon_wheel\tadd_type_definition(X)");
        assert_eq!(from_hex(sum), Some(checksum::checksum(body.as_bytes())));
    }

    #[test]
    fn reports_available() {
        let repo = repo();
        assert!(repo.custom_schema_odl().contains("interface Person"));
        assert!(Mapping::derive(repo.workspace())
            .render()
            .contains("reuse 100.0%"));
        // Person/Employee carry no keys — consistency may warn, but must run.
        let _ = repo.consistency();
    }

    fn apply_add(repo: &mut Repository, ty: &str) {
        repo.workspace_mut()
            .apply(
                ConceptKind::WagonWheel,
                ModOp::AddTypeDefinition { ty: ty.into() },
            )
            .unwrap();
    }

    #[test]
    fn checkpoint_truncates_tail_and_load_resumes_from_snapshot() {
        let mut repo = repo();
        for ty in ["P1", "P2", "P3"] {
            apply_add(&mut repo, ty);
        }
        let dir = tmpdir("ckpt_round_trip");
        repo.save(&dir).unwrap();
        let outcome = repo.checkpoint(&dir).unwrap().unwrap();
        assert_eq!(outcome.generation, 1);
        assert_eq!(outcome.ops_covered, 3);
        assert_eq!(outcome.archived_ops, 3);
        // The tail is now empty; the archive holds the prefix.
        assert_eq!(std::fs::read(dir.join(SESSION_FILE)).unwrap(), b"");
        assert!(dir.join(ARCHIVE_FILE).exists());
        assert!(dir.join(snapshot_file(1)).exists());

        // Strict load takes the snapshot fast path: same schema, no
        // in-memory log (nothing replayed), full op count preserved.
        let (loaded, report) = Repository::load_with(&RealIo, &dir, LoadMode::Strict).unwrap();
        assert_eq!(report.load_path, LoadPath::Snapshot { generation: 1 });
        assert_eq!(report.snapshot_ops, 3);
        assert_eq!(report.ops_replayed, 0);
        assert_eq!(
            graph_to_schema(loaded.workspace().working()),
            graph_to_schema(repo.workspace().working())
        );
        assert_eq!(loaded.total_ops(), 3);
        assert_eq!(loaded.workspace().base_seq(), 3);

        // Appends after the checkpoint land in the tail and replay on top.
        append_log_line(
            &RealIo,
            &dir,
            3,
            ConceptKind::WagonWheel,
            &ModOp::AddTypeDefinition { ty: "P4".into() },
        )
        .unwrap();
        let (loaded2, report2) = Repository::load_salvage(&dir).unwrap();
        assert_eq!(report2.ops_replayed, 1);
        assert_eq!(loaded2.total_ops(), 4);
        assert!(loaded2.workspace().working().type_id("P4").is_some());
        assert!(!report2.data_loss());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_with_nothing_new_is_a_no_op() {
        let mut repo = repo();
        apply_add(&mut repo, "P1");
        let dir = tmpdir("ckpt_noop");
        repo.save(&dir).unwrap();
        assert!(repo.checkpoint(&dir).unwrap().is_some());
        assert!(repo.checkpoint(&dir).unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mapping_survives_checkpoint_via_the_move_table() {
        let mut repo = Repository::ingest_odl(
            r#"
            interface Person { attribute string name; }
            interface Employee : Person { attribute string badge; }"#,
        )
        .unwrap();
        repo.workspace_mut()
            .apply(
                ConceptKind::Generalization,
                ModOp::ModifyAttribute {
                    ty: "Employee".into(),
                    name: "badge".into(),
                    new_ty: "Person".into(),
                },
            )
            .unwrap();
        let mapping = |repo: &Repository| Mapping::derive(repo.workspace()).render();
        let before = mapping(&repo);
        let dir = tmpdir("ckpt_mapping");
        repo.save(&dir).unwrap();
        repo.checkpoint(&dir).unwrap().unwrap();
        assert_eq!(mapping(&repo), before);
        let loaded = Repository::load(&dir).unwrap();
        assert!(loaded.workspace().log().is_empty());
        assert_eq!(mapping(&loaded), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_keeps_newest_and_previous_snapshot_only() {
        let mut repo = repo();
        let dir = tmpdir("ckpt_retention");
        apply_add(&mut repo, "P1");
        repo.save(&dir).unwrap();
        repo.checkpoint(&dir).unwrap().unwrap();
        apply_add(&mut repo, "P2");
        repo.save(&dir).unwrap();
        repo.checkpoint(&dir).unwrap().unwrap();
        apply_add(&mut repo, "P3");
        repo.save(&dir).unwrap();
        let outcome = repo.checkpoint(&dir).unwrap().unwrap();
        assert_eq!(outcome.generation, 3);
        assert_eq!(outcome.pruned, vec![snapshot_file(1)]);
        assert!(!dir.join(snapshot_file(1)).exists());
        assert!(dir.join(snapshot_file(2)).exists());
        assert!(dir.join(snapshot_file(3)).exists());
        assert_eq!(repo.checkpoint_state().snapshots.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_previous() {
        let mut repo = repo();
        let dir = tmpdir("ckpt_fallback_prev");
        apply_add(&mut repo, "P1");
        repo.save(&dir).unwrap();
        repo.checkpoint(&dir).unwrap().unwrap();
        apply_add(&mut repo, "P2");
        repo.save(&dir).unwrap();
        repo.checkpoint(&dir).unwrap().unwrap();
        // Flip a byte in the newest snapshot.
        let path = dir.join(snapshot_file(2));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        // Strict refuses: the committed fast path is damaged.
        assert!(matches!(
            Repository::load(&dir),
            Err(RepoError::Corrupt { file, .. }) if file == snapshot_file(2)
        ));
        // Salvage falls back to generation 1 + the archived ops: nothing
        // is lost, the load is merely degraded.
        let (loaded, report) = Repository::load_salvage(&dir).unwrap();
        assert_eq!(
            report.load_path,
            LoadPath::FallbackSnapshot { generation: 1 }
        );
        assert!(report.degraded());
        assert!(!report.data_loss());
        assert_eq!(loaded.total_ops(), 2);
        assert!(loaded.workspace().working().type_id("P2").is_some());
        // Healing removed the damaged snapshot and recommitted; the next
        // load is clean again (on the surviving generation).
        assert!(report.healed);
        assert!(!path.exists());
        let (_, report2) = Repository::load_salvage(&dir).unwrap();
        assert!(report2.is_clean(), "{report2:?}");
        assert_eq!(report2.load_path, LoadPath::Snapshot { generation: 1 });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn all_snapshots_corrupt_falls_back_to_full_replay() {
        let mut repo = repo();
        let dir = tmpdir("ckpt_fallback_full");
        apply_add(&mut repo, "P1");
        repo.save(&dir).unwrap();
        repo.checkpoint(&dir).unwrap().unwrap();
        apply_add(&mut repo, "P2");
        repo.save(&dir).unwrap();
        repo.checkpoint(&dir).unwrap().unwrap();
        for generation in [1, 2] {
            std::fs::write(dir.join(snapshot_file(generation)), b"garbage").unwrap();
        }
        let (loaded, report) = Repository::load_salvage(&dir).unwrap();
        assert_eq!(report.load_path, LoadPath::FallbackFullReplay);
        assert!(report.degraded());
        assert!(!report.data_loss());
        assert_eq!(report.ops_replayed, 2);
        assert_eq!(loaded.total_ops(), 2);
        assert!(loaded.workspace().working().type_id("P1").is_some());
        assert!(loaded.workspace().working().type_id("P2").is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
