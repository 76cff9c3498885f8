//! The interactive design session: concept-schema navigation, operation
//! issuing, feedback, and undo/redo.

use std::fmt;
use std::path::{Path, PathBuf};

use sws_core::concept::{ConceptSchema, Decomposition};
use sws_core::consistency::ConsistencyReport;
use sws_core::oplang::parse_statement;
use sws_core::{AliasTable, ConceptKind, Feedback, Mapping, ModOp, OpError};
use sws_odl::OdlError;
use sws_repository::io::{RealIo, RepoIo};
use sws_repository::{append_log_records, CheckpointOutcome, RecoveryReport};
use sws_repository::{RepoError, Repository};

/// Errors surfaced to the designer.
#[derive(Debug)]
pub enum SessionError {
    /// The operation was rejected (permission or constraints).
    Op(OpError),
    /// The statement did not parse.
    Parse(OdlError),
    /// No concept schema with that index.
    NoSuchConcept(usize),
    /// Nothing to undo / redo.
    NothingToUndo,
    /// Nothing to redo.
    NothingToRedo,
    /// Repository persistence failed.
    Repo(RepoError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Op(e) => write!(f, "{e}"),
            SessionError::Parse(e) => write!(f, "{e}"),
            SessionError::NoSuchConcept(i) => write!(f, "no concept schema #{i}"),
            SessionError::NothingToUndo => f.write_str("nothing to undo"),
            SessionError::NothingToRedo => f.write_str("nothing to redo"),
            SessionError::Repo(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<OpError> for SessionError {
    fn from(e: OpError) -> Self {
        SessionError::Op(e)
    }
}

impl From<OdlError> for SessionError {
    fn from(e: OdlError) -> Self {
        SessionError::Parse(e)
    }
}

impl From<RepoError> for SessionError {
    fn from(e: RepoError) -> Self {
        SessionError::Repo(e)
    }
}

/// How many steps back a session can undo. Older steps leave the undo
/// history, and their ops leave the workspace's history window unless an
/// attached directory's live tail still needs them.
pub const UNDO_DEPTH: usize = 256;

/// One undoable step of a session. An op step holds nothing: its inverse
/// is the patch in the workspace's history-window entry, reverted by
/// [`Repository::undo_last`]. An alias step holds the local-name table as
/// it was before the change.
#[derive(Debug)]
enum Step {
    Op,
    Alias(AliasTable),
}

/// One redoable step: the undone op, re-applied through the normal
/// pipeline, or the alias table the undone change had produced.
#[derive(Debug)]
enum Redo {
    Op(ConceptKind, ModOp),
    Alias(AliasTable),
}

/// One interactive design session.
#[derive(Debug)]
pub struct Session {
    repo: Repository,
    context: ConceptKind,
    focus: Option<String>,
    /// Steps issued in this session, oldest first, at most
    /// [`UNDO_DEPTH`]. Ops replayed by [`Session::load`] and history
    /// dropped by [`Session::clear_history`] are not in it, so undo never
    /// reaches them.
    undo: Vec<Step>,
    redo: Vec<Redo>,
    /// Directory each applied op is durably appended to. Attached by
    /// [`Session::save`] and [`Session::load`]; detached (with a warning)
    /// on the first append failure so a dying disk cannot wedge the REPL.
    autosave_dir: Option<PathBuf>,
    autosave_warning: Option<String>,
    /// What salvage loading found, when this session came from disk.
    recovery: Option<RecoveryReport>,
    /// Storage the session persists through. [`RealIo`] in production;
    /// tests swap in fault-injecting implementations via [`Session::set_io`].
    io: Box<dyn RepoIo>,
    /// Checkpoint every K committed ops (`--checkpoint-interval=K`; see
    /// [`Session::checkpoint_if_due`]); `None` disables auto-checkpointing.
    checkpoint_interval: Option<u64>,
}

impl Session {
    /// Open a session on a repository. The initial context is a wagon
    /// wheel (the paper: wagon wheels carry most modifications).
    pub fn new(repo: Repository) -> Self {
        Session {
            repo,
            context: ConceptKind::WagonWheel,
            focus: None,
            undo: Vec::new(),
            redo: Vec::new(),
            autosave_dir: None,
            autosave_warning: None,
            recovery: None,
            io: Box::new(RealIo),
            checkpoint_interval: None,
        }
    }

    /// Open a session directly on extended-ODL source.
    pub fn from_odl(source: &str) -> Result<Self, SessionError> {
        Ok(Session::new(Repository::ingest_odl(source)?))
    }

    /// The repository (live).
    pub fn repository(&self) -> &Repository {
        &self.repo
    }

    /// The repository, mutably (e.g. to checkpoint it directly). Changes
    /// made through it bypass the session's undo history; register local
    /// names with [`Self::set_alias`] to make them undoable.
    pub fn repository_mut(&mut self) -> &mut Repository {
        &mut self.repo
    }

    /// Register a local (display/export) name; undoable like an op.
    pub fn set_alias(
        &mut self,
        ty: &str,
        member: Option<&str>,
        local: &str,
    ) -> Result<(), SessionError> {
        let before = self.repo.aliases().clone();
        match member {
            None => self.repo.set_type_alias(ty, local)?,
            Some(member) => self.repo.set_member_alias(ty, member, local)?,
        }
        self.undo.push(Step::Alias(before));
        self.redo.clear();
        self.retire();
        // Aliases live outside the op log: autosave needs a full rewrite,
        // not an append.
        self.autosave_full();
        Ok(())
    }

    /// The current concept-schema context kind.
    pub fn context(&self) -> ConceptKind {
        self.context
    }

    /// The display name of the selected concept schema, if one is selected.
    pub fn focus(&self) -> Option<&str> {
        self.focus.as_deref()
    }

    /// Decompose the current working schema.
    pub fn concepts(&self) -> Decomposition {
        self.repo.workspace().concept_schemas()
    }

    /// Flat, indexed list of all concept schemas (wagon wheels first).
    pub fn concept_list(&self) -> Vec<ConceptSchema> {
        self.concepts().all().cloned().collect()
    }

    /// Select concept schema `index` (from [`Self::concept_list`]); future
    /// operations are issued in its context.
    pub fn select(&mut self, index: usize) -> Result<ConceptSchema, SessionError> {
        let list = self.concept_list();
        let cs = list.get(index).ok_or(SessionError::NoSuchConcept(index))?;
        self.context = cs.kind;
        self.focus = Some(cs.name.clone());
        Ok(cs.clone())
    }

    /// Switch context by kind without selecting a specific concept schema.
    pub fn set_context(&mut self, kind: ConceptKind) {
        self.context = kind;
        self.focus = None;
    }

    /// Issue an already-parsed operation in the current context: a batch
    /// of one (see [`Self::issue_batch`]).
    pub fn issue(&mut self, op: ModOp) -> Result<Feedback, SessionError> {
        self.issue_batch(&[(self.context, op)])
            .map(|mut feedback| feedback.remove(0))
            .map_err(|(_, e)| e)
    }

    /// Issue a batch of ops, all or none. If op `i` is rejected, ops `0..i`
    /// are reverted in memory through the undo journal, nothing is written,
    /// and `Err((i, error))` comes back. Once all are in, an attached
    /// directory gets their records in one fsynced append; then the
    /// history window is trimmed of the entries no one can use any more.
    /// A batch never checkpoints: the host calls
    /// [`Self::checkpoint_if_due`] once its response is out.
    pub fn issue_batch(
        &mut self,
        ops: &[(ConceptKind, ModOp)],
    ) -> Result<Vec<Feedback>, (usize, SessionError)> {
        let mut feedback = Vec::with_capacity(ops.len());
        for (i, (context, op)) in ops.iter().enumerate() {
            match self.repo.workspace_mut().apply(*context, op.clone()) {
                Ok(f) => feedback.push(f),
                Err(e) => {
                    for _ in 0..i {
                        self.repo.undo_last().expect("batch ops are journaled");
                    }
                    return Err((i, e.into()));
                }
            }
        }
        self.undo.extend(ops.iter().map(|_| Step::Op));
        self.redo.clear();
        if let Some(dir) = self.autosave_dir.clone() {
            let log = self.repo.workspace().log();
            let batch = &log[log.len() - ops.len()..];
            let first_seq = self.repo.total_ops() - ops.len() as u64;
            let records = batch.iter().map(|r| (r.context, &r.op));
            if let Err(e) = append_log_records(self.io.as_ref(), &dir, first_seq, records) {
                self.disable_autosave(&dir, &e);
            }
        }
        self.retire();
        Ok(feedback)
    }

    /// Retire every history-window entry no one can use any more: its op
    /// is not undoable (the undo history keeps at most [`UNDO_DEPTH`]
    /// steps) and not in the attached directory's live tail (sequence
    /// numbers from [`Repository::tail_start`] on, which a save rewrites
    /// and a checkpoint archives from memory). A retired entry's patch is
    /// dropped and its op folded into the workspace's move table.
    fn retire(&mut self) {
        let excess = self.undo.len().saturating_sub(UNDO_DEPTH);
        self.undo.drain(..excess);
        let undoable = self.undo.iter().filter(|s| matches!(s, Step::Op)).count() as u64;
        let mut keep_from = self.repo.total_ops() - undoable;
        if self.autosave_dir.is_some() {
            keep_from = keep_from.min(self.repo.tail_start());
        }
        self.repo.workspace_mut().retire(keep_from);
    }

    /// Checkpoint the session directory now: snapshot the working schema,
    /// archive the replayed tail, and truncate the log (see
    /// [`Repository::checkpoint_with`]), then retire the window entries
    /// the tail no longer needs. Requires an attached directory.
    pub fn checkpoint(&mut self) -> Result<Option<CheckpointOutcome>, SessionError> {
        let dir = self.autosave_dir.clone().ok_or_else(|| {
            SessionError::Repo(RepoError::Io(std::io::Error::other(
                "no session directory attached; `save <dir>` first",
            )))
        })?;
        let outcome = self.repo.checkpoint_with(self.io.as_ref(), &dir);
        self.retire();
        outcome.map_err(SessionError::from)
    }

    /// Is a checkpoint due: a directory is attached, an interval is set,
    /// and at least that many ops were committed since the newest
    /// snapshot?
    pub fn checkpoint_due(&self) -> bool {
        let pending = self.repo.total_ops().saturating_sub(self.repo.tail_start());
        self.autosave_dir.is_some() && self.checkpoint_interval.is_some_and(|k| pending >= k)
    }

    /// The checkpoint policy: checkpoint the attached directory when
    /// [`Self::checkpoint_due`]. Hosts call it after the response to a
    /// command or request is out, so none waits for a checkpoint. A
    /// failed checkpoint loses nothing (the tail is intact) and leaves the
    /// checkpoint due, so the next call retries. `Ok(None)` when none was
    /// due.
    pub fn checkpoint_if_due(&mut self) -> Result<Option<CheckpointOutcome>, SessionError> {
        if !self.checkpoint_due() {
            return Ok(None);
        }
        self.checkpoint()
    }

    /// The auto-checkpoint interval (ops between checkpoints), if enabled.
    pub fn checkpoint_interval(&self) -> Option<u64> {
        self.checkpoint_interval
    }

    /// Set (or disable, with `None`) the auto-checkpoint interval.
    pub fn set_checkpoint_interval(&mut self, interval: Option<u64>) {
        self.checkpoint_interval = interval.filter(|&k| k > 0);
    }

    /// Swap the storage implementation (fault injection in tests).
    pub fn set_io(&mut self, io: Box<dyn RepoIo>) {
        self.io = io;
    }

    /// Parse a modification-language statement and issue it.
    pub fn issue_str(&mut self, statement: &str) -> Result<Feedback, SessionError> {
        let op = parse_statement(statement)?;
        self.issue(op)
    }

    /// Undo the last step (an op or an alias change). Autosave rewrites
    /// the whole directory: undo shortens the op log, which an append
    /// cannot express.
    pub fn undo(&mut self) -> Result<(), SessionError> {
        let redo = match self.undo.pop().ok_or(SessionError::NothingToUndo)? {
            Step::Op => {
                let record = self.repo.undo_last().expect("op steps are journaled");
                Redo::Op(record.context, record.op)
            }
            Step::Alias(before) => Redo::Alias(self.repo.replace_aliases(before)),
        };
        self.redo.push(redo);
        self.autosave_full();
        Ok(())
    }

    /// Redo the last undone step. An op is re-applied through the normal
    /// pipeline (so autosave appends it like a fresh op).
    pub fn redo(&mut self) -> Result<(), SessionError> {
        match self.redo.pop().ok_or(SessionError::NothingToRedo)? {
            Redo::Op(context, op) => {
                let rest = std::mem::take(&mut self.redo);
                let redone = self.issue_batch(&[(context, op)]);
                self.redo = rest;
                redone.map_err(|(_, e)| e)?;
            }
            Redo::Alias(aliases) => {
                let before = self.repo.replace_aliases(aliases);
                self.undo.push(Step::Alias(before));
                self.autosave_full();
            }
        }
        Ok(())
    }

    /// Drop the undo/redo history, and with it every history-window entry
    /// the attached directory's live tail does not need. Long-running
    /// hosts like `swsd serve` call this after each committed batch: their
    /// unit of change is the batch, so a committed batch must not become
    /// undoable.
    pub fn clear_history(&mut self) {
        self.undo.clear();
        self.redo.clear();
        self.retire();
    }

    /// Derive the mapping report.
    pub fn mapping(&self) -> Mapping {
        Mapping::derive(self.repo.workspace())
    }

    /// Run the consistency checks.
    pub fn consistency(&self) -> ConsistencyReport {
        self.repo.consistency()
    }

    /// Save the session and attach `dir` for autosave: every subsequently
    /// issued op is durably appended to its on-disk log. A directory whose
    /// live tail the history window cannot extend gets a snapshot of the
    /// head instead (see [`Repository::save_with`]).
    pub fn save(&mut self, dir: &Path) -> Result<(), SessionError> {
        self.repo.save_attached(self.io.as_ref(), dir)?;
        self.autosave_dir = Some(dir.to_path_buf());
        Ok(())
    }

    /// Load a session from disk in salvage mode: damage is repaired and
    /// reported via [`Session::recovery`] rather than failing the load.
    /// The directory is attached for autosave.
    pub fn load(dir: &Path) -> Result<Self, SessionError> {
        Session::load_with(Box::new(RealIo), dir)
    }

    /// Load a session from disk in salvage mode through an explicit
    /// [`RepoIo`] (crash-injection tests restart a "machine" whose disk is
    /// an in-memory image). The directory and I/O are attached for
    /// autosave.
    pub fn load_with(io: Box<dyn RepoIo>, dir: &Path) -> Result<Self, SessionError> {
        let (repo, report) =
            Repository::load_with(io.as_ref(), dir, sws_repository::LoadMode::Salvage)?;
        let mut session = Session::new(repo);
        session.autosave_dir = Some(dir.to_path_buf());
        session.recovery = Some(report);
        session.io = io;
        Ok(session)
    }

    /// Load a session from disk strictly: fail on the first checksum,
    /// parse, or replay inconsistency instead of salvaging.
    pub fn load_strict(dir: &Path) -> Result<Self, SessionError> {
        let mut session = Session::new(Repository::load(dir)?);
        session.autosave_dir = Some(dir.to_path_buf());
        Ok(session)
    }

    /// The salvage report from loading, when this session came from disk.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The directory ops are autosaved to, if one is attached.
    pub fn autosave_dir(&self) -> Option<&Path> {
        self.autosave_dir.as_deref()
    }

    /// A pending autosave failure, if one happened; taking it clears it.
    pub fn take_autosave_warning(&mut self) -> Option<String> {
        self.autosave_warning.take()
    }

    /// Write a final full save to the autosave directory, refreshing the
    /// derived files and the manifest after a run of appends.
    pub fn final_save(&mut self) -> Result<(), SessionError> {
        match self.autosave_dir.clone() {
            Some(dir) => self
                .repo
                .save_attached(self.io.as_ref(), &dir)
                .map_err(SessionError::from),
            None => Ok(()),
        }
    }

    /// Full-directory autosave (undo/redo/alias paths); best-effort.
    fn autosave_full(&mut self) {
        if let Some(dir) = self.autosave_dir.clone() {
            if let Err(e) = self.repo.save_attached(self.io.as_ref(), &dir) {
                self.disable_autosave(&dir, &SessionError::Repo(e));
            }
        }
    }

    fn disable_autosave(&mut self, dir: &Path, cause: &dyn fmt::Display) {
        self.autosave_warning = Some(format!(
            "autosave to {} failed ({cause}); autosave disabled — use `save` to retry",
            dir.display()
        ));
        self.autosave_dir = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_model::graph_to_schema;

    const SRC: &str = r#"
    schema Dept {
        interface Person { attribute string name; }
        interface Employee : Person {
            attribute long badge;
            relationship Department works_in_a inverse Department::has;
        }
        interface Department {
            relationship set<Employee> has inverse Employee::works_in_a;
        }
    }"#;

    fn session() -> Session {
        Session::from_odl(SRC).unwrap()
    }

    #[test]
    fn issue_respects_current_context() {
        let mut s = session();
        // Default context: wagon wheel — moves rejected.
        let err = s
            .issue_str("modify_attribute(Employee, badge, Person)")
            .unwrap_err();
        assert!(matches!(
            err,
            SessionError::Op(OpError::NotPermitted { .. })
        ));
        // Switch to the generalization hierarchy: allowed.
        s.set_context(ConceptKind::Generalization);
        s.issue_str("modify_attribute(Employee, badge, Person)")
            .unwrap();
        let person = s
            .repository()
            .workspace()
            .working()
            .type_id("Person")
            .unwrap();
        assert!(s
            .repository()
            .workspace()
            .working()
            .find_attr(person, "badge")
            .is_some());
    }

    #[test]
    fn select_switches_context() {
        let mut s = session();
        let list = s.concept_list();
        let gen_idx = list
            .iter()
            .position(|cs| cs.kind == ConceptKind::Generalization)
            .expect("has a generalization hierarchy");
        let cs = s.select(gen_idx).unwrap();
        assert_eq!(s.context(), ConceptKind::Generalization);
        assert_eq!(s.focus(), Some(cs.name.as_str()));
        assert!(matches!(
            s.select(999),
            Err(SessionError::NoSuchConcept(999))
        ));
    }

    #[test]
    fn undo_redo_cycle() {
        let mut s = session();
        let before = graph_to_schema(s.repository().workspace().working());
        s.issue_str("add_type_definition(Project)").unwrap();
        let after = graph_to_schema(s.repository().workspace().working());
        assert_ne!(before, after);

        s.undo().unwrap();
        assert_eq!(
            graph_to_schema(s.repository().workspace().working()),
            before
        );
        s.redo().unwrap();
        assert_eq!(graph_to_schema(s.repository().workspace().working()), after);
        assert!(matches!(s.redo(), Err(SessionError::NothingToRedo)));
        // A new operation clears the redo stack.
        s.undo().unwrap();
        s.issue_str("add_type_definition(Task)").unwrap();
        assert!(matches!(s.redo(), Err(SessionError::NothingToRedo)));
    }

    #[test]
    fn alias_changes_undo_and_redo_with_ops() {
        let mut s = session();
        s.issue_str("add_type_definition(Project)").unwrap();
        s.set_alias("Employee", None, "StaffMember").unwrap();
        let aliased = s.repository().custom_schema_local_odl();
        assert!(aliased.contains("StaffMember"));

        s.undo().unwrap();
        assert!(s.repository().aliases().is_empty());
        assert!(s
            .repository()
            .workspace()
            .working()
            .type_id("Project")
            .is_some());
        s.undo().unwrap();
        assert!(s.repository().workspace().log().is_empty());
        assert!(matches!(s.undo(), Err(SessionError::NothingToUndo)));

        s.redo().unwrap();
        s.redo().unwrap();
        assert_eq!(s.repository().custom_schema_local_odl(), aliased);
        assert!(matches!(s.redo(), Err(SessionError::NothingToRedo)));
    }

    #[test]
    fn an_undone_local_name_stays_undone_after_a_reload() {
        use sws_repository::io::MemIo;
        let io = std::sync::Arc::new(MemIo::new());
        let dir = Path::new("/mem/aliases");
        let mut s = session();
        s.set_io(Box::new(io.clone()));
        s.save(dir).unwrap();
        s.set_alias("Employee", None, "StaffMember").unwrap();
        // The undo's autosave lists no local names; the file the alias's
        // autosave wrote stays on disk.
        s.undo().unwrap();
        assert!(s.repository().aliases().is_empty());
        let reloaded = Session::load_with(Box::new(io), dir).unwrap();
        assert!(
            reloaded.repository().aliases().is_empty(),
            "{:?}",
            reloaded.repository().aliases()
        );
    }

    #[test]
    fn a_batch_is_one_append_and_a_rejected_one_writes_nothing() {
        use sws_repository::io::{FaultIo, MemIo};
        let io = std::sync::Arc::new(FaultIo::new(MemIo::new()));
        let dir = Path::new("/mem/b");
        let mut s = session();
        s.set_io(Box::new(io.clone()));
        s.save(dir).unwrap();
        s.issue_str("add_type_definition(Sprint)").unwrap();
        s.undo().unwrap();
        let before = s.repository().custom_schema_odl();
        io.clear_journal();
        let wagon = |ty| (ConceptKind::WagonWheel, ModOp::AddTypeDefinition { ty });
        let batch = ["Project", "Task", "Project"].map(|ty| wagon(ty.into()));
        let (index, err) = s.issue_batch(&batch).unwrap_err();
        assert!(index == 2 && matches!(err, SessionError::Op(_)), "{err}");
        assert_eq!(s.repository().custom_schema_odl(), before);
        assert!(io.journal().is_empty(), "{:#?}", io.journal());
        assert!(matches!(s.undo(), Err(SessionError::NothingToUndo)));
        s.redo().unwrap(); // a rejected batch leaves redo alone
        io.clear_journal();
        assert_eq!(s.issue_batch(&batch[..2]).unwrap().len(), 2);
        let sync = ["append", "sync"].map(|step| format!("{step} /mem/b/session.ops"));
        assert_eq!(io.journal(), sync, "one fsynced append per batch");
        let reloaded = Session::load_with(Box::new(io.clone()), dir).unwrap();
        assert_eq!(reloaded.repository().total_ops(), 3);
    }

    #[test]
    fn undo_across_a_checkpoint_keeps_the_directory_loadable() {
        for undone in 1..=3 {
            let mut s = session();
            let dir =
                std::env::temp_dir().join(format!("sws_undo_ckpt_{undone}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            s.save(&dir).unwrap();
            let mut generation = 0;
            let mut step = |s: &mut Session| {
                let g = s.repository().checkpoint_state().generation;
                assert!(g >= generation, "generation fell from {generation} to {g}");
                generation = g;
            };
            for ty in ["Project", "Task", "Sprint"] {
                s.issue_str(&format!("add_type_definition({ty})")).unwrap();
            }
            assert_eq!(s.checkpoint().unwrap().unwrap().generation, 1);
            step(&mut s);
            for _ in 0..undone {
                s.undo().unwrap();
                step(&mut s);
            }
            // The re-issued ops take sequence numbers the first checkpoint
            // archived for the undone ones.
            for ty in ["Epic", "Story"] {
                s.issue_str(&format!("add_type_definition({ty})")).unwrap();
                step(&mut s);
            }
            let second = s.checkpoint().unwrap().unwrap();
            assert_eq!(second.generation, 2, "snapshot.1 is never rewritten");
            step(&mut s);
            s.issue_str("add_type_definition(Bug)").unwrap();
            s.final_save().unwrap();
            assert!(s.take_autosave_warning().is_none());
            let live = s.repository().custom_schema_odl();

            let strict = Session::load_strict(&dir).unwrap();
            assert_eq!(
                strict.repository().custom_schema_odl(),
                live,
                "undo {undone}"
            );
            let salvaged = Session::load(&dir).unwrap();
            assert!(salvaged.recovery().unwrap().is_clean(), "undo {undone}");
            assert_eq!(salvaged.repository().custom_schema_odl(), live);

            // Without snapshots, salvage replays the archive plus the tail:
            // the stale archived records of the undone ops must lose to the
            // re-archived ones.
            for entry in std::fs::read_dir(&dir).unwrap() {
                let path = entry.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                if name.starts_with("snapshot.") {
                    std::fs::remove_file(&path).unwrap();
                }
            }
            let replayed = Session::load(&dir).unwrap();
            assert!(!replayed.recovery().unwrap().data_loss(), "undo {undone}");
            assert_eq!(replayed.repository().custom_schema_odl(), live);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn undone_ops_stay_undone_in_the_archive() {
        let mut s = session();
        let dir = std::env::temp_dir().join(format!("sws_undo_archive_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        s.save(&dir).unwrap();
        for ty in ["Project", "Task", "Sprint"] {
            s.issue_str(&format!("add_type_definition({ty})")).unwrap();
        }
        s.checkpoint().unwrap();
        for _ in 0..3 {
            s.undo().unwrap();
        }
        // Fewer ops than the archive holds: its records past the new head
        // describe undone ops and must not be replayed.
        s.issue_str("add_type_definition(Epic)").unwrap();
        let live = s.repository().custom_schema_odl();
        let salvaged = Session::load(&dir).unwrap();
        assert_eq!(salvaged.repository().custom_schema_odl(), live);
        assert!(!salvaged.recovery().unwrap().data_loss());
        s.final_save().unwrap();
        let salvaged = Session::load(&dir).unwrap();
        assert_eq!(salvaged.repository().custom_schema_odl(), live);
        assert!(salvaged.recovery().unwrap().is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn saving_a_resumed_session_keeps_its_checkpointed_ops() {
        let root = std::env::temp_dir().join(format!("sws_resumed_save_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (a, b) = (root.join("a"), root.join("b"));
        let mut s = session();
        s.save(&a).unwrap();
        for ty in ["Project", "Task", "Sprint"] {
            s.issue_str(&format!("add_type_definition({ty})")).unwrap();
        }
        s.checkpoint().unwrap().unwrap();
        let live = s.repository().custom_schema_odl();

        // Resumed from the snapshot, the window holds none of the three
        // ops: the save into a fresh directory must cover them anyway.
        let mut resumed = Session::load(&a).unwrap();
        assert!(resumed.repository().workspace().log().is_empty());
        resumed.save(&b).unwrap();
        let strict = Session::load_strict(&b).unwrap();
        assert_eq!(strict.repository().custom_schema_odl(), live);
        assert_eq!(strict.repository().total_ops(), 3);
        let salvaged = Session::load(&b).unwrap();
        let report = salvaged.recovery().unwrap();
        assert!(report.is_clean() && !report.data_loss(), "{report:?}");
        assert_eq!(salvaged.repository().total_ops(), 3);

        // The copy carries on from its own snapshot.
        resumed.issue_str("add_type_definition(Epic)").unwrap();
        let salvaged = Session::load(&b).unwrap();
        assert_eq!(salvaged.repository().total_ops(), 4);
        assert!(!salvaged.recovery().unwrap().data_loss());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn report_and_map_agree_after_a_checkpoint_and_reload() {
        let dir = std::env::temp_dir().join(format!("sws_report_map_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = session();
        s.save(&dir).unwrap();
        s.set_context(ConceptKind::Generalization);
        s.issue_str("modify_attribute(Employee, badge, Person)")
            .unwrap();
        s.checkpoint().unwrap().unwrap();
        let reloaded = Session::load(&dir).unwrap();
        let map = reloaded.mapping();
        let report = sws_core::DesignReport::generate(reloaded.repository().workspace());
        assert_eq!(report.mapping, map);
        let text = map.render();
        assert!(
            text.contains("attribute `Employee::badge`: moved to `Person`"),
            "{text}"
        );
        assert!(text.contains("reuse 100.0%"), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn undo_reaches_back_at_most_undo_depth_steps() {
        let mut s = session();
        let extra = 10;
        for i in 0..UNDO_DEPTH + extra {
            s.issue_str(&format!("add_type_definition(T{i})")).unwrap();
        }
        let ws = s.repository().workspace();
        assert_eq!(ws.log().len(), UNDO_DEPTH, "older ops are retired");
        assert_eq!(ws.base_seq(), extra as u64);
        for _ in 0..UNDO_DEPTH {
            s.undo().unwrap();
        }
        assert!(matches!(s.undo(), Err(SessionError::NothingToUndo)));
        assert!(s.repository().workspace().working().type_id("T9").is_some());
        assert!(s
            .repository()
            .workspace()
            .working()
            .type_id("T10")
            .is_none());
        // Everything redone, the mapping sees all the ops, retired or not.
        for _ in 0..UNDO_DEPTH {
            s.redo().unwrap();
        }
        let added = s.mapping().summary().added;
        assert_eq!(added, UNDO_DEPTH + extra);
    }

    #[test]
    fn parse_errors_surface() {
        let mut s = session();
        assert!(matches!(
            s.issue_str("frobnicate(Person)"),
            Err(SessionError::Parse(_))
        ));
    }

    #[test]
    fn save_load_preserves_session() {
        let mut s = session();
        s.issue_str("add_type_definition(Project)").unwrap();
        let dir = std::env::temp_dir().join(format!("sws_session_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        s.save(&dir).unwrap();
        let loaded = Session::load(&dir).unwrap();
        assert_eq!(
            graph_to_schema(loaded.repository().workspace().working()),
            graph_to_schema(s.repository().workspace().working())
        );
        assert!(loaded.recovery().is_some_and(|r| r.is_clean()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn issue_after_save_appends_durably() {
        let mut s = session();
        let dir = std::env::temp_dir().join(format!("sws_autosave_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        s.save(&dir).unwrap();
        assert_eq!(s.autosave_dir(), Some(dir.as_path()));

        // The op reaches the on-disk log via the append alone — no
        // explicit save between issue and load.
        s.issue_str("add_type_definition(Project)").unwrap();
        assert!(s.take_autosave_warning().is_none());
        let loaded = Session::load(&dir).unwrap();
        assert_eq!(
            graph_to_schema(loaded.repository().workspace().working()),
            graph_to_schema(s.repository().workspace().working())
        );
        // The derived files lag the appended op until a full save; the
        // salvage load regenerates them without data loss.
        assert!(!loaded.recovery().unwrap().data_loss());

        // Undo rewrites the directory (an append cannot shorten the log).
        s.undo().unwrap();
        let reloaded = Session::load(&dir).unwrap();
        assert!(reloaded.recovery().unwrap().is_clean());
        assert_eq!(reloaded.repository().workspace().log().len(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn autosave_failure_disables_itself_with_a_warning() {
        let mut s = session();
        let dir = std::env::temp_dir().join(format!("sws_autosave_gone_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        s.save(&dir).unwrap();
        // Make the directory unusable: a file where the log dir should be.
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::write(&dir, b"not a directory").unwrap();

        s.issue_str("add_type_definition(Project)").unwrap();
        let warning = s.take_autosave_warning().expect("append failure warned");
        assert!(warning.contains("autosave disabled"), "{warning}");
        assert_eq!(s.autosave_dir(), None);
        // Only warned once; the session itself keeps working.
        s.issue_str("add_type_definition(Task)").unwrap();
        assert!(s.take_autosave_warning().is_none());
        std::fs::remove_file(&dir).unwrap();
    }

    #[test]
    fn auto_checkpoint_fires_at_the_interval() {
        let mut s = session();
        s.set_checkpoint_interval(Some(2));
        assert_eq!(s.checkpoint_interval(), Some(2));
        let dir = std::env::temp_dir().join(format!("sws_autockpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        s.save(&dir).unwrap();

        s.issue_str("add_type_definition(Project)").unwrap();
        s.checkpoint_if_due().unwrap();
        assert!(
            !dir.join("snapshot.1").exists(),
            "one op is below the interval"
        );
        s.issue_str("add_type_definition(Task)").unwrap();
        s.checkpoint_if_due().unwrap();
        assert!(
            dir.join("snapshot.1").exists(),
            "the second op triggers the checkpoint"
        );
        assert_eq!(
            std::fs::read_to_string(dir.join("session.ops")).unwrap(),
            "",
            "tail truncated after the checkpoint"
        );
        // The next interval counts from the checkpoint, not from zero.
        s.issue_str("add_type_definition(Sprint)").unwrap();
        s.checkpoint_if_due().unwrap();
        assert!(!dir.join("snapshot.2").exists());
        s.issue_str("add_type_definition(Epic)").unwrap();
        s.checkpoint_if_due().unwrap();
        assert!(dir.join("snapshot.2").exists());

        let loaded = Session::load(&dir).unwrap();
        assert!(loaded.recovery().unwrap().is_clean());
        assert_eq!(
            graph_to_schema(loaded.repository().workspace().working()),
            graph_to_schema(s.repository().workspace().working())
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_commits_with_no_autosave_interleaved() {
        use std::sync::Arc;
        use sws_repository::io::{FaultIo, MemIo};

        let io = Arc::new(FaultIo::new(MemIo::new()));
        let mut s = session();
        // The session owns one handle; the test reads the journal through
        // the other.
        s.set_io(Box::new(io.clone()));
        s.set_checkpoint_interval(Some(1));
        let dir = PathBuf::from("/mem/session");
        s.save(&dir).unwrap();
        io.clear_journal();

        // One op at interval 1: the durable append must fully commit, then
        // the whole checkpoint runs; its MANIFEST rename is the commit
        // point, and no op-log append may land inside that window.
        s.issue_str("add_type_definition(Project)").unwrap();
        s.checkpoint_if_due().unwrap();
        assert!(s.take_autosave_warning().is_none());
        let journal = io.journal();
        let log_append = "append /mem/session/session.ops";
        let append_at = journal
            .iter()
            .position(|l| l == log_append)
            .expect("durable append journaled");
        let snapshot_at = journal
            .iter()
            .position(|l| l.contains("snapshot.1"))
            .expect("snapshot written");
        let manifest_at = journal
            .iter()
            .rposition(|l| l.starts_with("rename") && l.ends_with("/MANIFEST"))
            .expect("manifest committed");
        assert!(
            append_at < snapshot_at,
            "append commits before the checkpoint starts: {journal:#?}"
        );
        assert!(snapshot_at < manifest_at, "{journal:#?}");
        assert!(
            journal[snapshot_at..manifest_at]
                .iter()
                .all(|l| l != log_append),
            "autosave interleaved into the checkpoint commit window: {journal:#?}"
        );
        // The tail truncation (an atomic rewrite, never an append) comes
        // only after the manifest rename committed the generation.
        assert!(
            journal[manifest_at..]
                .iter()
                .any(|l| l.starts_with("rename") && l.ends_with("/session.ops")),
            "{journal:#?}"
        );
    }

    #[test]
    fn a_checkpoint_writes_only_the_snapshot_archive_manifest_and_tail() {
        use std::sync::Arc;
        use sws_repository::io::{FaultIo, MemIo};

        let io = Arc::new(FaultIo::new(MemIo::new()));
        let mut s = session();
        s.set_io(Box::new(io.clone()));
        s.set_checkpoint_interval(Some(1));
        s.save(Path::new("/mem/lean")).unwrap();
        for ty in ["Project", "Task"] {
            s.issue_str(&format!("add_type_definition({ty})")).unwrap();
            s.checkpoint_if_due().unwrap();
        }
        io.clear_journal();
        // The third checkpoint also prunes snapshot.1 (retention keeps two).
        s.issue_str("add_type_definition(Sprint)").unwrap();
        assert!(s.checkpoint_if_due().unwrap().is_some());
        let atomic = |name: &str| {
            [
                format!("write /mem/lean/.{name}.tmp"),
                format!("sync /mem/lean/.{name}.tmp"),
                format!("rename /mem/lean/.{name}.tmp -> /mem/lean/{name}"),
            ]
        };
        let log = "/mem/lean/session.ops";
        let archive = "/mem/lean/session.ops.archive";
        let expected: Vec<String> = [format!("append {log}"), format!("sync {log}")]
            .into_iter()
            .chain(atomic("snapshot.3"))
            .chain([format!("append {archive}"), format!("sync {archive}")])
            .chain(atomic("MANIFEST"))
            .chain(atomic("session.ops"))
            .chain(["remove /mem/lean/snapshot.1".to_string()])
            .collect();
        assert_eq!(io.journal(), expected);
    }

    #[test]
    fn strict_load_refuses_a_tampered_directory() {
        let mut s = session();
        let dir = std::env::temp_dir().join(format!("sws_strict_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        s.issue_str("add_type_definition(Project)").unwrap();
        s.save(&dir).unwrap();
        let custom = dir.join(sws_repository::CUSTOM_FILE);
        let mut bytes = std::fs::read(&custom).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&custom, &bytes).unwrap();

        assert!(matches!(
            Session::load_strict(&dir),
            Err(SessionError::Repo(RepoError::Corrupt { .. }))
        ));
        // Salvage mode loads, reports, and heals the same directory.
        let loaded = Session::load(&dir).unwrap();
        let report = loaded.recovery().unwrap();
        assert!(!report.is_clean());
        assert!(!report.data_loss());
        assert!(Session::load_strict(&dir).is_ok(), "healed on first load");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
