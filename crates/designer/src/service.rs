//! The transport-agnostic design service: many named client sessions
//! editing one repository under **optimistic concurrency**.
//!
//! [`DesignService`] wraps a [`Session`] behind a typed [`Request`] /
//! [`Response`] API. Every mutating request carries a `base_rev` — the
//! accepted-op total-order length (`Repository::total_ops`) the client
//! issued it against. A submit at the current head applies atomically and
//! advances the revision; a stale submit is never applied — it gets a
//! structured [`Response::Conflict`] carrying the **delta** of accepted
//! ops since `base_rev`, plus a commutation-based classification (the
//! `crates/analyze` footprint machinery) of whether the client can rebase
//! mechanically (`auto_rebasable`) or has a true conflict to resolve.
//!
//! Concurrency contract:
//!
//! * **Mutations are totally ordered.** `submit` and `checkpoint` take the
//!   core lock; the accepted-op log is the single serialization point, so
//!   a serial replay of the log always reproduces the live state.
//! * **Reads never take the core lock.** `report`, `export`, `log`,
//!   `lint`, and `ping` are served from an immutable [`ReadView`] snapshot
//!   (swapped atomically after each accepted mutation), so any number of
//!   sessions can read concurrently while another writes.
//! * **Checkpointing stays off the request path.** A submit never
//!   checkpoints inline; [`DesignService::maintain`] — called by the
//!   server *after* the response is written — applies the session's
//!   checkpoint policy ([`Session::checkpoint_if_due`]; see
//!   `docs/serve.md`), and frees the read view the last publish
//!   superseded.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use sws_analyze::{analyze_ops, commutes, footprint, Footprint};
use sws_core::oplang::{parse_statement, print_op};
use sws_core::{ConceptKind, ModOp, OdlSnapshot};
use sws_model::SchemaGraph;

use crate::session::{Session, SessionError};

/// One operation inside a submit or lint batch: the concept-schema
/// context it is issued in, plus the op-language statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpEnvelope {
    pub context: ConceptKind,
    pub statement: String,
}

/// One accepted operation in the total order. Both strings are shared
/// with the service log, so a `delta` or `log` slice clones refcounts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Position in the accepted total order (== the `base_rev` a client
    /// must submit with to extend the log right after this op).
    pub seq: u64,
    /// The client session that submitted it.
    pub session: Arc<str>,
    pub context: ConceptKind,
    /// `print_op` rendering; parses back with `parse_statement`.
    pub statement: Arc<str>,
}

/// One accepted op as the service log holds it: the record, and the op's
/// footprint, computed once at accept so a conflict never re-parses.
struct LogEntry {
    record: LogRecord,
    footprint: Footprint,
}

/// Why a stale submit could not be classified as auto-rebasable: the
/// submitted op and an accepted delta op have overlapping footprints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictHint {
    /// Index into the submitted batch.
    pub op: usize,
    /// Sequence number of the conflicting accepted op.
    pub seq: u64,
    pub reason: String,
}

/// One static-analysis finding, flattened for the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    pub index: usize,
    pub code: String,
    pub severity: String,
    pub message: String,
}

/// Machine-readable error classes (the `code` field of
/// [`Response::Error`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame was not a well-formed request (bad JSON, missing or
    /// ill-typed fields, unknown request type).
    MalformedFrame,
    /// The named session was never opened.
    UnknownSession,
    /// Structurally valid but unserviceable (e.g. `base_rev` ahead of the
    /// head, or a lint batch that does not parse).
    BadRequest,
    /// `base_rev` predates what this server still holds a delta for; the
    /// client must re-open and resync.
    DeltaHorizon,
}

impl ErrorCode {
    pub fn tag(self) -> &'static str {
        match self {
            ErrorCode::MalformedFrame => "malformed_frame",
            ErrorCode::UnknownSession => "unknown_session",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::DeltaHorizon => "delta_horizon",
        }
    }
}

/// A request to the design service. See `docs/serve.md` for the wire
/// encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Open (or re-attach to) a named session; returns the current rev.
    Open { session: String },
    /// Apply an op batch atomically, issued against `base_rev`.
    Submit {
        session: String,
        base_rev: u64,
        ops: Vec<OpEnvelope>,
    },
    /// Statically analyze a batch against the current head (never applies).
    Lint {
        session: String,
        ops: Vec<OpEnvelope>,
    },
    /// Summary of the current design state.
    Report { session: String },
    /// The custom schema as extended ODL.
    Export { session: String },
    /// The accepted-op total order from `since` (a rev) to the head.
    Log { session: String, since: u64 },
    /// Force a checkpoint of the attached session directory.
    Checkpoint { session: String },
    /// Liveness probe.
    Ping,
    /// Stop serving; the server flushes autosave and exits cleanly.
    Shutdown,
}

/// A response from the design service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    Opened {
        session: String,
        rev: u64,
        types: usize,
        concepts: usize,
    },
    /// The whole batch applied; the head moved from `base_rev` to `rev`.
    Accepted {
        session: String,
        base_rev: u64,
        rev: u64,
        applied: usize,
        warnings: Vec<String>,
    },
    /// Stale `base_rev`: nothing applied. `delta` holds every accepted op
    /// in `[base_rev, rev)`; `auto_rebasable` is true when every submitted
    /// op commutes with every delta op *and* the batch still passes the
    /// static analyzer at the current head.
    Conflict {
        session: String,
        base_rev: u64,
        rev: u64,
        auto_rebasable: bool,
        delta: Vec<LogRecord>,
        conflicts: Vec<ConflictHint>,
    },
    /// The batch was rejected at `index` (parse error or the executor's
    /// permission/precondition pipeline); **nothing** was applied.
    Rejected {
        session: String,
        rev: u64,
        index: usize,
        error: String,
    },
    Linted {
        rev: u64,
        ops: usize,
        passes: bool,
        findings: Vec<LintFinding>,
    },
    Reported {
        rev: u64,
        types: usize,
        concepts: usize,
        errors: usize,
        warnings: usize,
    },
    /// An `exported` line built from an assembled ODL text. The daemon
    /// answers `export` with [`Response::ExportedBlocks`], which renders to
    /// the same bytes; this form remains for clients that rebuild a line
    /// from a decoded response.
    Exported {
        rev: u64,
        odl: String,
    },
    /// The daemon's `export` answer: the head's published ODL blocks, whose
    /// stored JSON escapes are copied into the `exported` line as it is
    /// written. No whole-schema text is assembled or escaped.
    ExportedBlocks {
        rev: u64,
        odl: OdlSnapshot,
    },
    LogSlice {
        rev: u64,
        since: u64,
        ops: Vec<LogRecord>,
    },
    Checkpointed {
        rev: u64,
        generation: Option<u64>,
        ops_covered: u64,
    },
    Pong {
        rev: u64,
        sessions: usize,
    },
    Bye,
    Error {
        code: ErrorCode,
        message: String,
    },
}

impl Response {
    /// The wire tag (the `type` field).
    pub fn tag(&self) -> &'static str {
        match self {
            Response::Opened { .. } => "opened",
            Response::Accepted { .. } => "accepted",
            Response::Conflict { .. } => "conflict",
            Response::Rejected { .. } => "rejected",
            Response::Linted { .. } => "linted",
            Response::Reported { .. } => "reported",
            Response::Exported { .. } | Response::ExportedBlocks { .. } => "exported",
            Response::LogSlice { .. } => "log",
            Response::Checkpointed { .. } => "checkpointed",
            Response::Pong { .. } => "pong",
            Response::Bye => "bye",
            Response::Error { .. } => "error",
        }
    }
}

/// The immutable read snapshot: refreshed under the core lock after every
/// accepted mutation, read lock-free(ish) by any number of sessions.
///
/// Building one costs what the accepted batch touched, not the schema's
/// size: the ODL comes from the workspace's per-interface blocks, the
/// counts are maintained incrementally, and the working graph is a
/// copy-on-write clone that shares every chunk the writer has not written
/// since.
#[derive(Debug)]
pub struct ReadView {
    pub rev: u64,
    pub types: usize,
    pub concepts: usize,
    /// The head state's custom-schema ODL as shared blocks; its
    /// [`text`](OdlSnapshot::text) is `Repository::custom_schema_odl`.
    /// Publishing it copies no text.
    pub odl: OdlSnapshot,
    /// Cross-schema consistency error / warning counts at the head.
    pub errors: usize,
    pub warnings: usize,
    /// Head working graph (for the lint analyzer).
    pub working: Arc<SchemaGraph>,
    /// The immutable shrink-wrap schema.
    pub shrink: Arc<SchemaGraph>,
}

#[derive(Debug)]
struct SessionMeta {
    /// The session's name, shared by every log record it submits.
    name: Arc<str>,
    /// The head rev when the session was (first) opened; reattaching keeps
    /// the original. Exposed via [`DesignService::opened_rev`].
    opened_rev: u64,
}

struct Core {
    session: Session,
}

/// The service. See the module docs for the locking contract; lock order
/// is always `sessions` → `core` → `log` → `view` → `superseded`.
pub struct DesignService {
    sessions: RwLock<HashMap<String, SessionMeta>>,
    core: Mutex<Core>,
    log: RwLock<Vec<LogEntry>>,
    view: RwLock<Arc<ReadView>>,
    /// The view the last publish replaced, parked so that freeing it
    /// waits for [`Self::maintain`] instead of holding the core and view
    /// locks.
    superseded: Mutex<Option<Arc<ReadView>>>,
    /// The immutable shrink-wrap schema, shared by every published view.
    shrink: Arc<SchemaGraph>,
    /// First rev this service holds a delta from (the repository may have
    /// ops from before the service started; those are behind the horizon).
    start_rev: u64,
    /// [`Session::checkpoint_due`] as of the last accepted submit — lets
    /// [`Self::maintain`] bail out without touching the core lock.
    checkpoint_due: AtomicBool,
    shutdown: AtomicBool,
}

impl std::fmt::Debug for DesignService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DesignService")
            .field("start_rev", &self.start_rev)
            .finish_non_exhaustive()
    }
}

fn lock_core(core: &Mutex<Core>) -> MutexGuard<'_, Core> {
    // A panic while applying an op leaves the repository on its pre-op
    // state (apply is transactional); serving must survive it.
    core.lock().unwrap_or_else(PoisonError::into_inner)
}

impl DesignService {
    /// Wrap a session; its checkpoint interval, if any, is applied by
    /// [`Self::maintain`].
    pub fn new(session: Session) -> Self {
        let start_rev = session.repository().total_ops();
        let shrink = Arc::new(session.repository().workspace().shrink_wrap().clone());
        let view = Arc::new(Self::snapshot(&session, &shrink));
        DesignService {
            sessions: RwLock::new(HashMap::new()),
            core: Mutex::new(Core { session }),
            log: RwLock::new(Vec::new()),
            view: RwLock::new(view),
            superseded: Mutex::new(None),
            shrink,
            start_rev,
            checkpoint_due: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        }
    }

    fn snapshot(session: &Session, shrink: &Arc<SchemaGraph>) -> ReadView {
        let repo = session.repository();
        let ws = repo.workspace();
        let (errors, warnings) = ws.consistency_counts();
        ReadView {
            rev: repo.total_ops(),
            types: ws.working().type_count(),
            concepts: ws.concept_count(),
            odl: ws.custom_odl(),
            errors,
            warnings,
            working: Arc::new(ws.working().clone()),
            shrink: Arc::clone(shrink),
        }
    }

    /// The current read snapshot.
    pub fn view(&self) -> Arc<ReadView> {
        self.view
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Publish the head state. The old view is parked, not dropped: it
    /// is freed by the next [`Self::maintain`], after the response is out
    /// (or here, by the publish after next, if nothing calls `maintain`).
    fn refresh_view(&self, core: &Core) {
        let fresh = Arc::new(Self::snapshot(&core.session, &self.shrink));
        let old = std::mem::replace(
            &mut *self.view.write().unwrap_or_else(PoisonError::into_inner),
            fresh,
        );
        let older = self
            .superseded
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .replace(old);
        drop(older); // outside the `superseded` lock
    }

    /// Has a shutdown been requested (by a `shutdown` frame or
    /// [`Self::request_shutdown`])?
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Ask the server loop to stop after in-flight requests.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Handle one request. The single entry point for every transport.
    pub fn handle(&self, request: Request) -> Response {
        let mut sp = sws_trace::span!("serve.request");
        sws_trace::counter("serve.requests", 1);
        let response = match request {
            Request::Open { session } => self.open(session),
            Request::Submit {
                session,
                base_rev,
                ops,
            } => self.submit(&session, base_rev, &ops),
            Request::Lint { session, ops } => self.lint(&session, &ops),
            Request::Report { session } => self.report(&session),
            Request::Export { session } => self.export(&session),
            Request::Log { session, since } => self.log_slice(&session, since),
            Request::Checkpoint { session } => self.checkpoint(&session),
            Request::Ping => self.ping(),
            Request::Shutdown => {
                self.request_shutdown();
                Response::Bye
            }
        };
        sp.record("type", response.tag());
        response
    }

    /// Free the read view the last publish superseded, and checkpoint the
    /// attached session directory if the session's policy says one is due.
    /// Called by the server *after* a response is written, so neither
    /// cost lands on a request's latency; the core lock is taken only
    /// when the last accepted submit left a checkpoint due. Returns true
    /// when a checkpoint was committed.
    pub fn maintain(&self) -> bool {
        let superseded = self
            .superseded
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        drop(superseded); // outside the `superseded` lock
        if !self.checkpoint_due.swap(false, Ordering::Relaxed) {
            return false;
        }
        match lock_core(&self.core).session.checkpoint_if_due() {
            Ok(Some(_)) => {
                sws_trace::counter("serve.checkpoints", 1);
                true
            }
            Ok(None) => false,
            Err(_) => {
                // A failed checkpoint never loses committed state; the
                // next accepted submit leaves it due again.
                sws_trace::counter("serve.checkpoint_failures", 1);
                false
            }
        }
    }

    /// Flush a final full save to the attached directory (clean shutdown).
    pub fn final_save(&self) -> Result<(), SessionError> {
        lock_core(&self.core).session.final_save()
    }

    /// Run `f` against the live session under the core lock (test and
    /// integration hook — e.g. to read the salvage report or swap I/O).
    pub fn with_session<R>(&self, f: impl FnOnce(&mut Session) -> R) -> R {
        f(&mut lock_core(&self.core).session)
    }

    fn open(&self, session: String) -> Response {
        let view = self.view();
        let mut sessions = self
            .sessions
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if !sessions.contains_key(&session) {
            sessions.insert(
                session.clone(),
                SessionMeta {
                    name: Arc::from(session.as_str()),
                    opened_rev: view.rev,
                },
            );
            sws_trace::counter("serve.sessions_opened", 1);
        }
        Response::Opened {
            session,
            rev: view.rev,
            types: view.types,
            concepts: view.concepts,
        }
    }

    /// The head rev at the session's first `open`, if it is open at all.
    pub fn opened_rev(&self, session: &str) -> Option<u64> {
        self.sessions
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(session)
            .map(|meta| meta.opened_rev)
    }

    /// The shared name of an open session.
    fn session_name(&self, session: &str) -> Option<Arc<str>> {
        self.sessions
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(session)
            .map(|meta| Arc::clone(&meta.name))
    }

    fn known(&self, session: &str) -> bool {
        self.sessions
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .contains_key(session)
    }

    fn unknown_session(session: &str) -> Response {
        Response::Error {
            code: ErrorCode::UnknownSession,
            message: format!("session `{session}` is not open (send an `open` frame first)"),
        }
    }

    /// Parse a batch; `Err` carries the failing index and message.
    fn parse_batch(ops: &[OpEnvelope]) -> Result<Vec<(ConceptKind, ModOp)>, (usize, String)> {
        ops.iter()
            .enumerate()
            .map(|(i, env)| {
                parse_statement(&env.statement)
                    .map(|op| (env.context, op))
                    .map_err(|e| (i, format!("ops[{i}]: {e}")))
            })
            .collect()
    }

    fn submit(&self, session: &str, base_rev: u64, ops: &[OpEnvelope]) -> Response {
        let Some(name) = self.session_name(session) else {
            return Self::unknown_session(session);
        };
        let script = match Self::parse_batch(ops) {
            Ok(s) => s,
            Err((index, error)) => {
                sws_trace::counter("serve.rejected", 1);
                return Response::Rejected {
                    session: session.to_string(),
                    rev: self.view().rev,
                    index,
                    error,
                };
            }
        };
        let footprints: Vec<Footprint> = script.iter().map(|(_, op)| footprint(op)).collect();

        let mut core = lock_core(&self.core);
        let rev = core.session.repository().total_ops();
        if base_rev > rev {
            return Response::Error {
                code: ErrorCode::BadRequest,
                message: format!("base_rev {base_rev} is ahead of the head (rev {rev})"),
            };
        }
        if base_rev < rev {
            return self.conflict(&core, session, base_rev, rev, ops, &script, &footprints);
        }

        // At the head: apply atomically. A rejected batch is reverted in
        // memory and writes nothing, so a `rejected` response always means
        // "nothing happened".
        let mut warnings = Vec::new();
        match core.session.issue_batch(&script) {
            Ok(feedback) => {
                for (i, f) in feedback.iter().enumerate() {
                    warnings.extend(f.warnings.iter().map(|w| format!("ops[{i}]: {w}")));
                }
            }
            Err((index, e)) => {
                sws_trace::counter("serve.rejected", 1);
                return Response::Rejected {
                    session: session.to_string(),
                    rev,
                    index,
                    error: e.to_string(),
                };
            }
        }
        if let Some(w) = core.session.take_autosave_warning() {
            warnings.push(format!("autosave: {w}"));
        }
        // The batch is in; drop its undo steps (the service's only
        // rollback unit is the batch, and a committed one stays) and
        // publish.
        core.session.clear_history();
        // Rendered before the log lock, so readers of the log wait only
        // for the append.
        let entries: Vec<LogEntry> = script
            .iter()
            .zip(footprints)
            .enumerate()
            .map(|(i, ((context, op), footprint))| LogEntry {
                record: LogRecord {
                    seq: rev + i as u64,
                    session: Arc::clone(&name),
                    context: *context,
                    statement: print_op(op).into(),
                },
                footprint,
            })
            .collect();
        self.log
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .extend(entries);
        self.checkpoint_due
            .store(core.session.checkpoint_due(), Ordering::Relaxed);
        sws_trace::counter("serve.ops_accepted", script.len() as u64);
        self.refresh_view(&core);
        Response::Accepted {
            session: session.to_string(),
            base_rev,
            rev: rev + script.len() as u64,
            applied: script.len(),
            warnings,
        }
    }

    /// Build the conflict report for a stale submit: the delta since
    /// `base_rev`, pairwise commutation hints, and the auto-rebasable
    /// verdict. Nothing is applied. `submitted` holds the batch's
    /// footprints; the delta's were stored when its ops were accepted.
    #[allow(clippy::too_many_arguments)]
    fn conflict(
        &self,
        core: &Core,
        session: &str,
        base_rev: u64,
        rev: u64,
        ops: &[OpEnvelope],
        script: &[(ConceptKind, ModOp)],
        submitted: &[Footprint],
    ) -> Response {
        if base_rev < self.start_rev {
            return Response::Error {
                code: ErrorCode::DeltaHorizon,
                message: format!(
                    "base_rev {base_rev} predates this server's log horizon ({}); \
                     re-open the session and resync",
                    self.start_rev
                ),
            };
        }
        // The delta's footprints are read in place. Appends to the log
        // happen under the core lock the caller holds, so no writer waits
        // on this read lock.
        let mut conflicts = Vec::new();
        let delta: Vec<LogRecord> = {
            let log = self.log.read().unwrap_or_else(PoisonError::into_inner);
            let from = (base_rev - self.start_rev) as usize;
            log[from..]
                .iter()
                .map(|entry| {
                    let record = &entry.record;
                    for (i, fp) in submitted.iter().enumerate() {
                        if !commutes(fp, &entry.footprint) {
                            conflicts.push(ConflictHint {
                                op: i,
                                seq: record.seq,
                                reason: format!(
                                    "`{}` does not commute with accepted #{} `{}`",
                                    ops[i].statement, record.seq, record.statement
                                ),
                            });
                        }
                    }
                    record.clone()
                })
                .collect()
        };
        // Hints are reported per submitted op, then in log order.
        conflicts.sort_by_key(|hint| hint.op);
        // Auto-rebasable = order-independent (everything commutes) and the
        // analyzer proves the batch still applies cleanly at the head.
        let ws = core.session.repository().workspace();
        let auto_rebasable =
            conflicts.is_empty() && analyze_ops(ws.working(), ws.shrink_wrap(), script).passes();
        sws_trace::counter("serve.conflicts", 1);
        if auto_rebasable {
            sws_trace::counter("serve.rebase_auto", 1);
        } else {
            sws_trace::counter("serve.rebase_manual", 1);
        }
        Response::Conflict {
            session: session.to_string(),
            base_rev,
            rev,
            auto_rebasable,
            delta,
            conflicts,
        }
    }

    fn lint(&self, session: &str, ops: &[OpEnvelope]) -> Response {
        if !self.known(session) {
            return Self::unknown_session(session);
        }
        let script = match Self::parse_batch(ops) {
            Ok(s) => s,
            Err((_, error)) => {
                return Response::Error {
                    code: ErrorCode::BadRequest,
                    message: error,
                }
            }
        };
        let view = self.view();
        let report = analyze_ops(&view.working, &view.shrink, &script);
        Response::Linted {
            rev: view.rev,
            ops: script.len(),
            passes: report.passes(),
            findings: report
                .findings
                .iter()
                .map(|f| LintFinding {
                    index: f.index,
                    code: f.code.to_string(),
                    severity: format!("{:?}", f.severity).to_lowercase(),
                    message: f.message.clone(),
                })
                .collect(),
        }
    }

    fn report(&self, session: &str) -> Response {
        if !self.known(session) {
            return Self::unknown_session(session);
        }
        let view = self.view();
        Response::Reported {
            rev: view.rev,
            types: view.types,
            concepts: view.concepts,
            errors: view.errors,
            warnings: view.warnings,
        }
    }

    fn export(&self, session: &str) -> Response {
        if !self.known(session) {
            return Self::unknown_session(session);
        }
        // The published blocks; the response writer streams their escapes.
        let view = self.view();
        Response::ExportedBlocks {
            rev: view.rev,
            odl: view.odl.clone(),
        }
    }

    fn log_slice(&self, session: &str, since: u64) -> Response {
        if !self.known(session) {
            return Self::unknown_session(session);
        }
        let view = self.view();
        if since > view.rev {
            return Response::Error {
                code: ErrorCode::BadRequest,
                message: format!("since {since} is ahead of the head (rev {})", view.rev),
            };
        }
        if since < self.start_rev {
            return Response::Error {
                code: ErrorCode::DeltaHorizon,
                message: format!(
                    "since {since} predates this server's log horizon ({})",
                    self.start_rev
                ),
            };
        }
        let ops: Vec<LogRecord> = {
            let log = self.log.read().unwrap_or_else(PoisonError::into_inner);
            let from = (since - self.start_rev) as usize;
            // The view can trail the log by an in-flight publish; slice to
            // the view's rev so `rev` and `ops` are mutually consistent.
            let to = ((view.rev - self.start_rev) as usize).min(log.len());
            log[from.min(to)..to]
                .iter()
                .map(|entry| entry.record.clone())
                .collect()
        };
        Response::LogSlice {
            rev: view.rev,
            since,
            ops,
        }
    }

    fn checkpoint(&self, session: &str) -> Response {
        if !self.known(session) {
            return Self::unknown_session(session);
        }
        let mut core = lock_core(&self.core);
        if core.session.autosave_dir().is_none() {
            return Response::Error {
                code: ErrorCode::BadRequest,
                message: "no session directory attached; serve with --session <dir>".to_string(),
            };
        }
        let rev = core.session.repository().total_ops();
        match core.session.checkpoint() {
            Ok(Some(outcome)) => {
                sws_trace::counter("serve.checkpoints", 1);
                Response::Checkpointed {
                    rev,
                    generation: Some(outcome.generation),
                    ops_covered: outcome.ops_covered,
                }
            }
            Ok(None) => Response::Checkpointed {
                rev,
                generation: None,
                ops_covered: 0,
            },
            Err(e) => Response::Error {
                code: ErrorCode::BadRequest,
                message: format!("checkpoint failed: {e}"),
            },
        }
    }

    fn ping(&self) -> Response {
        let view = self.view();
        let sessions = self
            .sessions
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len();
        Response::Pong {
            rev: view.rev,
            sessions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn service() -> DesignService {
        DesignService::new(Session::from_odl(SRC).expect("test schema parses"))
    }

    fn wagon(stmt: &str) -> OpEnvelope {
        OpEnvelope {
            context: ConceptKind::WagonWheel,
            statement: stmt.to_string(),
        }
    }

    fn open(svc: &DesignService, name: &str) -> u64 {
        match svc.handle(Request::Open {
            session: name.to_string(),
        }) {
            Response::Opened { rev, .. } => rev,
            other => panic!("open: {other:?}"),
        }
    }

    #[test]
    fn open_submit_advances_rev() {
        let svc = service();
        let rev = open(&svc, "alice");
        assert_eq!(rev, 0);
        let resp = svc.handle(Request::Submit {
            session: "alice".into(),
            base_rev: 0,
            ops: vec![wagon("add_type_definition(Project)")],
        });
        match resp {
            Response::Accepted {
                rev, applied: 1, ..
            } => assert_eq!(rev, 1),
            other => panic!("submit: {other:?}"),
        }
        assert_eq!(svc.view().rev, 1);
        assert!(svc.view().odl.text().contains("Project"));
    }

    #[test]
    fn unknown_session_is_an_error() {
        let svc = service();
        let resp = svc.handle(Request::Report {
            session: "ghost".into(),
        });
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::UnknownSession,
                ..
            }
        ));
    }

    #[test]
    fn stale_submit_conflicts_with_delta_and_commute_classification() {
        let svc = service();
        open(&svc, "alice");
        open(&svc, "bob");
        // Alice moves the head to 1.
        svc.handle(Request::Submit {
            session: "alice".into(),
            base_rev: 0,
            ops: vec![wagon("add_type_definition(Project)")],
        });
        // Bob submits against rev 0: a disjoint op — auto-rebasable.
        let resp = svc.handle(Request::Submit {
            session: "bob".into(),
            base_rev: 0,
            ops: vec![wagon("add_type_definition(Task)")],
        });
        match resp {
            Response::Conflict {
                base_rev,
                rev,
                auto_rebasable,
                delta,
                conflicts,
                ..
            } => {
                assert_eq!((base_rev, rev), (0, 1));
                assert!(auto_rebasable, "disjoint adds commute");
                assert!(conflicts.is_empty());
                assert_eq!(delta.len(), 1);
                assert_eq!(&*delta[0].statement, "add_type_definition(Project)");
                assert_eq!(&*delta[0].session, "alice");
            }
            other => panic!("expected conflict: {other:?}"),
        }
        // Bob rebases: resubmits at the head; nothing was applied before.
        let resp = svc.handle(Request::Submit {
            session: "bob".into(),
            base_rev: 1,
            ops: vec![wagon("add_type_definition(Task)")],
        });
        assert!(matches!(resp, Response::Accepted { rev: 2, .. }));

        // A true conflict: both touch the same attribute.
        svc.handle(Request::Submit {
            session: "alice".into(),
            base_rev: 2,
            ops: vec![wagon("delete_attribute(Employee, badge)")],
        });
        let resp = svc.handle(Request::Submit {
            session: "bob".into(),
            base_rev: 2,
            ops: vec![wagon("delete_attribute(Employee, badge)")],
        });
        match resp {
            Response::Conflict {
                auto_rebasable,
                conflicts,
                ..
            } => {
                assert!(!auto_rebasable, "same-construct delete is a true conflict");
                assert_eq!(conflicts.len(), 1);
                assert_eq!(conflicts[0].op, 0);
                assert_eq!(conflicts[0].seq, 2);
            }
            other => panic!("expected conflict: {other:?}"),
        }

        // Hints come per submitted op, then in log order, even when a
        // later op conflicts with an earlier record.
        svc.handle(Request::Submit {
            session: "alice".into(),
            base_rev: 3,
            ops: vec![
                wagon("add_type_definition(Lab)"),
                wagon("add_type_definition(Annex)"),
            ],
        });
        let resp = svc.handle(Request::Submit {
            session: "bob".into(),
            base_rev: 3,
            ops: vec![
                wagon("add_type_definition(Annex)"),
                wagon("add_type_definition(Lab)"),
            ],
        });
        match resp {
            Response::Conflict { conflicts, .. } => {
                let order: Vec<(usize, u64)> = conflicts.iter().map(|c| (c.op, c.seq)).collect();
                assert_eq!(order, [(0, 4), (1, 3)]);
            }
            other => panic!("expected conflict: {other:?}"),
        }
    }

    #[test]
    fn rejected_batch_touches_only_memory_and_accepted_is_one_append() {
        use std::path::PathBuf;
        use sws_repository::io::{FaultIo, MemIo};

        let io = Arc::new(FaultIo::new(MemIo::new()));
        let dir = PathBuf::from("/mem/service");
        let mut session = Session::from_odl(SRC).expect("test schema parses");
        session.set_io(Box::new(io.clone()));
        session.save(&dir).expect("initial save");
        let svc = DesignService::new(session);
        open(&svc, "alice");
        let before = svc.view().odl.text();
        io.clear_journal();

        let resp = svc.handle(Request::Submit {
            session: "alice".into(),
            base_rev: 0,
            ops: vec![
                wagon("add_type_definition(Project)"),
                wagon("add_type_definition(Task)"),
                wagon("add_type_definition(Project)"),
            ],
        });
        assert!(
            matches!(
                resp,
                Response::Rejected {
                    index: 2,
                    rev: 0,
                    ..
                }
            ),
            "{resp:?}"
        );
        let journal = io.journal();
        assert!(
            journal.is_empty(),
            "a rejected batch touches only memory: {journal:#?}"
        );

        let reloaded = Session::load_with(Box::new(io.clone()), &dir).expect("reload");
        assert!(reloaded.recovery().is_some_and(|r| r.is_clean()));
        assert_eq!(reloaded.repository().custom_schema_odl(), before);

        // Every accepted batch of N ops is one fsynced append.
        for n in [1usize, 2, 5] {
            io.clear_journal();
            let rev = svc.view().rev;
            let ops = (0..n)
                .map(|i| wagon(&format!("add_type_definition(B{n}x{i})")))
                .collect();
            let resp = svc.handle(Request::Submit {
                session: "alice".into(),
                base_rev: rev,
                ops,
            });
            assert!(matches!(resp, Response::Accepted { .. }), "{resp:?}");
            let journal = io.journal();
            let log = "/mem/service/session.ops";
            assert_eq!(journal, [format!("append {log}"), format!("sync {log}")]);
        }
        let reloaded = Session::load_with(Box::new(io.clone()), &dir).expect("reload");
        assert_eq!(reloaded.repository().total_ops(), 8);
        assert_eq!(
            reloaded.repository().custom_schema_odl(),
            svc.view().odl.text()
        );
    }

    #[test]
    fn the_history_window_holds_only_what_can_still_be_used() {
        use sws_repository::io::MemIo;
        const SUBMITS: u64 = 10_000;
        const K: u64 = 64;
        // One type added and deleted in turn: the schema stays put while
        // the history grows.
        let submit = |svc: &DesignService, rev: u64| {
            let stmt = if rev.is_multiple_of(2) {
                "add_type_definition(Churn)"
            } else {
                "delete_type_definition(Churn)"
            };
            let resp = svc.handle(Request::Submit {
                session: "alice".into(),
                base_rev: rev,
                ops: vec![wagon(stmt)],
            });
            assert!(matches!(resp, Response::Accepted { .. }), "{resp:?}");
        };
        let window = |svc: &DesignService| {
            svc.with_session(|s| s.repository().workspace().log().len() as u64)
        };

        // No directory: nothing outlives its own batch.
        let svc = service();
        open(&svc, "alice");
        for rev in 0..SUBMITS {
            submit(&svc, rev);
            assert!(window(&svc) <= 1, "after {} submits", rev + 1);
        }

        // A directory checkpointed every K ops: the window holds the live
        // tail, at most K ops plus the batch that reached K.
        let mut session = Session::from_odl(SRC).expect("test schema parses");
        session.set_io(Box::new(MemIo::new()));
        session.set_checkpoint_interval(Some(K));
        session
            .save(std::path::Path::new("/mem/window"))
            .expect("initial save");
        let svc = DesignService::new(session);
        open(&svc, "alice");
        for rev in 0..SUBMITS {
            submit(&svc, rev);
            assert!(window(&svc) <= K + 1, "after {} submits", rev + 1);
            svc.maintain();
        }
        assert_eq!(svc.with_session(|s| s.repository().total_ops()), SUBMITS);
    }

    /// A service over a session autosaving to `dir` on `disk`, which
    /// checkpoints every `k` ops, with `alice` open.
    fn durable_service(disk: &sws_repository::io::MemIo, dir: &str, k: u64) -> DesignService {
        let mut session = Session::from_odl(SRC).expect("test schema parses");
        session.set_io(Box::new(disk.clone()));
        session.set_checkpoint_interval(Some(k));
        session
            .save(std::path::Path::new(dir))
            .expect("initial save");
        let svc = DesignService::new(session);
        open(&svc, "alice");
        svc
    }

    fn add_type(svc: &DesignService, ty: &str) {
        let resp = svc.handle(Request::Submit {
            session: "alice".into(),
            base_rev: svc.view().rev,
            ops: vec![wagon(&format!("add_type_definition({ty})"))],
        });
        assert!(matches!(resp, Response::Accepted { .. }), "{resp:?}");
    }

    #[test]
    fn a_directory_killed_between_checkpoints_loads_strictly() {
        use sws_repository::io::{MemIo, RepoIo};
        use sws_repository::{LoadMode, Repository};

        let disk = MemIo::new();
        let svc = durable_service(&disk, "/mem/killed", 2);
        for ty in ["Project", "Task", "Sprint"] {
            add_type(&svc, ty);
            svc.maintain();
        }
        let dir = std::path::Path::new("/mem/killed");
        assert!(
            disk.exists(&dir.join("snapshot.1")),
            "the second op checkpointed"
        );
        let live = svc.view().odl.text();
        drop(svc); // killed: no final save

        let (strict, _) = Repository::load_with(&disk, dir, LoadMode::Strict).expect("strict load");
        assert_eq!(strict.custom_schema_odl(), live);
        let (salvaged, report) =
            Repository::load_with(&disk, dir, LoadMode::Salvage).expect("salvage load");
        assert!(!report.data_loss(), "{report:?}");
        assert_eq!(salvaged.total_ops(), 3);
        assert_eq!(salvaged.custom_schema_odl(), live);
    }

    #[test]
    fn maintain_takes_the_core_lock_only_when_a_checkpoint_is_due() {
        let disk = sws_repository::io::MemIo::new();
        let svc = Arc::new(durable_service(&disk, "/mem/maintain", 2));
        add_type(&svc, "Project");
        // Hold the core lock: a maintain that wanted it would block.
        let held = lock_core(&svc.core);
        let (tx, rx) = std::sync::mpsc::channel();
        let other = Arc::clone(&svc);
        std::thread::spawn(move || tx.send(other.maintain()));
        let not_due = rx.recv_timeout(std::time::Duration::from_secs(30));
        drop(held);
        assert_eq!(not_due, Ok(false), "one op is below the interval");
        add_type(&svc, "Task");
        assert!(svc.maintain(), "the second op made a checkpoint due");
        assert!(!svc.maintain(), "and it is no longer due");
    }

    #[test]
    fn rejected_batch_applies_nothing() {
        let svc = service();
        open(&svc, "alice");
        let before = svc.view().odl.text();
        // Second op fails preconditions (duplicate type): atomic rollback.
        let resp = svc.handle(Request::Submit {
            session: "alice".into(),
            base_rev: 0,
            ops: vec![
                wagon("add_type_definition(Project)"),
                wagon("add_type_definition(Person)"),
            ],
        });
        match resp {
            Response::Rejected { rev, index, .. } => {
                assert_eq!(rev, 0);
                assert_eq!(index, 1);
            }
            other => panic!("expected rejected: {other:?}"),
        }
        assert_eq!(svc.view().rev, 0);
        assert_eq!(svc.view().odl.text(), before, "rollback restored the head");
        // The log recorded nothing.
        match svc.handle(Request::Log {
            session: "alice".into(),
            since: 0,
        }) {
            Response::LogSlice { ops, .. } => assert!(ops.is_empty()),
            other => panic!("log: {other:?}"),
        }
    }

    #[test]
    fn log_slice_replays_to_the_exported_state() {
        let svc = service();
        open(&svc, "alice");
        for stmt in [
            "add_type_definition(Project)",
            "add_attribute(Project, long, budget)",
            "delete_attribute(Employee, badge)",
        ] {
            let rev = svc.view().rev;
            let resp = svc.handle(Request::Submit {
                session: "alice".into(),
                base_rev: rev,
                ops: vec![wagon(stmt)],
            });
            assert!(
                matches!(resp, Response::Accepted { .. }),
                "{stmt}: {resp:?}"
            );
        }
        let (odl, records) = match (
            svc.handle(Request::Export {
                session: "alice".into(),
            }),
            svc.handle(Request::Log {
                session: "alice".into(),
                since: 0,
            }),
        ) {
            (Response::ExportedBlocks { odl, .. }, Response::LogSlice { ops, .. }) => {
                (odl.text(), ops)
            }
            other => panic!("{other:?}"),
        };
        assert_eq!(records.len(), 3);
        // Serial replay of the accepted total order reproduces the export
        // byte-for-byte.
        let mut replay = sws_repository::Repository::ingest_odl(SRC).expect("test schema parses");
        for record in &records {
            let op = parse_statement(&record.statement).expect("log statements parse");
            replay
                .workspace_mut()
                .apply(record.context, op)
                .expect("accepted ops replay cleanly");
        }
        assert_eq!(replay.custom_schema_odl(), odl);
    }

    #[test]
    fn lint_never_mutates() {
        let svc = service();
        open(&svc, "alice");
        let resp = svc.handle(Request::Lint {
            session: "alice".into(),
            ops: vec![wagon("delete_attribute(Employee, nonexistent)")],
        });
        match resp {
            Response::Linted {
                passes, findings, ..
            } => {
                assert!(!passes);
                assert!(!findings.is_empty());
            }
            other => panic!("lint: {other:?}"),
        }
        assert_eq!(svc.view().rev, 0);
    }

    #[test]
    fn shutdown_flag_and_ping() {
        let svc = service();
        assert!(matches!(
            svc.handle(Request::Ping),
            Response::Pong {
                rev: 0,
                sessions: 0
            }
        ));
        assert!(!svc.is_shutdown());
        assert!(matches!(svc.handle(Request::Shutdown), Response::Bye));
        assert!(svc.is_shutdown());
    }

    #[test]
    fn base_rev_ahead_of_head_is_bad_request() {
        let svc = service();
        open(&svc, "alice");
        let resp = svc.handle(Request::Submit {
            session: "alice".into(),
            base_rev: 99,
            ops: vec![wagon("add_type_definition(Project)")],
        });
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
    }
}
