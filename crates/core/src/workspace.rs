//! The design workspace: the integrated, customized user schema under
//! design, plus the full apply pipeline (Fig. 1 of the paper).
//!
//! A [`Workspace`] holds
//!
//! * the immutable **shrink wrap schema** (the reference for semantic
//!   stability and for the mapping),
//! * the **working schema** — the integrated, customized user schema all
//!   concept-schema modifications land in,
//! * the **history window** — every applied operation someone can still
//!   use (to undo it, or to extend a directory's durable op-log tail),
//!   with its concept-schema context, impact and undo patch,
//! * a [`MoveTable`] — where the ops retired from the window left the
//!   shrink wrap's attributes and operations, all the mapping needs of
//!   older history.
//!
//! Applying an operation runs the pipeline: permission check (Table 1) →
//! precondition constraints → mutation + propagation → cautionary feedback.
//!
//! Preconditions walk the working and shrink wrap schemas fresh on every
//! apply; nothing memoizes hierarchy traversals. Three incremental
//! structures ride along (see `docs/performance.md`):
//!
//! * an [`UndoPatch`] in every window entry, so rejection cleanup,
//!   [`Workspace::undo_last`] and [`Workspace::reset`] replay inverse
//!   images instead of cloning the whole graph — the only undo mechanism
//!   in the system (designer undo/redo and the server's batch rollback
//!   both go through it);
//! * a [`ConsistencyState`] holding per-type consistency findings and a
//!   reverse reference index, kept current incrementally from the types
//!   each operation's [`UndoPatch`] touched and the names it created or
//!   deleted. Consistency maintenance is *lazy*:
//!   [`Workspace::consistency`] syncs on demand, so a whole
//!   [`Workspace::apply_script`] batch is verified once at the next read,
//!   not once per operation;
//! * an [`OdlBlocks`] holding the working schema's printed interface
//!   blocks, re-rendered lazily for the types each op's [`UndoPatch`]
//!   touched ([`Workspace::custom_odl`]), and a concept-schema count that
//!   moves by the change in live types when an op adds or deletes only
//!   free-standing types, and is recounted after an op changed the
//!   hierarchy shape ([`Workspace::concept_count`]).
//!
//! In debug builds every incremental read is asserted equal to its
//! from-scratch counterpart (`check_consistency`, `print_schema` of
//! `graph_to_schema`, `decompose`).

use crate::concept::{concept_count, decompose, ConceptKind, Decomposition};
use crate::consistency::{ConsistencyReport, ConsistencyState};
use crate::constraints::check_preconditions;
use crate::feedback::{cautionary, Feedback};
use crate::impact::ImpactReport;
use crate::mapping::MoveTable;
use crate::odl_blocks::{OdlBlocks, OdlSnapshot};
use crate::ops::apply::apply_op;
use crate::ops::{ModOp, OpError, PermissionMatrix};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use sws_model::{SchemaGraph, Symbol, UndoPatch};

/// One history-window entry: an operation that was applied, and the
/// patch that takes it back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedOp {
    /// The operation.
    pub op: ModOp,
    /// The concept-schema context it was issued in.
    pub context: ConceptKind,
    /// The propagation it triggered.
    pub impact: ImpactReport,
    patch: UndoPatch,
}

/// The design workspace. See the module docs.
#[derive(Debug, Clone)]
pub struct Workspace {
    shrink_wrap: SchemaGraph,
    working: SchemaGraph,
    /// The history window, oldest first.
    window: Vec<AppliedOp>,
    /// Global sequence number of the first window entry: the ops before
    /// it are folded into `moves` (or baked into the snapshot the
    /// workspace resumed from).
    base_seq: u64,
    /// Where the ops before `base_seq` left the shrink wrap's members.
    moves: MoveTable,
    matrix: PermissionMatrix,
    /// Incrementally-maintained consistency findings; interior mutability
    /// so read paths (`consistency`, `DesignReport::generate`) can sync
    /// lazily from `&self`.
    state: RefCell<ConsistencyState>,
    /// Printed interface blocks of `working`, synced lazily like `state`.
    odl: RefCell<OdlBlocks>,
    /// `decompose(working).len()`, while no op since changed the shape it
    /// depends on.
    concepts: Cell<Option<usize>>,
}

impl Workspace {
    /// Start a design session from a shrink wrap schema. The working schema
    /// begins as a copy of it.
    pub fn new(shrink_wrap: SchemaGraph) -> Self {
        let working = shrink_wrap.clone();
        Workspace::resume(shrink_wrap, working, 0, MoveTable::default())
    }

    /// Resume a design session from a checkpoint snapshot: the working
    /// schema starts at `working` (the snapshot image, already carrying
    /// the first `base_seq` ops, whose fold is `moves`) instead of a copy
    /// of the shrink wrap, and the window holds only the ops applied
    /// after it.
    pub fn resume(
        shrink_wrap: SchemaGraph,
        working: SchemaGraph,
        base_seq: u64,
        moves: MoveTable,
    ) -> Self {
        Workspace {
            shrink_wrap,
            working,
            window: Vec::new(),
            base_seq,
            moves,
            matrix: PermissionMatrix::new(),
            state: RefCell::new(ConsistencyState::new()),
            odl: RefCell::new(OdlBlocks::new()),
            concepts: Cell::new(None),
        }
    }

    /// Mark what `patch` changes in the lazily-synced read state: the
    /// single record of what an op changed, for the ODL blocks, the
    /// consistency state and the concept count alike. Called with the
    /// graph the patch was committed on: right after an apply (`undo`
    /// false), or right before an undo reverts it (`undo` true).
    fn record_patch(&mut self, patch: &UndoPatch, undo: bool) {
        let touched = patch.touched_types(&self.working);
        self.odl.get_mut().record(&touched);
        self.state.get_mut().record(&touched, patch.names_changed());
        if let Some(count) = self.concepts.get() {
            let count = patch
                .live_type_delta(&self.working)
                .and_then(|delta| count.checked_add_signed(if undo { -delta } else { delta }));
            self.concepts.set(count);
        }
    }

    /// The immutable shrink wrap schema.
    pub fn shrink_wrap(&self) -> &SchemaGraph {
        &self.shrink_wrap
    }

    /// The integrated, customized user schema.
    pub fn working(&self) -> &SchemaGraph {
        &self.working
    }

    /// The history window, in application order: every applied op not
    /// yet retired. Its first entry has sequence number
    /// [`Self::base_seq`].
    pub fn log(&self) -> &[AppliedOp] {
        &self.window
    }

    /// Global sequence number of the first window entry: how many ops
    /// were retired or resumed from before it.
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// Total ops applied over the whole session: the retired ones plus
    /// the window.
    pub fn total_ops(&self) -> u64 {
        self.base_seq + self.window.len() as u64
    }

    /// The move table at the head: the retired ops' fold with the window
    /// folded on top. What [`Mapping::derive`](crate::Mapping::derive)
    /// and a checkpoint snapshot read.
    pub fn move_table(&self) -> MoveTable {
        let mut moves = self.moves.clone();
        for record in &self.window {
            moves.fold(&self.shrink_wrap, &record.op);
        }
        moves
    }

    /// Retire every window entry with a sequence number below `seq`: fold
    /// its op into the move table and drop its patch, so it can no longer
    /// be undone. Returns how many entries were retired.
    pub fn retire(&mut self, seq: u64) -> usize {
        let n = (seq.saturating_sub(self.base_seq) as usize).min(self.window.len());
        if n == 0 {
            return 0;
        }
        for record in self.window.drain(..n) {
            self.moves.fold(&self.shrink_wrap, &record.op);
        }
        self.base_seq += n as u64;
        sws_trace::counter("ws.retired", n as u64);
        n
    }

    /// Decompose the *current working schema* into concept schemas.
    pub fn concept_schemas(&self) -> Decomposition {
        decompose(&self.working)
    }

    /// Apply `op` in the context of a `context` concept schema.
    ///
    /// Pipeline: Table 1 permission → precondition constraints → mutation
    /// with propagation → cautionary feedback. On error nothing changes:
    /// the mutation runs inside an undo frame, so even a mid-cascade
    /// failure is rolled back from the journal rather than left behind.
    pub fn apply(&mut self, context: ConceptKind, op: ModOp) -> Result<Feedback, OpError> {
        let mut sp = sws_trace::span!("ws.apply", op = op.kind().name(), context = context.tag());
        if !self.matrix.allows(context, op.kind()) {
            sp.record("verdict", "not_permitted");
            sws_trace::counter("ws.ops_rejected", 1);
            return Err(OpError::NotPermitted {
                op: op.kind(),
                context,
            });
        }
        let violations = {
            let mut pre = sws_trace::span("core.preconditions");
            let violations = check_preconditions(&op, &self.working, &self.shrink_wrap);
            pre.record("violations", violations.len());
            violations
        };
        if !violations.is_empty() {
            sp.record("verdict", "rejected");
            sws_trace::counter("ws.ops_rejected", 1);
            return Err(OpError::Violations(violations));
        }
        self.working.begin_undo();
        let outcome = {
            let _mutate = sws_trace::span("core.apply_op");
            match apply_op(&mut self.working, &op) {
                Ok(outcome) => outcome,
                Err(e) => {
                    self.working.rollback_undo();
                    sp.record("verdict", "error");
                    sws_trace::counter("ws.ops_rejected", 1);
                    return Err(e);
                }
            }
        };
        let patch = self.working.commit_undo();
        sws_trace::counter("ws.undo_entries", patch.touched() as u64);
        let impact = ImpactReport::from_cascade(&outcome.cascade, &outcome.notes);
        self.record_patch(&patch, false);
        let (warnings, infos) = cautionary(&op, &self.working);
        sp.record("verdict", "ok");
        sp.record("warnings", warnings.len());
        sp.record("infos", infos.len());
        sp.record("impacted", impact.len());
        sws_trace::counter("ws.ops_applied", 1);
        self.window.push(AppliedOp {
            op: op.clone(),
            context,
            impact: impact.clone(),
            patch,
        });
        Ok(Feedback {
            op,
            warnings,
            infos,
            impact,
        })
    }

    /// Apply a whole script in one context, stopping at the first error and
    /// reporting how many operations succeeded before it.
    pub fn apply_script(
        &mut self,
        context: ConceptKind,
        ops: impl IntoIterator<Item = ModOp>,
    ) -> Result<Vec<Feedback>, (usize, OpError)> {
        let mut sp = sws_trace::span!("ws.apply_script", context = context.tag());
        let mut feedback = Vec::new();
        for (i, op) in ops.into_iter().enumerate() {
            match self.apply(context, op) {
                Ok(fb) => feedback.push(fb),
                Err(e) => {
                    sp.record("applied", i);
                    sp.record("failed_at", i);
                    return Err((i, e));
                }
            }
        }
        sp.record("applied", feedback.len());
        Ok(feedback)
    }

    /// Replay helper: apply the ops of another workspace's log (used by the
    /// repository when loading a persisted session).
    pub fn replay(
        &mut self,
        records: impl IntoIterator<Item = (ConceptKind, ModOp)>,
    ) -> Result<(), (usize, OpError)> {
        let mut sp = sws_trace::span("ws.replay");
        let mut applied = 0usize;
        for (i, (context, op)) in records.into_iter().enumerate() {
            self.apply(context, op).map_err(|e| (i, e))?;
            applied = i + 1;
        }
        sp.record("applied", applied);
        Ok(())
    }

    /// The consistency report for the current working schema, maintained
    /// incrementally: only the types affected by operations applied since
    /// the last call are rechecked.
    ///
    /// The recheck runs on the calling thread with the state's persistent
    /// scratch and is allocation-free in steady state. In debug builds the
    /// incremental result is asserted identical to a from-scratch
    /// [`check_consistency`](crate::check_consistency) run.
    pub fn consistency(&self) -> ConsistencyReport {
        let report = {
            let mut state = self.state.borrow_mut();
            state.sync(&self.working, &self.shrink_wrap);
            state.report(&self.working)
        };
        #[cfg(debug_assertions)]
        {
            let full = crate::consistency::check_consistency(&self.working, &self.shrink_wrap);
            debug_assert_eq!(
                report, full,
                "incremental consistency diverged from full recheck"
            );
        }
        report
    }

    /// `(errors, warnings)` of [`Self::consistency`]'s report, from the
    /// incremental state's running totals: syncs like `consistency` but
    /// assembles no report.
    pub fn consistency_counts(&self) -> (usize, usize) {
        let counts = {
            let mut state = self.state.borrow_mut();
            state.sync(&self.working, &self.shrink_wrap);
            state.counts()
        };
        #[cfg(debug_assertions)]
        {
            let full = crate::consistency::check_consistency(&self.working, &self.shrink_wrap);
            debug_assert_eq!(
                counts,
                (full.errors().count(), full.warnings().count()),
                "maintained consistency counts diverged from a full recheck"
            );
        }
        counts
    }

    /// The working schema's canonical extended ODL as shared blocks, whose
    /// [`text`](OdlSnapshot::text) is byte-identical to
    /// `print_schema(&graph_to_schema(working))`. Maintained
    /// incrementally: only the interfaces of types touched by ops applied
    /// or undone since the last call are re-printed (see [`OdlBlocks`]),
    /// and no text is copied.
    pub fn custom_odl(&self) -> OdlSnapshot {
        let snapshot = self.odl.borrow_mut().snapshot(&self.working);
        #[cfg(debug_assertions)]
        {
            let text = snapshot.text();
            debug_assert!(
                text == sws_odl::print_schema(&sws_model::graph_to_schema(&self.working)),
                "incremental ODL diverged from the full render"
            );
            debug_assert!(
                snapshot.json_pieces().collect::<String>() == sws_trace::export::escape_json(&text),
                "the stored JSON escapes diverged from escaping the text"
            );
        }
        snapshot
    }

    /// Number of concept schemas in the working schema's decomposition
    /// (`decompose(working).len()`), counted without building them. An op
    /// that adds, deletes or revives only free-standing types moves it by
    /// the change in live types ([`UndoPatch::live_type_delta`]); one
    /// that changes a supertype, subtype or link list makes the next call
    /// recount.
    pub fn concept_count(&self) -> usize {
        let count = match self.concepts.get() {
            Some(count) => count,
            None => {
                let count = concept_count(&self.working);
                self.concepts.set(Some(count));
                count
            }
        };
        debug_assert_eq!(
            count,
            decompose(&self.working).len(),
            "maintained concept count diverged from the decomposition"
        );
        count
    }

    /// The reverse reference index behind the consistency resync's
    /// existence step, synced like [`Self::consistency`]: every name an
    /// attribute domain or operation signature of a live type mentions,
    /// with the live types that mention it, in name order. For oracles.
    pub fn reference_index(&self) -> BTreeMap<Symbol, Vec<Symbol>> {
        let mut state = self.state.borrow_mut();
        state.sync(&self.working, &self.shrink_wrap);
        state.reference_index()
    }

    /// Escape hatch: discard the incremental consistency state and recheck
    /// everything from scratch.
    pub fn full_recheck(&self) -> ConsistencyReport {
        self.state.borrow_mut().invalidate();
        self.consistency()
    }

    /// Take back the last applied operation: pop its window entry, record
    /// its undo patch as the forward apply did (the inverse changes
    /// exactly what the op changed), and revert it. Returns the popped
    /// entry, or `None` when the window is empty.
    pub fn undo_last(&mut self) -> Option<AppliedOp> {
        let record = self.window.pop()?;
        self.record_patch(&record.patch, true);
        self.working.revert(&record.patch);
        Some(record)
    }

    /// Undo every window entry, last first: back to the shrink wrap
    /// schema when nothing was retired, else to the state at
    /// [`Self::base_seq`].
    pub fn reset(&mut self) {
        let _sp = sws_trace::span!("ws.reset", patches = self.window.len());
        while self.undo_last().is_some() {}
        // Oracle: undo replay must land on a graph structurally identical
        // to the graph the session started from — the shrink wrap copy,
        // unless the window does not reach back to it.
        #[cfg(test)]
        debug_assert!(
            self.base_seq > 0
                || sws_model::diff_graphs(&self.shrink_wrap, &self.working).is_empty(),
            "undo replay diverged from the shrink wrap schema:\n{:#?}",
            sws_model::diff_graphs(&self.shrink_wrap, &self.working)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistency::check_consistency;
    use crate::ops::OpKind;
    use sws_model::{graph_to_schema, schema_to_graph};
    use sws_odl::parse_schema;

    fn workspace() -> Workspace {
        let src = r#"
        schema Dept {
            interface Person { attribute string name; }
            interface Employee : Person {
                relationship Department works_in_a inverse Department::has;
            }
            interface Department {
                relationship set<Employee> has inverse Employee::works_in_a;
            }
        }"#;
        Workspace::new(schema_to_graph(&parse_schema(src).unwrap()).unwrap())
    }

    #[test]
    fn permission_gate_runs_first() {
        let mut ws = workspace();
        // A move issued from a wagon wheel: rejected by Table 1.
        let err = ws
            .apply(
                ConceptKind::WagonWheel,
                ModOp::ModifyAttribute {
                    ty: "Person".into(),
                    name: "name".into(),
                    new_ty: "Employee".into(),
                },
            )
            .unwrap_err();
        assert_eq!(
            err,
            OpError::NotPermitted {
                op: OpKind::ModifyAttribute,
                context: ConceptKind::WagonWheel
            }
        );
        assert!(ws.log().is_empty());
    }

    #[test]
    fn constraint_gate_blocks_without_mutation() {
        let mut ws = workspace();
        let before = graph_to_schema(ws.working());
        let err = ws
            .apply(
                ConceptKind::WagonWheel,
                ModOp::AddTypeDefinition {
                    ty: "Person".into(),
                },
            )
            .unwrap_err();
        assert!(matches!(err, OpError::Violations(_)));
        assert_eq!(graph_to_schema(ws.working()), before);
    }

    #[test]
    fn successful_apply_logs_and_reports() {
        let mut ws = workspace();
        let fb = ws
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
        assert!(!fb.warnings.is_empty());
        assert_eq!(ws.log().len(), 1);
        let person = ws.working().type_id("Person").unwrap();
        assert!(ws.working().find_rel_end(person, "works_in_a").is_some());
        // Shrink wrap untouched.
        let sw_person = ws.shrink_wrap().type_id("Person").unwrap();
        assert!(ws
            .shrink_wrap()
            .find_rel_end(sw_person, "works_in_a")
            .is_none());
    }

    #[test]
    fn semantic_stability_judged_against_shrink_wrap() {
        let mut ws = workspace();
        // Sever Employee from Person in the working schema...
        ws.apply(
            ConceptKind::Generalization,
            ModOp::DeleteSupertype {
                ty: "Employee".into(),
                supertype: "Person".into(),
            },
        )
        .unwrap();
        // ...the move is STILL legal, because the shrink wrap hierarchy has
        // Employee under Person (the paper judges stability against the
        // hierarchy "established by the shrink wrap schema").
        ws.apply(
            ConceptKind::Generalization,
            ModOp::ModifyRelationshipTargetType {
                ty: "Department".into(),
                path: "has".into(),
                old_target: "Employee".into(),
                new_target: "Person".into(),
            },
        )
        .unwrap();
    }

    #[test]
    fn script_stops_at_first_error() {
        let mut ws = workspace();
        let err = ws
            .apply_script(
                ConceptKind::WagonWheel,
                vec![
                    ModOp::AddTypeDefinition { ty: "A".into() },
                    ModOp::AddTypeDefinition { ty: "A".into() }, // duplicate
                    ModOp::AddTypeDefinition { ty: "B".into() },
                ],
            )
            .unwrap_err();
        assert_eq!(err.0, 1);
        assert!(ws.working().type_id("A").is_some());
        assert!(ws.working().type_id("B").is_none());
    }

    #[test]
    fn reset_restores_shrink_wrap() {
        let mut ws = workspace();
        ws.apply(
            ConceptKind::WagonWheel,
            ModOp::AddTypeDefinition { ty: "X".into() },
        )
        .unwrap();
        ws.reset();
        assert!(ws.working().type_id("X").is_none());
        assert!(ws.log().is_empty());
        assert_eq!(
            graph_to_schema(ws.working()),
            graph_to_schema(ws.shrink_wrap())
        );
    }

    #[test]
    fn incremental_consistency_matches_full_recheck() {
        let mut ws = workspace();
        // Sequence of ops dirtying different regions; after each, the
        // incremental report must equal a from-scratch check (the debug
        // assertion inside consistency() also verifies this on every call).
        let ops: Vec<(ConceptKind, ModOp)> = vec![
            (
                ConceptKind::WagonWheel,
                ModOp::AddTypeDefinition { ty: "X".into() },
            ),
            (
                ConceptKind::Generalization,
                ModOp::DeleteSupertype {
                    ty: "Employee".into(),
                    supertype: "Person".into(),
                },
            ),
            (
                ConceptKind::WagonWheel,
                ModOp::DeleteAttribute {
                    ty: "Person".into(),
                    name: "name".into(),
                },
            ),
        ];
        for (context, op) in ops {
            ws.apply(context, op).unwrap();
            let incremental = ws.consistency();
            let full = check_consistency(ws.working(), ws.shrink_wrap());
            assert_eq!(incremental, full);
        }
        // X is isolated; the finding must be present.
        assert!(ws.consistency().findings.iter().any(
            |f| matches!(f, crate::consistency::CrossIssue::IsolatedType { ty } if ty == "X")
        ));
    }

    #[test]
    fn full_recheck_escape_hatch_agrees() {
        let mut ws = workspace();
        ws.apply(
            ConceptKind::WagonWheel,
            ModOp::AddTypeDefinition { ty: "X".into() },
        )
        .unwrap();
        let incremental = ws.consistency();
        let full = ws.full_recheck();
        assert_eq!(incremental, full);
        // And the state is usable again after the escape hatch.
        ws.apply(
            ConceptKind::WagonWheel,
            ModOp::DeleteTypeDefinition { ty: "X".into() },
        )
        .unwrap();
        assert_eq!(
            ws.consistency(),
            check_consistency(ws.working(), ws.shrink_wrap())
        );
    }

    #[test]
    fn consistency_tracks_cross_type_deletion() {
        // Deleting B leaves A::bs dangling — the incremental path must
        // recheck A even though the op only names B.
        let src = "interface A { attribute set<B> bs; attribute long x; } interface B { attribute long y; }";
        let mut ws = Workspace::new(schema_to_graph(&sws_odl::parse_schema(src).unwrap()).unwrap());
        assert!(ws.consistency().errors().next().is_none());
        ws.apply(
            ConceptKind::WagonWheel,
            ModOp::DeleteTypeDefinition { ty: "B".into() },
        )
        .unwrap();
        assert!(ws.consistency().errors().next().is_some());
        // Adding B back fixes it — existence change again expands to A.
        ws.apply(
            ConceptKind::WagonWheel,
            ModOp::AddTypeDefinition { ty: "B".into() },
        )
        .unwrap();
        assert!(ws.consistency().errors().next().is_none());
    }

    /// The names the consistency state holds for its next sync, as
    /// sorted distinct strings: the stale types, then the created or
    /// deleted ones.
    fn recorded(ws: &Workspace) -> (Vec<String>, Vec<String>) {
        let strings = |names: &[Symbol]| {
            let mut names: Vec<String> = names.iter().map(|s| s.to_string()).collect();
            names.sort();
            names.dedup();
            names
        };
        let state = ws.state.borrow();
        let (stale, existence) = state.recorded();
        (strings(stale), strings(existence))
    }

    #[test]
    fn a_cascading_delete_records_every_type_it_changed() {
        let src = "interface A { relationship B r_b inverse B::r_a; }
                   interface B : A { relationship A r_a inverse A::r_b; }
                   interface C : B { attribute long z; }";
        let mut ws = Workspace::new(schema_to_graph(&sws_odl::parse_schema(src).unwrap()).unwrap());
        ws.consistency();
        let fb = ws
            .apply(
                ConceptKind::Generalization,
                ModOp::DeleteTypeDefinition { ty: "B".into() },
            )
            .unwrap();
        // The cascade drops the relationship and re-wires C under A.
        assert!(fb.impact.len() >= 2, "{}", fb.impact);
        assert_eq!(
            recorded(&ws),
            (vec!["A".into(), "B".into(), "C".into()], vec!["B".into()])
        );
        // Undo records the same names.
        ws.consistency();
        ws.undo_last().unwrap();
        assert_eq!(
            recorded(&ws),
            (vec!["A".into(), "B".into(), "C".into()], vec!["B".into()])
        );
        assert_eq!(
            ws.consistency(),
            check_consistency(ws.working(), ws.shrink_wrap())
        );
    }

    #[test]
    fn a_retarget_records_both_targets_and_no_existence_change() {
        let mut ws = workspace();
        ws.consistency();
        ws.apply(
            ConceptKind::Generalization,
            ModOp::ModifyRelationshipTargetType {
                ty: "Department".into(),
                path: "has".into(),
                old_target: "Employee".into(),
                new_target: "Person".into(),
            },
        )
        .unwrap();
        let stale = ["Department", "Employee", "Person"]
            .map(String::from)
            .to_vec();
        assert_eq!(recorded(&ws), (stale, Vec::new()));
    }

    #[test]
    fn reset_replays_undo_log_exactly() {
        let mut ws = workspace();
        ws.apply(
            ConceptKind::WagonWheel,
            ModOp::AddTypeDefinition { ty: "X".into() },
        )
        .unwrap();
        ws.apply(
            ConceptKind::Generalization,
            ModOp::ModifyRelationshipTargetType {
                ty: "Department".into(),
                path: "has".into(),
                old_target: "Employee".into(),
                new_target: "Person".into(),
            },
        )
        .unwrap();
        ws.apply(
            ConceptKind::WagonWheel,
            ModOp::DeleteTypeDefinition {
                ty: "Employee".into(),
            },
        )
        .unwrap();
        ws.reset();
        // reset() itself asserts diff_graphs-emptiness; double-check the
        // structural identity from the outside too.
        assert!(sws_model::diff_graphs(ws.shrink_wrap(), ws.working()).is_empty());
        assert!(ws.log().is_empty());
        assert_eq!(
            ws.consistency(),
            check_consistency(ws.working(), ws.shrink_wrap())
        );
    }

    #[test]
    fn retired_entries_leave_the_window_but_not_the_schema() {
        let mut ws = workspace();
        for ty in ["X1", "X2", "X3"] {
            let op = ModOp::AddTypeDefinition { ty: ty.into() };
            ws.apply(ConceptKind::WagonWheel, op).unwrap();
        }
        assert_eq!(ws.retire(2), 2);
        assert_eq!(ws.retire(1), 0, "already retired");
        assert_eq!((ws.base_seq(), ws.log().len(), ws.total_ops()), (2, 1, 3));
        // Undo reaches back to the window's start and no further.
        ws.reset();
        assert_eq!(ws.total_ops(), 2);
        assert!(ws.undo_last().is_none());
        assert!(ws.working().type_id("X2").is_some());
        assert!(ws.working().type_id("X3").is_none());
        assert_eq!(
            ws.consistency(),
            check_consistency(ws.working(), ws.shrink_wrap())
        );
    }

    #[test]
    fn concept_schemas_reflect_working_state() {
        let mut ws = workspace();
        let before = ws.concept_schemas().wagon_wheels.len();
        ws.apply(
            ConceptKind::WagonWheel,
            ModOp::AddTypeDefinition { ty: "X".into() },
        )
        .unwrap();
        assert_eq!(ws.concept_schemas().wagon_wheels.len(), before + 1);
    }
}
