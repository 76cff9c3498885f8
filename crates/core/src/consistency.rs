//! Consistency checks over the customized user schema (paper §1.2:
//! "consistency checks to provide feedback to the designer about
//! interactions among the concept schemas").
//!
//! Because every concept schema is a view over the one integrated working
//! schema, interactions between customizations of *different* concept
//! schemas surface as global findings here: a type deleted from one wagon
//! wheel leaving dangling attribute domains referenced from another, a key
//! lost to an attribute move, an isolated type left behind by deletions,
//! and so on. Structural findings come from `sws-model`'s well-formedness
//! pass; shrink-wrap-relative findings are computed against the original
//! schema.
//!
//! Every check decomposes **per type**: the full report is exactly the
//! concatenation (in arena order, check-major) of each live type's own
//! findings, severity-sorted. [`ConsistencyState`] exploits that to recheck
//! incrementally — after an operation, only the types its undo patch
//! touched, expanded along the hierarchy and reference dependencies, are
//! re-examined and their stored findings replaced; the rest of the report
//! is reused verbatim.
//!
//! Every check walks the live graph with one [`WfScratch`] on the calling
//! thread. A from-scratch check and an incremental resync run the same
//! per-type code, so their reports are **byte identical**.
//!
//! The incremental recheck is the steady-state hot path and is
//! **allocation-free**: type names are interned [`Symbol`]s (equality is an
//! integer compare), the traversal scratch is warmed before the
//! `core.consistency.recheck` span opens, and a clean type produces three
//! empty (never-allocated) finding vectors. The existence step that
//! follows an add-type or delete-type op reads a reverse reference index —
//! from a type name to the live types whose attribute domains or operation
//! signatures name it — kept current for the types each op touched, and
//! allocates only for the referencing types it finds.
//! `tests/alloc_attribution.rs` pins both at zero allocations.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use sws_model::{check_type_into, SchemaGraph, Symbol, TypeId, WfIssue, WfScratch};
use sws_odl::HierKind;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Should be fixed before the custom schema is used.
    Error,
    /// Probably unintended; the designer should review it.
    Warning,
    /// Worth knowing.
    Info,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        })
    }
}

/// One consistency finding. Type names are interned [`Symbol`]s; they
/// render as the name itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrossIssue {
    /// A structural well-formedness problem.
    Wf(WfIssue),
    /// The shrink wrap type had keys; the custom type has none left.
    LostKey { ty: Symbol },
    /// The shrink wrap type had an extent; the custom type has none.
    LostExtent { ty: Symbol },
    /// A type with no members, relationships, links, or ISA edges —
    /// typically an orphan left behind by deletions in other concept
    /// schemas.
    IsolatedType { ty: Symbol },
    /// An abstract type with no remaining subtypes.
    AbstractLeaf { ty: Symbol },
    /// A type that is the generic entity of more than one instance-of link
    /// (the paper observed linear chains; branching is legal but notable).
    BranchingInstanceOf { ty: Symbol, count: usize },
}

impl CrossIssue {
    /// The severity of this finding.
    pub fn severity(&self) -> Severity {
        match self {
            CrossIssue::Wf(_) => Severity::Error,
            CrossIssue::LostKey { .. } => Severity::Warning,
            CrossIssue::IsolatedType { .. } => Severity::Warning,
            CrossIssue::AbstractLeaf { .. } => Severity::Warning,
            CrossIssue::LostExtent { .. } => Severity::Info,
            CrossIssue::BranchingInstanceOf { .. } => Severity::Info,
        }
    }
}

impl fmt::Display for CrossIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrossIssue::Wf(issue) => write!(f, "{issue}"),
            CrossIssue::LostKey { ty } => write!(
                f,
                "`{ty}` had key(s) in the shrink wrap schema but has none in the custom schema"
            ),
            CrossIssue::LostExtent { ty } => {
                write!(
                    f,
                    "`{ty}` lost its extent relative to the shrink wrap schema"
                )
            }
            CrossIssue::IsolatedType { ty } => write!(
                f,
                "`{ty}` is isolated (no members, relationships, links, or ISA edges)"
            ),
            CrossIssue::AbstractLeaf { ty } => {
                write!(f, "abstract type `{ty}` has no subtypes left")
            }
            CrossIssue::BranchingInstanceOf { ty, count } => write!(
                f,
                "`{ty}` is the generic entity of {count} instance-of links (branching chain)"
            ),
        }
    }
}

/// The full consistency report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConsistencyReport {
    /// All findings, errors first.
    pub findings: Vec<CrossIssue>,
}

impl ConsistencyReport {
    /// Findings at [`Severity::Error`].
    pub fn errors(&self) -> impl Iterator<Item = &CrossIssue> {
        self.findings
            .iter()
            .filter(|i| i.severity() == Severity::Error)
    }

    /// Findings at [`Severity::Warning`].
    pub fn warnings(&self) -> impl Iterator<Item = &CrossIssue> {
        self.findings
            .iter()
            .filter(|i| i.severity() == Severity::Warning)
    }

    /// Findings at [`Severity::Info`].
    pub fn infos(&self) -> impl Iterator<Item = &CrossIssue> {
        self.findings
            .iter()
            .filter(|i| i.severity() == Severity::Info)
    }

    /// True if nothing was found.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Render the report, one finding per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for finding in &self.findings {
            out.push_str(&format!("{}: {}\n", finding.severity(), finding));
        }
        out
    }
}

/// Run all consistency checks on `working` relative to `shrink_wrap`.
///
/// The per-type findings are merged in arena order (check-major) before
/// the stable severity sort.
pub fn check_consistency(working: &SchemaGraph, shrink_wrap: &SchemaGraph) -> ConsistencyReport {
    let mut sp = sws_trace::span!("core.consistency", types = working.type_count());

    let mut scratch = WfScratch::default();
    scratch.ensure_slots(working.type_slots(), working.link_slots());
    let per_type: Vec<TypeFindings> = working
        .types()
        .map(|(id, _)| compute_type_findings(working, shrink_wrap, &mut scratch, id))
        .collect();
    let findings = assemble_findings(per_type.iter());

    sp.record("findings", findings.len());
    sws_trace::counter("consistency.findings", findings.len() as u64);
    ConsistencyReport { findings }
}

/// Concatenate per-type findings check-major (all wf, then all
/// shrink-wrap-relative, then all structure — each in the order of
/// `per_type`), then severity-sort stably: exactly the order every
/// consistency report in this crate uses.
fn assemble_findings<'a>(
    per_type: impl Iterator<Item = &'a TypeFindings> + Clone,
) -> Vec<CrossIssue> {
    let mut findings = Vec::new();
    for group in 0..3 {
        for tf in per_type.clone() {
            let src = match group {
                0 => &tf.wf,
                1 => &tf.relative,
                _ => &tf.structure,
            };
            findings.extend(src.iter().cloned());
        }
    }
    findings.sort_by_key(|f| f.severity());
    findings
}

/// Shrink-wrap-relative findings for one type. Both graphs share the
/// global interner, so the cross-graph name lookup is a hash of one `u32`.
fn type_shrink_wrap_relative(
    working: &SchemaGraph,
    shrink_wrap: &SchemaGraph,
    id: TypeId,
    findings: &mut Vec<CrossIssue>,
) {
    let node = working.ty(id);
    if let Some(sw_id) = shrink_wrap.type_id_sym(node.name) {
        let sw_node = shrink_wrap.ty(sw_id);
        if !sw_node.keys.is_empty() && node.keys.is_empty() {
            findings.push(CrossIssue::LostKey { ty: node.name });
        }
        if sw_node.extent.is_some() && node.extent.is_none() {
            findings.push(CrossIssue::LostExtent { ty: node.name });
        }
    }
}

/// Structural findings for one type: isolated types, abstract leaves,
/// branching instance-of chains.
fn type_structure(working: &SchemaGraph, id: TypeId, findings: &mut Vec<CrossIssue>) {
    let node = working.ty(id);
    let isolated = node.attrs.is_empty()
        && node.ops.is_empty()
        && node.rel_ends.is_empty()
        && node.parent_links.is_empty()
        && node.child_links.is_empty()
        && node.supertypes.is_empty()
        && node.subtypes.is_empty()
        && node.keys.is_empty();
    if isolated {
        findings.push(CrossIssue::IsolatedType { ty: node.name });
    }
    if node.is_abstract && node.subtypes.is_empty() {
        findings.push(CrossIssue::AbstractLeaf { ty: node.name });
    }
    let outgoing = node
        .parent_links
        .iter()
        .filter(|&&l| working.link(l).kind == HierKind::InstanceOf)
        .count();
    if outgoing > 1 {
        findings.push(CrossIssue::BranchingInstanceOf {
            ty: node.name,
            count: outgoing,
        });
    }
}

/// Findings for one type, grouped by the check that produced them. The
/// groups are kept separate so a report can be assembled in exactly the
/// order [`check_consistency`] produces: check-major, arena-order-minor,
/// then a stable severity sort.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct TypeFindings {
    wf: Vec<CrossIssue>,
    relative: Vec<CrossIssue>,
    structure: Vec<CrossIssue>,
}

impl TypeFindings {
    /// `(errors, warnings)` among this type's findings.
    fn counts(&self) -> (usize, usize) {
        let mut counts = (0, 0);
        for f in self.wf.iter().chain(&self.relative).chain(&self.structure) {
            match f.severity() {
                Severity::Error => counts.0 += 1,
                Severity::Warning => counts.1 += 1,
                Severity::Info => {}
            }
        }
        counts
    }
}

/// Persistent, incrementally-maintained consistency findings, keyed by
/// interned type name.
///
/// Owned by [`Workspace`](crate::workspace::Workspace). After each applied
/// or undone operation the workspace records what its undo patch changed:
/// the types it touched and the names it created or deleted. The next call
/// to [`ConsistencyState::sync`] expands those stale names along the
/// generalization hierarchy and order-by/reference dependencies, re-runs the
/// per-type checks for just those types, and merges the results into the
/// stored per-type findings. [`ConsistencyState::report`] then assembles a
/// [`ConsistencyReport`] identical to what [`check_consistency`] would
/// compute from scratch.
///
/// The state owns a persistent [`WfScratch`] so the steady-state serial
/// recheck touches no allocator at all — the `core.consistency.recheck`
/// span is the zero-allocation window the alloc-attribution tests measure.
///
/// It also keeps running error and warning totals, adjusted whenever a
/// type's findings are replaced or dropped, so [`ConsistencyState::counts`]
/// answers "how many errors and warnings" without assembling a report.
#[derive(Debug, Clone)]
pub struct ConsistencyState {
    by_type: HashMap<Symbol, TypeFindings>,
    /// Error and warning totals over `by_type`.
    errors: usize,
    warnings: usize,
    /// Types whose findings and reference-index entries may be out of
    /// date: the touched types of every op applied or undone since the
    /// last sync.
    stale: Vec<Symbol>,
    /// The names those ops created or deleted.
    existence_changed: Vec<Symbol>,
    /// Everything must be recomputed (initial state, or after a reset /
    /// rollback / explicit invalidation).
    full_pending: bool,
    /// Reusable traversal scratch for the serial recheck path.
    scratch: WfScratch,
    /// Who references whom, for the existence step.
    index: ReferenceIndex,
}

impl Default for ConsistencyState {
    fn default() -> Self {
        ConsistencyState::new()
    }
}

impl ConsistencyState {
    /// A state with everything pending: the first [`sync`](Self::sync) runs
    /// a full recheck.
    pub fn new() -> Self {
        ConsistencyState {
            by_type: HashMap::new(),
            errors: 0,
            warnings: 0,
            stale: Vec::new(),
            existence_changed: Vec::new(),
            full_pending: true,
            scratch: WfScratch::default(),
            index: ReferenceIndex::default(),
        }
    }

    /// Record one applied or undone operation from its undo patch: the
    /// types it touched
    /// ([`UndoPatch::touched_types`](sws_model::UndoPatch::touched_types)),
    /// whose findings and reference-index entries the next sync refreshes,
    /// and the names it created or deleted
    /// ([`UndoPatch::names_changed`](sws_model::UndoPatch::names_changed)),
    /// whose referrers it rechecks.
    pub fn record(&mut self, touched: &[Symbol], names_changed: impl Iterator<Item = Symbol>) {
        if !self.full_pending {
            self.stale.extend_from_slice(touched);
            self.existence_changed.extend(names_changed);
        }
    }

    /// Names recorded since the last sync: the stale ones, then the
    /// created or deleted ones.
    #[cfg(test)]
    pub(crate) fn recorded(&self) -> (&[Symbol], &[Symbol]) {
        (&self.stale, &self.existence_changed)
    }

    /// Store `findings` for type `name`, keeping the totals current.
    fn put(&mut self, name: Symbol, findings: TypeFindings) {
        let (errors, warnings) = findings.counts();
        self.errors += errors;
        self.warnings += warnings;
        if let Some(old) = self.by_type.insert(name, findings) {
            self.forget_counts(&old);
        }
    }

    /// Drop type `name`'s findings, keeping the totals current.
    fn drop_type(&mut self, name: Symbol) {
        if let Some(old) = self.by_type.remove(&name) {
            self.forget_counts(&old);
        }
    }

    fn forget_counts(&mut self, findings: &TypeFindings) {
        let (errors, warnings) = findings.counts();
        self.errors -= errors;
        self.warnings -= warnings;
    }

    /// `(errors, warnings)` in the report [`Self::report`] would assemble,
    /// read from the running totals. Call after [`Self::sync`].
    pub fn counts(&self) -> (usize, usize) {
        debug_assert!(!self.full_pending, "counts() before sync()");
        (self.errors, self.warnings)
    }

    /// Forget everything; the next sync recomputes from scratch.
    pub fn invalidate(&mut self) {
        self.full_pending = true;
        self.stale.clear();
        self.existence_changed.clear();
    }

    /// The reverse reference index, materialized in name order: every
    /// name an attribute domain or operation signature of a live type
    /// mentions, with the live types that mention it. Call after
    /// [`Self::sync`]; oracles compare it with a from-scratch scan.
    pub fn reference_index(&self) -> BTreeMap<Symbol, Vec<Symbol>> {
        debug_assert!(!self.full_pending, "reference_index() before sync()");
        self.index
            .referrers
            .iter()
            .map(|(&name, types)| {
                let mut types = types.clone();
                types.sort();
                (name, types)
            })
            .collect()
    }

    /// Bring the stored findings up to date with `working`.
    ///
    /// Incremental path: expand the pending seed (self + ancestors +
    /// descendants of every touched live type, plus relationship/link
    /// partners whose order-bys depend on them, plus every type referencing
    /// an added/deleted name in a domain or signature), recheck those types,
    /// drop entries for dead types. Returns the number of types rechecked.
    pub fn sync(&mut self, working: &SchemaGraph, shrink_wrap: &SchemaGraph) -> usize {
        if self.full_pending {
            let mut sp =
                sws_trace::span!("core.consistency.full_sync", types = working.type_count());
            self.by_type.clear();
            (self.errors, self.warnings) = (0, 0);
            self.index = ReferenceIndex::default();
            self.scratch
                .ensure_slots(working.type_slots(), working.link_slots());
            for (id, node) in working.types() {
                let findings = compute_type_findings(working, shrink_wrap, &mut self.scratch, id);
                self.put(node.name, findings);
                self.index.refresh(working, node.name);
            }
            let rechecked = working.type_count();
            self.full_pending = false;
            self.stale.clear();
            self.existence_changed.clear();
            sp.record("rechecked", rechecked);
            return rechecked;
        }
        // A created or deleted name is also a touched type, so nothing
        // stale means nothing to do.
        if self.stale.is_empty() {
            return 0;
        }
        let mut names = std::mem::take(&mut self.stale);
        sort_dedup(&mut names);
        // The reference index catches up with the touched types first, so
        // the existence step below reads the current graph's references.
        {
            let mut isp = sws_trace::span("core.consistency.reference_index");
            for &name in &names {
                self.index.refresh(working, name);
            }
            isp.record("refreshed", names.len());
        }
        let mut sp = sws_trace::span!("core.consistency.incremental_sync");

        // 1. Types referencing an added/deleted name in an attribute domain
        //    or operation signature may gain/lose a dangling-reference
        //    finding.
        if !self.existence_changed.is_empty() {
            sort_dedup(&mut self.existence_changed);
            // The index lookup allocates only to record a type that does
            // reference one. Its count goes on the enclosing span, so the
            // step's span itself carries no field that could allocate
            // inside it.
            let before = names.len();
            {
                let _esp = sws_trace::span!(
                    "core.consistency.existence_scan",
                    changed = self.existence_changed.len()
                );
                for name in self.existence_changed.drain(..) {
                    names.extend(self.index.referrers(name));
                }
            }
            sort_dedup(&mut names);
            sp.record("referencing", names.len() - before);
        }

        let closure = {
            let mut csp = sws_trace::span!("core.consistency.closure", seeds = names.len());
            self.scratch
                .ensure_slots(working.type_slots(), working.link_slots());

            // 2. Hierarchy closure: inherited members, key/order-by
            //    visibility, and inheritance conflicts travel along ISA
            //    edges both ways.
            let mut closure: BTreeSet<TypeId> = BTreeSet::new();
            let mut reach: Vec<TypeId> = Vec::new();
            for &name in &names {
                if let Some(id) = working.type_id_sym(name) {
                    closure.insert(id);
                    self.scratch.closure.ancestors_into(working, id, &mut reach);
                    closure.extend(reach.iter().copied());
                    self.scratch
                        .closure
                        .descendants_into(working, id, &mut reach);
                    closure.extend(reach.iter().copied());
                } else {
                    // Deleted type: drop its stored findings.
                    self.drop_type(name);
                }
            }

            // 3. Order-by dependents: a relationship end's order-by is
            //    checked against the *target* type's visible attributes, and
            //    a link parent's order-by against the *child*'s. If T
            //    changed, every partner whose order-by looks at T must be
            //    rechecked too.
            let mut dependents: BTreeSet<TypeId> = BTreeSet::new();
            for &t in &closure {
                let node = working.ty(t);
                for &(r, e) in &node.rel_ends {
                    dependents.insert(working.rel(r).other(e).owner);
                }
                for &l in &node.child_links {
                    dependents.insert(working.link(l).parent);
                }
            }
            closure.extend(dependents);
            csp.record("expanded", closure.len());
            closure
        };

        let rechecked = closure.len();
        {
            // The scratch was warmed before the closure span: everything
            // inside the recheck span is steady-state and allocation-free.
            let _rsp = sws_trace::span!("core.consistency.recheck", types = rechecked);
            for id in closure {
                let tf = compute_type_findings(working, shrink_wrap, &mut self.scratch, id);
                self.put(working.ty(id).name, tf);
            }
        }
        sp.record("rechecked", rechecked);
        sws_trace::counter("consistency.dirty_types", rechecked as u64);
        sws_trace::counter("consistency.incremental_syncs", 1);
        rechecked
    }

    /// Assemble the report from the stored per-type findings, in exactly
    /// the order [`check_consistency`] produces.
    pub fn report(&self, working: &SchemaGraph) -> ConsistencyReport {
        debug_assert!(!self.full_pending, "report() before sync()");
        let mut sp = sws_trace::span!("core.consistency.report", types = self.by_type.len());
        // One walk of the type arena, then the three check groups over
        // the collected findings.
        let per_type: Vec<&TypeFindings> = working
            .types()
            .filter_map(|(_, node)| self.by_type.get(&node.name))
            .collect();
        let findings = assemble_findings(per_type.iter().copied());
        sp.record("findings", findings.len());
        ConsistencyReport { findings }
    }
}

fn sort_dedup(names: &mut Vec<Symbol>) {
    names.sort_unstable_by_key(|name| name.index());
    names.dedup();
}

/// All three per-type checks for one type; `scratch` must be sized for
/// `working`. Allocation-free when the type is clean and the scratch is
/// warm: the three finding vectors stay at capacity zero.
fn compute_type_findings(
    working: &SchemaGraph,
    shrink_wrap: &SchemaGraph,
    scratch: &mut WfScratch,
    id: TypeId,
) -> TypeFindings {
    // Generalization-cycle probes are skipped on very large schemas, as in
    // `sws_model::check_well_formed`.
    let check_gen_cycles = working.type_count() < 10_000;
    let mut issues = Vec::new();
    check_type_into(working, scratch, id, check_gen_cycles, &mut issues);
    let mut tf = TypeFindings {
        wf: issues.into_iter().map(CrossIssue::Wf).collect(),
        ..TypeFindings::default()
    };
    type_shrink_wrap_relative(working, shrink_wrap, id, &mut tf.relative);
    type_structure(working, id, &mut tf.structure);
    tf
}

/// The reverse reference index: for every name an attribute domain or
/// operation signature of a live type mentions, the live types that
/// mention it. It lives beside the findings, not in the graph, so a graph
/// clone never copies it; [`ConsistencyState::sync`] refreshes the entries
/// of the types each op touched.
#[derive(Debug, Clone, Default)]
struct ReferenceIndex {
    /// Each indexed type's referenced names, deduplicated.
    refs: HashMap<Symbol, Vec<Symbol>>,
    /// Each referenced name's referencing types, unordered.
    referrers: HashMap<Symbol, Vec<Symbol>>,
}

impl ReferenceIndex {
    /// The live types referencing `name`.
    fn referrers(&self, name: Symbol) -> impl Iterator<Item = Symbol> + '_ {
        self.referrers.get(&name).into_iter().flatten().copied()
    }

    /// Re-read the references of the type named `ty` from `g`; a name no
    /// live type has loses its entries.
    fn refresh(&mut self, g: &SchemaGraph, ty: Symbol) {
        for name in self.refs.remove(&ty).into_iter().flatten() {
            if let Some(types) = self.referrers.get_mut(&name) {
                types.retain(|&t| t != ty);
                if types.is_empty() {
                    self.referrers.remove(&name);
                }
            }
        }
        let Some(id) = g.type_id_sym(ty) else {
            return;
        };
        let names = referenced_names(g, g.ty(id));
        if names.is_empty() {
            return;
        }
        for &name in &names {
            self.referrers.entry(name).or_default().push(ty);
        }
        self.refs.insert(ty, names);
    }
}

/// Every name an attribute domain or operation signature of `node`
/// mentions, deduplicated. Interned, not looked up: a name no type has
/// yet must still find its referrers once a type takes it.
fn referenced_names(g: &SchemaGraph, node: &sws_model::TypeNode) -> Vec<Symbol> {
    let mut names = Vec::new();
    let mut note = |r: &str| names.push(Symbol::intern(r));
    for &a in &node.attrs {
        g.attr(a).ty.for_each_named_ref(&mut note);
    }
    for &o in &node.ops {
        let op = &g.op(o).op;
        op.return_type.for_each_named_ref(&mut note);
        for p in &op.args {
            p.ty.for_each_named_ref(&mut note);
        }
    }
    names.sort_unstable_by_key(|name| name.index());
    names.dedup();
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concept::ConceptKind;
    use crate::ops::ModOp;
    use crate::workspace::Workspace;
    use sws_model::schema_to_graph;
    use sws_odl::parse_schema;

    fn graph(src: &str) -> SchemaGraph {
        schema_to_graph(&parse_schema(src).unwrap()).unwrap()
    }

    #[test]
    fn clean_schema_is_clean() {
        let g = graph("interface A { attribute long x; keys x; extent as_; } interface B : A { }");
        let report = check_consistency(&g, &g);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn lost_key_and_extent_detected() {
        let sw = graph("interface A { attribute long x; keys x; extent as_; }");
        let mut ws = Workspace::new(sw);
        ws.apply(
            ConceptKind::WagonWheel,
            ModOp::DeleteKeyList {
                ty: "A".into(),
                keys: vec![sws_odl::Key::single("x")],
            },
        )
        .unwrap();
        ws.apply(
            ConceptKind::WagonWheel,
            ModOp::DeleteExtentName {
                ty: "A".into(),
                extent: "as_".into(),
            },
        )
        .unwrap();
        let report = check_consistency(ws.working(), ws.shrink_wrap());
        assert!(report
            .warnings()
            .any(|f| matches!(f, CrossIssue::LostKey { .. })));
        assert!(report
            .infos()
            .any(|f| matches!(f, CrossIssue::LostExtent { .. })));
    }

    #[test]
    fn dangling_reference_after_cross_concept_delete() {
        // Wagon wheel A references B via an attribute domain; deleting B
        // from its own wagon wheel leaves a dangling domain — exactly the
        // cross-concept-schema interaction the designer must hear about.
        let sw = graph("interface A { attribute set<B> bs; } interface B { attribute long x; }");
        let mut ws = Workspace::new(sw);
        ws.apply(
            ConceptKind::WagonWheel,
            ModOp::DeleteTypeDefinition { ty: "B".into() },
        )
        .unwrap();
        let report = check_consistency(ws.working(), ws.shrink_wrap());
        assert!(report
            .errors()
            .any(|f| matches!(f, CrossIssue::Wf(WfIssue::DanglingAttrDomain { .. }))));
    }

    #[test]
    fn dangling_domain_follows_its_target_through_undo_and_redo() {
        let sw = graph("interface A { attribute set<Ghost> gs; attribute long x; }");
        let mut ws = Workspace::new(sw);
        let dangling = |ws: &Workspace| {
            ws.consistency()
                .errors()
                .any(|f| matches!(f, CrossIssue::Wf(WfIssue::DanglingAttrDomain { .. })))
        };
        let add = ModOp::AddTypeDefinition { ty: "Ghost".into() };
        let delete = ModOp::DeleteTypeDefinition { ty: "Ghost".into() };
        assert!(dangling(&ws), "Ghost does not exist yet");
        ws.apply(ConceptKind::WagonWheel, add.clone()).unwrap();
        assert!(!dangling(&ws), "adding Ghost resolves the domain");
        ws.apply(ConceptKind::WagonWheel, delete).unwrap();
        assert!(dangling(&ws), "deleting Ghost leaves it dangling again");
        ws.undo_last().unwrap();
        assert!(!dangling(&ws), "undoing the delete revives Ghost");
        ws.undo_last().unwrap();
        assert!(dangling(&ws), "undoing the add removes Ghost");
        ws.apply(ConceptKind::WagonWheel, add).unwrap();
        assert!(!dangling(&ws), "redoing the add resolves it");
    }

    #[test]
    fn isolated_type_detected() {
        let g = graph("interface Loner { } interface A { attribute long x; }");
        let report = check_consistency(&g, &g);
        assert!(report
            .warnings()
            .any(|f| matches!(f, CrossIssue::IsolatedType { ty } if ty == "Loner")));
    }

    #[test]
    fn abstract_leaf_detected() {
        let g = graph("abstract interface Root { attribute long x; }");
        let report = check_consistency(&g, &g);
        assert!(report
            .warnings()
            .any(|f| matches!(f, CrossIssue::AbstractLeaf { .. })));
    }

    #[test]
    fn branching_instance_of_reported() {
        let g = graph(
            r#"
            interface App {
                attribute string name;
                instance_of set<Ver> vers inverse Ver::app;
                instance_of set<Build> builds inverse Build::app;
            }
            interface Ver { attribute long n; instance_of App app inverse App::vers; }
            interface Build { attribute long n; instance_of App app inverse App::builds; }
            "#,
        );
        let report = check_consistency(&g, &g);
        assert!(report
            .infos()
            .any(|f| matches!(f, CrossIssue::BranchingInstanceOf { count: 2, .. })));
    }

    #[test]
    fn report_orders_errors_first() {
        let g =
            graph("interface Loner { } interface A { attribute set<Ghost> gs; attribute long x; }");
        let report = check_consistency(&g, &g);
        assert!(!report.is_clean());
        let severities: Vec<Severity> = report.findings.iter().map(|f| f.severity()).collect();
        let mut sorted = severities.clone();
        sorted.sort();
        assert_eq!(severities, sorted);
        assert!(report.render().contains("error:"));
    }
}
