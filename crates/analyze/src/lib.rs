//! `sws-analyze` — static analysis for modification-operation scripts.
//!
//! The analyzer runs a script through the **executor's own code** without
//! touching the caller's graph: at every step it runs the permission
//! matrix and `sws_core::check_preconditions` that `Workspace::apply`
//! runs, and it moves to the next step with the real
//! `sws_core::ops::apply::apply_op` on a copy-on-write clone of the
//! starting [`SchemaGraph`]. So the first error the analyzer predicts is
//! the first error `Workspace::apply`/`replay` produces — a property the
//! differential test suite (`tests/differential.rs`) enforces over the
//! whole corpus and randomized scripts, with zero tolerated false
//! negatives.
//!
//! On top of the error prediction the analyzer reports script hygiene:
//! redundant operations, deletes of the script's own creations, dead-store
//! modifies, and which adjacent operations commute ([`commute`]). All
//! diagnostics carry stable codes ([`diag`]) and the report serializes to
//! a single JSON line with a checksum, crash-report style.
//!
//! Cost: op *i* is applied only once op *i + 1* needs its effect, so a
//! one-op script never clones. A longer script pays one clone (a refcount
//! bump per 32-slot arena chunk), one chunk copy for each chunk it first
//! writes, and the executor's own cost per op (precondition extent checks
//! scan live types there too — see `docs/static-analysis.md`).
//!
//! Observability: `core.analyze` span; counters `core.analyze.scripts`,
//! `core.analyze.ops`, `core.analyze.findings`,
//! `core.analyze.commuting_pairs`.

#![forbid(unsafe_code)]

pub mod commute;
pub mod diag;

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use sws_core::ops::apply::apply_op;
use sws_core::{check_preconditions, print_op, ConceptKind, ConstraintViolation, ModOp, OpError};
use sws_model::SchemaGraph;
use sws_odl::OdlError;

pub use commute::{commutes, footprint, Footprint};
pub use diag::{code_for, Finding, LintReport, Severity, SCHEMA_VERSION};

/// Analyze a script of `(context, op)` pairs against the `base` working
/// schema, judging semantic stability against `shrink_wrap` — exactly the
/// inputs `Workspace::replay` would consume. Never mutates either graph.
///
/// The last op is checked but never applied, so an `apply_op` refusal
/// after clean preconditions is predicted for every op but that one.
pub fn analyze_ops(
    base: &SchemaGraph,
    shrink_wrap: &SchemaGraph,
    script: &[(ConceptKind, ModOp)],
) -> LintReport {
    let mut sp = sws_trace::span!("core.analyze", ops = script.len());
    sws_trace::counter("core.analyze.scripts", 1);
    let matrix = sws_core::ops::PermissionMatrix::new();
    let mut working = Cow::Borrowed(base);
    let mut report = LintReport {
        ops: script.len(),
        ..LintReport::default()
    };

    // Script-level def/use environment for diagnostic refinement.
    let mut deleted_types: HashSet<String> = HashSet::new();
    let mut deleted_members: HashSet<(String, String)> = HashSet::new();
    let mut created: HashSet<String> = HashSet::new();
    // construct key -> indices of in-place modifies not yet consumed.
    let mut pending_modifies: HashMap<String, Vec<usize>> = HashMap::new();
    let mut footprints = Vec::with_capacity(script.len());
    let mut accepted = 0usize;
    // Findings recorded before the last accepted op's hygiene warnings.
    let mut findings_before_last = 0usize;

    for (i, (context, op)) in script.iter().enumerate() {
        // Op i - 1 passed its checks; apply it now that op i needs its
        // effect. A refusal here is what `Workspace::apply` returns for it.
        if i > 0 {
            if let Err(e) = apply_op(working.to_mut(), &script[i - 1].1) {
                report.findings.truncate(findings_before_last);
                footprints.pop();
                accepted -= 1;
                report.stopped_at = Some(i - 1);
                report.predicted = Some(e);
                break;
            }
        }
        sws_trace::counter("core.analyze.ops", 1);
        if !matrix.allows(*context, op.kind()) {
            report.findings.push(Finding {
                index: i,
                code: "A011",
                severity: Severity::Error,
                op: print_op(op),
                message: format!(
                    "operation `{}` is not permitted in a {} concept schema (Table 1)",
                    op.kind().name(),
                    context.tag()
                ),
            });
            report.stopped_at = Some(i);
            report.predicted = Some(OpError::NotPermitted {
                op: op.kind(),
                context: *context,
            });
            break;
        }
        let violations = check_preconditions(op, &working, shrink_wrap);
        if !violations.is_empty() {
            for v in &violations {
                let deleted_earlier = match v {
                    ConstraintViolation::UnknownType(n) => deleted_types.contains(n),
                    ConstraintViolation::UnknownMember { ty, member, .. } => {
                        deleted_types.contains(ty)
                            || deleted_members.contains(&(ty.clone(), member.clone()))
                    }
                    _ => false,
                };
                report.findings.push(Finding {
                    index: i,
                    code: code_for(v, deleted_earlier),
                    severity: Severity::Error,
                    op: print_op(op),
                    message: v.to_string(),
                });
            }
            report.stopped_at = Some(i);
            report.predicted = Some(OpError::Violations(violations));
            break;
        }

        // The op is accepted: hygiene warnings, read off the pre-op graph.
        findings_before_last = report.findings.len();
        if let Some(msg) = redundant_modify(op) {
            report.findings.push(Finding {
                index: i,
                code: "W101",
                severity: Severity::Warning,
                op: print_op(op),
                message: msg,
            });
        }
        track_script_flow(
            &working,
            op,
            i,
            &mut created,
            &mut deleted_types,
            &mut deleted_members,
            &mut pending_modifies,
            &mut report.findings,
        );
        footprints.push(commute::footprint(op));
        accepted += 1;
    }

    for i in 1..accepted {
        if commutes(&footprints[i - 1], &footprints[i]) {
            report.commuting_pairs.push((i - 1, i));
        }
    }
    report.findings.sort_by_key(|f| f.index);
    sws_trace::counter("core.analyze.findings", report.findings.len() as u64);
    sws_trace::counter(
        "core.analyze.commuting_pairs",
        report.commuting_pairs.len() as u64,
    );
    sp.record("findings", report.findings.len());
    sp.record("accepted", accepted);
    report
}

/// Parse `src` as an op-language script and analyze it with every
/// statement issued in `context` (the `swsd lint` entry point).
pub fn analyze_script(
    base: &SchemaGraph,
    shrink_wrap: &SchemaGraph,
    context: ConceptKind,
    src: &str,
) -> Result<LintReport, OdlError> {
    let ops = sws_core::parse_script(src)?;
    let script: Vec<(ConceptKind, ModOp)> = ops.into_iter().map(|op| (context, op)).collect();
    Ok(analyze_ops(base, shrink_wrap, &script))
}

/// A modify whose `new` state equals its `old` state is a no-op the script
/// can drop.
fn redundant_modify(op: &ModOp) -> Option<String> {
    let noop = |what: &str| {
        Some(format!(
            "{what}: `new` equals `old`; the operation is a no-op"
        ))
    };
    match op {
        ModOp::ModifySupertype { old, new, .. } => {
            let mut o = old.clone();
            let mut n = new.clone();
            o.sort();
            n.sort();
            (o == n).then(|| "modify_supertype keeps the same supertype set".to_string())
        }
        ModOp::ModifyExtentName { old, new, .. } if old == new => noop("modify_extent_name"),
        ModOp::ModifyKeyList { old, new, .. } if old == new => noop("modify_key_list"),
        ModOp::ModifyAttribute { ty, new_ty, .. } if ty == new_ty => {
            Some("modify_attribute moves the attribute to its current owner".to_string())
        }
        ModOp::ModifyAttributeType { old, new, .. } if old == new => noop("modify_attribute_type"),
        ModOp::ModifyAttributeSize { old, new, .. } if old == new => noop("modify_attribute_size"),
        ModOp::ModifyRelationshipTargetType {
            old_target,
            new_target,
            ..
        }
        | ModOp::ModifyPartOfTargetType {
            old_target,
            new_target,
            ..
        }
        | ModOp::ModifyInstanceOfTargetType {
            old_target,
            new_target,
            ..
        } if old_target == new_target => noop("target-type modify"),
        ModOp::ModifyRelationshipCardinality { old, new, .. } if old == new => {
            noop("modify_relationship_cardinality")
        }
        ModOp::ModifyRelationshipOrderBy { old, new, .. } if old == new => {
            noop("modify_relationship_order_by")
        }
        ModOp::ModifyOperation { ty, new_ty, .. } if ty == new_ty => {
            Some("modify_operation moves the operation to its current owner".to_string())
        }
        ModOp::ModifyOperationReturnType { old, new, .. } if old == new => {
            noop("modify_operation_return_type")
        }
        ModOp::ModifyOperationArgList { old, new, .. } if old == new => {
            noop("modify_operation_arg_list")
        }
        ModOp::ModifyOperationExceptionsRaised { old, new, .. } if old == new => {
            noop("modify_operation_exceptions_raised")
        }
        ModOp::ModifyPartOfCardinality { old, new, .. }
        | ModOp::ModifyInstanceOfCardinality { old, new, .. }
            if old == new =>
        {
            noop("cardinality modify")
        }
        ModOp::ModifyPartOfOrderBy { old, new, .. }
        | ModOp::ModifyInstanceOfOrderBy { old, new, .. }
            if old == new =>
        {
            noop("order-by modify")
        }
        _ => None,
    }
}

/// Track creations, deletions, and in-place modifies across the script:
/// feeds the A002 refinement, W102 (delete of own create), and W103 (a
/// modify whose construct a later op deletes). Reads `g` *before* `op` is
/// applied, so deletions can resolve the constructs they remove (e.g. the
/// inverse end of a relationship) while they are still live.
#[allow(clippy::too_many_arguments)]
fn track_script_flow(
    g: &SchemaGraph,
    op: &ModOp,
    i: usize,
    created: &mut HashSet<String>,
    deleted_types: &mut HashSet<String>,
    deleted_members: &mut HashSet<(String, String)>,
    pending_modifies: &mut HashMap<String, Vec<usize>>,
    findings: &mut Vec<Finding>,
) {
    let member_key = |t: &str, m: &str| format!("{t}::{m}");
    let warn_own_create = |key: &str, findings: &mut Vec<Finding>| {
        if created.contains(key) {
            findings.push(Finding {
                index: i,
                code: "W102",
                severity: Severity::Warning,
                op: print_op(op),
                message: format!("deletes `{key}`, which this script itself created"),
            });
        }
    };
    let drain_modifies =
        |key: &str, pending: &mut HashMap<String, Vec<usize>>, findings: &mut Vec<Finding>| {
            if let Some(idxs) = pending.remove(key) {
                for idx in idxs {
                    findings.push(Finding {
                        index: idx,
                        code: "W103",
                        severity: Severity::Warning,
                        op: print_op(op),
                        message: format!(
                            "modifies `{key}`, but op #{i} deletes it later in the same script"
                        ),
                    });
                }
            }
        };
    match op {
        ModOp::AddTypeDefinition { ty } => {
            created.insert(ty.clone());
            deleted_types.remove(ty);
        }
        ModOp::DeleteTypeDefinition { ty } => {
            warn_own_create(ty, findings);
            drain_modifies(ty, pending_modifies, findings);
            // Members and incident edges die with the type.
            if let Some(id) = g.type_id(ty) {
                let node = g.ty(id);
                for &(rid, e) in &node.rel_ends {
                    let far = g.rel(rid).end(1 - e);
                    deleted_members
                        .insert((g.type_name(far.owner).to_string(), far.path.to_string()));
                }
                for &lid in node.parent_links.iter().chain(&node.child_links) {
                    let l = g.link(lid);
                    deleted_members
                        .insert((g.type_name(l.parent).to_string(), l.parent_path.to_string()));
                    deleted_members
                        .insert((g.type_name(l.child).to_string(), l.child_path.to_string()));
                }
            }
            let prefix = format!("{ty}::");
            let dead_keys: Vec<String> = pending_modifies
                .keys()
                .filter(|k| k.starts_with(&prefix))
                .cloned()
                .collect();
            for k in dead_keys {
                drain_modifies(&k, pending_modifies, findings);
            }
            deleted_types.insert(ty.clone());
        }
        ModOp::AddAttribute { ty, name, .. } | ModOp::AddOperation { ty, name, .. } => {
            created.insert(member_key(ty, name));
            deleted_members.remove(&(ty.clone(), name.clone()));
        }
        ModOp::AddRelationship {
            ty,
            target,
            path,
            inverse_path,
            ..
        }
        | ModOp::AddPartOfRelationship {
            ty,
            target,
            path,
            inverse_path,
            ..
        }
        | ModOp::AddInstanceOfRelationship {
            ty,
            target,
            path,
            inverse_path,
            ..
        } => {
            created.insert(member_key(ty, path));
            created.insert(member_key(target, inverse_path));
            deleted_members.remove(&(ty.clone(), path.clone()));
            deleted_members.remove(&(target.clone(), inverse_path.clone()));
        }
        ModOp::DeleteAttribute { ty, name } | ModOp::DeleteOperation { ty, name } => {
            let key = member_key(ty, name);
            warn_own_create(&key, findings);
            drain_modifies(&key, pending_modifies, findings);
            deleted_members.insert((ty.clone(), name.clone()));
        }
        ModOp::DeleteRelationship { ty, path } => {
            let key = member_key(ty, path);
            warn_own_create(&key, findings);
            drain_modifies(&key, pending_modifies, findings);
            deleted_members.insert((ty.clone(), path.clone()));
            // The inverse end, resolved through the pre-transfer g.
            if let Some(id) = g.type_id(ty) {
                if let Some((rid, e)) = g.find_rel_end(id, path) {
                    let far = g.rel(rid).end(1 - e);
                    let far_ty = g.type_name(far.owner).to_string();
                    let far_path = far.path.to_string();
                    drain_modifies(&member_key(&far_ty, &far_path), pending_modifies, findings);
                    deleted_members.insert((far_ty, far_path));
                }
            }
        }
        ModOp::DeletePartOfRelationship { ty, path }
        | ModOp::DeleteInstanceOfRelationship { ty, path } => {
            let key = member_key(ty, path);
            warn_own_create(&key, findings);
            drain_modifies(&key, pending_modifies, findings);
            deleted_members.insert((ty.clone(), path.clone()));
            let kind = match op {
                ModOp::DeletePartOfRelationship { .. } => sws_odl::HierKind::PartOf,
                _ => sws_odl::HierKind::InstanceOf,
            };
            if let Some(id) = g.type_id(ty) {
                if let Some((lid, _)) = g.find_link(kind, id, path) {
                    let l = g.link(lid);
                    for (t, p) in [(l.parent, l.parent_path), (l.child, l.child_path)] {
                        let tn = g.type_name(t).to_string();
                        drain_modifies(&member_key(&tn, p.as_str()), pending_modifies, findings);
                        deleted_members.insert((tn, p.to_string()));
                    }
                }
            }
        }
        // In-place modifies become dead stores if their construct is later
        // deleted.
        ModOp::ModifyAttributeType { ty, name, .. }
        | ModOp::ModifyAttributeSize { ty, name, .. }
        | ModOp::ModifyOperationReturnType { ty, name, .. }
        | ModOp::ModifyOperationArgList { ty, name, .. }
        | ModOp::ModifyOperationExceptionsRaised { ty, name, .. } => {
            pending_modifies
                .entry(member_key(ty, name))
                .or_default()
                .push(i);
        }
        ModOp::ModifyRelationshipCardinality { ty, path, .. }
        | ModOp::ModifyRelationshipOrderBy { ty, path, .. }
        | ModOp::ModifyPartOfCardinality { ty, path, .. }
        | ModOp::ModifyPartOfOrderBy { ty, path, .. }
        | ModOp::ModifyInstanceOfCardinality { ty, path, .. }
        | ModOp::ModifyInstanceOfOrderBy { ty, path, .. } => {
            pending_modifies
                .entry(member_key(ty, path))
                .or_default()
                .push(i);
        }
        ModOp::AddExtentName { ty, .. }
        | ModOp::ModifyExtentName { ty, .. }
        | ModOp::AddKeyList { ty, .. }
        | ModOp::ModifyKeyList { ty, .. } => {
            pending_modifies.entry(ty.clone()).or_default().push(i);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_model::schema_to_graph;
    use sws_odl::parse_schema;

    fn dept() -> SchemaGraph {
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
        schema_to_graph(&parse_schema(src).expect("fixture parses")).expect("fixture lowers")
    }

    fn ww(op: ModOp) -> (ConceptKind, ModOp) {
        (ConceptKind::WagonWheel, op)
    }

    #[test]
    fn clean_script_passes() {
        let g = dept();
        let script = vec![
            ww(ModOp::AddTypeDefinition {
                ty: "Course".into(),
            }),
            ww(ModOp::AddAttribute {
                ty: "Course".into(),
                domain: sws_odl::DomainType::String,
                size: None,
                name: "title".into(),
            }),
        ];
        let report = analyze_ops(&g, &g, &script);
        assert!(report.passes(), "{report:?}");
        assert!(report.is_clean());
    }

    #[test]
    fn use_before_def_is_a001_use_after_delete_is_a002() {
        let g = dept();
        let r = analyze_ops(
            &g,
            &g,
            &[ww(ModOp::DeleteTypeDefinition { ty: "Ghost".into() })],
        );
        assert_eq!(r.findings[0].code, "A001");
        let r = analyze_ops(
            &g,
            &g,
            &[
                ww(ModOp::AddTypeDefinition { ty: "T".into() }),
                ww(ModOp::DeleteTypeDefinition { ty: "T".into() }),
                ww(ModOp::AddAttribute {
                    ty: "T".into(),
                    domain: sws_odl::DomainType::Long,
                    size: None,
                    name: "x".into(),
                }),
            ],
        );
        assert_eq!(r.stopped_at, Some(2));
        assert_eq!(
            r.findings
                .iter()
                .find(|f| f.code == "A002")
                .map(|f| f.index),
            Some(2)
        );
        // ...and the delete-of-own-create warning rides along.
        assert!(r.findings.iter().any(|f| f.code == "W102"));
    }

    #[test]
    fn not_permitted_is_a011_and_stops() {
        let g = dept();
        let r = analyze_ops(
            &g,
            &g,
            &[ww(ModOp::AddSupertype {
                ty: "Department".into(),
                supertype: "Person".into(),
            })],
        );
        assert_eq!(r.stopped_at, Some(0));
        assert_eq!(r.findings[0].code, "A011");
        assert!(matches!(r.predicted, Some(OpError::NotPermitted { .. })));
    }

    #[test]
    fn dead_store_modify_then_delete_is_w103() {
        let g = dept();
        let r = analyze_ops(
            &g,
            &g,
            &[
                ww(ModOp::ModifyAttributeSize {
                    ty: "Person".into(),
                    name: "name".into(),
                    old: None,
                    new: Some(32),
                }),
                ww(ModOp::DeleteAttribute {
                    ty: "Person".into(),
                    name: "name".into(),
                }),
            ],
        );
        assert!(r.passes());
        let w = r.findings.iter().find(|f| f.code == "W103").expect("W103");
        assert_eq!(w.index, 0);
    }

    #[test]
    fn redundant_modify_is_w101() {
        let g = dept();
        let r = analyze_ops(
            &g,
            &g,
            &[ww(ModOp::ModifyAttributeType {
                ty: "Person".into(),
                name: "name".into(),
                old: sws_odl::DomainType::String,
                new: sws_odl::DomainType::String,
            })],
        );
        assert!(r.passes());
        assert_eq!(r.findings[0].code, "W101");
    }

    #[test]
    fn commuting_adjacent_pairs_are_reported() {
        let g = dept();
        let r = analyze_ops(
            &g,
            &g,
            &[
                ww(ModOp::AddTypeDefinition { ty: "A".into() }),
                ww(ModOp::AddTypeDefinition { ty: "B".into() }),
            ],
        );
        assert_eq!(r.commuting_pairs, vec![(0, 1)]);
    }

    /// The analyzer must agree with `Workspace::replay` on where `script`
    /// stops and why.
    fn assert_matches_replay(g: &SchemaGraph, script: &[(ConceptKind, ModOp)]) -> LintReport {
        let report = analyze_ops(g, g, script);
        let replayed = sws_core::Workspace::new(g.clone()).replay(script.iter().cloned());
        let (stopped_at, predicted) = match replayed {
            Ok(()) => (None, None),
            Err((i, e)) => (Some(i), Some(e)),
        };
        assert_eq!(
            (report.stopped_at, &report.predicted),
            (stopped_at, &predicted)
        );
        report
    }

    #[test]
    fn each_op_sees_the_effect_of_every_earlier_op() {
        let g = dept();
        let delete_employee = ww(ModOp::DeleteTypeDefinition {
            ty: "Employee".into(),
        });
        // Op 2 reuses the path that op 0's cascade freed on Department, and
        // targets the type op 1 adds.
        let report = assert_matches_replay(
            &g,
            &[
                delete_employee.clone(),
                ww(ModOp::AddTypeDefinition {
                    ty: "Course".into(),
                }),
                ww(ModOp::AddRelationship {
                    ty: "Department".into(),
                    target: "Course".into(),
                    cardinality: sws_odl::Cardinality::Many(sws_odl::CollectionKind::Set),
                    path: "has".into(),
                    inverse_path: "offered_by".into(),
                    order_by: Vec::new(),
                }),
            ],
        );
        assert!(report.passes(), "{report:?}");
        // Op 1 deletes what op 0's cascade already removed.
        let report = assert_matches_replay(
            &g,
            &[
                delete_employee,
                ww(ModOp::DeleteRelationship {
                    ty: "Department".into(),
                    path: "has".into(),
                }),
            ],
        );
        assert_eq!(report.stopped_at, Some(1));
    }

    #[test]
    fn isa_cycle_is_a005_on_the_working_hierarchy() {
        let g = dept();
        // Person under Employee closes a cycle with the existing edge.
        let r = analyze_ops(
            &g,
            &g,
            &[(
                ConceptKind::Generalization,
                ModOp::AddSupertype {
                    ty: "Person".into(),
                    supertype: "Employee".into(),
                },
            )],
        );
        assert_eq!(r.findings[0].code, "A005");
    }
}
