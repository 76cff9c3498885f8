//! Graph-level well-formedness checking.
//!
//! These are the structural consistency checks the interactive designer runs
//! after modifications to "discover problems in the user schema" (paper §1.2)
//! — the ones expressible on the graph alone. Cross-concept-schema
//! interaction checks live in `sws-core::consistency` on top of these.
//!
//! The checks walk the live [`SchemaGraph`] with a caller-owned
//! [`WfScratch`]; the consistency engine keeps one persistent scratch, so
//! its incremental rechecks make zero allocations in steady state.
//!
//! All member-name comparisons are [`Symbol`] integer compares; strings are
//! only touched when a finding is *rendered*.

use crate::graph::SchemaGraph;
use crate::ids::TypeId;
use crate::index::ClosureScratch;
use crate::intern::{SymKey, Symbol};
use std::fmt;
use sws_odl::HierKind;

/// One well-formedness finding. Names are interned symbols; rendering
/// resolves them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WfIssue {
    /// A non-operation member shadows a member inherited from an ancestor
    /// (operations may override operations; everything else may not shadow).
    InheritedMemberConflict {
        ty: Symbol,
        member: Symbol,
        ancestor: Symbol,
    },
    /// A key references an attribute not visible on the type.
    KeyAttributeMissing {
        ty: Symbol,
        key: SymKey,
        attribute: Symbol,
    },
    /// An order-by list references an attribute not visible on the target.
    OrderByAttributeMissing {
        ty: Symbol,
        path: Symbol,
        target: Symbol,
        attribute: Symbol,
    },
    /// An attribute domain references a type that is not in the schema.
    DanglingAttrDomain {
        ty: Symbol,
        attribute: Symbol,
        referenced: Symbol,
    },
    /// An operation signature references a type that is not in the schema.
    DanglingOpType {
        ty: Symbol,
        operation: Symbol,
        referenced: Symbol,
    },
    /// A generalization cycle (defensive; mutators prevent this).
    GeneralizationCycle { ty: Symbol },
    /// A part-of / instance-of cycle (defensive; mutators prevent this).
    HierarchyCycle { kind: HierKind, ty: Symbol },
}

impl fmt::Display for WfIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WfIssue::InheritedMemberConflict { ty, member, ancestor } => write!(
                f,
                "member `{ty}::{member}` conflicts with a member inherited from `{ancestor}`"
            ),
            WfIssue::KeyAttributeMissing { ty, key, attribute } => write!(
                f,
                "key `{key}` of `{ty}` references attribute `{attribute}`, which is not visible"
            ),
            WfIssue::OrderByAttributeMissing { ty, path, target, attribute } => write!(
                f,
                "`{ty}::{path}` orders by `{attribute}`, which is not visible on `{target}`"
            ),
            WfIssue::DanglingAttrDomain { ty, attribute, referenced } => write!(
                f,
                "attribute `{ty}::{attribute}` references `{referenced}`, which is not in the schema"
            ),
            WfIssue::DanglingOpType { ty, operation, referenced } => write!(
                f,
                "operation `{ty}::{operation}` references `{referenced}`, which is not in the schema"
            ),
            WfIssue::GeneralizationCycle { ty } => {
                write!(f, "`{ty}` participates in a generalization cycle")
            }
            WfIssue::HierarchyCycle { kind, ty } => {
                write!(f, "`{ty}` participates in a {kind} cycle")
            }
        }
    }
}

/// Reusable per-checker state: traversal scratch plus the ancestor buffers
/// the checks fill. Persistent inside the consistency engine.
#[derive(Debug, Clone, Default)]
pub struct WfScratch {
    /// Epoch-marked traversal state, reusable for any closure walk over
    /// the same graph (the consistency engine borrows it to expand dirty
    /// sets between rechecks).
    pub closure: ClosureScratch,
    /// Ancestors of the type under check.
    pub ancestors: Vec<TypeId>,
    /// Ancestors of an order-by target type.
    pub target_ancestors: Vec<TypeId>,
}

impl WfScratch {
    /// Size the visited tables for the graph. On the zero-allocation hot
    /// path, call this before entering the measured span.
    pub fn ensure_slots(&mut self, type_slots: usize, link_slots: usize) {
        self.closure.ensure_slots(type_slots, link_slots);
        // Ancestor sets are bounded by the number of type slots; reserving
        // here keeps the per-type checks allocation-free.
        self.ancestors
            .reserve(type_slots.saturating_sub(self.ancestors.capacity()));
        self.target_ancestors
            .reserve(type_slots.saturating_sub(self.target_ancestors.capacity()));
    }
}

/// Check the whole graph, returning every finding (empty = well-formed).
pub fn check_well_formed(g: &SchemaGraph) -> Vec<WfIssue> {
    let mut sp = sws_trace::span!("model.wf", types = g.type_count());
    let check_gen_cycles = g.type_count() < 10_000;
    let mut scratch = WfScratch::default();
    scratch.ensure_slots(g.type_slots(), g.link_slots());
    let mut issues = Vec::new();
    for (id, _) in g.types() {
        check_type_into(g, &mut scratch, id, check_gen_cycles, &mut issues);
    }
    sp.record("issues", issues.len());
    issues
}

/// Every well-formedness finding attributable to type `id`, as a fresh
/// `Vec` (convenience wrapper over [`check_type_into`] with a throwaway
/// scratch). The union over all live types equals [`check_well_formed`].
pub fn check_type_well_formed(g: &SchemaGraph, id: TypeId) -> Vec<WfIssue> {
    let mut scratch = WfScratch::default();
    scratch.ensure_slots(g.type_slots(), g.link_slots());
    let mut issues = Vec::new();
    check_type_into(g, &mut scratch, id, g.type_count() < 10_000, &mut issues);
    issues
}

/// Every well-formedness finding attributable to type `id`: inherited-member
/// conflicts, key and dangling references, cycle participation, and the
/// order-by lists of relationship ends owned by `id` and of links parented
/// by `id`.
///
/// Findings are appended to `issues`; in steady state (warm scratch, no
/// findings) the call performs zero heap allocations.
pub fn check_type_into(
    g: &SchemaGraph,
    scratch: &mut WfScratch,
    id: TypeId,
    check_gen_cycles: bool,
    issues: &mut Vec<WfIssue>,
) {
    let node = g.ty(id);
    let WfScratch {
        closure,
        ancestors,
        target_ancestors,
    } = scratch;
    closure.ancestors_into(g, id, ancestors);
    check_inherited_conflicts(g, ancestors, id, issues);
    check_keys(g, ancestors, id, issues);
    check_dangling(g, id, issues);
    if check_gen_cycles && closure.has_gen_cycle(g, id) {
        issues.push(WfIssue::GeneralizationCycle { ty: node.name });
    }
    for kind in [HierKind::PartOf, HierKind::InstanceOf] {
        if closure.has_hier_cycle(g, kind, id) {
            issues.push(WfIssue::HierarchyCycle {
                kind,
                ty: node.name,
            });
        }
    }
    check_order_bys(g, closure, target_ancestors, id, issues);
}

/// True if `owner` itself defines attribute `attr`.
fn has_own_attr(g: &SchemaGraph, owner: TypeId, attr: Symbol) -> bool {
    g.ty(owner).attrs.iter().any(|&a| g.attr(a).name == attr)
}

/// True if `attr` is an attribute of `t` or of one of `ancestors`.
fn attr_visible(g: &SchemaGraph, ancestors: &[TypeId], t: TypeId, attr: Symbol) -> bool {
    has_own_attr(g, t, attr) || ancestors.iter().any(|&anc| has_own_attr(g, anc, attr))
}

/// True if `anc` defines `name` as a non-operation member (attribute,
/// relationship path, or hierarchy-link path).
fn defines_non_op(g: &SchemaGraph, anc: TypeId, name: Symbol) -> bool {
    let n = g.ty(anc);
    n.attrs.iter().any(|&a| g.attr(a).name == name)
        || n.rel_ends
            .iter()
            .any(|&(r, e)| g.rel(r).end(e).path == name)
        || n.parent_links
            .iter()
            .any(|&l| g.link(l).parent_path == name)
        || n.child_links.iter().any(|&l| g.link(l).child_path == name)
}

/// True if `anc` defines an operation named `name`.
fn defines_op(g: &SchemaGraph, anc: TypeId, name: Symbol) -> bool {
    g.ty(anc).ops.iter().any(|&o| g.op(o).name == name)
}

fn check_inherited_conflicts(
    g: &SchemaGraph,
    ancestors: &[TypeId],
    id: TypeId,
    issues: &mut Vec<WfIssue>,
) {
    let node = g.ty(id);
    // For each ancestor, scan the own members in declaration-kind order
    // (attributes, relationship ends, parent links, child links, then
    // operations). Operations may override ancestor operations but may not
    // shadow ancestor attributes / paths; everything else may shadow
    // nothing. All probes are symbol compares against the ancestor's own
    // member lists — no sets, no allocation.
    for &anc in ancestors {
        let anc_name = g.ty(anc).name;
        let own_member = |name: Symbol, is_op: bool, issues: &mut Vec<WfIssue>| {
            let conflict = if is_op {
                defines_non_op(g, anc, name)
            } else {
                defines_non_op(g, anc, name) || defines_op(g, anc, name)
            };
            if conflict {
                issues.push(WfIssue::InheritedMemberConflict {
                    ty: node.name,
                    member: name,
                    ancestor: anc_name,
                });
            }
        };
        for &a in &node.attrs {
            own_member(g.attr(a).name, false, issues);
        }
        for &(r, e) in &node.rel_ends {
            own_member(g.rel(r).end(e).path, false, issues);
        }
        for &l in &node.parent_links {
            own_member(g.link(l).parent_path, false, issues);
        }
        for &l in &node.child_links {
            own_member(g.link(l).child_path, false, issues);
        }
        for &o in &node.ops {
            own_member(g.op(o).name, true, issues);
        }
    }
}

fn check_keys(g: &SchemaGraph, ancestors: &[TypeId], id: TypeId, issues: &mut Vec<WfIssue>) {
    let node = g.ty(id);
    for key in &node.keys {
        for &attr in &key.0 {
            if !attr_visible(g, ancestors, id, attr) {
                issues.push(WfIssue::KeyAttributeMissing {
                    ty: node.name,
                    key: key.clone(),
                    attribute: attr,
                });
            }
        }
    }
}

/// Order-by findings attributed to `id`: relationship ends owned by `id`
/// (checked against the opposite end's owner) and links parented by `id`
/// (checked against the child type).
fn check_order_bys(
    g: &SchemaGraph,
    closure: &mut ClosureScratch,
    target_ancestors: &mut Vec<TypeId>,
    id: TypeId,
    issues: &mut Vec<WfIssue>,
) {
    let node = g.ty(id);
    for &(r, e) in &node.rel_ends {
        let rel = g.rel(r);
        let end = rel.end(e);
        if end.order_by.is_empty() {
            continue;
        }
        let target = rel.other(e).owner;
        closure.ancestors_into(g, target, target_ancestors);
        for &attr in &end.order_by {
            if !attr_visible(g, target_ancestors, target, attr) {
                issues.push(WfIssue::OrderByAttributeMissing {
                    ty: g.ty(end.owner).name,
                    path: end.path,
                    target: g.ty(target).name,
                    attribute: attr,
                });
            }
        }
    }
    for &l in &node.parent_links {
        let link = g.link(l);
        if link.order_by.is_empty() {
            continue;
        }
        closure.ancestors_into(g, link.child, target_ancestors);
        for &attr in &link.order_by {
            if !attr_visible(g, target_ancestors, link.child, attr) {
                issues.push(WfIssue::OrderByAttributeMissing {
                    ty: g.ty(link.parent).name,
                    path: link.parent_path,
                    target: g.ty(link.child).name,
                    attribute: attr,
                });
            }
        }
    }
}

fn check_dangling(g: &SchemaGraph, id: TypeId, issues: &mut Vec<WfIssue>) {
    let node = g.ty(id);
    for &a in &node.attrs {
        let attr = g.attr(a);
        attr.ty.for_each_named_ref(&mut |r| {
            if g.type_id(r).is_none() {
                issues.push(WfIssue::DanglingAttrDomain {
                    ty: node.name,
                    attribute: attr.name,
                    referenced: Symbol::intern(r),
                });
            }
        });
    }
    for &o in &node.ops {
        let op = g.op(o);
        let mut check_ref = |r: &str| {
            if g.type_id(r).is_none() {
                issues.push(WfIssue::DanglingOpType {
                    ty: node.name,
                    operation: op.name,
                    referenced: Symbol::intern(r),
                });
            }
        };
        op.op.return_type.for_each_named_ref(&mut check_ref);
        for p in &op.op.args {
            p.ty.for_each_named_ref(&mut check_ref);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_odl::{Cardinality, DomainType, Key, Operation};

    #[test]
    fn clean_graph_passes() {
        let mut g = SchemaGraph::new("t");
        let a = g.add_type("A").unwrap();
        let b = g.add_type("B").unwrap();
        g.add_supertype(b, a).unwrap();
        g.add_attribute(a, "name", DomainType::String, None)
            .unwrap();
        g.add_key(a, Key::single("name")).unwrap();
        g.add_relationship(
            a,
            "bs",
            Cardinality::Many(sws_odl::CollectionKind::Set),
            vec!["tag".into()],
            b,
            "a_of",
            Cardinality::One,
            vec![],
        )
        .unwrap();
        g.add_attribute(b, "tag", DomainType::Long, None).unwrap();
        assert!(check_well_formed(&g).is_empty());
    }

    #[test]
    fn inherited_attribute_shadowing_flagged() {
        let mut g = SchemaGraph::new("t");
        let a = g.add_type("A").unwrap();
        let b = g.add_type("B").unwrap();
        g.add_supertype(b, a).unwrap();
        g.add_attribute(a, "x", DomainType::Long, None).unwrap();
        g.add_attribute(b, "x", DomainType::String, None).unwrap();
        let issues = check_well_formed(&g);
        assert!(issues.iter().any(
            |i| matches!(i, WfIssue::InheritedMemberConflict { member, .. } if *member == "x")
        ));
    }

    #[test]
    fn operation_override_not_flagged() {
        let mut g = SchemaGraph::new("t");
        let a = g.add_type("A").unwrap();
        let b = g.add_type("B").unwrap();
        g.add_supertype(b, a).unwrap();
        g.add_operation(a, Operation::nullary("f", DomainType::Void))
            .unwrap();
        g.add_operation(b, Operation::nullary("f", DomainType::Long))
            .unwrap();
        assert!(check_well_formed(&g).is_empty());
    }

    #[test]
    fn operation_shadowing_attribute_flagged() {
        let mut g = SchemaGraph::new("t");
        let a = g.add_type("A").unwrap();
        let b = g.add_type("B").unwrap();
        g.add_supertype(b, a).unwrap();
        g.add_attribute(a, "f", DomainType::Long, None).unwrap();
        g.add_operation(b, Operation::nullary("f", DomainType::Void))
            .unwrap();
        let issues = check_well_formed(&g);
        assert!(issues
            .iter()
            .any(|i| matches!(i, WfIssue::InheritedMemberConflict { .. })));
    }

    #[test]
    fn key_over_inherited_attribute_ok() {
        let mut g = SchemaGraph::new("t");
        let a = g.add_type("A").unwrap();
        let b = g.add_type("B").unwrap();
        g.add_supertype(b, a).unwrap();
        g.add_attribute(a, "id", DomainType::Long, None).unwrap();
        g.add_key(b, Key::single("id")).unwrap();
        assert!(check_well_formed(&g).is_empty());
    }

    #[test]
    fn key_over_missing_attribute_flagged() {
        let mut g = SchemaGraph::new("t");
        let a = g.add_type("A").unwrap();
        g.add_key(a, Key::single("ghost")).unwrap();
        let issues = check_well_formed(&g);
        assert!(issues
            .iter()
            .any(|i| matches!(i, WfIssue::KeyAttributeMissing { .. })));
    }

    #[test]
    fn dangling_attr_domain_flagged() {
        let mut g = SchemaGraph::new("t");
        let a = g.add_type("A").unwrap();
        g.add_attribute(
            a,
            "gs",
            DomainType::set_of(DomainType::named("Ghost")),
            None,
        )
        .unwrap();
        let issues = check_well_formed(&g);
        assert!(issues.iter().any(
            |i| matches!(i, WfIssue::DanglingAttrDomain { referenced, .. } if *referenced == "Ghost")
        ));
    }

    #[test]
    fn dangling_op_type_flagged() {
        let mut g = SchemaGraph::new("t");
        let a = g.add_type("A").unwrap();
        g.add_operation(a, Operation::nullary("make", DomainType::named("Ghost")))
            .unwrap();
        let issues = check_well_formed(&g);
        assert!(issues
            .iter()
            .any(|i| matches!(i, WfIssue::DanglingOpType { .. })));
    }

    #[test]
    fn order_by_missing_on_target_flagged() {
        let mut g = SchemaGraph::new("t");
        let a = g.add_type("A").unwrap();
        let b = g.add_type("B").unwrap();
        g.add_relationship(
            a,
            "bs",
            Cardinality::Many(sws_odl::CollectionKind::Set),
            vec!["ghost".into()],
            b,
            "a_of",
            Cardinality::One,
            vec![],
        )
        .unwrap();
        let issues = check_well_formed(&g);
        assert!(issues
            .iter()
            .any(|i| matches!(i, WfIssue::OrderByAttributeMissing { .. })));
    }

    #[test]
    fn issues_display() {
        let issue = WfIssue::KeyAttributeMissing {
            ty: "A".into(),
            key: SymKey(vec!["k".into()]),
            attribute: "x".into(),
        };
        assert!(issue.to_string().contains("key `k`"));
    }
}
