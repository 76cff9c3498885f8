//! Precondition constraints for modification operations (paper activities
//! 8–9).
//!
//! Every [`ModOp`] is checked against the working schema **and** the shrink
//! wrap schema before it is applied. The checks enforce the paper's
//! standing assumptions:
//!
//! * **uniqueness / name equivalence** — names identify constructs, so adds
//!   require free names and modifies require the old value to match (stale
//!   operations are rejected, which also makes op-log replay safe);
//! * **semantic stability** — the move operations (`modify_attribute`,
//!   `modify_operation`, `modify_*_target_type`) may only move information
//!   along one generalization path, judged against the hierarchy
//!   *established by the shrink wrap schema* when both endpoints exist
//!   there, and against the working schema's hierarchy for designer-added
//!   types;
//! * structural sanity — no cycles, no inheritance conflicts, order-by and
//!   key lists must reference visible attributes, referenced domain types
//!   must exist.

use crate::ops::ModOp;
use std::fmt;
use sws_model::{SchemaGraph, SchemaView, Symbol, TypeId};
use sws_odl::{DomainType, HierKind, Key};

/// Render an order-by list of interned symbols for a violation message.
fn join_syms(syms: &[Symbol]) -> String {
    syms.iter()
        .map(|s| s.as_str())
        .collect::<Vec<_>>()
        .join(", ")
}

/// One failed precondition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstraintViolation {
    /// Adding a type whose name is taken.
    TypeExists(String),
    /// Referencing a type that does not exist.
    UnknownType(String),
    /// Adding a member whose name is taken on the type.
    MemberExists { ty: String, member: String },
    /// Referencing a member that does not exist.
    UnknownMember {
        ty: String,
        member: String,
        what: &'static str,
    },
    /// A move between types not on one generalization path (in the shrink
    /// wrap schema's hierarchy).
    SemanticStability { from: String, to: String },
    /// A modify operation whose `old` value does not match the schema.
    StaleValue {
        what: String,
        expected: String,
        found: String,
    },
    /// The extent name is used elsewhere.
    ExtentInUse(String),
    /// The type already has an extent (use modify instead of add).
    ExtentAlreadySet { ty: String, extent: String },
    /// The type has no extent to delete/modify.
    NoExtent { ty: String },
    /// The supertype edge already exists.
    SupertypeEdgeExists { sub: String, sup: String },
    /// The supertype edge does not exist.
    NoSupertypeEdge { sub: String, sup: String },
    /// The edge would create a generalization cycle.
    GeneralizationCycle { sub: String, sup: String },
    /// The link would create a part-of / instance-of cycle.
    HierarchyCycle {
        kind: HierKind,
        parent: String,
        child: String,
    },
    /// The new member would conflict with an inherited member.
    InheritedConflict {
        ty: String,
        member: String,
        other: String,
    },
    /// A key is already present / absent.
    KeyExists { ty: String, key: String },
    /// The key to delete is not present.
    NoSuchKey { ty: String, key: String },
    /// A key or order-by references an attribute that is not visible.
    AttributeNotVisible { ty: String, attribute: String },
    /// A domain type / signature references a type missing from the schema.
    UnknownDomainType { referenced: String },
    /// A size constraint on a type that does not admit one.
    SizeNotAllowed {
        ty: String,
        attribute: String,
        domain: String,
    },
    /// A part-of / instance-of link between a type and itself.
    SelfLink { ty: String },
    /// Cardinality/order-by modification addressed to the child (single-
    /// valued) end; the grammar allows it only on the parent end.
    NotParentEnd { ty: String, path: String },
    /// An order-by list on the to-whole / to-generic form of an add.
    OrderByOnChildEnd { ty: String, path: String },
}

/// The logical categories of the enforced constraints (paper activity 9:
/// "classification of the constraints into logical categories").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConstraintCategory {
    /// Name uniqueness / name equivalence (types, members, extents, keys).
    Uniqueness,
    /// The referent must exist (types, members, keys, extents).
    Existence,
    /// A modify's `old` value must match the current schema.
    Currency,
    /// Moves stay within one generalization path.
    SemanticStability,
    /// Hierarchies stay acyclic; inheritance stays conflict-free; 1:N
    /// link shape; parent-end-only modifications.
    Structural,
    /// Cross-references resolve: domains, key/order-by attributes, sizes.
    Referential,
}

impl ConstraintCategory {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ConstraintCategory::Uniqueness => "uniqueness",
            ConstraintCategory::Existence => "existence",
            ConstraintCategory::Currency => "currency",
            ConstraintCategory::SemanticStability => "semantic stability",
            ConstraintCategory::Structural => "structural",
            ConstraintCategory::Referential => "referential",
        }
    }
}

impl fmt::Display for ConstraintCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl ConstraintViolation {
    /// The logical category of this violation.
    pub fn category(&self) -> ConstraintCategory {
        use ConstraintCategory::*;
        use ConstraintViolation::*;
        match self {
            TypeExists(_)
            | MemberExists { .. }
            | ExtentInUse(_)
            | ExtentAlreadySet { .. }
            | SupertypeEdgeExists { .. }
            | KeyExists { .. } => Uniqueness,
            UnknownType(_)
            | UnknownMember { .. }
            | NoExtent { .. }
            | NoSupertypeEdge { .. }
            | NoSuchKey { .. } => Existence,
            StaleValue { .. } => Currency,
            ConstraintViolation::SemanticStability { .. } => ConstraintCategory::SemanticStability,
            GeneralizationCycle { .. }
            | HierarchyCycle { .. }
            | InheritedConflict { .. }
            | SelfLink { .. }
            | NotParentEnd { .. }
            | OrderByOnChildEnd { .. } => Structural,
            AttributeNotVisible { .. } | UnknownDomainType { .. } | SizeNotAllowed { .. } => {
                Referential
            }
        }
    }
}

impl fmt::Display for ConstraintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ConstraintViolation::*;
        match self {
            TypeExists(n) => write!(f, "type `{n}` already exists"),
            UnknownType(n) => write!(f, "type `{n}` does not exist"),
            MemberExists { ty, member } => {
                write!(f, "`{ty}` already has a member named `{member}`")
            }
            UnknownMember { ty, member, what } => {
                write!(f, "`{ty}` has no {what} named `{member}`")
            }
            SemanticStability { from, to } => write!(
                f,
                "`{from}` and `{to}` are not on one generalization path (semantic stability)"
            ),
            StaleValue { what, expected, found } => {
                write!(f, "{what}: operation expects `{expected}` but the schema has `{found}`")
            }
            ExtentInUse(n) => write!(f, "extent name `{n}` is already in use"),
            ExtentAlreadySet { ty, extent } => {
                write!(f, "`{ty}` already has extent `{extent}`")
            }
            NoExtent { ty } => write!(f, "`{ty}` has no extent"),
            SupertypeEdgeExists { sub, sup } => {
                write!(f, "`{sub}` already has supertype `{sup}`")
            }
            NoSupertypeEdge { sub, sup } => write!(f, "`{sub}` has no supertype `{sup}`"),
            GeneralizationCycle { sub, sup } => {
                write!(f, "making `{sup}` a supertype of `{sub}` would create a cycle")
            }
            HierarchyCycle { kind, parent, child } => {
                write!(f, "a {kind} link `{parent}` -> `{child}` would create a cycle")
            }
            InheritedConflict { ty, member, other } => write!(
                f,
                "member `{member}` on `{ty}` would conflict with the member inherited via `{other}`"
            ),
            KeyExists { ty, key } => write!(f, "`{ty}` already has key `{key}`"),
            NoSuchKey { ty, key } => write!(f, "`{ty}` has no key `{key}`"),
            AttributeNotVisible { ty, attribute } => {
                write!(f, "attribute `{attribute}` is not visible on `{ty}`")
            }
            UnknownDomainType { referenced } => {
                write!(f, "referenced type `{referenced}` is not in the schema")
            }
            SizeNotAllowed { ty, attribute, domain } => write!(
                f,
                "attribute `{ty}::{attribute}`: domain `{domain}` does not admit a size"
            ),
            SelfLink { ty } => write!(f, "`{ty}` cannot be linked to itself"),
            NotParentEnd { ty, path } => write!(
                f,
                "`{ty}::{path}` is the single-valued end; this modification is only allowed on the collection end"
            ),
            OrderByOnChildEnd { ty, path } => {
                write!(f, "`{ty}::{path}`: an order-by list is only allowed on the collection end")
            }
        }
    }
}

/// Check every precondition of `op` against `working`, using `shrink_wrap`
/// for the semantic-stability reference hierarchy. Returns all violations
/// (empty = the operation may be applied).
///
/// The one precondition entry point. `working` is any [`SchemaView`]: the
/// executor passes its working [`SchemaGraph`], `sws-analyze` its abstract
/// overlay state, so the static analyzer runs the *same* checks the apply
/// pipeline does — soundness by construction, not by reimplementation.
/// Every hierarchy query walks the view fresh; there is no memo.
///
/// The shrink-wrap side stays concrete: it is immutable during both real
/// application and analysis, so it never needs the abstraction.
pub fn check_preconditions<V: SchemaView + ?Sized>(
    op: &ModOp,
    working: &V,
    shrink_wrap: &SchemaGraph,
) -> Vec<ConstraintViolation> {
    let mut v = Vec::new();
    let ctx = Ctx {
        g: working,
        sw: shrink_wrap,
    };
    ctx.check(op, &mut v);
    v
}

struct Ctx<'a, V: SchemaView + ?Sized> {
    g: &'a V,
    sw: &'a SchemaGraph,
}

impl<'a, V: SchemaView + ?Sized> Ctx<'a, V> {
    fn require(&self, name: &str, v: &mut Vec<ConstraintViolation>) -> Option<TypeId> {
        match self.g.type_id(name) {
            Some(id) => Some(id),
            None => {
                v.push(ConstraintViolation::UnknownType(name.to_string()));
                None
            }
        }
    }

    /// Semantic stability: `from` and `to` must be on one generalization
    /// path. Judged in the shrink wrap schema when both types exist there
    /// (the paper's rule: the hierarchy *established by the shrink wrap
    /// schema*), otherwise in the working schema (designer-added types).
    fn check_semantic_stability(&self, from: &str, to: &str, v: &mut Vec<ConstraintViolation>) {
        if from == to {
            return;
        }
        let ok = match (self.sw.type_id(from), self.sw.type_id(to)) {
            (Some(a), Some(b)) => self.sw.on_same_generalization_path(a, b),
            _ => match (self.g.type_id(from), self.g.type_id(to)) {
                (Some(a), Some(b)) => self.g.on_same_generalization_path(a, b),
                _ => return, // unknown types reported elsewhere
            },
        };
        if !ok {
            v.push(ConstraintViolation::SemanticStability {
                from: from.to_string(),
                to: to.to_string(),
            });
        }
    }

    /// Would adding member `name` (an operation iff `is_op`) on `ty` clash
    /// with its own members or with inherited/overriding members?
    /// `skip_own` suppresses the own-member check (used when moving a
    /// member onto an ancestor/descendant of its current owner).
    fn check_member_free(
        &self,
        ty: TypeId,
        name: &str,
        is_op: bool,
        v: &mut Vec<ConstraintViolation>,
    ) {
        if self.g.member_exists(ty, name) {
            v.push(ConstraintViolation::MemberExists {
                ty: self.g.type_name(ty).to_string(),
                member: name.to_string(),
            });
            return;
        }
        // Ancestors: operations may override operations; nothing else may
        // shadow anything.
        for &anc in self.g.ancestors(ty).iter() {
            if let Some(their_op) = member_is_op(self.g, anc, name) {
                if !(is_op && their_op) {
                    v.push(ConstraintViolation::InheritedConflict {
                        ty: self.g.type_name(ty).to_string(),
                        member: name.to_string(),
                        other: self.g.type_name(anc).to_string(),
                    });
                    return;
                }
            }
        }
        // Descendants: a new non-operation member must not be shadowed by /
        // shadow existing descendant members.
        for &desc in self.g.descendants(ty).iter() {
            if let Some(their_op) = member_is_op(self.g, desc, name) {
                if !(is_op && their_op) {
                    v.push(ConstraintViolation::InheritedConflict {
                        ty: self.g.type_name(ty).to_string(),
                        member: name.to_string(),
                        other: self.g.type_name(desc).to_string(),
                    });
                    return;
                }
            }
        }
    }

    fn check_attrs_visible(&self, ty: TypeId, attrs: &[String], v: &mut Vec<ConstraintViolation>) {
        for attr in attrs {
            let visible = self.g.find_attr(ty, attr).is_some()
                || self
                    .g
                    .ancestors(ty)
                    .iter()
                    .any(|&anc| self.g.find_attr(anc, attr).is_some());
            if !visible {
                v.push(ConstraintViolation::AttributeNotVisible {
                    ty: self.g.type_name(ty).to_string(),
                    attribute: attr.clone(),
                });
            }
        }
    }

    fn check_domain_types(&self, domain: &DomainType, v: &mut Vec<ConstraintViolation>) {
        let mut refs = Vec::new();
        domain.referenced_types(&mut refs);
        for r in refs {
            if self.g.type_id(r).is_none() {
                v.push(ConstraintViolation::UnknownDomainType {
                    referenced: r.to_string(),
                });
            }
        }
    }

    fn check_keys_wellformed(&self, ty: TypeId, keys: &[Key], v: &mut Vec<ConstraintViolation>) {
        for key in keys {
            self.check_attrs_visible(ty, &key.0, v);
        }
    }

    fn check(&self, op: &ModOp, v: &mut Vec<ConstraintViolation>) {
        use ModOp::*;
        match op {
            AddTypeDefinition { ty } => {
                if self.g.type_id(ty).is_some() {
                    v.push(ConstraintViolation::TypeExists(ty.clone()));
                }
            }
            DeleteTypeDefinition { ty } => {
                self.require(ty, v);
            }
            AddSupertype { ty, supertype } => {
                let (Some(sub), Some(sup)) = (self.require(ty, v), self.require(supertype, v))
                else {
                    return;
                };
                if sub == sup {
                    v.push(ConstraintViolation::GeneralizationCycle {
                        sub: ty.clone(),
                        sup: supertype.clone(),
                    });
                    return;
                }
                if self.g.ty(sub).supertypes.contains(&sup) {
                    v.push(ConstraintViolation::SupertypeEdgeExists {
                        sub: ty.clone(),
                        sup: supertype.clone(),
                    });
                }
                if self.g.is_ancestor(sub, sup) {
                    v.push(ConstraintViolation::GeneralizationCycle {
                        sub: ty.clone(),
                        sup: supertype.clone(),
                    });
                }
                self.check_inheritance_conflicts(sub, sup, v);
            }
            DeleteSupertype { ty, supertype } => {
                let (Some(sub), Some(sup)) = (self.require(ty, v), self.require(supertype, v))
                else {
                    return;
                };
                if !self.g.ty(sub).supertypes.contains(&sup) {
                    v.push(ConstraintViolation::NoSupertypeEdge {
                        sub: ty.clone(),
                        sup: supertype.clone(),
                    });
                }
            }
            ModifySupertype { ty, old, new } => {
                let Some(sub) = self.require(ty, v) else {
                    return;
                };
                let mut current: Vec<String> = self
                    .g
                    .ty(sub)
                    .supertypes
                    .iter()
                    .map(|&s| self.g.type_name(s).to_string())
                    .collect();
                current.sort();
                let mut old_sorted = old.clone();
                old_sorted.sort();
                if current != old_sorted {
                    v.push(ConstraintViolation::StaleValue {
                        what: format!("supertypes of `{ty}`"),
                        expected: old_sorted.join(", "),
                        found: current.join(", "),
                    });
                }
                for sup_name in new {
                    let Some(sup) = self.require(sup_name, v) else {
                        continue;
                    };
                    if sup == sub {
                        v.push(ConstraintViolation::GeneralizationCycle {
                            sub: ty.clone(),
                            sup: sup_name.clone(),
                        });
                        continue;
                    }
                    // A cycle through an edge not being removed.
                    if self.g.is_ancestor(sub, sup)
                        && !old.iter().any(|o| {
                            self.g
                                .type_id(o)
                                .map(|oid| self.g.is_ancestor(oid, sup) || oid == sup)
                                .unwrap_or(false)
                        })
                    {
                        v.push(ConstraintViolation::GeneralizationCycle {
                            sub: ty.clone(),
                            sup: sup_name.clone(),
                        });
                    }
                }
            }
            AddExtentName { ty, extent } => {
                let Some(id) = self.require(ty, v) else {
                    return;
                };
                if let Some(existing) = &self.g.ty(id).extent {
                    v.push(ConstraintViolation::ExtentAlreadySet {
                        ty: ty.clone(),
                        extent: existing.to_string(),
                    });
                }
                if self
                    .g
                    .types_iter()
                    .any(|(_, n)| n.extent.as_deref() == Some(extent))
                {
                    v.push(ConstraintViolation::ExtentInUse(extent.clone()));
                }
            }
            DeleteExtentName { ty, extent } => {
                let Some(id) = self.require(ty, v) else {
                    return;
                };
                match &self.g.ty(id).extent {
                    None => v.push(ConstraintViolation::NoExtent { ty: ty.clone() }),
                    Some(current) if current != extent => v.push(ConstraintViolation::StaleValue {
                        what: format!("extent of `{ty}`"),
                        expected: extent.clone(),
                        found: current.to_string(),
                    }),
                    _ => {}
                }
            }
            ModifyExtentName { ty, old, new } => {
                let Some(id) = self.require(ty, v) else {
                    return;
                };
                match &self.g.ty(id).extent {
                    None => v.push(ConstraintViolation::NoExtent { ty: ty.clone() }),
                    Some(current) if current != old => v.push(ConstraintViolation::StaleValue {
                        what: format!("extent of `{ty}`"),
                        expected: old.clone(),
                        found: current.to_string(),
                    }),
                    _ => {}
                }
                if self.g.types_iter().any(|(other, n)| {
                    Some(other) != self.g.type_id(ty) && n.extent.as_deref() == Some(new)
                }) {
                    v.push(ConstraintViolation::ExtentInUse(new.clone()));
                }
            }
            AddKeyList { ty, keys } => {
                let Some(id) = self.require(ty, v) else {
                    return;
                };
                for key in keys {
                    if self.g.ty(id).keys.iter().any(|k| k == key) {
                        v.push(ConstraintViolation::KeyExists {
                            ty: ty.clone(),
                            key: key.to_string(),
                        });
                    }
                }
                self.check_keys_wellformed(id, keys, v);
            }
            DeleteKeyList { ty, keys } => {
                let Some(id) = self.require(ty, v) else {
                    return;
                };
                for key in keys {
                    if !self.g.ty(id).keys.iter().any(|k| k == key) {
                        v.push(ConstraintViolation::NoSuchKey {
                            ty: ty.clone(),
                            key: key.to_string(),
                        });
                    }
                }
            }
            ModifyKeyList { ty, old, new } => {
                let Some(id) = self.require(ty, v) else {
                    return;
                };
                for key in old {
                    if !self.g.ty(id).keys.iter().any(|k| k == key) {
                        v.push(ConstraintViolation::NoSuchKey {
                            ty: ty.clone(),
                            key: key.to_string(),
                        });
                    }
                }
                for key in new {
                    if self.g.ty(id).keys.iter().any(|k| k == key) && !old.contains(key) {
                        v.push(ConstraintViolation::KeyExists {
                            ty: ty.clone(),
                            key: key.to_string(),
                        });
                    }
                }
                self.check_keys_wellformed(id, new, v);
            }
            AddAttribute {
                ty,
                domain,
                size,
                name,
            } => {
                let Some(id) = self.require(ty, v) else {
                    return;
                };
                self.check_member_free(id, name, false, v);
                self.check_domain_types(domain, v);
                if size.is_some() && !domain.admits_size() {
                    v.push(ConstraintViolation::SizeNotAllowed {
                        ty: ty.clone(),
                        attribute: name.clone(),
                        domain: domain.to_string(),
                    });
                }
            }
            DeleteAttribute { ty, name } => {
                let Some(id) = self.require(ty, v) else {
                    return;
                };
                if self.g.find_attr(id, name).is_none() {
                    v.push(ConstraintViolation::UnknownMember {
                        ty: ty.clone(),
                        member: name.clone(),
                        what: "attribute",
                    });
                }
            }
            ModifyAttribute { ty, name, new_ty } => {
                let Some(id) = self.require(ty, v) else {
                    return;
                };
                let Some(dest) = self.require(new_ty, v) else {
                    return;
                };
                if self.g.find_attr(id, name).is_none() {
                    v.push(ConstraintViolation::UnknownMember {
                        ty: ty.clone(),
                        member: name.clone(),
                        what: "attribute",
                    });
                    return;
                }
                self.check_semantic_stability(ty, new_ty, v);
                if dest != id {
                    self.check_move_target_free(id, dest, name, false, v);
                }
            }
            ModifyAttributeType { ty, name, old, new } => {
                let Some(id) = self.require(ty, v) else {
                    return;
                };
                let Some(aid) = self.g.find_attr(id, name) else {
                    v.push(ConstraintViolation::UnknownMember {
                        ty: ty.clone(),
                        member: name.clone(),
                        what: "attribute",
                    });
                    return;
                };
                let attr = self.g.attr(aid);
                if &attr.ty != old {
                    v.push(ConstraintViolation::StaleValue {
                        what: format!("type of `{ty}::{name}`"),
                        expected: old.to_string(),
                        found: attr.ty.to_string(),
                    });
                }
                self.check_domain_types(new, v);
                if attr.size.is_some() && !new.admits_size() {
                    // Allowed: apply clears the size and reports it as impact.
                }
            }
            ModifyAttributeSize { ty, name, old, new } => {
                let Some(id) = self.require(ty, v) else {
                    return;
                };
                let Some(aid) = self.g.find_attr(id, name) else {
                    v.push(ConstraintViolation::UnknownMember {
                        ty: ty.clone(),
                        member: name.clone(),
                        what: "attribute",
                    });
                    return;
                };
                let attr = self.g.attr(aid);
                if &attr.size != old {
                    v.push(ConstraintViolation::StaleValue {
                        what: format!("size of `{ty}::{name}`"),
                        expected: format!("{old:?}"),
                        found: format!("{:?}", attr.size),
                    });
                }
                if new.is_some() && !attr.ty.admits_size() {
                    v.push(ConstraintViolation::SizeNotAllowed {
                        ty: ty.clone(),
                        attribute: name.clone(),
                        domain: attr.ty.to_string(),
                    });
                }
            }
            AddRelationship {
                ty,
                target,
                cardinality: _,
                path,
                inverse_path,
                order_by,
            } => {
                let a = self.require(ty, v);
                let b = self.require(target, v);
                let (Some(a), Some(b)) = (a, b) else { return };
                if a == b && path == inverse_path {
                    v.push(ConstraintViolation::MemberExists {
                        ty: target.clone(),
                        member: inverse_path.clone(),
                    });
                    return;
                }
                self.check_member_free(a, path, false, v);
                self.check_member_free(b, inverse_path, false, v);
                self.check_attrs_visible(b, order_by, v);
            }
            DeleteRelationship { ty, path } => {
                let Some(id) = self.require(ty, v) else {
                    return;
                };
                if self.g.find_rel_end(id, path).is_none() {
                    v.push(ConstraintViolation::UnknownMember {
                        ty: ty.clone(),
                        member: path.clone(),
                        what: "relationship",
                    });
                }
            }
            ModifyRelationshipTargetType {
                ty,
                path,
                old_target,
                new_target,
            } => {
                let Some(id) = self.require(ty, v) else {
                    return;
                };
                let Some(dest) = self.require(new_target, v) else {
                    return;
                };
                let Some((rid, e)) = self.g.find_rel_end(id, path) else {
                    v.push(ConstraintViolation::UnknownMember {
                        ty: ty.clone(),
                        member: path.clone(),
                        what: "relationship",
                    });
                    return;
                };
                let other = self.g.rel(rid).other(e);
                let current_target = self.g.type_name(other.owner);
                if current_target != old_target {
                    v.push(ConstraintViolation::StaleValue {
                        what: format!("target of `{ty}::{path}`"),
                        expected: old_target.clone(),
                        found: current_target.to_string(),
                    });
                    return;
                }
                self.check_semantic_stability(old_target, new_target, v);
                if dest != other.owner {
                    self.check_move_target_free(other.owner, dest, &other.path, false, v);
                }
            }
            ModifyRelationshipCardinality {
                ty,
                path,
                old,
                new: _,
            } => {
                let Some(id) = self.require(ty, v) else {
                    return;
                };
                let Some((rid, e)) = self.g.find_rel_end(id, path) else {
                    v.push(ConstraintViolation::UnknownMember {
                        ty: ty.clone(),
                        member: path.clone(),
                        what: "relationship",
                    });
                    return;
                };
                let current = self.g.rel(rid).end(e).cardinality;
                if &current != old {
                    v.push(ConstraintViolation::StaleValue {
                        what: format!("cardinality of `{ty}::{path}`"),
                        expected: old.to_string(),
                        found: current.to_string(),
                    });
                }
            }
            ModifyRelationshipOrderBy { ty, path, old, new } => {
                let Some(id) = self.require(ty, v) else {
                    return;
                };
                let Some((rid, e)) = self.g.find_rel_end(id, path) else {
                    v.push(ConstraintViolation::UnknownMember {
                        ty: ty.clone(),
                        member: path.clone(),
                        what: "relationship",
                    });
                    return;
                };
                let rel = self.g.rel(rid);
                if &rel.end(e).order_by != old {
                    v.push(ConstraintViolation::StaleValue {
                        what: format!("order-by of `{ty}::{path}`"),
                        expected: old.join(", "),
                        found: join_syms(&rel.end(e).order_by),
                    });
                }
                self.check_attrs_visible(rel.other(e).owner, new, v);
            }
            AddOperation {
                ty,
                return_type,
                name,
                args,
                raises: _,
            } => {
                let Some(id) = self.require(ty, v) else {
                    return;
                };
                self.check_member_free(id, name, true, v);
                self.check_domain_types(return_type, v);
                for p in args {
                    self.check_domain_types(&p.ty, v);
                }
            }
            DeleteOperation { ty, name } => {
                let Some(id) = self.require(ty, v) else {
                    return;
                };
                if self.g.find_op(id, name).is_none() {
                    v.push(ConstraintViolation::UnknownMember {
                        ty: ty.clone(),
                        member: name.clone(),
                        what: "operation",
                    });
                }
            }
            ModifyOperation { ty, name, new_ty } => {
                let Some(id) = self.require(ty, v) else {
                    return;
                };
                let Some(dest) = self.require(new_ty, v) else {
                    return;
                };
                if self.g.find_op(id, name).is_none() {
                    v.push(ConstraintViolation::UnknownMember {
                        ty: ty.clone(),
                        member: name.clone(),
                        what: "operation",
                    });
                    return;
                }
                self.check_semantic_stability(ty, new_ty, v);
                if dest != id {
                    self.check_move_target_free(id, dest, name, true, v);
                }
            }
            ModifyOperationReturnType { ty, name, old, new } => {
                let Some(oid) = self.find_op(ty, name, v) else {
                    return;
                };
                let op_node = self.g.op(oid);
                if &op_node.op.return_type != old {
                    v.push(ConstraintViolation::StaleValue {
                        what: format!("return type of `{ty}::{name}`"),
                        expected: old.to_string(),
                        found: op_node.op.return_type.to_string(),
                    });
                }
                self.check_domain_types(new, v);
            }
            ModifyOperationArgList { ty, name, old, new } => {
                let Some(oid) = self.find_op(ty, name, v) else {
                    return;
                };
                if &self.g.op(oid).op.args != old {
                    v.push(ConstraintViolation::StaleValue {
                        what: format!("argument list of `{ty}::{name}`"),
                        expected: format!("{} arguments", old.len()),
                        found: format!("{} arguments", self.g.op(oid).op.args.len()),
                    });
                }
                for p in new {
                    self.check_domain_types(&p.ty, v);
                }
            }
            ModifyOperationExceptionsRaised {
                ty,
                name,
                old,
                new: _,
            } => {
                let Some(oid) = self.find_op(ty, name, v) else {
                    return;
                };
                if &self.g.op(oid).op.raises != old {
                    v.push(ConstraintViolation::StaleValue {
                        what: format!("exceptions of `{ty}::{name}`"),
                        expected: old.join(", "),
                        found: self.g.op(oid).op.raises.join(", "),
                    });
                }
            }
            AddPartOfRelationship {
                ty,
                collection,
                target,
                path,
                inverse_path,
                order_by,
            } => {
                self.check_add_link(
                    HierKind::PartOf,
                    ty,
                    collection.is_some(),
                    target,
                    path,
                    inverse_path,
                    order_by,
                    v,
                );
            }
            DeletePartOfRelationship { ty, path } => {
                self.check_link_exists(HierKind::PartOf, ty, path, v);
            }
            ModifyPartOfTargetType {
                ty,
                path,
                old_target,
                new_target,
            } => {
                self.check_modify_link_target(
                    HierKind::PartOf,
                    ty,
                    path,
                    old_target,
                    new_target,
                    v,
                );
            }
            ModifyPartOfCardinality {
                ty,
                path,
                old,
                new: _,
            } => {
                self.check_modify_link_collection(HierKind::PartOf, ty, path, *old, v);
            }
            ModifyPartOfOrderBy { ty, path, old, new } => {
                self.check_modify_link_order_by(HierKind::PartOf, ty, path, old, new, v);
            }
            AddInstanceOfRelationship {
                ty,
                collection,
                target,
                path,
                inverse_path,
                order_by,
            } => {
                self.check_add_link(
                    HierKind::InstanceOf,
                    ty,
                    collection.is_some(),
                    target,
                    path,
                    inverse_path,
                    order_by,
                    v,
                );
            }
            DeleteInstanceOfRelationship { ty, path } => {
                self.check_link_exists(HierKind::InstanceOf, ty, path, v);
            }
            ModifyInstanceOfTargetType {
                ty,
                path,
                old_target,
                new_target,
            } => {
                self.check_modify_link_target(
                    HierKind::InstanceOf,
                    ty,
                    path,
                    old_target,
                    new_target,
                    v,
                );
            }
            ModifyInstanceOfCardinality {
                ty,
                path,
                old,
                new: _,
            } => {
                self.check_modify_link_collection(HierKind::InstanceOf, ty, path, *old, v);
            }
            ModifyInstanceOfOrderBy { ty, path, old, new } => {
                self.check_modify_link_order_by(HierKind::InstanceOf, ty, path, old, new, v);
            }
        }
    }

    /// Moving `name` from `from` to `to`: `to` must not already define the
    /// member; inheritance conflicts are judged with the member's current
    /// location discounted (it vanishes from `from` atomically).
    fn check_move_target_free(
        &self,
        from: TypeId,
        to: TypeId,
        name: &str,
        is_op: bool,
        v: &mut Vec<ConstraintViolation>,
    ) {
        if self.g.member_exists(to, name) {
            v.push(ConstraintViolation::MemberExists {
                ty: self.g.type_name(to).to_string(),
                member: name.to_string(),
            });
            return;
        }
        let ancs = self.g.ancestors(to);
        let descs = self.g.descendants(to);
        for &related in ancs.iter().chain(descs.iter()) {
            if related == from {
                continue;
            }
            if let Some(their_op) = member_is_op(self.g, related, name) {
                if !(is_op && their_op) {
                    v.push(ConstraintViolation::InheritedConflict {
                        ty: self.g.type_name(to).to_string(),
                        member: name.to_string(),
                        other: self.g.type_name(related).to_string(),
                    });
                    return;
                }
            }
        }
    }

    /// Inheritance conflicts introduced by a new supertype edge `sub ISA
    /// sup`: any non-operation member visible in `sub`'s subtree colliding
    /// with a member visible on `sup`.
    fn check_inheritance_conflicts(
        &self,
        sub: TypeId,
        sup: TypeId,
        v: &mut Vec<ConstraintViolation>,
    ) {
        let sup_members = self.g.visible_members(sup);
        let mut subtree = vec![sub];
        subtree.extend(self.g.descendants(sub).iter().copied());
        for t in subtree {
            for (name, _) in own_members(self.g, t) {
                if let Some((_, def)) = sup_members.iter().find(|(n, _)| *n == name) {
                    let mine_op = member_is_op(self.g, t, name.as_str()).unwrap_or(false);
                    let theirs_op = member_is_op(self.g, *def, name.as_str()).unwrap_or(false);
                    if !(mine_op && theirs_op) {
                        v.push(ConstraintViolation::InheritedConflict {
                            ty: self.g.type_name(t).to_string(),
                            member: name.to_string(),
                            other: self.g.type_name(*def).to_string(),
                        });
                    }
                }
            }
        }
    }

    fn find_op(
        &self,
        ty: &str,
        name: &str,
        v: &mut Vec<ConstraintViolation>,
    ) -> Option<sws_model::OpId> {
        let id = self.require(ty, v)?;
        match self.g.find_op(id, name) {
            Some(o) => Some(o),
            None => {
                v.push(ConstraintViolation::UnknownMember {
                    ty: ty.to_string(),
                    member: name.to_string(),
                    what: "operation",
                });
                None
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn check_add_link(
        &self,
        kind: HierKind,
        ty: &str,
        is_parent_form: bool,
        target: &str,
        path: &str,
        inverse_path: &str,
        order_by: &[String],
        v: &mut Vec<ConstraintViolation>,
    ) {
        let a = self.require(ty, v);
        let b = self.require(target, v);
        let (Some(a), Some(b)) = (a, b) else { return };
        if a == b {
            v.push(ConstraintViolation::SelfLink { ty: ty.to_string() });
            return;
        }
        let (parent, child) = if is_parent_form { (a, b) } else { (b, a) };
        // Cycle: the new child must not already be an ancestor of the parent.
        if hier_is_ancestor(self.g, kind, child, parent) {
            v.push(ConstraintViolation::HierarchyCycle {
                kind,
                parent: self.g.type_name(parent).to_string(),
                child: self.g.type_name(child).to_string(),
            });
        }
        self.check_member_free(a, path, false, v);
        self.check_member_free(b, inverse_path, false, v);
        if !order_by.is_empty() {
            if is_parent_form {
                self.check_attrs_visible(child, order_by, v);
            } else {
                v.push(ConstraintViolation::OrderByOnChildEnd {
                    ty: ty.to_string(),
                    path: path.to_string(),
                });
            }
        }
    }

    fn check_link_exists(
        &self,
        kind: HierKind,
        ty: &str,
        path: &str,
        v: &mut Vec<ConstraintViolation>,
    ) -> Option<(sws_model::LinkId, sws_model::graph::LinkSide)> {
        let id = self.require(ty, v)?;
        match self.g.find_link(kind, id, path) {
            Some(found) => Some(found),
            None => {
                v.push(ConstraintViolation::UnknownMember {
                    ty: ty.to_string(),
                    member: path.to_string(),
                    what: kind.noun(),
                });
                None
            }
        }
    }

    fn check_modify_link_target(
        &self,
        kind: HierKind,
        ty: &str,
        path: &str,
        old_target: &str,
        new_target: &str,
        v: &mut Vec<ConstraintViolation>,
    ) {
        let Some((lid, side)) = self.check_link_exists(kind, ty, path, v) else {
            return;
        };
        let Some(dest) = self.require(new_target, v) else {
            return;
        };
        let link = self.g.link(lid);
        use sws_model::graph::LinkSide;
        let (current_target, target_path, this_side_type) = match side {
            LinkSide::Parent => (link.child, &link.child_path, link.parent),
            LinkSide::Child => (link.parent, &link.parent_path, link.child),
        };
        let current_name = self.g.type_name(current_target);
        if current_name != old_target {
            v.push(ConstraintViolation::StaleValue {
                what: format!("target of `{ty}::{path}`"),
                expected: old_target.to_string(),
                found: current_name.to_string(),
            });
            return;
        }
        self.check_semantic_stability(old_target, new_target, v);
        if dest == this_side_type {
            v.push(ConstraintViolation::SelfLink {
                ty: new_target.to_string(),
            });
            return;
        }
        if dest != current_target {
            if self.g.member_exists(dest, target_path) {
                v.push(ConstraintViolation::MemberExists {
                    ty: new_target.to_string(),
                    member: target_path.to_string(),
                });
            }
            // Cycle check for the would-be edge.
            let (p, c) = match side {
                LinkSide::Parent => (this_side_type, dest),
                LinkSide::Child => (dest, this_side_type),
            };
            if hier_is_ancestor_excluding(self.g, kind, lid, c, p) {
                v.push(ConstraintViolation::HierarchyCycle {
                    kind,
                    parent: self.g.type_name(p).to_string(),
                    child: self.g.type_name(c).to_string(),
                });
            }
        }
    }

    fn check_modify_link_collection(
        &self,
        kind: HierKind,
        ty: &str,
        path: &str,
        old: sws_odl::CollectionKind,
        v: &mut Vec<ConstraintViolation>,
    ) {
        let Some((lid, side)) = self.check_link_exists(kind, ty, path, v) else {
            return;
        };
        if side != sws_model::graph::LinkSide::Parent {
            v.push(ConstraintViolation::NotParentEnd {
                ty: ty.to_string(),
                path: path.to_string(),
            });
            return;
        }
        let link = self.g.link(lid);
        if link.collection != old {
            v.push(ConstraintViolation::StaleValue {
                what: format!("cardinality of `{ty}::{path}`"),
                expected: old.to_string(),
                found: link.collection.to_string(),
            });
        }
    }

    fn check_modify_link_order_by(
        &self,
        kind: HierKind,
        ty: &str,
        path: &str,
        old: &[String],
        new: &[String],
        v: &mut Vec<ConstraintViolation>,
    ) {
        let Some((lid, side)) = self.check_link_exists(kind, ty, path, v) else {
            return;
        };
        if side != sws_model::graph::LinkSide::Parent {
            v.push(ConstraintViolation::NotParentEnd {
                ty: ty.to_string(),
                path: path.to_string(),
            });
            return;
        }
        let link = self.g.link(lid);
        if link.order_by != old {
            v.push(ConstraintViolation::StaleValue {
                what: format!("order-by of `{ty}::{path}`"),
                expected: old.join(", "),
                found: join_syms(&link.order_by),
            });
        }
        self.check_attrs_visible(link.child, new, v);
    }
}

/// Does `t` define a member named `name`? Returns `Some(is_operation)`.
fn member_is_op<V: SchemaView + ?Sized>(g: &V, t: TypeId, name: &str) -> Option<bool> {
    if g.find_op(t, name).is_some() {
        return Some(true);
    }
    if g.find_attr(t, name).is_some()
        || g.find_rel_end(t, name).is_some()
        || g.find_link(HierKind::PartOf, t, name).is_some()
        || g.find_link(HierKind::InstanceOf, t, name).is_some()
    {
        return Some(false);
    }
    None
}

/// The member names `t` itself defines, with an is-operation flag.
fn own_members<V: SchemaView + ?Sized>(g: &V, t: TypeId) -> Vec<(Symbol, bool)> {
    let node = g.ty(t);
    let mut out = Vec::new();
    for &a in &node.attrs {
        out.push((g.attr(a).name, false));
    }
    for &(r, e) in &node.rel_ends {
        out.push((g.rel(r).end(e).path, false));
    }
    for &l in &node.parent_links {
        out.push((g.link(l).parent_path, false));
    }
    for &l in &node.child_links {
        out.push((g.link(l).child_path, false));
    }
    for &o in &node.ops {
        out.push((g.op(o).name, true));
    }
    out
}

/// Is `above` an ancestor of (or equal to) `start` in the `kind` hierarchy?
fn hier_is_ancestor<V: SchemaView + ?Sized>(
    g: &V,
    kind: HierKind,
    above: TypeId,
    start: TypeId,
) -> bool {
    if above == start {
        return true;
    }
    let mut stack = vec![start];
    let mut seen = std::collections::BTreeSet::new();
    while let Some(t) = stack.pop() {
        if !seen.insert(t) {
            continue;
        }
        for (_, p) in g.hier_parents(kind, t) {
            if p == above {
                return true;
            }
            stack.push(p);
        }
    }
    false
}

/// As [`hier_is_ancestor`], ignoring one link.
fn hier_is_ancestor_excluding<V: SchemaView + ?Sized>(
    g: &V,
    kind: HierKind,
    skip: sws_model::LinkId,
    above: TypeId,
    start: TypeId,
) -> bool {
    if above == start {
        return true;
    }
    let mut stack = vec![start];
    let mut seen = std::collections::BTreeSet::new();
    while let Some(t) = stack.pop() {
        if !seen.insert(t) {
            continue;
        }
        for (l, p) in g.hier_parents(kind, t) {
            if l == skip {
                continue;
            }
            if p == above {
                return true;
            }
            stack.push(p);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_model::schema_to_graph;
    use sws_odl::parse_schema;

    fn graph(src: &str) -> SchemaGraph {
        schema_to_graph(&parse_schema(src).unwrap()).unwrap()
    }

    const DEPT: &str = r#"
    schema Dept {
        interface Person { attribute string name; }
        interface Student : Person { }
        interface Employee : Person {
            attribute long badge;
            relationship Department works_in_a inverse Department::has;
        }
        interface Department {
            extent departments;
            attribute string name;
            relationship set<Employee> has inverse Employee::works_in_a;
        }
    }"#;

    fn check(op: &ModOp, src: &str) -> Vec<ConstraintViolation> {
        let g = graph(src);
        check_preconditions(op, &g, &g)
    }

    #[test]
    fn add_type_checks_name() {
        assert!(check(
            &ModOp::AddTypeDefinition {
                ty: "Course".into()
            },
            DEPT
        )
        .is_empty());
        let v = check(
            &ModOp::AddTypeDefinition {
                ty: "Person".into(),
            },
            DEPT,
        );
        assert_eq!(v, vec![ConstraintViolation::TypeExists("Person".into())]);
    }

    #[test]
    fn semantic_stability_enforced() {
        // Employee -> Person is a legal move (up the hierarchy).
        let ok = check(
            &ModOp::ModifyRelationshipTargetType {
                ty: "Department".into(),
                path: "has".into(),
                old_target: "Employee".into(),
                new_target: "Person".into(),
            },
            DEPT,
        );
        assert!(ok.is_empty(), "{ok:?}");
        // Employee -> Department is not on a generalization path.
        let bad = check(
            &ModOp::ModifyRelationshipTargetType {
                ty: "Department".into(),
                path: "has".into(),
                old_target: "Employee".into(),
                new_target: "Department".into(),
            },
            DEPT,
        );
        assert!(bad
            .iter()
            .any(|v| matches!(v, ConstraintViolation::SemanticStability { .. })));
    }

    #[test]
    fn stale_old_target_detected() {
        let v = check(
            &ModOp::ModifyRelationshipTargetType {
                ty: "Department".into(),
                path: "has".into(),
                old_target: "Student".into(),
                new_target: "Person".into(),
            },
            DEPT,
        );
        assert!(v
            .iter()
            .any(|v| matches!(v, ConstraintViolation::StaleValue { .. })));
    }

    #[test]
    fn attribute_move_constraints() {
        // badge moves up from Employee to Person: fine.
        let v = check(
            &ModOp::ModifyAttribute {
                ty: "Employee".into(),
                name: "badge".into(),
                new_ty: "Person".into(),
            },
            DEPT,
        );
        assert!(v.is_empty(), "{v:?}");
        // Moving badge to Department violates semantic stability.
        let v = check(
            &ModOp::ModifyAttribute {
                ty: "Employee".into(),
                name: "badge".into(),
                new_ty: "Department".into(),
            },
            DEPT,
        );
        assert!(v
            .iter()
            .any(|v| matches!(v, ConstraintViolation::SemanticStability { .. })));
        // Moving `name` down from Person to Student is on a path, but
        // `name` moving onto Student... Person also has `name` — wait, it
        // is the same attribute moving, so the own-definition check applies
        // to Student, which has no `name`: fine.
        let v = check(
            &ModOp::ModifyAttribute {
                ty: "Person".into(),
                name: "name".into(),
                new_ty: "Student".into(),
            },
            DEPT,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn add_attribute_inherited_conflict() {
        // `name` exists on Person; adding it to Student shadows it.
        let v = check(
            &ModOp::AddAttribute {
                ty: "Student".into(),
                domain: DomainType::String,
                size: None,
                name: "name".into(),
            },
            DEPT,
        );
        assert!(v
            .iter()
            .any(|v| matches!(v, ConstraintViolation::InheritedConflict { .. })));
        // And adding to Person a member defined in a descendant conflicts too.
        let v = check(
            &ModOp::AddAttribute {
                ty: "Person".into(),
                domain: DomainType::Long,
                size: None,
                name: "badge".into(),
            },
            DEPT,
        );
        assert!(v
            .iter()
            .any(|v| matches!(v, ConstraintViolation::InheritedConflict { .. })));
    }

    #[test]
    fn add_attribute_unknown_domain() {
        let v = check(
            &ModOp::AddAttribute {
                ty: "Person".into(),
                domain: DomainType::set_of(DomainType::named("Ghost")),
                size: None,
                name: "ghosts".into(),
            },
            DEPT,
        );
        assert!(v
            .iter()
            .any(|v| matches!(v, ConstraintViolation::UnknownDomainType { .. })));
    }

    #[test]
    fn size_constraints() {
        let v = check(
            &ModOp::AddAttribute {
                ty: "Person".into(),
                domain: DomainType::Long,
                size: Some(4),
                name: "age".into(),
            },
            DEPT,
        );
        assert!(v
            .iter()
            .any(|v| matches!(v, ConstraintViolation::SizeNotAllowed { .. })));
    }

    #[test]
    fn extent_constraints() {
        let v = check(
            &ModOp::AddExtentName {
                ty: "Person".into(),
                extent: "departments".into(),
            },
            DEPT,
        );
        assert!(v
            .iter()
            .any(|v| matches!(v, ConstraintViolation::ExtentInUse(_))));
        let v = check(
            &ModOp::AddExtentName {
                ty: "Department".into(),
                extent: "depts2".into(),
            },
            DEPT,
        );
        assert!(v
            .iter()
            .any(|v| matches!(v, ConstraintViolation::ExtentAlreadySet { .. })));
        let v = check(
            &ModOp::DeleteExtentName {
                ty: "Person".into(),
                extent: "x".into(),
            },
            DEPT,
        );
        assert!(v
            .iter()
            .any(|v| matches!(v, ConstraintViolation::NoExtent { .. })));
    }

    #[test]
    fn supertype_constraints() {
        let v = check(
            &ModOp::AddSupertype {
                ty: "Person".into(),
                supertype: "Employee".into(),
            },
            DEPT,
        );
        assert!(v
            .iter()
            .any(|v| matches!(v, ConstraintViolation::GeneralizationCycle { .. })));
        let v = check(
            &ModOp::DeleteSupertype {
                ty: "Person".into(),
                supertype: "Employee".into(),
            },
            DEPT,
        );
        assert!(v
            .iter()
            .any(|v| matches!(v, ConstraintViolation::NoSupertypeEdge { .. })));
    }

    #[test]
    fn add_supertype_inheritance_conflict() {
        // Department defines `name`; Person subtree also defines `name` —
        // making Person a subtype of Department would shadow it.
        let v = check(
            &ModOp::AddSupertype {
                ty: "Person".into(),
                supertype: "Department".into(),
            },
            DEPT,
        );
        assert!(v
            .iter()
            .any(|v| matches!(v, ConstraintViolation::InheritedConflict { .. })));
    }

    #[test]
    fn key_constraints() {
        let v = check(
            &ModOp::AddKeyList {
                ty: "Person".into(),
                keys: vec![Key::single("ghost")],
            },
            DEPT,
        );
        assert!(v
            .iter()
            .any(|v| matches!(v, ConstraintViolation::AttributeNotVisible { .. })));
        let ok = check(
            &ModOp::AddKeyList {
                ty: "Student".into(),
                keys: vec![Key::single("name")],
            },
            DEPT,
        );
        // Inherited attribute keys are fine.
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn link_constraints() {
        const HOUSE: &str = r#"
        interface House { part_of set<Roof> roofs inverse Roof::house; }
        interface Roof { part_of House house inverse House::roofs; }
        interface Shingle { }"#;
        // Cycle.
        let v = check(
            &ModOp::AddPartOfRelationship {
                ty: "Roof".into(),
                collection: Some(sws_odl::CollectionKind::Set),
                target: "House".into(),
                path: "houses".into(),
                inverse_path: "roof_of".into(),
                order_by: vec![],
            },
            HOUSE,
        );
        assert!(v
            .iter()
            .any(|v| matches!(v, ConstraintViolation::HierarchyCycle { .. })));
        // Self link.
        let v = check(
            &ModOp::AddPartOfRelationship {
                ty: "House".into(),
                collection: Some(sws_odl::CollectionKind::Set),
                target: "House".into(),
                path: "sub_houses".into(),
                inverse_path: "parent_house".into(),
                order_by: vec![],
            },
            HOUSE,
        );
        assert!(v
            .iter()
            .any(|v| matches!(v, ConstraintViolation::SelfLink { .. })));
        // Order-by on child end.
        let v = check(
            &ModOp::AddPartOfRelationship {
                ty: "Shingle".into(),
                collection: None,
                target: "Roof".into(),
                path: "roof".into(),
                inverse_path: "shingles".into(),
                order_by: vec!["x".into()],
            },
            HOUSE,
        );
        assert!(v
            .iter()
            .any(|v| matches!(v, ConstraintViolation::OrderByOnChildEnd { .. })));
        // Cardinality modification on the child end.
        let v = check(
            &ModOp::ModifyPartOfCardinality {
                ty: "Roof".into(),
                path: "house".into(),
                old: sws_odl::CollectionKind::Set,
                new: sws_odl::CollectionKind::List,
            },
            HOUSE,
        );
        assert!(v
            .iter()
            .any(|v| matches!(v, ConstraintViolation::NotParentEnd { .. })));
        // Valid cardinality modification on the parent end.
        let ok = check(
            &ModOp::ModifyPartOfCardinality {
                ty: "House".into(),
                path: "roofs".into(),
                old: sws_odl::CollectionKind::Set,
                new: sws_odl::CollectionKind::List,
            },
            HOUSE,
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn every_violation_is_categorized() {
        // One representative per variant; the match in `category()` is
        // exhaustive, so this mostly documents the classification.
        use ConstraintCategory as C;
        let cases: Vec<(ConstraintViolation, C)> = vec![
            (ConstraintViolation::TypeExists("A".into()), C::Uniqueness),
            (ConstraintViolation::UnknownType("A".into()), C::Existence),
            (
                ConstraintViolation::StaleValue {
                    what: "x".into(),
                    expected: "a".into(),
                    found: "b".into(),
                },
                C::Currency,
            ),
            (
                ConstraintViolation::SemanticStability {
                    from: "A".into(),
                    to: "B".into(),
                },
                C::SemanticStability,
            ),
            (
                ConstraintViolation::GeneralizationCycle {
                    sub: "A".into(),
                    sup: "B".into(),
                },
                C::Structural,
            ),
            (
                ConstraintViolation::UnknownDomainType {
                    referenced: "G".into(),
                },
                C::Referential,
            ),
        ];
        for (violation, expected) in cases {
            assert_eq!(violation.category(), expected, "{violation}");
            assert!(!violation.category().to_string().is_empty());
        }
    }

    #[test]
    fn violations_display() {
        let g = graph(DEPT);
        let v = check_preconditions(
            &ModOp::DeleteAttribute {
                ty: "Person".into(),
                name: "ghost".into(),
            },
            &g,
            &g,
        );
        assert_eq!(v.len(), 1);
        assert!(v[0].to_string().contains("no attribute named `ghost`"));
    }

    #[test]
    fn modify_supertype_stale_detection() {
        let v = check(
            &ModOp::ModifySupertype {
                ty: "Employee".into(),
                old: vec!["Department".into()],
                new: vec!["Person".into()],
            },
            DEPT,
        );
        assert!(v
            .iter()
            .any(|v| matches!(v, ConstraintViolation::StaleValue { .. })));
        let ok = check(
            &ModOp::ModifySupertype {
                ty: "Employee".into(),
                old: vec!["Person".into()],
                new: vec![],
            },
            DEPT,
        );
        assert!(ok.is_empty(), "{ok:?}");
    }
}
