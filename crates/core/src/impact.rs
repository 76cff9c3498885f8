//! Impact reports: "all of the changes that follow from a given change"
//! (paper activity 9).
//!
//! An [`ImpactReport`] is the designer-facing rendering of the propagation
//! a modification triggered — built from the graph's
//! [`sws_model::CascadeReport`] plus any notes from the apply layer.

use crate::ops::ModOp;
use std::collections::BTreeSet;
use std::fmt;
use sws_model::{CascadeReport, Symbol};
use sws_odl::HierKind;

/// One propagated change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImpactEntry {
    /// An attribute was removed with its type.
    RemovedAttribute { ty: Symbol, name: Symbol },
    /// An operation was removed with its type.
    RemovedOperation { ty: Symbol, name: Symbol },
    /// A relationship was removed (an endpoint vanished).
    RemovedRelationship {
        ty_a: Symbol,
        path_a: Symbol,
        ty_b: Symbol,
        path_b: Symbol,
    },
    /// A part-of / instance-of link was removed.
    RemovedLink {
        kind: HierKind,
        parent: Symbol,
        path: Symbol,
        child: Symbol,
    },
    /// A supertype edge was removed.
    RemovedSupertypeEdge { sub: Symbol, sup: Symbol },
    /// A subtype was re-wired to a new supertype.
    RewiredSubtype { sub: Symbol, new_sup: Symbol },
    /// A subtype was left without supertypes.
    DetachedSubtype { sub: Symbol },
    /// A key was pruned because an attribute it used vanished.
    PrunedKey { ty: Symbol, key: String },
    /// An order-by entry was pruned.
    PrunedOrderBy {
        ty: Symbol,
        path: Symbol,
        attribute: Symbol,
    },
    /// A free-form automatic adjustment.
    Note(String),
}

impl fmt::Display for ImpactEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ImpactEntry::*;
        match self {
            RemovedAttribute { ty, name } => write!(f, "removed attribute `{ty}::{name}`"),
            RemovedOperation { ty, name } => write!(f, "removed operation `{ty}::{name}`"),
            RemovedRelationship {
                ty_a,
                path_a,
                ty_b,
                path_b,
            } => write!(
                f,
                "removed relationship `{ty_a}::{path_a}` <-> `{ty_b}::{path_b}`"
            ),
            RemovedLink {
                kind,
                parent,
                path,
                child,
            } => {
                write!(f, "removed {kind} link `{parent}::{path}` -> `{child}`")
            }
            RemovedSupertypeEdge { sub, sup } => {
                write!(f, "removed supertype edge `{sub}` isa `{sup}`")
            }
            RewiredSubtype { sub, new_sup } => {
                write!(f, "re-wired subtype `{sub}` to supertype `{new_sup}`")
            }
            DetachedSubtype { sub } => write!(f, "subtype `{sub}` left without supertypes"),
            PrunedKey { ty, key } => write!(f, "pruned key `{key}` of `{ty}`"),
            PrunedOrderBy {
                ty,
                path,
                attribute,
            } => {
                write!(
                    f,
                    "pruned `{attribute}` from the order-by of `{ty}::{path}`"
                )
            }
            Note(s) => f.write_str(s),
        }
    }
}

/// Every propagated change of one applied operation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ImpactReport {
    /// The entries, in propagation order.
    pub entries: Vec<ImpactEntry>,
}

impl ImpactReport {
    /// Build a report from a cascade plus apply-layer notes.
    pub fn from_cascade(cascade: &CascadeReport, notes: &[String]) -> Self {
        let mut entries = Vec::new();
        for &(ty, name) in &cascade.removed_attrs {
            entries.push(ImpactEntry::RemovedAttribute { ty, name });
        }
        for &(ty, name) in &cascade.removed_ops {
            entries.push(ImpactEntry::RemovedOperation { ty, name });
        }
        for &(ty_a, path_a, ty_b, path_b) in &cascade.removed_rels {
            entries.push(ImpactEntry::RemovedRelationship {
                ty_a,
                path_a,
                ty_b,
                path_b,
            });
        }
        for &(kind, parent, path, child, _) in &cascade.removed_links {
            entries.push(ImpactEntry::RemovedLink {
                kind,
                parent,
                path,
                child,
            });
        }
        for &(sub, sup) in &cascade.removed_supertype_edges {
            entries.push(ImpactEntry::RemovedSupertypeEdge { sub, sup });
        }
        for &(sub, new_sup) in &cascade.rewired_subtypes {
            entries.push(ImpactEntry::RewiredSubtype { sub, new_sup });
        }
        for &sub in &cascade.detached_subtypes {
            entries.push(ImpactEntry::DetachedSubtype { sub });
        }
        for (ty, key) in &cascade.keys_pruned {
            entries.push(ImpactEntry::PrunedKey {
                ty: *ty,
                key: key.clone(),
            });
        }
        for &(ty, path, attribute) in &cascade.order_by_pruned {
            entries.push(ImpactEntry::PrunedOrderBy {
                ty,
                path,
                attribute,
            });
        }
        for note in notes {
            entries.push(ImpactEntry::Note(note.clone()));
        }
        ImpactReport { entries }
    }

    /// True if the operation had no propagated effects.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

/// The type names an applied operation (plus its cascade) may have affected
/// — the *seed* of the incremental consistency recheck.
///
/// `touched` names types whose own definition, edges, or members changed.
/// `existence_changed` names types that were created or deleted; any type
/// referencing such a name in an attribute domain or operation signature may
/// gain or lose a dangling-reference finding, so the consistency engine
/// scans for referents of these names specifically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirtySet {
    /// Names of types whose definition may have changed.
    pub touched: BTreeSet<Symbol>,
    /// Names of types that were added or deleted.
    pub existence_changed: BTreeSet<Symbol>,
}

impl DirtySet {
    /// Derive the seed from an applied operation and its impact report.
    ///
    /// Deliberately conservative: every type name mentioned by the op or by
    /// any impact entry is included. The consistency engine expands this
    /// seed along the hierarchy before rechecking. The same seed serves the
    /// forward apply and [`Workspace::undo_last`]: an inverse image touches
    /// exactly what the op touched.
    ///
    /// [`Workspace::undo_last`]: crate::workspace::Workspace::undo_last
    pub fn from_applied(op: &ModOp, impact: &ImpactReport) -> Self {
        let mut set = DirtySet::default();
        set.add_op(op);
        set.add_impact(impact);
        set
    }

    /// True if nothing was touched.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty() && self.existence_changed.is_empty()
    }

    /// Number of distinct names in the seed (touched plus
    /// existence-changed). The incremental consistency sync reports this
    /// as its dirty-set size when deciding whether to fan out.
    pub fn len(&self) -> usize {
        self.touched.len() + self.existence_changed.len()
    }

    /// Fold another dirty set into this one.
    pub fn merge(&mut self, other: &DirtySet) {
        self.touched.extend(other.touched.iter().copied());
        self.existence_changed
            .extend(other.existence_changed.iter().copied());
    }

    fn touch(&mut self, name: &str) {
        self.touched.insert(Symbol::intern(name));
    }

    fn add_op(&mut self, op: &ModOp) {
        use ModOp::*;
        // Every op names its subject type.
        self.touch(op.subject_type());
        match op {
            AddTypeDefinition { ty } | DeleteTypeDefinition { ty } => {
                self.existence_changed.insert(Symbol::intern(ty));
            }
            AddSupertype { supertype, .. } | DeleteSupertype { supertype, .. } => {
                self.touch(supertype);
            }
            ModifySupertype { old, new, .. } => {
                for s in old.iter().chain(new.iter()) {
                    self.touch(s);
                }
            }
            ModifyAttribute { new_ty, .. } | ModifyOperation { new_ty, .. } => {
                self.touch(new_ty);
            }
            AddRelationship { target, .. }
            | AddPartOfRelationship { target, .. }
            | AddInstanceOfRelationship { target, .. } => {
                self.touch(target);
            }
            ModifyRelationshipTargetType {
                old_target,
                new_target,
                ..
            }
            | ModifyPartOfTargetType {
                old_target,
                new_target,
                ..
            }
            | ModifyInstanceOfTargetType {
                old_target,
                new_target,
                ..
            } => {
                self.touch(old_target);
                self.touch(new_target);
            }
            _ => {}
        }
    }

    fn add_impact(&mut self, impact: &ImpactReport) {
        use ImpactEntry::*;
        for entry in &impact.entries {
            let names = match *entry {
                RemovedAttribute { ty, .. }
                | RemovedOperation { ty, .. }
                | PrunedKey { ty, .. }
                | PrunedOrderBy { ty, .. }
                | DetachedSubtype { sub: ty } => [Some(ty), None],
                RemovedRelationship { ty_a, ty_b, .. } => [Some(ty_a), Some(ty_b)],
                RemovedLink { parent, child, .. } => [Some(parent), Some(child)],
                RemovedSupertypeEdge { sub, sup: other }
                | RewiredSubtype {
                    sub,
                    new_sup: other,
                } => [Some(sub), Some(other)],
                Note(_) => [None, None],
            };
            self.touched.extend(names.into_iter().flatten());
        }
    }
}

impl fmt::Display for ImpactReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for entry in &self.entries {
            writeln!(f, "  - {entry}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_cascade_collects_everything() {
        let cascade = CascadeReport {
            removed_attrs: vec![("B".into(), "x".into())],
            removed_ops: vec![("B".into(), "f".into())],
            removed_rels: vec![("B".into(), "r".into(), "A".into(), "inv".into())],
            removed_links: vec![(
                HierKind::PartOf,
                "B".into(),
                "parts".into(),
                "C".into(),
                "whole".into(),
            )],
            removed_supertype_edges: vec![("B".into(), "A".into())],
            rewired_subtypes: vec![("C".into(), "A".into())],
            detached_subtypes: vec!["D".into()],
            keys_pruned: vec![("B".into(), "x".into())],
            order_by_pruned: vec![("A".into(), "bs".into(), "x".into())],
        };
        let report = ImpactReport::from_cascade(&cascade, &["note".into()]);
        assert_eq!(report.len(), 10);
        let text = report.to_string();
        assert!(text.contains("removed attribute `B::x`"));
        assert!(text.contains("re-wired subtype `C`"));
        assert!(text.contains("note"));
    }

    #[test]
    fn empty_report() {
        let report = ImpactReport::from_cascade(&CascadeReport::default(), &[]);
        assert!(report.is_empty());
        assert_eq!(report.to_string(), "");
    }

    #[test]
    fn dirty_set_collects_op_and_cascade_names() {
        let cascade = CascadeReport {
            removed_rels: vec![("B".into(), "r".into(), "A".into(), "inv".into())],
            rewired_subtypes: vec![("C".into(), "A".into())],
            ..CascadeReport::default()
        };
        let set = DirtySet::from_applied(
            &ModOp::DeleteTypeDefinition { ty: "B".into() },
            &ImpactReport::from_cascade(&cascade, &[]),
        );
        for name in ["A", "B", "C"] {
            assert!(
                set.touched.contains(&Symbol::intern(name)),
                "{name} missing: {set:?}"
            );
        }
        assert!(set.existence_changed.contains(&Symbol::intern("B")));
        assert!(!set.is_empty());

        let mut merged = DirtySet::default();
        merged.merge(&set);
        assert_eq!(merged, set);
    }

    #[test]
    fn dirty_set_covers_move_endpoints() {
        let set = DirtySet::from_applied(
            &ModOp::ModifyRelationshipTargetType {
                ty: "Dept".into(),
                path: "has".into(),
                old_target: "Employee".into(),
                new_target: "Person".into(),
            },
            &ImpactReport::default(),
        );
        for name in ["Dept", "Employee", "Person"] {
            assert!(
                set.touched.contains(&Symbol::intern(name)),
                "{name} missing: {set:?}"
            );
        }
        assert!(set.existence_changed.is_empty());
    }
}
