//! Impact reports: "all of the changes that follow from a given change"
//! (paper activity 9).
//!
//! An [`ImpactReport`] is the designer-facing rendering of the propagation
//! a modification triggered — built from the graph's
//! [`sws_model::CascadeReport`] plus any notes from the apply layer.

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
}
