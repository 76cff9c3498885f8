//! Structural diff between two schema graphs.
//!
//! The diff is computed over canonical ASTs ([`crate::graph_to_schema`]) and
//! keyed by names, in keeping with the paper's *name equivalence* assumption:
//! same name ⇒ same construct, different name ⇒ different construct.
//!
//! It is the structural-equality oracle: an empty diff means two graphs
//! hold the same schema. The workspace's `reset` asserts it against the
//! shrink wrap in tests, and the crash, salvage, adjacency and incremental
//! consistency suites compare graphs with it. (Script synthesis in
//! `sws-core` keeps its own comparison.)

use crate::graph::SchemaGraph;
use crate::lower::graph_to_schema;
use sws_odl::{Attribute, HierKind, HierLink, Interface, Key, Operation, Relationship, Schema};

/// One change within a type present in both schemas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemberChange {
    /// `is_abstract` differs; `now` is the new value.
    AbstractChanged { now: bool },
    /// The extent name differs.
    ExtentChanged {
        old: Option<String>,
        new: Option<String>,
    },
    /// A key only in the new schema.
    KeyAdded(Key),
    /// A key only in the old schema.
    KeyRemoved(Key),
    /// A supertype edge only in the new schema.
    SupertypeAdded(String),
    /// A supertype edge only in the old schema.
    SupertypeRemoved(String),
    /// An attribute only in the new schema.
    AttrAdded(Attribute),
    /// An attribute only in the old schema.
    AttrRemoved(String),
    /// Same-named attribute with different type/size.
    AttrChanged { old: Attribute, new: Attribute },
    /// A relationship end (this side) only in the new schema.
    RelAdded(Relationship),
    /// A relationship end only in the old schema.
    RelRemoved(String),
    /// Same-pathed relationship end differing in target/cardinality/order-by.
    RelChanged {
        old: Relationship,
        new: Relationship,
    },
    /// An operation only in the new schema.
    OpAdded(Operation),
    /// An operation only in the old schema.
    OpRemoved(String),
    /// Same-named operation with a different signature.
    OpChanged { old: Operation, new: Operation },
    /// A hierarchy link end only in the new schema.
    LinkAdded(HierKind, HierLink),
    /// A hierarchy link end only in the old schema.
    LinkRemoved(HierKind, String),
    /// Same-pathed link end differing in target/cardinality/order-by.
    LinkChanged {
        kind: HierKind,
        old: HierLink,
        new: HierLink,
    },
}

/// Changes to one type present in both schemas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeDiff {
    /// The type's name.
    pub name: String,
    /// Every member-level change.
    pub changes: Vec<MemberChange>,
}

/// A full schema diff.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchemaDiff {
    /// Types only in the new schema.
    pub added_types: Vec<String>,
    /// Types only in the old schema.
    pub removed_types: Vec<String>,
    /// Per-type changes for types in both.
    pub type_diffs: Vec<TypeDiff>,
}

impl SchemaDiff {
    /// True if the schemas are identical.
    pub fn is_empty(&self) -> bool {
        self.added_types.is_empty() && self.removed_types.is_empty() && self.type_diffs.is_empty()
    }

    /// Total number of changes (types counted once each, member changes
    /// counted individually).
    pub fn change_count(&self) -> usize {
        self.added_types.len()
            + self.removed_types.len()
            + self
                .type_diffs
                .iter()
                .map(|t| t.changes.len())
                .sum::<usize>()
    }
}

/// Diff two graphs (old → new).
pub fn diff_graphs(old: &SchemaGraph, new: &SchemaGraph) -> SchemaDiff {
    diff_schemas(&graph_to_schema(old), &graph_to_schema(new))
}

/// Diff two canonical ASTs (old → new).
pub fn diff_schemas(old: &Schema, new: &Schema) -> SchemaDiff {
    let mut sp = sws_trace::span!(
        "model.diff",
        old_types = old.interfaces.len(),
        new_types = new.interfaces.len(),
    );
    let mut diff = SchemaDiff::default();
    for iface in &new.interfaces {
        if old.interface(&iface.name).is_none() {
            diff.added_types.push(iface.name.clone());
        }
    }
    for iface in &old.interfaces {
        match new.interface(&iface.name) {
            None => diff.removed_types.push(iface.name.clone()),
            Some(new_iface) => {
                let changes = diff_interfaces(iface, new_iface);
                if !changes.is_empty() {
                    diff.type_diffs.push(TypeDiff {
                        name: iface.name.clone(),
                        changes,
                    });
                }
            }
        }
    }
    sp.record("changes", diff.change_count());
    diff
}

fn diff_interfaces(old: &Interface, new: &Interface) -> Vec<MemberChange> {
    let mut out = Vec::new();
    if old.is_abstract != new.is_abstract {
        out.push(MemberChange::AbstractChanged {
            now: new.is_abstract,
        });
    }
    if old.extent != new.extent {
        out.push(MemberChange::ExtentChanged {
            old: old.extent.clone(),
            new: new.extent.clone(),
        });
    }
    for key in &new.keys {
        if !old.keys.contains(key) {
            out.push(MemberChange::KeyAdded(key.clone()));
        }
    }
    for key in &old.keys {
        if !new.keys.contains(key) {
            out.push(MemberChange::KeyRemoved(key.clone()));
        }
    }
    for st in &new.supertypes {
        if !old.supertypes.contains(st) {
            out.push(MemberChange::SupertypeAdded(st.clone()));
        }
    }
    for st in &old.supertypes {
        if !new.supertypes.contains(st) {
            out.push(MemberChange::SupertypeRemoved(st.clone()));
        }
    }
    for attr in &new.attributes {
        match old.attribute(&attr.name) {
            None => out.push(MemberChange::AttrAdded(attr.clone())),
            Some(old_attr) if old_attr != attr => out.push(MemberChange::AttrChanged {
                old: old_attr.clone(),
                new: attr.clone(),
            }),
            _ => {}
        }
    }
    for attr in &old.attributes {
        if new.attribute(&attr.name).is_none() {
            out.push(MemberChange::AttrRemoved(attr.name.clone()));
        }
    }
    for rel in &new.relationships {
        match old.relationship(&rel.path) {
            None => out.push(MemberChange::RelAdded(rel.clone())),
            Some(old_rel) if old_rel != rel => out.push(MemberChange::RelChanged {
                old: old_rel.clone(),
                new: rel.clone(),
            }),
            _ => {}
        }
    }
    for rel in &old.relationships {
        if new.relationship(&rel.path).is_none() {
            out.push(MemberChange::RelRemoved(rel.path.clone()));
        }
    }
    for op in &new.operations {
        match old.operation(&op.name) {
            None => out.push(MemberChange::OpAdded(op.clone())),
            Some(old_op) if old_op != op => out.push(MemberChange::OpChanged {
                old: old_op.clone(),
                new: op.clone(),
            }),
            _ => {}
        }
    }
    for op in &old.operations {
        if new.operation(&op.name).is_none() {
            out.push(MemberChange::OpRemoved(op.name.clone()));
        }
    }
    diff_links(HierKind::PartOf, &old.part_ofs, &new.part_ofs, &mut out);
    diff_links(
        HierKind::InstanceOf,
        &old.instance_ofs,
        &new.instance_ofs,
        &mut out,
    );
    out
}

fn diff_links(kind: HierKind, old: &[HierLink], new: &[HierLink], out: &mut Vec<MemberChange>) {
    for link in new {
        match old.iter().find(|l| l.path == link.path) {
            None => out.push(MemberChange::LinkAdded(kind, link.clone())),
            Some(old_link) if old_link != link => out.push(MemberChange::LinkChanged {
                kind,
                old: old_link.clone(),
                new: link.clone(),
            }),
            _ => {}
        }
    }
    for link in old {
        if !new.iter().any(|l| l.path == link.path) {
            out.push(MemberChange::LinkRemoved(kind, link.path.clone()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::schema_to_graph;
    use sws_odl::parse_schema;

    fn graph(src: &str) -> SchemaGraph {
        schema_to_graph(&parse_schema(src).unwrap()).unwrap()
    }

    #[test]
    fn identical_schemas_empty_diff() {
        let src = "interface A { attribute long x; } interface B : A { }";
        let d = diff_graphs(&graph(src), &graph(src));
        assert!(d.is_empty());
        assert_eq!(d.change_count(), 0);
    }

    #[test]
    fn added_and_removed_types() {
        let d = diff_graphs(&graph("interface A { }"), &graph("interface B { }"));
        assert_eq!(d.added_types, vec!["B"]);
        assert_eq!(d.removed_types, vec!["A"]);
        assert_eq!(d.change_count(), 2);
    }

    #[test]
    fn attribute_changes() {
        let old = graph("interface A { attribute long x; attribute long gone; }");
        let new = graph("interface A { attribute string x; attribute long fresh; }");
        let d = diff_graphs(&old, &new);
        let changes = &d.type_diffs[0].changes;
        assert!(changes
            .iter()
            .any(|c| matches!(c, MemberChange::AttrChanged { .. })));
        assert!(changes
            .iter()
            .any(|c| matches!(c, MemberChange::AttrAdded(a) if a.name == "fresh")));
        assert!(changes
            .iter()
            .any(|c| matches!(c, MemberChange::AttrRemoved(n) if n == "gone")));
    }

    #[test]
    fn supertype_and_extent_changes() {
        let old = graph("interface A { extent as_; } interface B { } interface C : B { }");
        let new = graph("interface A { } interface B { } interface C : A { }");
        let d = diff_graphs(&old, &new);
        let a_diff = d.type_diffs.iter().find(|t| t.name == "A").unwrap();
        assert!(a_diff
            .changes
            .iter()
            .any(|c| matches!(c, MemberChange::ExtentChanged { .. })));
        let c_diff = d.type_diffs.iter().find(|t| t.name == "C").unwrap();
        assert!(c_diff
            .changes
            .iter()
            .any(|c| matches!(c, MemberChange::SupertypeAdded(s) if s == "A")));
        assert!(c_diff
            .changes
            .iter()
            .any(|c| matches!(c, MemberChange::SupertypeRemoved(s) if s == "B")));
    }

    #[test]
    fn relationship_changes_show_on_both_ends() {
        let old = graph(
            "interface A { relationship B r inverse B::x; } \
             interface B { relationship A x inverse A::r; }",
        );
        let new = graph("interface A { } interface B { }");
        let d = diff_graphs(&old, &new);
        assert_eq!(d.type_diffs.len(), 2);
        for td in &d.type_diffs {
            assert!(td
                .changes
                .iter()
                .any(|c| matches!(c, MemberChange::RelRemoved(_))));
        }
    }

    #[test]
    fn link_changes() {
        let old = graph(
            "interface W { part_of set<P> ps inverse P::w; } \
             interface P { part_of W w inverse W::ps; }",
        );
        let new = graph(
            "interface W { part_of list<P> ps inverse P::w; } \
             interface P { part_of W w inverse W::ps; }",
        );
        let d = diff_graphs(&old, &new);
        let w_diff = d.type_diffs.iter().find(|t| t.name == "W").unwrap();
        assert!(w_diff.changes.iter().any(|c| matches!(
            c,
            MemberChange::LinkChanged {
                kind: HierKind::PartOf,
                ..
            }
        )));
    }

    #[test]
    fn operation_signature_change() {
        let old = graph("interface A { void f(); }");
        let new = graph("interface A { long f(); }");
        let d = diff_graphs(&old, &new);
        assert!(d.type_diffs[0]
            .changes
            .iter()
            .any(|c| matches!(c, MemberChange::OpChanged { .. })));
    }
}
