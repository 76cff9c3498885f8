//! Concept schemas: the unit of viewing and modification (paper §3.3).
//!
//! A concept schema is a *subset of an application schema* addressing one
//! point of view. Concretely it is a **view** — sets of element IDs — over
//! the single workspace [`SchemaGraph`]; modifying "a concept schema" means
//! issuing an operation *in the context of* that concept schema, which
//! restricts the permitted operations (Table 1) while all changes land in
//! the one integrated schema.
//!
//! The four concept schema types:
//!
//! * **Wagon wheel** — one focal object type plus every attribute,
//!   operation, relationship, hierarchy link, and generalization edge at
//!   distance one (§3.3.1). At least one exists per object type, and the
//!   union of all wagon wheels is the original schema.
//! * **Generalization hierarchy** — one ISA component, rooted (§3.3.2).
//! * **Aggregation hierarchy** — the part-of explosion below a root whole
//!   (§3.3.3).
//! * **Instance-of hierarchy** — the (typically linear) sequence of
//!   instance-of links below a generic entity (§3.3.4).

mod decompose;

pub use decompose::{concept_count, decompose, normalize_single_root, Decomposition};

use std::collections::BTreeSet;
use std::fmt;
use sws_model::{AttrId, LinkId, OpId, RelId, SchemaGraph, TypeId};

/// The four concept schema types of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConceptKind {
    /// One object type and its distance-one neighbourhood.
    WagonWheel,
    /// A rooted ISA hierarchy.
    Generalization,
    /// A rooted part-of hierarchy.
    Aggregation,
    /// A rooted instance-of hierarchy.
    InstanceOf,
}

impl ConceptKind {
    /// All kinds, in the paper's presentation order.
    pub const ALL: [ConceptKind; 4] = [
        ConceptKind::WagonWheel,
        ConceptKind::Generalization,
        ConceptKind::Aggregation,
        ConceptKind::InstanceOf,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ConceptKind::WagonWheel => "wagon wheel",
            ConceptKind::Generalization => "generalization hierarchy",
            ConceptKind::Aggregation => "aggregation hierarchy",
            ConceptKind::InstanceOf => "instance-of hierarchy",
        }
    }

    /// Machine-readable tag, used by the repository's op-log format.
    pub fn tag(self) -> &'static str {
        match self {
            ConceptKind::WagonWheel => "wagon_wheel",
            ConceptKind::Generalization => "generalization",
            ConceptKind::Aggregation => "aggregation",
            ConceptKind::InstanceOf => "instance_of",
        }
    }

    /// Parse a [`Self::tag`].
    pub fn from_tag(tag: &str) -> Option<ConceptKind> {
        ConceptKind::ALL.iter().copied().find(|k| k.tag() == tag)
    }
}

impl fmt::Display for ConceptKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One concept schema: a typed view over a schema graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConceptSchema {
    /// Which concept schema type this is.
    pub kind: ConceptKind,
    /// The focal point (wagon wheel) or root (hierarchies).
    pub focal: TypeId,
    /// Display name, e.g. `wagon wheel: CourseOffering`.
    pub name: String,
    /// Member object types.
    pub types: BTreeSet<TypeId>,
    /// Member attributes.
    pub attrs: BTreeSet<AttrId>,
    /// Member relationships.
    pub rels: BTreeSet<RelId>,
    /// Member operations.
    pub ops: BTreeSet<OpId>,
    /// Member part-of / instance-of links.
    pub links: BTreeSet<LinkId>,
    /// Member generalization edges, as `(subtype, supertype)`.
    pub gen_edges: BTreeSet<(TypeId, TypeId)>,
}

impl ConceptSchema {
    /// Create an empty concept schema of `kind` focused on `focal`.
    pub fn new(kind: ConceptKind, focal: TypeId, focal_name: &str) -> Self {
        ConceptSchema {
            kind,
            focal,
            name: format!("{}: {}", kind.name(), focal_name),
            types: BTreeSet::from([focal]),
            attrs: BTreeSet::new(),
            rels: BTreeSet::new(),
            ops: BTreeSet::new(),
            links: BTreeSet::new(),
            gen_edges: BTreeSet::new(),
        }
    }

    /// Number of elements of all kinds in this view.
    pub fn element_count(&self) -> usize {
        self.types.len()
            + self.attrs.len()
            + self.rels.len()
            + self.ops.len()
            + self.links.len()
            + self.gen_edges.len()
    }

    /// Render the view for the designer: focal point first, then each spoke
    /// / hierarchy member, using names from `g`.
    pub fn describe(&self, g: &SchemaGraph) -> String {
        let mut out = String::new();
        out.push_str(&self.name);
        out.push('\n');
        for &t in &self.types {
            if let Some(node) = g.try_ty(t) {
                out.push_str("  type ");
                out.push_str(&node.name);
                if t == self.focal {
                    out.push_str(" (focal)");
                }
                out.push('\n');
            }
        }
        for &a in &self.attrs {
            if let Some(attr) = g.try_attr(a) {
                out.push_str(&format!(
                    "  attribute {}::{}\n",
                    g.type_name(attr.owner),
                    attr.name
                ));
            }
        }
        for &r in &self.rels {
            if let Some(rel) = g.try_rel(r) {
                out.push_str(&format!(
                    "  relationship {}::{} <-> {}::{}\n",
                    g.type_name(rel.ends[0].owner),
                    rel.ends[0].path,
                    g.type_name(rel.ends[1].owner),
                    rel.ends[1].path
                ));
            }
        }
        for &o in &self.ops {
            if let Some(op) = g.try_op(o) {
                out.push_str(&format!(
                    "  operation {}::{}\n",
                    g.type_name(op.owner),
                    op.op.name
                ));
            }
        }
        for &l in &self.links {
            if let Some(link) = g.try_link(l) {
                out.push_str(&format!(
                    "  {} {}::{} -> {}::{}\n",
                    link.kind,
                    g.type_name(link.parent),
                    link.parent_path,
                    g.type_name(link.child),
                    link.child_path
                ));
            }
        }
        for &(sub, sup) in &self.gen_edges {
            if g.try_ty(sub).is_some() && g.try_ty(sup).is_some() {
                out.push_str(&format!(
                    "  isa {} : {}\n",
                    g.type_name(sub),
                    g.type_name(sup)
                ));
            }
        }
        out
    }

    /// Drop elements whose referents no longer exist in `g` (after deletions
    /// made from other concept schemas). Returns how many were dropped.
    pub fn prune_dead(&mut self, g: &SchemaGraph) -> usize {
        let before = self.element_count();
        self.types.retain(|&t| g.try_ty(t).is_some());
        self.attrs.retain(|&a| g.try_attr(a).is_some());
        self.rels.retain(|&r| g.try_rel(r).is_some());
        self.ops.retain(|&o| g.try_op(o).is_some());
        self.links.retain(|&l| g.try_link(l).is_some());
        self.gen_edges.retain(|&(sub, sup)| {
            g.try_ty(sub).is_some()
                && g.try_ty(sup).is_some()
                && g.ty(sub).supertypes.contains(&sup)
        });
        before - self.element_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_model::SchemaGraph;
    use sws_odl::DomainType;

    #[test]
    fn kind_names() {
        assert_eq!(ConceptKind::WagonWheel.to_string(), "wagon wheel");
        assert_eq!(ConceptKind::ALL.len(), 4);
    }

    #[test]
    fn describe_and_prune() {
        let mut g = SchemaGraph::new("t");
        let a = g.add_type("A").unwrap();
        let x = g.add_attribute(a, "x", DomainType::Long, None).unwrap();
        let mut cs = ConceptSchema::new(ConceptKind::WagonWheel, a, "A");
        cs.attrs.insert(x);
        assert_eq!(cs.element_count(), 2);
        let text = cs.describe(&g);
        assert!(text.contains("type A (focal)"));
        assert!(text.contains("attribute A::x"));
        g.remove_attribute(x).unwrap();
        assert_eq!(cs.prune_dead(&g), 1);
        assert_eq!(cs.element_count(), 1);
    }
}
