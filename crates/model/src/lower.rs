//! Conversion between `sws_odl::Schema` ASTs and [`SchemaGraph`]s.
//!
//! * [`schema_to_graph`] resolves names, pairs up the two declared sides of
//!   each relationship / hierarchy link, and builds the graph. It is where a
//!   schema's structure is checked: it reports the first structural problem
//!   it meets as a [`LowerError`] — a duplicate type, member, key or extent,
//!   an unresolved name, an unpaired or mismatched inverse, a link that is
//!   not 1:N, a supertype or hierarchy cycle, or a self-reference. What it
//!   accepts and [`crate::wf`] still objects to (key and `order_by`
//!   attributes that are not visible, dangling attribute and operation
//!   domains, members that shadow an inherited one) the consistency report
//!   flags as errors with a repair.
//! * [`graph_to_schema`] produces the **canonical AST**: interfaces and
//!   members sorted by name. Two graphs describe the same schema iff their
//!   canonical ASTs are equal — the repository persists this form.

use crate::error::ModelError;
use crate::graph::SchemaGraph;
use crate::ids::TypeId;
use std::collections::HashMap;
use std::fmt;
use sws_odl::{Attribute, Cardinality, HierKind, HierLink, Interface, Relationship, Schema};

/// Why lowering an AST to a graph failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// A supertype or target name did not resolve.
    UnknownType { interface: String, name: String },
    /// A relationship/link side had no matching declaration on its target.
    Unpaired { interface: String, path: String },
    /// The two sides of a relationship disagree about each other.
    MismatchedInverse { interface: String, path: String },
    /// A part-of / instance-of pair is not 1:N.
    BadLinkCardinality {
        kind: HierKind,
        interface: String,
        path: String,
    },
    /// The graph refused a mutation (duplicate names etc.).
    Model(ModelError),
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::UnknownType { interface, name } => {
                write!(f, "`{interface}` references unknown type `{name}`")
            }
            LowerError::Unpaired { interface, path } => {
                write!(
                    f,
                    "`{interface}::{path}` has no matching inverse declaration"
                )
            }
            LowerError::MismatchedInverse { interface, path } => {
                write!(f, "`{interface}::{path}` and its inverse disagree")
            }
            LowerError::BadLinkCardinality {
                kind,
                interface,
                path,
            } => {
                write!(f, "{kind} link `{interface}::{path}` is not 1:N")
            }
            LowerError::Model(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LowerError {}

impl From<ModelError> for LowerError {
    fn from(e: ModelError) -> Self {
        LowerError::Model(e)
    }
}

/// Build a [`SchemaGraph`] from an AST.
pub fn schema_to_graph(schema: &Schema) -> Result<SchemaGraph, LowerError> {
    let mut g = SchemaGraph::new(&schema.name);

    // Pass 1: types.
    for iface in &schema.interfaces {
        let id = g.add_type(&iface.name)?;
        g.set_abstract(id, iface.is_abstract)?;
    }

    // Pass 2: type properties and single-owner members.
    for iface in &schema.interfaces {
        let id = g.require_type(&iface.name)?;
        if let Some(extent) = &iface.extent {
            g.set_extent(id, Some(extent.clone()))?;
        }
        for key in &iface.keys {
            g.add_key(id, key.clone())?;
        }
        for attr in &iface.attributes {
            g.add_attribute(id, &attr.name, attr.ty.clone(), attr.size)?;
        }
        for op in &iface.operations {
            g.add_operation(id, op.clone())?;
        }
    }

    // Pass 3: supertypes.
    for iface in &schema.interfaces {
        let id = g.require_type(&iface.name).expect("added in pass 1");
        for sup in &iface.supertypes {
            let sup_id = g.type_id(sup).ok_or_else(|| LowerError::UnknownType {
                interface: iface.name.clone(),
                name: sup.clone(),
            })?;
            g.add_supertype(id, sup_id)?;
        }
    }

    // Pass 1 refused duplicate names, so each name has one interface.
    let by_name: HashMap<&str, &Interface> = schema
        .interfaces
        .iter()
        .map(|iface| (iface.name.as_str(), iface))
        .collect();

    // Pass 4: relationships, pairing the two declared sides.
    for iface in &schema.interfaces {
        for rel in &iface.relationships {
            let back = pair_relationship(&by_name, iface, rel)?;
            // Lower once per pair: when this side is the canonical first.
            if !is_first_side(&iface.name, &rel.path, &rel.target, &rel.inverse_path) {
                continue;
            }
            let a = g.require_type(&iface.name)?;
            let b = g.require_type(&rel.target)?;
            g.add_relationship(
                a,
                &rel.path,
                rel.cardinality,
                rel.order_by.clone(),
                b,
                &back.path,
                back.cardinality,
                back.order_by.clone(),
            )?;
        }
    }

    // Pass 5: hierarchy links.
    for iface in &schema.interfaces {
        for (kind, links) in [
            (HierKind::PartOf, &iface.part_ofs),
            (HierKind::InstanceOf, &iface.instance_ofs),
        ] {
            for link in links {
                let back = pair_link(&by_name, kind, iface, link)?;
                if !is_first_side(&iface.name, &link.path, &link.target, &link.inverse_path) {
                    continue;
                }
                // Exactly one side must be collection-valued (the parent).
                let (parent_iface, parent_link, child_iface, child_link) =
                    match (link.cardinality, back.cardinality) {
                        (Cardinality::Many(_), Cardinality::One) => {
                            (&iface.name, link, &link.target, back)
                        }
                        (Cardinality::One, Cardinality::Many(_)) => {
                            (&link.target, back, &iface.name, link)
                        }
                        _ => {
                            return Err(LowerError::BadLinkCardinality {
                                kind,
                                interface: iface.name.clone(),
                                path: link.path.clone(),
                            })
                        }
                    };
                let collection = match parent_link.cardinality {
                    Cardinality::Many(k) => k,
                    Cardinality::One => unreachable!(),
                };
                let p = g.require_type(parent_iface)?;
                let c = g.require_type(child_iface)?;
                g.add_link(
                    kind,
                    p,
                    &parent_link.path,
                    collection,
                    parent_link.order_by.clone(),
                    c,
                    &child_link.path,
                )?;
            }
        }
    }

    Ok(g)
}

/// Determine which of the two declared sides lowers the pair, breaking ties
/// deterministically (self-relationships tie-break on path).
fn is_first_side(my_type: &str, my_path: &str, other_type: &str, other_path: &str) -> bool {
    (my_type, my_path) <= (other_type, other_path)
}

/// `rel`'s declared inverse on its target.
fn pair_relationship<'a>(
    by_name: &HashMap<&str, &'a Interface>,
    iface: &Interface,
    rel: &Relationship,
) -> Result<&'a Relationship, LowerError> {
    let target = by_name
        .get(rel.target.as_str())
        .ok_or_else(|| LowerError::UnknownType {
            interface: iface.name.clone(),
            name: rel.target.clone(),
        })?;
    let back = target
        .relationship(&rel.inverse_path)
        .ok_or_else(|| LowerError::Unpaired {
            interface: iface.name.clone(),
            path: rel.path.clone(),
        })?;
    if back.target != iface.name || back.inverse_path != rel.path {
        return Err(LowerError::MismatchedInverse {
            interface: iface.name.clone(),
            path: rel.path.clone(),
        });
    }
    Ok(back)
}

/// `link`'s declared inverse on its target.
fn pair_link<'a>(
    by_name: &HashMap<&str, &'a Interface>,
    kind: HierKind,
    iface: &Interface,
    link: &HierLink,
) -> Result<&'a HierLink, LowerError> {
    let target = by_name
        .get(link.target.as_str())
        .ok_or_else(|| LowerError::UnknownType {
            interface: iface.name.clone(),
            name: link.target.clone(),
        })?;
    let back = match kind {
        HierKind::PartOf => target.part_of(&link.inverse_path),
        HierKind::InstanceOf => target.instance_of(&link.inverse_path),
    };
    let back = back.ok_or_else(|| LowerError::Unpaired {
        interface: iface.name.clone(),
        path: link.path.clone(),
    })?;
    if back.target != iface.name || back.inverse_path != link.path {
        return Err(LowerError::MismatchedInverse {
            interface: iface.name.clone(),
            path: link.path.clone(),
        });
    }
    Ok(back)
}

/// Produce the canonical AST for a graph (see module docs): one
/// [`type_to_interface`] per live type, in name order.
pub fn graph_to_schema(g: &SchemaGraph) -> Schema {
    let mut schema = Schema::new(g.name());
    let mut interfaces: Vec<Interface> = Vec::with_capacity(g.type_count());
    interfaces.extend(g.types().map(|(id, _)| type_to_interface(g, id)));
    interfaces.sort_by(|a, b| a.name.cmp(&b.name));
    schema.interfaces = interfaces;
    schema
}

/// The canonical interface definition of live type `id`: members sorted
/// by name, keys by rendering, supertypes by name. It reads only `id`'s
/// own node, the members it owns, and the names of the types those
/// members point at — so it changes only when an op touches `id` or one
/// of its members (see `UndoPatch::touched_types`).
pub fn type_to_interface(g: &SchemaGraph, id: TypeId) -> Interface {
    let node = g.ty(id);
    let mut iface = Interface::new(node.name.to_string());
    iface.is_abstract = node.is_abstract;
    iface.extent = node.extent.map(|e| e.to_string());
    iface.keys = node.keys.iter().map(|k| k.to_key()).collect();
    iface.keys.sort_by_key(|k| k.to_string());
    iface.supertypes = node
        .supertypes
        .iter()
        .map(|&s| g.type_name(s).to_string())
        .collect();
    iface.supertypes.sort();

    iface.attributes = node
        .attrs
        .iter()
        .map(|&a| {
            let attr = g.attr(a);
            Attribute {
                name: attr.name.to_string(),
                ty: attr.ty.clone(),
                size: attr.size,
            }
        })
        .collect();
    iface.attributes.sort_by(|a, b| a.name.cmp(&b.name));

    iface.operations = node.ops.iter().map(|&o| (*g.op(o).op).clone()).collect();
    iface.operations.sort_by(|a, b| a.name.cmp(&b.name));

    iface.relationships = node
        .rel_ends
        .iter()
        .map(|&(r, e)| {
            let rel = g.rel(r);
            let mine = rel.end(e);
            let other = rel.other(e);
            Relationship {
                path: mine.path.to_string(),
                target: g.type_name(other.owner).to_string(),
                cardinality: mine.cardinality,
                inverse_path: other.path.to_string(),
                order_by: mine.order_by.iter().map(|s| s.to_string()).collect(),
            }
        })
        .collect();
    iface.relationships.sort_by(|a, b| a.path.cmp(&b.path));

    let hier = |kind: HierKind| -> Vec<HierLink> {
        let mut out = Vec::new();
        for &l in &node.parent_links {
            let link = g.link(l);
            if link.kind != kind {
                continue;
            }
            out.push(HierLink {
                path: link.parent_path.to_string(),
                target: g.type_name(link.child).to_string(),
                cardinality: Cardinality::Many(link.collection),
                inverse_path: link.child_path.to_string(),
                order_by: link.order_by.iter().map(|s| s.to_string()).collect(),
            });
        }
        for &l in &node.child_links {
            let link = g.link(l);
            if link.kind != kind {
                continue;
            }
            out.push(HierLink {
                path: link.child_path.to_string(),
                target: g.type_name(link.parent).to_string(),
                cardinality: Cardinality::One,
                inverse_path: link.parent_path.to_string(),
                order_by: Vec::new(),
            });
        }
        out.sort_by(|a, b| a.path.cmp(&b.path));
        out
    };
    iface.part_ofs = hier(HierKind::PartOf);
    iface.instance_ofs = hier(HierKind::InstanceOf);
    iface
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_odl::parse_schema;

    const UNI: &str = r#"
    schema Uni {
        interface Person {
            extent people;
            attribute string(32) name;
            keys name;
        }
        interface Employee : Person {
            relationship Department works_in_a inverse Department::has;
        }
        interface Department {
            attribute string name;
            relationship set<Employee> has inverse Employee::works_in_a order_by (name);
            part_of set<Office> offices inverse Office::department;
        }
        interface Office {
            attribute long number;
            part_of Department department inverse Department::offices;
        }
        interface Application {
            instance_of set<Version> versions inverse Version::application;
        }
        interface Version {
            instance_of Application application inverse Application::versions;
        }
    }"#;

    #[test]
    fn lower_and_raise_round_trip() {
        let ast = parse_schema(UNI).unwrap();
        let g = schema_to_graph(&ast).unwrap();
        assert_eq!(g.type_count(), 6);
        let canonical = graph_to_schema(&g);
        // Lower the canonical form again: must be a fixed point.
        let g2 = schema_to_graph(&canonical).unwrap();
        assert_eq!(graph_to_schema(&g2), canonical);
    }

    #[test]
    fn relationship_paired_once() {
        let ast = parse_schema(UNI).unwrap();
        let g = schema_to_graph(&ast).unwrap();
        assert_eq!(g.rels().count(), 1);
        assert_eq!(g.links().count(), 2);
        let dept = g.type_id("Department").unwrap();
        let (rid, e) = g.find_rel_end(dept, "has").unwrap();
        assert_eq!(g.rel(rid).end(e).order_by, vec!["name".to_string()]);
    }

    #[test]
    fn unpaired_relationship_rejected() {
        let src = r#"
        interface A { relationship B r inverse B::x; }
        interface B { }"#;
        let ast = parse_schema(src).unwrap();
        assert!(matches!(
            schema_to_graph(&ast),
            Err(LowerError::Unpaired { .. })
        ));
    }

    #[test]
    fn mismatched_inverse_rejected() {
        let src = r#"
        interface A { relationship B r inverse B::x; relationship B r2 inverse B::x; }
        interface B { relationship A x inverse A::r; }"#;
        let ast = parse_schema(src).unwrap();
        assert!(matches!(
            schema_to_graph(&ast),
            Err(LowerError::MismatchedInverse { .. })
        ));
    }

    #[test]
    fn non_1n_link_rejected() {
        let src = r#"
        interface A { part_of set<B> bs inverse B::as_; }
        interface B { part_of set<A> as_ inverse A::bs; }"#;
        let ast = parse_schema(src).unwrap();
        assert!(matches!(
            schema_to_graph(&ast),
            Err(LowerError::BadLinkCardinality { .. })
        ));
    }

    #[test]
    fn unknown_supertype_rejected() {
        let ast = parse_schema("interface A : Ghost { }").unwrap();
        assert!(matches!(
            schema_to_graph(&ast),
            Err(LowerError::UnknownType { .. })
        ));
    }

    #[test]
    fn self_relationship_lowers_once() {
        let src = r#"
        interface Person {
            relationship set<Person> mentors inverse Person::mentored_by;
            relationship Person mentored_by inverse Person::mentors;
        }"#;
        let ast = parse_schema(src).unwrap();
        let g = schema_to_graph(&ast).unwrap();
        assert_eq!(g.rels().count(), 1);
        let canonical = graph_to_schema(&g);
        let g2 = schema_to_graph(&canonical).unwrap();
        assert_eq!(graph_to_schema(&g2), canonical);
    }

    #[test]
    fn canonical_form_is_sorted() {
        let ast = parse_schema(UNI).unwrap();
        let g = schema_to_graph(&ast).unwrap();
        let canonical = graph_to_schema(&g);
        let names: Vec<&str> = canonical
            .interfaces
            .iter()
            .map(|i| i.name.as_str())
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn instance_of_child_side_has_one_cardinality() {
        let ast = parse_schema(UNI).unwrap();
        let g = schema_to_graph(&ast).unwrap();
        let canonical = graph_to_schema(&g);
        let version = canonical.interface("Version").unwrap();
        assert_eq!(version.instance_ofs[0].cardinality, Cardinality::One);
        let app = canonical.interface("Application").unwrap();
        assert!(app.instance_ofs[0].cardinality.is_many());
    }
}
