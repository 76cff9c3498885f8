//! Abstract syntax for extended-ODL schemas.
//!
//! The shape of these types mirrors the *candidates for modification*
//! enumerated in Tables 2 and 3 of the paper: an interface definition carries
//! type properties (supertypes, extent name, key list) and instance
//! properties (attributes, relationships, operations), plus the two extended
//! relationship kinds (part-of and instance-of).

use crate::types::{CollectionKind, DomainType};
use std::fmt;

/// A complete extended-ODL schema: a named collection of interface
/// definitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// Schema (module) name.
    pub name: String,
    /// The interface definitions, in source order.
    pub interfaces: Vec<Interface>,
}

impl Schema {
    /// Create an empty schema with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Schema {
            name: name.into(),
            interfaces: Vec::new(),
        }
    }

    /// Find an interface by name.
    pub fn interface(&self, name: &str) -> Option<&Interface> {
        self.interfaces.iter().find(|i| i.name == name)
    }

    /// Total number of constructs (interfaces, attributes, relationships,
    /// operations, part-of links, instance-of links, supertype links). Used
    /// by the case-study reuse metrics.
    pub fn construct_count(&self) -> usize {
        self.interfaces
            .iter()
            .map(|i| {
                1 + i.supertypes.len()
                    + i.attributes.len()
                    + i.relationships.len()
                    + i.operations.len()
                    + i.part_ofs.len()
                    + i.instance_ofs.len()
            })
            .sum()
    }
}

/// One interface (object type) definition.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Interface {
    /// The type name (unique across the schema, per the paper's uniqueness
    /// assumption).
    pub name: String,
    /// `true` for abstract supertypes (e.g. the single root synthesized when
    /// normalizing a multi-root generalization hierarchy, §3.2).
    pub is_abstract: bool,
    /// Names of direct supertypes (the ISA type property).
    pub supertypes: Vec<String>,
    /// Extent name, if declared.
    pub extent: Option<String>,
    /// Key list: each key is one or more attribute names (compound keys).
    pub keys: Vec<Key>,
    /// Attribute instance properties.
    pub attributes: Vec<Attribute>,
    /// Ordinary (association) relationships.
    pub relationships: Vec<Relationship>,
    /// Operation signatures.
    pub operations: Vec<Operation>,
    /// Part-of (aggregation) links in which this type participates, stated
    /// from this type's side.
    pub part_ofs: Vec<HierLink>,
    /// Instance-of links in which this type participates, stated from this
    /// type's side.
    pub instance_ofs: Vec<HierLink>,
}

impl Interface {
    /// Create an empty interface with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Interface {
            name: name.into(),
            ..Interface::default()
        }
    }

    /// Find an attribute by name.
    pub fn attribute(&self, name: &str) -> Option<&Attribute> {
        self.attributes.iter().find(|a| a.name == name)
    }

    /// Find a relationship by traversal path name.
    pub fn relationship(&self, path: &str) -> Option<&Relationship> {
        self.relationships.iter().find(|r| r.path == path)
    }

    /// Find an operation by name.
    pub fn operation(&self, name: &str) -> Option<&Operation> {
        self.operations.iter().find(|o| o.name == name)
    }

    /// Find a part-of link by traversal path name.
    pub fn part_of(&self, path: &str) -> Option<&HierLink> {
        self.part_ofs.iter().find(|h| h.path == path)
    }

    /// Find an instance-of link by traversal path name.
    pub fn instance_of(&self, path: &str) -> Option<&HierLink> {
        self.instance_ofs.iter().find(|h| h.path == path)
    }

    /// The names of every member: attributes, relationship paths,
    /// operations, then part-of and instance-of paths. Lowering refuses a
    /// schema in which two of them coincide.
    pub fn member_names(&self) -> impl Iterator<Item = &str> {
        self.attributes
            .iter()
            .map(|a| a.name.as_str())
            .chain(self.relationships.iter().map(|r| r.path.as_str()))
            .chain(self.operations.iter().map(|o| o.name.as_str()))
            .chain(self.part_ofs.iter().map(|h| h.path.as_str()))
            .chain(self.instance_ofs.iter().map(|h| h.path.as_str()))
    }
}

/// A key: one or more attribute names. Single-attribute keys print without
/// parentheses; compound keys print as `(a, b)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Key(pub Vec<String>);

impl Key {
    /// A single-attribute key.
    pub fn single(attr: impl Into<String>) -> Self {
        Key(vec![attr.into()])
    }

    /// A compound key over the given attributes.
    pub fn compound<I: IntoIterator<Item = S>, S: Into<String>>(attrs: I) -> Self {
        Key(attrs.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.len() == 1 {
            f.write_str(&self.0[0])
        } else {
            write!(f, "({})", self.0.join(", "))
        }
    }
}

/// An attribute: `attribute <type>[(size)] <name>;`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name.
    pub name: String,
    /// Domain type.
    pub ty: DomainType,
    /// Optional size constraint (meaningful for `string`/`char`). The paper
    /// treats size as an independently modifiable ODL candidate
    /// (`modify_attribute_size`).
    pub size: Option<u32>,
}

impl Attribute {
    /// Construct an attribute with no size constraint.
    pub fn new(name: impl Into<String>, ty: DomainType) -> Self {
        Attribute {
            name: name.into(),
            ty,
            size: None,
        }
    }

    /// Construct a sized attribute (e.g. `string(32)`).
    pub fn sized(name: impl Into<String>, ty: DomainType, size: u32) -> Self {
        Attribute {
            name: name.into(),
            ty,
            size: Some(size),
        }
    }
}

/// The one-way cardinality of a relationship end: either a single target or
/// a collection of targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cardinality {
    /// At most one target object.
    One,
    /// Many target objects held in the given collection kind.
    Many(CollectionKind),
}

impl Cardinality {
    /// True for the `Many` variant.
    pub fn is_many(self) -> bool {
        matches!(self, Cardinality::Many(_))
    }
}

impl fmt::Display for Cardinality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cardinality::One => f.write_str("one"),
            Cardinality::Many(kind) => write!(f, "many({kind})"),
        }
    }
}

/// An (association) relationship stated from one side:
///
/// ```text
/// relationship set<Person> has inverse Person::works_in_a order_by (name);
/// ```
///
/// The paper's ODL candidates for a relationship are: target type, traversal
/// path name, inverse path name, one-way cardinality, and order-by list —
/// each independently modifiable (Table 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relationship {
    /// Traversal path name (this side).
    pub path: String,
    /// Target type name.
    pub target: String,
    /// One-way cardinality of this side.
    pub cardinality: Cardinality,
    /// Inverse traversal path name, declared as `Target::inverse_path`.
    pub inverse_path: String,
    /// Attributes of the target by which a `Many` side is ordered.
    pub order_by: Vec<String>,
}

/// Which hierarchy a [`HierLink`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HierKind {
    /// Part-of (aggregation): whole ↔ components, implicit 1:N.
    PartOf,
    /// Instance-of: generic specification ↔ instances, implicit 1:N.
    InstanceOf,
}

impl HierKind {
    /// The ODL keyword introducing links of this kind.
    pub fn keyword(self) -> &'static str {
        match self {
            HierKind::PartOf => "part_of",
            HierKind::InstanceOf => "instance_of",
        }
    }

    /// Human-readable name used in diagnostics.
    pub fn noun(self) -> &'static str {
        match self {
            HierKind::PartOf => "part-of",
            HierKind::InstanceOf => "instance-of",
        }
    }
}

impl fmt::Display for HierKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.noun())
    }
}

/// One side of a part-of or instance-of link.
///
/// Both kinds have an implicit 1:N cardinality: the *parent* side (the whole,
/// or the generic entity) holds a collection of children; the *child* side
/// (the component, or the instance entity) holds a single parent. Which side
/// a given `HierLink` states is therefore recoverable from its cardinality:
/// `Many` ⇒ parent side, `One` ⇒ child side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierLink {
    /// Traversal path name (this side).
    pub path: String,
    /// Target type name.
    pub target: String,
    /// One-way cardinality of this side (`Many` on the parent side only).
    pub cardinality: Cardinality,
    /// Inverse traversal path name.
    pub inverse_path: String,
    /// Order-by attribute list (only allowed on the `Many` side).
    pub order_by: Vec<String>,
}

impl HierLink {
    /// True if this link is stated from the parent (whole / generic) side.
    pub fn is_parent_side(&self) -> bool {
        self.cardinality.is_many()
    }
}

/// Parameter passing direction for operation arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamDir {
    /// `in`
    In,
    /// `out`
    Out,
    /// `inout`
    InOut,
}

impl ParamDir {
    /// The ODL keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            ParamDir::In => "in",
            ParamDir::Out => "out",
            ParamDir::InOut => "inout",
        }
    }
}

/// One operation parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Passing direction.
    pub direction: ParamDir,
    /// Parameter type.
    pub ty: DomainType,
    /// Parameter name.
    pub name: String,
}

impl Param {
    /// An `in` parameter.
    pub fn input(name: impl Into<String>, ty: DomainType) -> Self {
        Param {
            direction: ParamDir::In,
            ty,
            name: name.into(),
        }
    }
}

/// An operation signature:
///
/// ```text
/// float gpa(in unsigned_long term) raises (NoGrades);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Operation {
    /// Operation name (unique within the interface except when overriding,
    /// per the paper's uniqueness assumption).
    pub name: String,
    /// Return type (`void` when nothing is returned).
    pub return_type: DomainType,
    /// Argument list.
    pub args: Vec<Param>,
    /// Names of exceptions raised.
    pub raises: Vec<String>,
}

impl Operation {
    /// A zero-argument operation.
    pub fn nullary(name: impl Into<String>, return_type: DomainType) -> Self {
        Operation {
            name: name.into(),
            return_type,
            args: Vec::new(),
            raises: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_lookup() {
        let mut s = Schema::new("uni");
        s.interfaces.push(Interface::new("Course"));
        s.interfaces.push(Interface::new("Student"));
        assert!(s.interface("Course").is_some());
        assert!(s.interface("Faculty").is_none());
    }

    #[test]
    fn construct_count_counts_everything() {
        let mut s = Schema::new("t");
        let mut i = Interface::new("A");
        i.supertypes.push("B".into());
        i.attributes.push(Attribute::new("x", DomainType::Long));
        i.operations.push(Operation::nullary("f", DomainType::Void));
        s.interfaces.push(i);
        s.interfaces.push(Interface::new("B"));
        // A(1) + supertype(1) + attr(1) + op(1) + B(1) = 5
        assert_eq!(s.construct_count(), 5);
    }

    #[test]
    fn key_display() {
        assert_eq!(Key::single("id").to_string(), "id");
        assert_eq!(Key::compound(["a", "b"]).to_string(), "(a, b)");
    }

    #[test]
    fn member_names_cover_all_kinds() {
        let mut i = Interface::new("X");
        i.attributes.push(Attribute::new("a", DomainType::Long));
        i.relationships.push(Relationship {
            path: "r".into(),
            target: "Y".into(),
            cardinality: Cardinality::One,
            inverse_path: "x".into(),
            order_by: vec![],
        });
        i.operations.push(Operation::nullary("o", DomainType::Void));
        i.part_ofs.push(HierLink {
            path: "p".into(),
            target: "Z".into(),
            cardinality: Cardinality::Many(CollectionKind::Set),
            inverse_path: "w".into(),
            order_by: vec![],
        });
        i.instance_ofs.push(HierLink {
            path: "i".into(),
            target: "W".into(),
            cardinality: Cardinality::One,
            inverse_path: "insts".into(),
            order_by: vec![],
        });
        let names: Vec<&str> = i.member_names().collect();
        assert_eq!(names, vec!["a", "r", "o", "p", "i"]);
    }

    #[test]
    fn hier_link_side() {
        let parent = HierLink {
            path: "parts".into(),
            target: "Part".into(),
            cardinality: Cardinality::Many(CollectionKind::Set),
            inverse_path: "whole".into(),
            order_by: vec![],
        };
        assert!(parent.is_parent_side());
        let child = HierLink {
            cardinality: Cardinality::One,
            ..parent
        };
        assert!(!child.is_parent_side());
    }
}
