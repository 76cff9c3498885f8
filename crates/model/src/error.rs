//! Mutation errors raised by [`crate::SchemaGraph`].

use crate::ids::{AttrId, LinkId, OpId, RelId, TypeId};
use crate::intern::Symbol;
use std::fmt;

/// Why a graph mutation was refused. The graph defends its own invariants;
/// richer, designer-facing precondition diagnostics live in
/// `sws-core::constraints`. Live types are named by their interned name,
/// so every error renders as the designer wrote it; only the `Dead*`
/// variants, whose IDs name nothing, carry a slot ID.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A type with this name already exists.
    DuplicateTypeName(String),
    /// No (live) type has this name.
    UnknownTypeName(String),
    /// The ID does not refer to a live type.
    DeadType(TypeId),
    /// The ID does not refer to a live attribute.
    DeadAttr(AttrId),
    /// The ID does not refer to a live relationship.
    DeadRel(RelId),
    /// The ID does not refer to a live operation.
    DeadOp(OpId),
    /// The ID does not refer to a live link.
    DeadLink(LinkId),
    /// The member name is already used in the owning type.
    DuplicateMember { owner: Symbol, member: String },
    /// The extent name is already used by another type.
    DuplicateExtent(String),
    /// The supertype edge already exists.
    DuplicateSupertype { sub: Symbol, sup: Symbol },
    /// The supertype edge does not exist.
    NoSuchSupertype { sub: Symbol, sup: Symbol },
    /// Adding this supertype edge would create a generalization cycle.
    SupertypeCycle { sub: Symbol, sup: Symbol },
    /// Adding this link would create a part-of / instance-of cycle.
    HierarchyCycle { parent: Symbol, child: Symbol },
    /// A type cannot be its own supertype (or link to itself in a hierarchy).
    SelfReference(Symbol),
    /// The key with this definition does not exist on the type.
    NoSuchKey { owner: Symbol, key: String },
    /// The key already exists on the type.
    DuplicateKey { owner: Symbol, key: String },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::DuplicateTypeName(n) => write!(f, "type `{n}` already exists"),
            ModelError::UnknownTypeName(n) => write!(f, "no type named `{n}`"),
            ModelError::DeadType(id) => write!(f, "type {id} does not exist"),
            ModelError::DeadAttr(id) => write!(f, "attribute {id} does not exist"),
            ModelError::DeadRel(id) => write!(f, "relationship {id} does not exist"),
            ModelError::DeadOp(id) => write!(f, "operation {id} does not exist"),
            ModelError::DeadLink(id) => write!(f, "link {id} does not exist"),
            ModelError::DuplicateMember { owner, member } => {
                write!(f, "member `{member}` already exists on `{owner}`")
            }
            ModelError::DuplicateExtent(n) => write!(f, "extent `{n}` already in use"),
            ModelError::DuplicateSupertype { sub, sup } => {
                write!(f, "`{sub}` already has supertype `{sup}`")
            }
            ModelError::NoSuchSupertype { sub, sup } => {
                write!(f, "`{sub}` has no supertype `{sup}`")
            }
            ModelError::SupertypeCycle { sub, sup } => {
                write!(
                    f,
                    "making `{sup}` a supertype of `{sub}` would create a cycle"
                )
            }
            ModelError::HierarchyCycle { parent, child } => {
                write!(
                    f,
                    "linking `{parent}` above `{child}` would create a hierarchy cycle"
                )
            }
            ModelError::SelfReference(ty) => {
                write!(f, "`{ty}` cannot reference itself here")
            }
            ModelError::NoSuchKey { owner, key } => write!(f, "no key `{key}` on `{owner}`"),
            ModelError::DuplicateKey { owner, key } => {
                write!(f, "key `{key}` already exists on `{owner}`")
            }
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let e = ModelError::DuplicateTypeName("Person".into());
        assert_eq!(e.to_string(), "type `Person` already exists");
        let e = ModelError::DuplicateMember {
            owner: Symbol::intern("Person"),
            member: "x".into(),
        };
        assert_eq!(e.to_string(), "member `x` already exists on `Person`");
        let e = ModelError::SupertypeCycle {
            sub: Symbol::intern("A"),
            sup: Symbol::intern("B"),
        };
        assert_eq!(
            e.to_string(),
            "making `B` a supertype of `A` would create a cycle"
        );
        let e = ModelError::DeadType(TypeId(2));
        assert_eq!(e.to_string(), "type t2 does not exist");
    }
}
