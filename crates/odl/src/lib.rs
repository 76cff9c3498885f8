//! Extended ODMG ODL: the data-definition substrate of the shrink-wrap-schema
//! system.
//!
//! The paper (Delcambre & Langston, 1995) formally defines concept schemas and
//! their modification operations over the ODMG-93 Object Definition Language,
//! *extended* with two relationship kinds absent from the standard Object
//! Model:
//!
//! * the **part-of** (aggregation) relationship, with an implicit 1:N
//!   cardinality between a whole and its components, and
//! * the **instance-of** relationship, with an implicit 1:N cardinality
//!   between a generic specification entity and its instances.
//!
//! This crate provides:
//!
//! * [`ast`] — the abstract syntax tree for extended-ODL schemas,
//! * [`types`] — the domain-type language (primitives, named types, and the
//!   `set`/`list`/`bag`/`array` constructors the paper lists as a future-work
//!   extension),
//! * [`lexer`] and [`parser`] — a hand-written lexer and recursive-descent
//!   parser for the concrete syntax documented in [`parser`],
//! * [`printer`] — a canonical pretty-printer whose output round-trips
//!   through the parser.
//!
//! This crate checks syntax only. The paper's standing assumptions (unique
//! names, reciprocal inverses, the implicit 1:N cardinality of part-of and
//! instance-of) are checked where a schema enters the model: `sws-model`'s
//! lowering rejects structural errors, and the consistency report flags
//! the rest (see `docs/odl.md`).
//!
//! # Example
//!
//! ```
//! use sws_odl::{parse_schema, printer::print_schema};
//!
//! let src = r#"
//! interface Department {
//!     extent departments;
//!     attribute string(64) name;
//!     relationship set<Employee> has inverse Employee::works_in_a;
//! }
//! interface Employee {
//!     relationship Department works_in_a inverse Department::has;
//! }
//! "#;
//! let schema = parse_schema(src).unwrap();
//! assert_eq!(schema.interfaces.len(), 2);
//! let printed = print_schema(&schema);
//! assert_eq!(sws_odl::parse_schema(&printed).unwrap(), schema);
//! ```
#![forbid(unsafe_code)]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod types;

pub use ast::{
    Attribute, Cardinality, HierKind, HierLink, Interface, Key, Operation, Param, ParamDir,
    Relationship, Schema,
};
pub use error::{OdlError, OdlErrorKind, Span, MAX_TYPE_NESTING};
pub use parser::{parse_interface, parse_schema};
pub use printer::{assemble_schema, print_interface, print_interface_block, print_schema};
pub use types::{CollectionKind, DomainType};
