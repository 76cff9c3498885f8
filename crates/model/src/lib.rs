//! Arena/ID-based schema graph: the in-memory representation the designer
//! manipulates.
//!
//! A [`SchemaGraph`] holds interfaces, attributes, relationships, operations,
//! and the extended hierarchy links (part-of, instance-of) in typed arenas
//! addressed by small integer IDs. Concept schemas (in `sws-core`) are views
//! — sets of IDs — over one graph, so the "integrated, customized user
//! schema" the paper maintains is simply the graph itself.
//!
//! Modules:
//!
//! * [`ids`] — newtype IDs,
//! * `arena` — [`ChunkedVec`], the copy-on-write chunked storage behind
//!   the graph's arenas (and the core crate's published ODL blocks), and
//!   [`SharedList`], the copy-on-write list that keeps a node's member
//!   lists out of a chunk copy,
//! * [`graph`] — the graph, its accessors and invariant-preserving mutators
//!   (with cascade reporting for the propagation rules),
//! * [`lower`] — lossless conversion between `sws_odl::Schema` ASTs and
//!   graphs,
//! * [`query`] — generalization/aggregation/instance-of hierarchy queries
//!   (ancestors, descendants, visible members, roots, components): the
//!   one traversal backend the precondition checker and every caller use,
//! * [`index`] — [`ClosureScratch`], the allocation-free copy of those
//!   walks for the consistency recheck, pinned to [`query`] by tests,
//! * [`intern`] — interned names ([`Symbol`]),
//! * [`wf`] — graph-level well-formedness checking,
//! * [`diff`] — structural diff between two graphs,
//! * [`error`] — mutation error type.
#![forbid(unsafe_code)]

mod arena;
pub mod diff;
pub mod error;
pub mod graph;
pub mod ids;
pub mod index;
pub mod intern;
pub mod lower;
pub mod query;
pub mod wf;

pub use arena::{ChunkedVec, SharedList, CHUNK};
pub use diff::{diff_graphs, MemberChange, SchemaDiff, TypeDiff};
pub use error::ModelError;
pub use graph::LinkSide;
pub use graph::{
    ArenaStats, AttrNode, CascadeReport, LinkNode, OpNode, RelEnd, RelNode, RemoveTypeMode,
    SchemaGraph, TypeNode, UndoPatch,
};
pub use ids::{AttrId, LinkId, OpId, RelId, TypeId};
pub use index::ClosureScratch;
pub use intern::{SymKey, Symbol};
pub use lower::{graph_to_schema, schema_to_graph, type_to_interface, LowerError};
pub use wf::{check_type_into, check_type_well_formed, check_well_formed, WfIssue, WfScratch};
