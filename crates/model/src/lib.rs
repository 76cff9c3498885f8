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
//! * `arena` — the copy-on-write chunked storage behind the graph's arenas,
//! * [`graph`] — the graph, its accessors and invariant-preserving mutators
//!   (with cascade reporting for the propagation rules),
//! * [`lower`] — lossless conversion between `sws_odl::Schema` ASTs and
//!   graphs,
//! * [`query`] — generalization/aggregation/instance-of hierarchy queries
//!   (ancestors, descendants, roots, paths, components),
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
pub mod view;
pub mod wf;

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
pub use view::SchemaView;
pub use wf::{check_type_into, check_type_well_formed, check_well_formed, WfIssue, WfScratch};
