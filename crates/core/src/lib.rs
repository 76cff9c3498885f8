//! The paper's primary contribution: shrink-wrap-schema reuse through
//! concept schemas and restricted schema-modification operations.
//!
//! A **shrink wrap schema** is a well-crafted, complete, global schema for an
//! application area. This crate implements the machinery the paper builds on
//! top of one:
//!
//! * [`concept`] — the four **concept schema types** (wagon wheel,
//!   generalization hierarchy, aggregation hierarchy, instance-of hierarchy)
//!   and the algorithmic decomposition of a schema into them (§3.3),
//! * [`ops`] — the complete set of **schema modification operations** from
//!   Appendix A, the per-concept-schema **permission matrix** (Table 1), the
//!   ODL-candidate **coverage tables** (Tables 2–3), and op-script synthesis
//!   from a schema diff (the §3.5 completeness construction),
//! * [`oplang`] — the textual **modification language** (Appendix A BNF):
//!   parser and printer,
//! * [`constraints`] — per-operation preconditions, including the paper's
//!   *semantic stability* rule (moves only within the generalization
//!   hierarchy established by the shrink wrap schema),
//! * [`workspace`] — the design workspace: the integrated, customized user
//!   schema, the history window, and the apply pipeline
//!   (permission → constraints → mutation → propagation → feedback),
//! * [`impact`] and [`feedback`] — impact reports and cautionary feedback
//!   (activities 9–11),
//! * [`consistency`] — consistency checks over the customized schema,
//!   rechecked after each operation for just the types it touched,
//! * [`mapping`] — the semantic correspondence between shrink wrap and
//!   custom schema (activity 10),
//! * [`odl_blocks`] — the custom schema's ODL, re-printed per touched
//!   interface instead of whole and published as shared blocks.
#![forbid(unsafe_code)]

pub mod advice;
pub mod aliases;
pub mod concept;
pub mod consistency;
pub mod constraints;
pub mod explain;
pub mod feedback;
pub mod impact;
pub mod interop;
pub mod mapping;
pub mod odl_blocks;
pub mod oplang;
pub mod ops;
pub mod report;
pub mod workspace;

pub use advice::{advise, Suggestion};
pub use aliases::{AliasError, AliasTable};
pub use concept::{concept_count, decompose, ConceptKind, ConceptSchema, Decomposition};
pub use consistency::{
    check_consistency, ConsistencyReport, ConsistencyState, CrossIssue, Severity,
};
pub use constraints::{check_preconditions, ConstraintCategory, ConstraintViolation};
pub use explain::explain;
pub use feedback::Feedback;
pub use impact::{ImpactEntry, ImpactReport};
pub use interop::{common_objects, CommonObject, InteropSummary};
pub use mapping::{Construct, Disposition, MapEntry, Mapping, MoveTable};
pub use odl_blocks::{OdlBlocks, OdlSnapshot};
pub use oplang::{parse_script, parse_statement, print_op};
pub use ops::{ModOp, OpError, OpKind};
pub use report::DesignReport;
pub use workspace::{AppliedOp, Workspace};
