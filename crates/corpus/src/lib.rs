//! Schema corpus: every example schema the paper uses, plus a seeded
//! synthetic generator for scaling experiments.
//!
//! * [`university`] — the university schema behind Figs. 3, 4, 7, and 8
//!   (course offerings, the student generalization hierarchy, the
//!   department/employee relationship).
//! * [`house`] — the lumber-yard house parts explosion of Fig. 5.
//! * [`software`] — the EMSL software-version instance-of sequence of
//!   Fig. 6.
//! * [`genome`] — reconstructions of the ACEDB, SacchDB, and AAtDB physical
//!   mapping schemas of Figs. 9–11 (§4 case study).
//! * [`synthetic`] — a deterministic random-schema generator (seeded by
//!   the in-tree [`rng`] module, no external PRNG dependency).
//!
//! All hand-written schemas are authored in extended ODL and parsed at
//! construction time, so they double as parser fixtures.
#![forbid(unsafe_code)]

pub mod business;
pub mod genome;
pub mod house;
pub mod rng;
pub mod software;
pub mod synthetic;
pub mod university;

use sws_model::{schema_to_graph, SchemaGraph};
use sws_odl::parse_schema;

/// Parse and lower an ODL source that is known to be valid.
pub(crate) fn load(src: &str) -> SchemaGraph {
    let ast = parse_schema(src).unwrap_or_else(|e| panic!("corpus schema parse error: {e}"));
    schema_to_graph(&ast).unwrap_or_else(|e| panic!("corpus schema lowering error: {e}"))
}

/// Every named corpus schema, for sweep-style tests and benches.
pub fn all_named() -> Vec<(&'static str, SchemaGraph)> {
    vec![
        ("university", university::graph()),
        ("house", house::graph()),
        ("software", software::graph()),
        ("business", business::graph()),
        ("acedb", genome::acedb()),
        ("sacchdb", genome::sacchdb()),
        ("aatdb", genome::aatdb()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_corpus_schemas_load_cleanly() {
        for (name, g) in all_named() {
            assert!(g.type_count() > 0, "{name} is empty");
            assert!(
                sws_model::check_well_formed(&g).is_empty(),
                "{name} is not well-formed"
            );
        }
    }
}
