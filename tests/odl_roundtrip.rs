//! Property tests at the substrate boundary: extended-ODL text ↔ AST ↔
//! schema graph round-trips on randomly generated schemas, and graph
//! well-formedness is preserved by the pipeline.

use shrink_wrap_schemas::model::graph_to_schema;
use shrink_wrap_schemas::odl::{parse_schema, print_schema};

#[cfg(feature = "proptest")]
mod props {
    use super::*;
    use proptest::prelude::*;
    use shrink_wrap_schemas::core::check_consistency;
    use shrink_wrap_schemas::corpus::synthetic::SyntheticSpec;
    use shrink_wrap_schemas::model::{check_well_formed, schema_to_graph};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// graph → AST → text → AST → graph is the identity (on canonical
        /// form).
        #[test]
        fn full_pipeline_round_trip(n in 1usize..30, seed in 0u64..10_000) {
            let g = SyntheticSpec::sized(n, seed).generate();
            let ast = graph_to_schema(&g);
            let text = print_schema(&ast);
            let reparsed = parse_schema(&text)
                .map_err(|e| TestCaseError::fail(format!("{e}")))?;
            prop_assert_eq!(&reparsed, &ast);
            let relowered = schema_to_graph(&reparsed)
                .map_err(|e| TestCaseError::fail(format!("{e}")))?;
            prop_assert_eq!(graph_to_schema(&relowered), ast);
        }

        /// Generated schemas are well-formed, and their canonical AST
        /// lowers with no consistency error.
        #[test]
        fn generated_schemas_validate(n in 1usize..30, seed in 0u64..10_000) {
            let g = SyntheticSpec::sized(n, seed).generate();
            prop_assert!(check_well_formed(&g).is_empty());
            let relowered = schema_to_graph(&graph_to_schema(&g))
                .map_err(|e| TestCaseError::fail(format!("{e}")))?;
            let report = check_consistency(&relowered, &relowered);
            prop_assert!(report.errors().next().is_none(), "{}", report.render());
        }

        /// Printing is deterministic and canonical: print(parse(print(x))) ==
        /// print(x).
        #[test]
        fn printing_is_canonical(n in 1usize..20, seed in 0u64..10_000) {
            let g = SyntheticSpec::sized(n, seed).generate();
            let text = print_schema(&graph_to_schema(&g));
            let again = print_schema(&parse_schema(&text).unwrap());
            prop_assert_eq!(text, again);
        }
    }
}

#[test]
fn corpus_round_trips() {
    for (name, g) in shrink_wrap_schemas::corpus::all_named() {
        let ast = graph_to_schema(&g);
        let text = print_schema(&ast);
        let reparsed = parse_schema(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(reparsed, ast, "{name}");
    }
}
