//! The schema boundary. A schema is checked in two places: lowering
//! (`schema_to_graph`) rejects structural errors, which `swsd --schema`
//! reports with exit code 3, and the consistency report flags the rest as
//! errors that advice offers to repair. Every case below pins which of the
//! two stops it, or that neither does.

use shrink_wrap_schemas::core::{advise, check_consistency};
use shrink_wrap_schemas::corpus::{all_named, synthetic};
use shrink_wrap_schemas::model::{graph_to_schema, schema_to_graph};
use shrink_wrap_schemas::odl::{parse_schema, Schema, MAX_TYPE_NESTING};

/// Where a schema stops at the boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Lowering refuses it.
    Rejected,
    /// It lowers, and its consistency report has an error.
    Flagged,
    /// It lowers, and its consistency report has no error.
    Clean,
}

use Verdict::{Clean, Flagged, Rejected};

/// Lower `ast` and check its consistency against itself. Every error the
/// report flags must come with a repair.
fn verdict(ast: &Schema) -> Verdict {
    let Ok(g) = schema_to_graph(ast) else {
        return Rejected;
    };
    let report = check_consistency(&g, &g);
    if report.errors().next().is_none() {
        return Clean;
    }
    let advice = advise(&report, &g);
    for error in report.errors() {
        let rendered = error.to_string();
        assert!(
            advice.iter().any(|s| s.finding == rendered),
            "no repair offered for `{rendered}`"
        );
    }
    Flagged
}

/// Hand-written boundary cases: one per structural error lowering
/// rejects, one per error the consistency report flags, and schemas that
/// pass both.
const CASES: &[(&str, &str, Verdict)] = &[
    (
        "clean_schema",
        "interface Department {
            extent departments;
            attribute string name;
            keys name;
            relationship set<Employee> has inverse Employee::works_in_a order_by (badge);
        }
        interface Employee {
            attribute long badge;
            relationship Department works_in_a inverse Department::has;
        }",
        Clean,
    ),
    (
        "duplicate_interface",
        "interface A { } interface A { }",
        Rejected,
    ),
    (
        "duplicate_member",
        "interface A { attribute long x; attribute string x; }",
        Rejected,
    ),
    (
        "duplicate_extent",
        "interface A { extent things; } interface B { extent things; }",
        Rejected,
    ),
    ("unknown_supertype", "interface A : Ghost { }", Rejected),
    (
        "unknown_target",
        "interface A { relationship Ghost r inverse Ghost::x; }",
        Rejected,
    ),
    (
        "missing_inverse",
        "interface A { relationship B r inverse B::x; } interface B { }",
        Rejected,
    ),
    (
        "inverse_mismatch",
        "interface A { relationship B r inverse B::x; }
         interface B { relationship A x inverse A::other; }",
        Rejected,
    ),
    (
        "key_over_missing_attribute",
        "interface A { keys nope; }",
        Flagged,
    ),
    (
        "order_by_missing_attribute",
        "interface A { relationship set<B> rs inverse B::a order_by (ghost); }
         interface B { relationship A a inverse A::rs; }",
        Flagged,
    ),
    (
        "bad_hier_cardinality",
        "interface Whole { part_of Part p inverse Part::w; }
         interface Part { part_of Whole w inverse Whole::p; }",
        Rejected,
    ),
    (
        "good_hier_cardinality",
        "interface Whole { part_of set<Part> ps inverse Part::w; }
         interface Part { part_of Whole w inverse Whole::ps; }",
        Clean,
    ),
    (
        "supertype_cycle",
        "interface A : B { } interface B : A { }",
        Rejected,
    ),
    (
        "unknown_attribute_type",
        "interface A { attribute set<Ghost> gs; }",
        Flagged,
    ),
    (
        "unknown_supertype_and_duplicate_member",
        "interface A : Ghost { attribute long x; attribute long x; }",
        Rejected,
    ),
    ("self_supertype", "interface A : A { }", Rejected),
    (
        "duplicate_supertype",
        "interface B { } interface A : B, B { }",
        Rejected,
    ),
    (
        "part_of_cycle",
        "interface A { part_of set<B> bs inverse B::a; part_of B b inverse B::as_; }
         interface B { part_of A a inverse A::bs; part_of set<A> as_ inverse A::b; }",
        Rejected,
    ),
    (
        "duplicate_key",
        "interface A { attribute long x; keys x, x; }",
        Rejected,
    ),
    (
        "unknown_operation_type",
        "interface A { Ghost find(in long n); }",
        Flagged,
    ),
    (
        "inherited_member_shadowed",
        "interface P { attribute long x; } interface C : P { attribute long x; }",
        Flagged,
    ),
    (
        "inherited_key",
        "interface P { attribute long k; } interface C : P { attribute long z; keys k; }",
        Clean,
    ),
    (
        "inherited_order_by",
        "interface P { attribute long k; }
         interface C : P { attribute long z; relationship H h inverse H::cs; }
         interface H { relationship set<C> cs inverse C::h order_by (k); }",
        Clean,
    ),
];

/// Keys and `order_by` lists name visible (own or inherited) attributes
/// (`docs/odl.md`), so these cases must pass with no finding at all.
const INHERITED_ATTRIBUTE_CASES: [&str; 2] = ["inherited_key", "inherited_order_by"];

fn parse(name: &str, src: &str) -> Schema {
    parse_schema(src).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Inputs of the odl robustness suite that parse.
fn robustness_inputs() -> Vec<(String, Schema)> {
    let nested = |depth: usize| {
        format!(
            "interface A {{ attribute {}long{} x; }}",
            "set<".repeat(depth),
            ">".repeat(depth)
        )
    };
    let mut large = String::new();
    for i in 0..500 {
        large.push_str(&format!(
            "interface T{i} {{ attribute long a{i}; attribute string(32) b{i}; }}\n"
        ));
    }
    [
        (
            "deeply_nested_types",
            "interface A { attribute set<list<bag<set<long>>>> deep; }".to_string(),
        ),
        ("nesting_under_the_limit", nested(MAX_TYPE_NESTING - 1)),
        ("large_schema", large),
    ]
    .into_iter()
    .map(|(name, src)| (name.to_string(), parse(name, &src)))
    .collect()
}

/// The corpus and the synthetic sweep, as canonical ASTs.
fn generated_inputs() -> Vec<(String, Schema)> {
    let corpus = all_named()
        .into_iter()
        .map(|(name, g)| (name.to_string(), graph_to_schema(&g)));
    let sweep = synthetic::size_sweep(7)
        .into_iter()
        .map(|(n, g)| (format!("synthetic/{n}"), graph_to_schema(&g)));
    corpus.chain(sweep).collect()
}

#[test]
fn hand_written_cases_stop_where_pinned() {
    for &(name, src, expected) in CASES {
        assert_eq!(verdict(&parse(name, src)), expected, "{name}");
    }
}

#[test]
fn inherited_keys_and_order_by_are_accepted() {
    for name in INHERITED_ATTRIBUTE_CASES {
        let (_, src, _) = CASES.iter().find(|c| c.0 == name).expect("listed");
        let g = schema_to_graph(&parse(name, src)).unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = check_consistency(&g, &g);
        assert!(report.is_clean(), "{name}: {}", report.render());
    }
}

#[test]
fn corpus_sweep_and_robustness_inputs_are_clean() {
    for (name, ast) in generated_inputs().into_iter().chain(robustness_inputs()) {
        assert_eq!(verdict(&ast), Clean, "{name}");
    }
}

#[cfg(feature = "proptest")]
mod props {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Interface-shaped text that parses either lowers or returns a
        /// `LowerError`; neither lowering nor the consistency check panics.
        #[test]
        fn fuzzed_interfaces_lower_or_refuse(body in "[a-z<>(),;: ]{0,120}") {
            if let Ok(schema) = parse_schema(&format!("interface A {{ {body} }}")) {
                let _ = verdict(&schema);
            }
        }

        /// An interface of plain attributes lowers cleanly unless two of
        /// its attributes share a name, which lowering refuses.
        #[test]
        fn fuzzed_attribute_lists_lower_or_refuse(
            body in "(attribute (long|string|double) [a-z]{1,6}; ?){0,5}"
        ) {
            if let Ok(schema) = parse_schema(&format!("interface A {{ {body} }}")) {
                let attrs = &schema.interfaces[0].attributes;
                let names: HashSet<&str> = attrs.iter().map(|a| a.name.as_str()).collect();
                let expected = if names.len() == attrs.len() { Clean } else { Rejected };
                prop_assert_eq!(verdict(&schema), expected);
            }
        }
    }
}
