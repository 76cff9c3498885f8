//! Robustness properties of the lexer and parser: no input panics, errors
//! always carry positions, and parsing is total over the printable-ASCII
//! fuzz space. That accepted schemas also lower without a panic is a
//! property of `sws-model`, fuzzed in the root `tests/schema_boundary.rs`.

use sws_odl::{parse_schema, print_schema, OdlErrorKind, MAX_TYPE_NESTING};

#[cfg(feature = "proptest")]
mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary text never panics the pipeline.
        #[test]
        fn parser_never_panics(src in "[ -~\\n]{0,200}") {
            let _ = parse_schema(&src);
        }

        /// Arbitrary interface-shaped text never panics.
        #[test]
        fn interface_shaped_fuzz(body in "[a-z<>(),;: ]{0,120}") {
            let src = format!("interface A {{ {body} }}");
            let _ = parse_schema(&src);
        }

        /// Any nesting depth either parses (under the limit) or errors
        /// with the depth-guard kind (at or over it) — never a crash.
        #[test]
        fn nesting_depth_fuzz(depth in 1usize..200, close_flag in 0u8..2) {
            let close = close_flag == 1;
            let closers = if close { ">".repeat(depth) } else { String::new() };
            let src = format!(
                "interface A {{ attribute {}long{} x; }}",
                "set<".repeat(depth),
                closers
            );
            match parse_schema(&src) {
                Ok(_) => prop_assert!(close && depth < MAX_TYPE_NESTING),
                Err(e) => {
                    if depth >= MAX_TYPE_NESTING {
                        prop_assert_eq!(
                            e.kind,
                            OdlErrorKind::NestingTooDeep { limit: MAX_TYPE_NESTING }
                        );
                    }
                }
            }
        }

        /// When parsing succeeds, printing and re-parsing is stable.
        #[test]
        fn accepted_inputs_round_trip(body in "(attribute (long|string|double) [a-z]{1,6}; ?){0,5}") {
            let src = format!("interface A {{ {body} }}");
            if let Ok(schema) = parse_schema(&src) {
                let printed = print_schema(&schema);
                let reparsed = parse_schema(&printed).expect("printer output parses");
                prop_assert_eq!(reparsed, schema);
            }
        }
    }
}

#[test]
fn error_positions_are_precise() {
    let err = parse_schema("interface A {\n  attribute long 42;\n}").unwrap_err();
    assert_eq!(err.span.line, 2);
    let err = parse_schema("interface A { attribute long x }").unwrap_err();
    assert_eq!(err.span.line, 1);
    assert!(err.span.col > 25);
}

#[test]
fn deeply_nested_types_parse() {
    let src = "interface A { attribute set<list<bag<set<long>>>> deep; }";
    let schema = parse_schema(src).unwrap();
    let printed = print_schema(&schema);
    assert_eq!(parse_schema(&printed).unwrap(), schema);
}

#[test]
fn pathological_nesting_errors_instead_of_overflowing() {
    // 10 000 levels of `set<` would blow the stack in an unguarded
    // recursive-descent parser; the depth guard must turn it into a
    // positioned error.
    let deep = format!(
        "interface A {{ attribute {}long{} x; }}",
        "set<".repeat(10_000),
        ">".repeat(10_000)
    );
    let err = parse_schema(&deep).unwrap_err();
    assert_eq!(
        err.kind,
        OdlErrorKind::NestingTooDeep {
            limit: MAX_TYPE_NESTING
        }
    );
    assert!(err.span.line >= 1, "error carries a position");

    // A truncated bomb (no closing `>`s at all) errors the same way
    // rather than recursing to EOF.
    let torn = format!("interface A {{ attribute {}", "set<".repeat(10_000));
    assert!(parse_schema(&torn).is_err());
}

#[test]
fn nesting_just_under_the_limit_parses() {
    let depth = MAX_TYPE_NESTING - 1;
    let src = format!(
        "interface A {{ attribute {}long{} x; }}",
        "set<".repeat(depth),
        ">".repeat(depth)
    );
    let schema = parse_schema(&src).unwrap();
    // And the printer/parser round trip still holds at the boundary.
    assert_eq!(parse_schema(&print_schema(&schema)).unwrap(), schema);
}

#[test]
fn large_schema_parses() {
    let mut src = String::new();
    for i in 0..500 {
        src.push_str(&format!(
            "interface T{i} {{ attribute long a{i}; attribute string(32) b{i}; }}\n"
        ));
    }
    let schema = parse_schema(&src).unwrap();
    assert_eq!(schema.interfaces.len(), 500);
}
