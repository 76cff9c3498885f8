//! Golden `LintReport` fixtures: one minimal script per diagnostic code,
//! with the full single-line JSON report pinned byte-for-byte under
//! `tests/fixtures/`. A change to report serialization, code assignment,
//! message wording, or the checksum breaks these on purpose.
//!
//! To re-bless after an intentional change:
//! `SWS_BLESS=1 cargo test -p sws-analyze --test golden`.

use sws_analyze::{analyze_ops, LintReport};
use sws_core::{ConceptKind, ModOp};
use sws_model::{schema_to_graph, SchemaGraph};
use sws_odl::{parse_schema, Cardinality, CollectionKind, DomainType};

fn base() -> SchemaGraph {
    let src = r#"
    schema Golden {
        interface Person { attribute string name; }
        interface Employee : Person {
            relationship Department works_in_a inverse Department::has;
        }
        interface Department {
            relationship set<Employee> has inverse Employee::works_in_a;
        }
    }"#;
    schema_to_graph(&parse_schema(src).expect("fixture parses")).expect("fixture lowers")
}

fn ww(op: ModOp) -> (ConceptKind, ModOp) {
    (ConceptKind::WagonWheel, op)
}

fn gen(op: ModOp) -> (ConceptKind, ModOp) {
    (ConceptKind::Generalization, op)
}

/// `(fixture name, expected code, script)`.
type Case = (&'static str, &'static str, Vec<(ConceptKind, ModOp)>);

/// One [`Case`] for every stable code.
fn cases() -> Vec<Case> {
    vec![
        (
            "a001_use_before_def",
            "A001",
            vec![ww(ModOp::DeleteTypeDefinition { ty: "Ghost".into() })],
        ),
        (
            "a002_use_after_delete",
            "A002",
            vec![
                ww(ModOp::AddTypeDefinition { ty: "Temp".into() }),
                ww(ModOp::DeleteTypeDefinition { ty: "Temp".into() }),
                ww(ModOp::AddAttribute {
                    ty: "Temp".into(),
                    domain: DomainType::Long,
                    size: None,
                    name: "x".into(),
                }),
            ],
        ),
        (
            "a003_duplicate_def",
            "A003",
            vec![ww(ModOp::AddTypeDefinition {
                ty: "Person".into(),
            })],
        ),
        (
            "a004_stale_value",
            "A004",
            vec![ww(ModOp::ModifyAttributeType {
                ty: "Person".into(),
                name: "name".into(),
                old: DomainType::Long,
                new: DomainType::Double,
            })],
        ),
        (
            "a005_cycle",
            "A005",
            vec![gen(ModOp::AddSupertype {
                ty: "Person".into(),
                supertype: "Employee".into(),
            })],
        ),
        (
            "a006_inherited_conflict",
            "A006",
            vec![ww(ModOp::AddAttribute {
                ty: "Employee".into(),
                domain: DomainType::String,
                size: None,
                name: "name".into(),
            })],
        ),
        (
            "a007_semantic_stability",
            "A007",
            vec![gen(ModOp::ModifyAttribute {
                ty: "Person".into(),
                name: "name".into(),
                new_ty: "Department".into(),
            })],
        ),
        (
            "a008_unresolvable_order_by",
            "A008",
            vec![ww(ModOp::AddRelationship {
                ty: "Department".into(),
                target: "Person".into(),
                cardinality: Cardinality::Many(CollectionKind::Set),
                path: "staff".into(),
                inverse_path: "staff_of".into(),
                order_by: vec!["ghost_attr".into()],
            })],
        ),
        (
            "a009_structural_misuse",
            "A009",
            vec![(
                ConceptKind::Aggregation,
                ModOp::AddPartOfRelationship {
                    ty: "Department".into(),
                    collection: Some(CollectionKind::Set),
                    target: "Department".into(),
                    path: "parts".into(),
                    inverse_path: "part_of".into(),
                    order_by: vec![],
                },
            )],
        ),
        (
            "a010_referential",
            "A010",
            vec![ww(ModOp::AddAttribute {
                ty: "Person".into(),
                domain: DomainType::Long,
                size: Some(8),
                name: "badge".into(),
            })],
        ),
        (
            "a011_not_permitted",
            "A011",
            vec![ww(ModOp::AddSupertype {
                ty: "Department".into(),
                supertype: "Person".into(),
            })],
        ),
        (
            "w101_redundant_modify",
            "W101",
            vec![ww(ModOp::ModifyAttributeType {
                ty: "Person".into(),
                name: "name".into(),
                old: DomainType::String,
                new: DomainType::String,
            })],
        ),
        (
            "w102_delete_of_own_create",
            "W102",
            vec![
                ww(ModOp::AddTypeDefinition { ty: "Temp".into() }),
                ww(ModOp::DeleteTypeDefinition { ty: "Temp".into() }),
            ],
        ),
        (
            "w103_dead_store",
            "W103",
            vec![
                ww(ModOp::ModifyAttributeSize {
                    ty: "Person".into(),
                    name: "name".into(),
                    old: None,
                    new: Some(32),
                }),
                ww(ModOp::DeleteAttribute {
                    ty: "Person".into(),
                    name: "name".into(),
                }),
            ],
        ),
        (
            "clean_with_commuting_pair",
            "",
            vec![
                ww(ModOp::AddTypeDefinition {
                    ty: "CourseA".into(),
                }),
                ww(ModOp::AddTypeDefinition {
                    ty: "CourseB".into(),
                }),
            ],
        ),
    ]
}

#[test]
fn every_diagnostic_code_has_a_byte_stable_golden_report() {
    let g = base();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let bless = std::env::var_os("SWS_BLESS").is_some();
    if bless {
        std::fs::create_dir_all(&dir).expect("fixtures dir");
    }
    let mut failures = Vec::new();
    for (name, code, script) in cases() {
        let report = analyze_ops(&g, &g, &script);
        if !code.is_empty() {
            assert!(
                report.findings.iter().any(|f| f.code == code),
                "{name}: expected a {code} finding, got {report:?}"
            );
        } else {
            assert!(report.is_clean(), "{name}: expected clean, got {report:?}");
            assert!(
                !report.commuting_pairs.is_empty(),
                "{name}: expected a commuting pair"
            );
        }
        let line = report.to_json();
        assert!(LintReport::checksum_valid(&line), "{name}: bad checksum");
        let path = dir.join(format!("{name}.json"));
        if bless {
            std::fs::write(&path, format!("{line}\n")).expect("bless write");
            continue;
        }
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{name}: missing golden fixture {path:?}: {e}"));
        if golden.trim_end() != line {
            failures.push(format!(
                "{name}:\n  golden: {}\n  actual: {line}",
                golden.trim_end()
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "golden mismatches (SWS_BLESS=1 to re-bless):\n{}",
        failures.join("\n")
    );
}
