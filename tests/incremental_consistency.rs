//! Property tests for the incremental verification engine.
//!
//! * The workspace's incrementally-maintained consistency report equals a
//!   from-scratch `check_consistency` run after every step of a random op
//!   script (accepted and rejected ops alike), and the `full_recheck`
//!   escape hatch agrees too.
//! * After the script, `reset()` replays the undo log back to a graph
//!   structurally identical to the shrink wrap schema.
//! * The same holds when random scripts interleave `undo_last` and
//!   re-applying undone ops (the designer's undo/redo): every step keeps
//!   the incremental report equal to a from-scratch run, and likewise the
//!   per-interface ODL (`Workspace::custom_odl`), the maintained
//!   error/warning counts, the concept count and the reverse reference
//!   index (against the existence step's old arena scan).
//! * One persistent `ClosureScratch` (the consistency recheck's
//!   allocation-free traversal) interleaved with arbitrary mutations always
//!   answers exactly like the reference `query` traversals.

#![cfg(feature = "proptest")]

use proptest::prelude::*;
use shrink_wrap_schemas::core::{
    check_consistency, decompose, parse_statement, AppliedOp, ConceptKind, ModOp, Workspace,
};
use shrink_wrap_schemas::corpus::university;
use shrink_wrap_schemas::model::{diff_graphs, graph_to_schema, query, ClosureScratch};
use shrink_wrap_schemas::odl::{print_schema, DomainType, HierKind};

mod support;

/// Names likely to exist in the university schema plus some that don't.
fn type_name() -> impl Strategy<Value = String> {
    prop_oneof![
        4 => prop::sample::select(vec![
            "Person", "Student", "Undergraduate", "Graduate", "Masters", "PhD",
            "NonThesisMasters", "Employee", "Faculty", "Department", "Course",
            "CourseOffering", "Syllabus", "Book", "TimeSlot",
        ])
        .prop_map(str::to_string),
        1 => "[A-Z][a-z]{2,6}".prop_map(|s| format!("Zz{s}")),
    ]
}

fn member_name() -> impl Strategy<Value = String> {
    prop_oneof![
        3 => prop::sample::select(vec![
            "name", "address", "student_id", "badge", "salary", "rank", "room",
            "duration", "term", "number", "title", "credits", "enrolled_in",
            "enrolls", "works_in_a", "has", "teaches", "taught_by", "course",
            "offerings", "described_by", "books", "offered_during", "gpa",
        ])
        .prop_map(str::to_string),
        1 => "[a-z]{2,6}".prop_map(|s| format!("zz_{s}")),
    ]
}

fn domain() -> impl Strategy<Value = DomainType> {
    prop_oneof![
        Just(DomainType::Long),
        Just(DomainType::String),
        type_name().prop_map(DomainType::Named),
        type_name().prop_map(|n| DomainType::set_of(DomainType::Named(n))),
    ]
}

/// Ops chosen to dirty every region the incremental engine tracks: type
/// existence, ISA edges, members, extents, keys, moves, and deletions with
/// cascades.
fn random_op() -> impl Strategy<Value = ModOp> {
    let t = type_name;
    let m = member_name;
    prop_oneof![
        t().prop_map(|ty| ModOp::AddTypeDefinition { ty }),
        t().prop_map(|ty| ModOp::DeleteTypeDefinition { ty }),
        (t(), t()).prop_map(|(ty, supertype)| ModOp::AddSupertype { ty, supertype }),
        (t(), t()).prop_map(|(ty, supertype)| ModOp::DeleteSupertype { ty, supertype }),
        (t(), m()).prop_map(|(ty, extent)| ModOp::AddExtentName { ty, extent }),
        (t(), m()).prop_map(|(ty, extent)| ModOp::DeleteExtentName { ty, extent }),
        (t(), domain(), m()).prop_map(|(ty, domain, name)| ModOp::AddAttribute {
            ty,
            domain,
            size: None,
            name
        }),
        (t(), m()).prop_map(|(ty, name)| ModOp::DeleteAttribute { ty, name }),
        (t(), m(), t()).prop_map(|(ty, name, new_ty)| ModOp::ModifyAttribute { ty, name, new_ty }),
        (t(), m()).prop_map(|(ty, path)| ModOp::DeleteRelationship { ty, path }),
        (t(), m(), t(), t()).prop_map(|(ty, path, old_target, new_target)| {
            ModOp::ModifyRelationshipTargetType {
                ty,
                path,
                old_target,
                new_target,
            }
        }),
        (t(), m()).prop_map(|(ty, name)| ModOp::DeleteOperation { ty, name }),
        (t(), m()).prop_map(|(ty, path)| ModOp::DeletePartOfRelationship { ty, path }),
        (t(), m()).prop_map(|(ty, path)| ModOp::DeleteInstanceOfRelationship { ty, path }),
    ]
}

fn contexts() -> impl Strategy<Value = ConceptKind> {
    prop::sample::select(ConceptKind::ALL.to_vec())
}

/// One designer step: issue an op, undo the last one, or redo the last
/// undone one.
#[derive(Debug, Clone)]
enum Step {
    Apply(ConceptKind, ModOp),
    Undo,
    Redo,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (contexts(), random_op()).prop_map(|(context, op)| Step::Apply(context, op)),
        2 => Just(Step::Undo),
        1 => Just(Step::Redo),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incremental_consistency_survives_undo_and_redo(
        script in prop::collection::vec(step(), 1..30)
    ) {
        let mut ws = Workspace::new(university::graph());
        let mut undone: Vec<AppliedOp> = Vec::new();
        for step in script {
            match step {
                Step::Apply(context, op) => {
                    if ws.apply(context, op).is_ok() {
                        undone.clear();
                    }
                }
                Step::Undo => undone.extend(ws.undo_last()),
                Step::Redo => {
                    if let Some(record) = undone.pop() {
                        ws.apply(record.context, record.op.clone())
                            .map_err(|e| TestCaseError::fail(format!("redo: {e}")))?;
                        // Re-applied on the same state: the same impact.
                        prop_assert_eq!(ws.log().last(), Some(&record));
                    }
                }
            }
            let incremental = ws.consistency();
            let full = check_consistency(ws.working(), ws.shrink_wrap());
            prop_assert_eq!(
                ws.consistency_counts(),
                (full.errors().count(), full.warnings().count())
            );
            prop_assert_eq!(incremental, full);
            let full_odl = print_schema(&graph_to_schema(ws.working()));
            prop_assert_eq!(ws.custom_odl().text(), full_odl);
            prop_assert_eq!(ws.concept_count(), decompose(ws.working()).len());
            prop_assert_eq!(ws.reference_index(), support::reference_scan(ws.working()));
        }
    }

    #[test]
    fn incremental_consistency_equals_full(
        script in prop::collection::vec((contexts(), random_op()), 1..20)
    ) {
        let mut ws = Workspace::new(university::graph());
        for (context, op) in script {
            let _ = ws.apply(context, op);
            let incremental = ws.consistency();
            let full = check_consistency(ws.working(), ws.shrink_wrap());
            prop_assert_eq!(incremental, full);
            prop_assert_eq!(ws.reference_index(), support::reference_scan(ws.working()));
        }
        // The escape hatch recomputes from scratch and must agree.
        prop_assert_eq!(
            ws.full_recheck(),
            check_consistency(ws.working(), ws.shrink_wrap())
        );
        // Undo-log replay lands exactly on the shrink wrap schema.
        ws.reset();
        let diff = diff_graphs(ws.shrink_wrap(), ws.working());
        prop_assert!(diff.is_empty(), "{diff:?}");
        prop_assert_eq!(ws.reference_index(), support::reference_scan(ws.working()));
        prop_assert_eq!(
            ws.consistency(),
            check_consistency(ws.working(), ws.shrink_wrap())
        );
    }

    #[test]
    fn closure_scratch_equals_query_under_mutation(
        script in prop::collection::vec((contexts(), random_op()), 1..15)
    ) {
        let mut ws = Workspace::new(university::graph());
        // University has one instance-of link and no part-of links: seed a
        // part-of diamond (Syllabus under Course and Department) and a
        // two-level instance-of chain so the closures have depth and a type
        // reached twice.
        for (context, stmt) in [
            (ConceptKind::Aggregation, "add_part_of_relationship(Department, set<Course>, pc_courses, Course::pc_dept)"),
            (ConceptKind::Aggregation, "add_part_of_relationship(Course, set<Syllabus>, pc_syllabi, Syllabus::pc_course)"),
            (ConceptKind::Aggregation, "add_part_of_relationship(Department, set<Syllabus>, pc_dept_syllabi, Syllabus::pc_dept)"),
            (ConceptKind::Aggregation, "add_part_of_relationship(Syllabus, set<Book>, pc_books, Book::pc_syllabus)"),
            (ConceptKind::InstanceOf, "add_instance_of_relationship(CourseOffering, set<TimeSlot>, io_slots, TimeSlot::io_offering)"),
        ] {
            let op = parse_statement(stmt).expect("seed statement parses");
            ws.apply(context, op).expect("seed link applies");
        }
        // One scratch for the whole script, as the consistency engine keeps
        // it: epochs, marks and queue carry over across mutations, type
        // removals and arena growth.
        let mut scratch = ClosureScratch::default();
        let (mut types, mut links) = (Vec::new(), Vec::new());
        for (context, op) in script {
            let _ = ws.apply(context, op);
            let g = ws.working();
            scratch.ensure_slots(g.type_slots(), g.link_slots());
            for (t, _) in g.types() {
                scratch.ancestors_into(g, t, &mut types);
                prop_assert_eq!(&types, &query::ancestors(g, t));
                scratch.descendants_into(g, t, &mut types);
                prop_assert_eq!(&types, &query::descendants(g, t));
                for kind in [HierKind::PartOf, HierKind::InstanceOf] {
                    scratch.hier_closure_into(g, kind, t, &mut types, &mut links);
                    let (want_types, want_links) = query::hier_closure(g, kind, t);
                    prop_assert_eq!(&types, &want_types);
                    prop_assert_eq!(&links, &want_links);
                }
            }
        }
    }
}
