//! Property tests for the incremental verification engine.
//!
//! * The workspace's incrementally-maintained consistency report equals a
//!   from-scratch `check_consistency` run after every step of a random op
//!   script (accepted and rejected ops alike, drawn from all 37 `ModOp`
//!   kinds), and the `full_recheck` escape hatch agrees too.
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
use shrink_wrap_schemas::core::ops::PermissionMatrix;
use shrink_wrap_schemas::core::{
    check_consistency, decompose, parse_statement, AppliedOp, ConceptKind, ModOp, Workspace,
};
use shrink_wrap_schemas::corpus::university;
use shrink_wrap_schemas::model::{diff_graphs, graph_to_schema, query, ClosureScratch};
use shrink_wrap_schemas::odl::{
    print_schema, Cardinality, CollectionKind, DomainType, HierKind, Key, Param, ParamDir,
};

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
            "dept_name", "offers", "advises", "isbn",
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

/// Domains the university schema's attributes and operation returns
/// have, so a modify op's `old` value often matches and the op applies.
fn old_domain() -> impl Strategy<Value = DomainType> {
    prop_oneof![
        3 => Just(DomainType::String),
        2 => prop::sample::select(vec![
            DomainType::ULong,
            DomainType::Double,
            DomainType::Float,
            DomainType::Bool,
            DomainType::Date,
            DomainType::Time,
        ]),
    ]
}

fn size() -> impl Strategy<Value = Option<u32>> {
    prop::option::of(prop::sample::select(vec![16u32, 32, 64, 128]))
}

/// Mostly `set`, the collection every university link and to-many end has.
fn collection() -> impl Strategy<Value = CollectionKind> {
    prop::sample::select(vec![
        CollectionKind::Set,
        CollectionKind::Set,
        CollectionKind::List,
        CollectionKind::Bag,
    ])
}

fn cardinality() -> impl Strategy<Value = Cardinality> {
    prop_oneof![
        2 => Just(Cardinality::One),
        2 => collection().prop_map(Cardinality::Many),
    ]
}

/// Attribute names an order-by may list; empty half of the time, which is
/// what most relationship ends and links have.
fn order_by() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(
        prop::sample::select(vec!["room", "badge", "name", "title", "term"])
            .prop_map(str::to_string),
        0..2,
    )
}

fn params() -> impl Strategy<Value = Vec<Param>> {
    let direction = prop::sample::select(vec![ParamDir::In, ParamDir::Out, ParamDir::InOut]);
    let param = (direction, domain(), member_name()).prop_map(|(direction, ty, name)| Param {
        direction,
        ty,
        name,
    });
    prop_oneof![
        1 => Just(Vec::new()),
        1 => Just(vec![Param::input("term", DomainType::ULong)]),
        2 => prop::collection::vec(param, 0..3),
    ]
}

fn raises() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(
        prop::sample::select(vec!["NoGrades", "Full"]).prop_map(str::to_string),
        0..2,
    )
}

const ATTRIBUTES: &[(&str, &str)] = &[
    ("Person", "name"),
    ("Person", "address"),
    ("Student", "student_id"),
    ("Graduate", "thesis_topic"),
    ("Employee", "badge"),
    ("Employee", "salary"),
    ("Faculty", "rank"),
    ("Department", "dept_name"),
    ("Course", "number"),
    ("Course", "title"),
    ("CourseOffering", "room"),
    ("CourseOffering", "term"),
    ("Book", "isbn"),
    ("TimeSlot", "days"),
];

const RELATIONSHIPS: &[(&str, &str)] = &[
    ("Department", "majors"),
    ("Student", "enrolled_in"),
    ("Graduate", "advised_by"),
    ("Employee", "works_in_a"),
    ("Faculty", "teaches"),
    ("Faculty", "advises"),
    ("Department", "has"),
    ("Department", "offers"),
    ("Course", "offered_by"),
    ("CourseOffering", "described_by"),
    ("CourseOffering", "books"),
    ("CourseOffering", "enrolls"),
    ("Book", "book_for"),
    ("TimeSlot", "offerings"),
];

const OPERATIONS: &[(&str, &str)] = &[("Student", "gpa"), ("Person", "zz_op")];

/// The university's instance-of link, the links `seeded_workspace` adds,
/// and the paths of the links `link_ends` makes.
const LINKS: &[(&str, &str)] = &[
    ("Course", "offerings"),
    ("CourseOffering", "course"),
    ("Department", "parts"),
    ("TimeSlot", "io_students"),
    ("Course", "parts"),
    ("Syllabus", "parts"),
    ("Course", "whole"),
    ("Syllabus", "whole"),
    ("Book", "whole"),
];

const SUPERTYPES: &[(&str, &str)] = &[
    ("Student", "Person"),
    ("Employee", "Person"),
    ("Faculty", "Employee"),
    ("Graduate", "Student"),
    ("Masters", "Graduate"),
    ("PhD", "Graduate"),
];

const EXTENTS: &[(&str, &str)] = &[
    ("Person", "people"),
    ("Department", "departments"),
    ("Course", "courses"),
    ("CourseOffering", "course_offerings"),
];

const KEYS: &[(&str, &str)] = &[
    ("Person", "name"),
    ("Department", "dept_name"),
    ("Course", "number"),
    ("Book", "isbn"),
];

/// A `(type, name)` pair from `known` three times in four, else any pair,
/// which mostly names nothing and makes a rejected op.
fn pair(known: &'static [(&'static str, &'static str)]) -> impl Strategy<Value = (String, String)> {
    prop_oneof![
        3 => prop::sample::select(known.to_vec())
            .prop_map(|(ty, name)| (ty.to_string(), name.to_string())),
        1 => (type_name(), member_name()),
    ]
}

/// Retargets the shrink wrap's generalization hierarchy allows:
/// `(type, path, old target, new target)`.
const RELATIONSHIP_MOVES: &[(&str, &str, &str, &str)] = &[
    ("Department", "has", "Employee", "Person"),
    ("Department", "has", "Employee", "Faculty"),
    ("Faculty", "advises", "Graduate", "PhD"),
    ("Faculty", "advises", "Graduate", "Student"),
    ("CourseOffering", "enrolls", "Student", "Graduate"),
    ("Graduate", "advised_by", "Faculty", "Employee"),
];

/// The same for the links `seeded_workspace` adds.
const LINK_MOVES: &[(&str, &str, &str, &str)] = &[
    ("Department", "parts", "Employee", "Faculty"),
    ("Department", "parts", "Employee", "Person"),
    ("TimeSlot", "io_students", "Student", "Graduate"),
    ("TimeSlot", "io_students", "Student", "Person"),
];

/// A retarget from `known` three times in four, else any.
fn retarget(
    known: &'static [(&'static str, &'static str, &'static str, &'static str)],
) -> impl Strategy<Value = (String, String, String, String)> {
    prop_oneof![
        3 => prop::sample::select(known.to_vec()).prop_map(|(ty, path, old, new)| {
            (ty.to_string(), path.to_string(), old.to_string(), new.to_string())
        }),
        1 => (type_name(), member_name(), type_name(), type_name()),
    ]
}

/// Parent and child of a new part-of or instance-of link; the link's
/// paths are `parts` and `whole`, as `LINKS` lists them.
fn link_ends() -> impl Strategy<Value = (String, String)> {
    let known = prop::sample::select(vec![
        ("Department", "Course"),
        ("Course", "Syllabus"),
        ("Syllabus", "Book"),
    ])
    .prop_map(|(ty, target)| (ty.to_string(), target.to_string()));
    prop_oneof![3 => known, 1 => (type_name(), type_name())]
}

/// Every one of the 37 `ModOp` kinds, so each region the incremental
/// engine tracks gets dirtied: type existence, ISA edges, extents, keys,
/// members and their moves, relationship and link ends, cardinalities,
/// order-bys, and deletions with cascades. Members and `old` values come
/// mostly from the university schema, so most kinds apply now and then.
fn random_op() -> impl Strategy<Value = ModOp> {
    let t = type_name;
    let m = member_name;
    let key = |(ty, attr): (String, String)| (ty, vec![Key::single(attr)]);
    prop_oneof![
        // Type definitions and type properties.
        t().prop_map(|ty| ModOp::AddTypeDefinition { ty }),
        t().prop_map(|ty| ModOp::DeleteTypeDefinition { ty }),
        (t(), t()).prop_map(|(ty, supertype)| ModOp::AddSupertype { ty, supertype }),
        pair(SUPERTYPES).prop_map(|(ty, supertype)| ModOp::DeleteSupertype { ty, supertype }),
        (pair(SUPERTYPES), prop::collection::vec(t(), 0..3)).prop_map(|((ty, old), new)| {
            ModOp::ModifySupertype {
                ty,
                old: vec![old],
                new,
            }
        }),
        (t(), m()).prop_map(|(ty, extent)| ModOp::AddExtentName { ty, extent }),
        pair(EXTENTS).prop_map(|(ty, extent)| ModOp::DeleteExtentName { ty, extent }),
        (pair(EXTENTS), m()).prop_map(|((ty, old), new)| ModOp::ModifyExtentName { ty, old, new }),
        pair(ATTRIBUTES)
            .prop_map(key)
            .prop_map(|(ty, keys)| ModOp::AddKeyList { ty, keys }),
        pair(KEYS)
            .prop_map(key)
            .prop_map(|(ty, keys)| ModOp::DeleteKeyList { ty, keys }),
        (pair(KEYS), prop::collection::vec(m(), 0..2)).prop_map(|((ty, old), extra)| {
            let new = Key::compound(std::iter::once(old.clone()).chain(extra));
            ModOp::ModifyKeyList {
                ty,
                old: vec![Key::single(old)],
                new: vec![new],
            }
        }),
        // Attributes.
        (t(), domain(), m()).prop_map(|(ty, domain, name)| ModOp::AddAttribute {
            ty,
            domain,
            size: None,
            name
        }),
        pair(ATTRIBUTES).prop_map(|(ty, name)| ModOp::DeleteAttribute { ty, name }),
        (pair(ATTRIBUTES), t()).prop_map(|((ty, name), new_ty)| ModOp::ModifyAttribute {
            ty,
            name,
            new_ty
        }),
        (pair(ATTRIBUTES), old_domain(), domain()).prop_map(|((ty, name), old, new)| {
            ModOp::ModifyAttributeType { ty, name, old, new }
        }),
        (pair(ATTRIBUTES), size(), size()).prop_map(|((ty, name), old, new)| {
            ModOp::ModifyAttributeSize { ty, name, old, new }
        }),
        // Relationships.
        (t(), t(), cardinality(), m(), m(), order_by()).prop_map(
            |(ty, target, cardinality, path, inverse_path, order_by)| ModOp::AddRelationship {
                ty,
                target,
                cardinality,
                path,
                inverse_path,
                order_by,
            }
        ),
        pair(RELATIONSHIPS).prop_map(|(ty, path)| ModOp::DeleteRelationship { ty, path }),
        retarget(RELATIONSHIP_MOVES).prop_map(|(ty, path, old_target, new_target)| {
            ModOp::ModifyRelationshipTargetType {
                ty,
                path,
                old_target,
                new_target,
            }
        }),
        (pair(RELATIONSHIPS), cardinality(), cardinality()).prop_map(|((ty, path), old, new)| {
            ModOp::ModifyRelationshipCardinality { ty, path, old, new }
        }),
        (pair(RELATIONSHIPS), order_by(), order_by()).prop_map(|((ty, path), old, new)| {
            ModOp::ModifyRelationshipOrderBy { ty, path, old, new }
        }),
        // Operations.
        (
            t(),
            domain(),
            prop::sample::select(vec!["zz_op", "gpa"]),
            params(),
            raises()
        )
            .prop_map(
                |(ty, return_type, name, args, raises)| ModOp::AddOperation {
                    ty,
                    return_type,
                    name: name.to_string(),
                    args,
                    raises,
                }
            ),
        pair(OPERATIONS).prop_map(|(ty, name)| ModOp::DeleteOperation { ty, name }),
        (pair(OPERATIONS), t()).prop_map(|((ty, name), new_ty)| ModOp::ModifyOperation {
            ty,
            name,
            new_ty
        }),
        (pair(OPERATIONS), old_domain(), domain()).prop_map(|((ty, name), old, new)| {
            ModOp::ModifyOperationReturnType { ty, name, old, new }
        }),
        (pair(OPERATIONS), params(), params()).prop_map(|((ty, name), old, new)| {
            ModOp::ModifyOperationArgList { ty, name, old, new }
        }),
        (pair(OPERATIONS), raises(), raises()).prop_map(|((ty, name), old, new)| {
            ModOp::ModifyOperationExceptionsRaised { ty, name, old, new }
        }),
        // Part-of relationships.
        (link_ends(), prop::option::of(collection()), order_by()).prop_map(
            |((ty, target), collection, order_by)| ModOp::AddPartOfRelationship {
                ty,
                collection,
                target,
                path: "parts".to_string(),
                inverse_path: "whole".to_string(),
                order_by,
            }
        ),
        pair(LINKS).prop_map(|(ty, path)| ModOp::DeletePartOfRelationship { ty, path }),
        retarget(LINK_MOVES).prop_map(|(ty, path, old_target, new_target)| {
            ModOp::ModifyPartOfTargetType {
                ty,
                path,
                old_target,
                new_target,
            }
        }),
        (pair(LINKS), collection(), collection()).prop_map(|((ty, path), old, new)| {
            ModOp::ModifyPartOfCardinality { ty, path, old, new }
        }),
        (pair(LINKS), order_by(), order_by()).prop_map(|((ty, path), old, new)| {
            ModOp::ModifyPartOfOrderBy { ty, path, old, new }
        }),
        // Instance-of relationships.
        (link_ends(), prop::option::of(collection()), order_by()).prop_map(
            |((ty, target), collection, order_by)| ModOp::AddInstanceOfRelationship {
                ty,
                collection,
                target,
                path: "parts".to_string(),
                inverse_path: "whole".to_string(),
                order_by,
            }
        ),
        pair(LINKS).prop_map(|(ty, path)| ModOp::DeleteInstanceOfRelationship { ty, path }),
        retarget(LINK_MOVES).prop_map(|(ty, path, old_target, new_target)| {
            ModOp::ModifyInstanceOfTargetType {
                ty,
                path,
                old_target,
                new_target,
            }
        }),
        (pair(LINKS), collection(), collection()).prop_map(|((ty, path), old, new)| {
            ModOp::ModifyInstanceOfCardinality { ty, path, old, new }
        }),
        (pair(LINKS), order_by(), order_by()).prop_map(|((ty, path), old, new)| {
            ModOp::ModifyInstanceOfOrderBy { ty, path, old, new }
        }),
    ]
}

/// The university schema with one part-of and one more instance-of link
/// into the generalization hierarchy, so every link kind has a link to
/// act on and to retarget; a relationship ordered by an inherited
/// attribute, so a hierarchy edit can break an order-by on the far end;
/// and an attribute whose domain names a type, so deleting that type
/// leaves a dangling reference elsewhere.
fn seeded_workspace() -> Workspace {
    let mut ws = Workspace::new(university::graph());
    for (context, stmt) in [
        (
            ConceptKind::Aggregation,
            "add_part_of_relationship(Department, set<Employee>, parts, Employee::whole)",
        ),
        (
            ConceptKind::InstanceOf,
            "add_instance_of_relationship(TimeSlot, set<Student>, io_students, Student::io_slot)",
        ),
        (
            ConceptKind::WagonWheel,
            "add_relationship(Department, set<Student>, majors, Student::major, (name))",
        ),
        (
            ConceptKind::WagonWheel,
            "add_attribute(Syllabus, Department, owner)",
        ),
    ] {
        let op = parse_statement(stmt).expect("seed statement parses");
        ws.apply(context, op).expect("seed op applies");
    }
    ws
}

fn contexts() -> impl Strategy<Value = ConceptKind> {
    prop::sample::select(ConceptKind::ALL.to_vec())
}

/// An op and the context it is issued in: three times in four a context
/// whose Table 1 row permits the op, else any, so permission rejections
/// stay in the mix.
fn issued_op() -> impl Strategy<Value = (ConceptKind, ModOp)> {
    (
        contexts(),
        random_op(),
        prop::sample::select(vec![true, true, true, false]),
    )
        .prop_map(|(context, op, permitted)| {
            let matrix = PermissionMatrix::new();
            let context = ConceptKind::ALL
                .iter()
                .copied()
                .find(|&c| permitted && matrix.allows(c, op.kind()))
                .unwrap_or(context);
            (context, op)
        })
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
        4 => issued_op().prop_map(|(context, op)| Step::Apply(context, op)),
        2 => Just(Step::Undo),
        1 => Just(Step::Redo),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn incremental_consistency_survives_undo_and_redo(
        script in prop::collection::vec(step(), 1..30)
    ) {
        let mut ws = seeded_workspace();
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
        script in prop::collection::vec(issued_op(), 1..20)
    ) {
        let mut ws = seeded_workspace();
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
        script in prop::collection::vec(issued_op(), 1..15)
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
