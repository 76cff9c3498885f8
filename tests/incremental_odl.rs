//! Differential oracles for the incrementally-maintained read state the
//! server publishes after every accepted batch:
//!
//! * the workspace's per-interface ODL ([`Workspace::custom_odl`]) equals
//!   a full `print_schema(graph_to_schema(..))` after every apply,
//!   `undo_last`, a rejected `Session::issue_batch`, `reset` and
//!   `Workspace::resume` — on the corpus, on `edit_stream` /
//!   `churn_stream` at 1,000 types, and when one batch deletes a type and
//!   re-adds the same name;
//! * the maintained consistency counts and concept count equal a
//!   materialized report and `decompose(..).len()`, and the reverse
//!   reference index equals a from-scratch scan;
//! * adding, deleting and reviving a free-standing type moves the concept
//!   count without a recount, and a hierarchy change still recounts;
//! * snapshot isolation: a graph clone or a `ReadView` taken before N
//!   writer ops renders byte-identically after them, so no write leaks
//!   into a chunk the snapshot shares.

use shrink_wrap_schemas::core::{
    check_consistency, concept_count, decompose, parse_statement, ConceptKind, ModOp, Workspace,
};
use shrink_wrap_schemas::corpus::{all_named, synthetic::SyntheticSpec, university};
use shrink_wrap_schemas::designer::{DesignService, OpEnvelope, Request, Response, Session};
use shrink_wrap_schemas::model::{graph_to_schema, SchemaGraph};
use shrink_wrap_schemas::odl::print_schema;
use shrink_wrap_schemas::repository::Repository;
use sws_bench::edit_scripts::{churn_stream, edit_stream};
use sws_trace::{EventKind, Recorder};

mod support;

fn full_render(g: &SchemaGraph) -> String {
    print_schema(&graph_to_schema(g))
}

/// Every maintained read of `ws` against its from-scratch counterpart.
fn assert_reads_match(ws: &Workspace, at: &str) {
    assert_eq!(
        ws.custom_odl().text(),
        full_render(ws.working()),
        "incremental ODL differs from the full render at {at}"
    );
    let report = check_consistency(ws.working(), ws.shrink_wrap());
    assert_eq!(
        ws.consistency_counts(),
        (report.errors().count(), report.warnings().count()),
        "maintained counts differ at {at}"
    );
    assert_eq!(
        ws.concept_count(),
        decompose(ws.working()).len(),
        "concept count differs at {at}"
    );
    assert_eq!(
        ws.reference_index(),
        support::reference_scan(ws.working()),
        "reference index differs from a scan at {at}"
    );
}

/// Apply `script`, checking every read after every op, then undo half of
/// it one op at a time, then reset.
fn drive(mut ws: Workspace, script: &[(ConceptKind, ModOp)], name: &str) {
    assert_reads_match(&ws, &format!("{name} start"));
    let mut applied = 0;
    for (i, (context, op)) in script.iter().enumerate() {
        if ws.apply(*context, op.clone()).is_ok() {
            applied += 1;
        }
        assert_reads_match(&ws, &format!("{name} op {i}"));
    }
    assert!(applied > 0, "{name}: nothing applied");
    for i in 0..applied / 2 {
        ws.undo_last().expect("an op to undo");
        assert_reads_match(&ws, &format!("{name} undo {i}"));
    }
    ws.reset();
    assert_reads_match(&ws, &format!("{name} reset"));
    if ws.base_seq() == 0 {
        assert_eq!(ws.custom_odl().text(), full_render(ws.shrink_wrap()));
    }
}

#[test]
fn incremental_odl_tracks_the_corpus() {
    for (name, g) in all_named() {
        let script = edit_stream(&g, 24, 7);
        drive(Workspace::new(g), &script, name);
    }
}

#[test]
fn incremental_odl_tracks_edit_and_churn_streams_at_1k_types() {
    let g = SyntheticSpec::sized(1_000, 11).generate();
    let edits = edit_stream(&g, 16, 3);
    drive(Workspace::new(g.clone()), &edits, "edit_stream/1000");
    let churn = churn_stream(&g, 16, 5);
    drive(Workspace::new(g), &churn, "churn_stream/1000");
}

#[test]
fn deleting_and_re_adding_a_name_in_one_batch_renders_the_new_type() {
    let mut ws = Workspace::new(university::graph());
    assert_reads_match(&ws, "start");
    // The whole batch lands before the next read, as a served batch does.
    for statement in [
        "delete_type_definition(Book)",
        "add_type_definition(Book)",
        "add_attribute(Book, string, isbn)",
        "delete_type_definition(TimeSlot)",
    ] {
        let op = parse_statement(statement).expect("statement parses");
        ws.apply(ConceptKind::WagonWheel, op).expect("op applies");
    }
    assert_reads_match(&ws, "after the batch");
    assert!(ws.custom_odl().text().contains("isbn"));
    // Undo the batch as the server's rollback does, reading only at the end.
    for _ in 0..4 {
        ws.undo_last().expect("an op to undo");
    }
    assert_reads_match(&ws, "after undoing the batch");
    assert_eq!(ws.custom_odl().text(), full_render(ws.shrink_wrap()));

    // An undone add frees its type slot, and the next add takes it. With
    // both names stale at one read, the freed name's block must go before
    // the new one lands: `Book`, interned long before `Zq`, syncs first.
    let apply = |ws: &mut Workspace, statement: &str| {
        let op = parse_statement(statement).expect("statement parses");
        ws.apply(ConceptKind::WagonWheel, op).expect("op applies");
    };
    apply(&mut ws, "delete_type_definition(Book)");
    apply(&mut ws, "add_type_definition(Zq)");
    assert_reads_match(&ws, "after adding Zq");
    ws.undo_last().expect("the add to undo");
    apply(&mut ws, "add_type_definition(Book)");
    assert_reads_match(&ws, "after Book took Zq's slot");
}

#[test]
fn the_reference_index_follows_domains_and_signatures() {
    // The corpus schemas name no types in attribute domains or operation
    // signatures; these ops add such references, then move, retype,
    // orphan and revive their targets.
    let mut ws = Workspace::new(university::graph());
    let statements = [
        "add_attribute(Person, set<Course>, taking)",
        "add_type_definition(Annex)",
        "add_attribute(Department, Annex, annex)",
        "add_operation(Faculty, Department, chair_of, (in Course c))",
        "modify_attribute_type(Person, taking, set<Course>, list<Book>)",
        "delete_type_definition(Course)",
        "delete_type_definition(Annex)",
        "add_type_definition(Annex)",
    ];
    for statement in statements {
        let op = parse_statement(statement).expect("statement parses");
        let context = ConceptKind::WagonWheel;
        ws.apply(context, op).expect("op applies");
        assert_reads_match(&ws, statement);
    }
    assert!(!ws.reference_index().is_empty());
    while ws.undo_last().is_some() {
        assert_reads_match(&ws, "undo");
    }
}

#[test]
fn session_rollback_and_resume_keep_the_blocks_exact() {
    let mut session = Session::from_odl(university::SOURCE).expect("schema ingests");
    let before = session.repository().custom_schema_odl();
    // Three ops apply, the fourth is rejected: the batch is reverted in
    // memory through the undo journal, as a rejected submit is.
    let batch: Vec<(ConceptKind, ModOp)> = [
        "add_type_definition(Lab)",
        "add_attribute(Lab, long, room)",
        "delete_attribute(Person, name)",
        "add_type_definition(Lab)",
    ]
    .iter()
    .map(|s| {
        (
            ConceptKind::WagonWheel,
            parse_statement(s).expect("statement parses"),
        )
    })
    .collect();
    let (index, _) = session
        .issue_batch(&batch)
        .expect_err("the last op is a duplicate");
    assert_eq!(index, 3);
    assert_reads_match(session.repository().workspace(), "after rollback");
    assert_eq!(session.repository().custom_schema_odl(), before);
    session
        .issue_batch(&batch[..3])
        .expect("the first three apply");
    assert_reads_match(session.repository().workspace(), "after issue");

    // Resume from a checkpoint image: the blocks start from nothing and
    // stay exact as the resumed workspace moves on.
    let mut ws = Workspace::new(university::graph());
    for statement in ["add_type_definition(Lab)", "delete_type_definition(Book)"] {
        let op = parse_statement(statement).expect("statement parses");
        ws.apply(ConceptKind::WagonWheel, op).expect("op applies");
    }
    let resumed = Workspace::resume(
        ws.shrink_wrap().clone(),
        ws.working().clone(),
        ws.total_ops(),
        ws.move_table(),
    );
    assert_eq!(resumed.custom_odl().text(), ws.custom_odl().text());
    let script = edit_stream(resumed.working(), 12, 9);
    drive(resumed, &script, "resumed");
}

#[test]
fn concept_count_equals_the_decomposition() {
    for (name, g) in all_named() {
        assert_eq!(concept_count(&g), decompose(&g).len(), "{name}");
        // Normalized as ingest leaves it.
        let repo = Repository::ingest(g);
        let sw = repo.workspace().shrink_wrap();
        assert_eq!(concept_count(sw), decompose(sw).len(), "{name} normalized");
    }
    for n in [10, 100, 1_000] {
        for seed in [1, 2] {
            let g = SyntheticSpec::sized(n, seed).generate();
            assert_eq!(
                concept_count(&g),
                decompose(&g).len(),
                "synthetic {n}/{seed}"
            );
        }
    }
}

/// Adding, deleting and reviving a free-standing type moves the concept
/// count by the change in live types, with no recount; giving the new
/// type a supertype still recounts.
#[test]
fn free_standing_type_edits_move_the_concept_count_without_a_recount() {
    let g = SyntheticSpec::sized(1_000, 11).generate();
    let loner = g
        .types()
        .find(|(_, n)| {
            n.supertypes.is_empty()
                && n.subtypes.is_empty()
                && n.parent_links.is_empty()
                && n.child_links.is_empty()
        })
        .map(|(_, n)| n.name.to_string())
        .expect("some synthetic type stands outside every hierarchy");
    let supertype = g
        .types()
        .find(|(_, n)| !n.subtypes.is_empty())
        .map(|(_, n)| n.name.to_string())
        .expect("some synthetic type has subtypes");
    let mut ws = Workspace::new(g);
    ws.concept_count(); // the one full count

    let rec = Recorder::new();
    let _guard = rec.install_thread();
    let recounted = |ws: &Workspace, at: &str| {
        let count = ws.concept_count();
        assert_eq!(
            count,
            decompose(ws.working()).len(),
            "concept count at {at}"
        );
        rec.take()
            .events
            .iter()
            .any(|e| e.name == "core.concept_count" && matches!(e.kind, EventKind::SpanOpen))
    };
    let apply = |ws: &mut Workspace, context, statement: &str| {
        let op = parse_statement(statement).expect("statement parses");
        ws.apply(context, op).expect("op applies");
    };
    apply(
        &mut ws,
        ConceptKind::WagonWheel,
        "add_type_definition(Fresh)",
    );
    assert!(
        !recounted(&ws, "add"),
        "adding a free-standing type recounted"
    );
    let delete = format!("delete_type_definition({loner})");
    apply(&mut ws, ConceptKind::WagonWheel, &delete);
    assert!(
        !recounted(&ws, "delete"),
        "deleting a free-standing type recounted"
    );
    ws.undo_last().expect("the delete to undo");
    assert!(!recounted(&ws, "undo delete"), "reviving a type recounted");
    ws.undo_last().expect("the add to undo");
    assert!(!recounted(&ws, "undo add"), "undoing an add recounted");

    apply(
        &mut ws,
        ConceptKind::WagonWheel,
        "add_type_definition(Fresh)",
    );
    assert!(!recounted(&ws, "re-add"));
    let isa = format!("add_supertype(Fresh, {supertype})");
    apply(&mut ws, ConceptKind::Generalization, &isa);
    assert!(
        recounted(&ws, "add_supertype"),
        "a hierarchy change must recount"
    );
}

#[test]
fn a_graph_clone_is_isolated_from_later_writes() {
    let g = SyntheticSpec::sized(300, 4).generate();
    let mut ws = Workspace::new(g.clone());
    let snapshot = ws.working().clone();
    let frozen = full_render(&snapshot);
    for (context, op) in edit_stream(&g, 40, 13) {
        let _ = ws.apply(context, op);
    }
    assert_ne!(full_render(ws.working()), frozen, "the writer moved on");
    assert_eq!(full_render(&snapshot), frozen);
    ws.reset();
    assert_eq!(full_render(&snapshot), frozen);
    assert_eq!(full_render(ws.working()), frozen);
}

#[test]
fn a_read_view_is_isolated_from_later_submits() {
    let service = DesignService::new(Session::from_odl(university::SOURCE).expect("ingests"));
    let opened = service.handle(Request::Open {
        session: "w".to_string(),
    });
    assert!(matches!(opened, Response::Opened { .. }), "{opened:?}");
    let mut rev = 0;
    let mut views = Vec::new();
    let script = edit_stream(&university::graph(), 24, 17);
    for batch in script.chunks(3) {
        let view = service.view();
        assert_eq!(view.odl.text(), full_render(&view.working));
        views.push((full_render(&view.working), view));
        let response = service.handle(Request::Submit {
            session: "w".to_string(),
            base_rev: rev,
            ops: batch
                .iter()
                .map(|(context, op)| OpEnvelope {
                    context: *context,
                    statement: shrink_wrap_schemas::core::print_op(op),
                })
                .collect(),
        });
        match response {
            Response::Accepted { rev: head, .. } => rev = head,
            other => panic!("batch at head must be accepted: {other:?}"),
        }
    }
    // Every earlier view still renders exactly what it published.
    for (rendered, view) in &views {
        assert_eq!(full_render(&view.working), *rendered);
        assert_eq!(view.odl.text(), *rendered);
    }
    let head = service.view();
    assert_eq!(head.odl.text(), full_render(&head.working));
    assert_ne!(head.odl.text(), views[0].0);
}
