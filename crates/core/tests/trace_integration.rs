//! Integration test: the tracing threaded through the schema-reuse
//! pipeline. Runs a whole parse → decompose → modify session under a
//! thread-local recorder and checks the span stream: one `ws.apply` span
//! per operation with the right op-kind field, pipeline-stage spans nested
//! under it, counters that add up, and a JSONL export that the hand-written
//! checker accepts.

use sws_core::{ConceptKind, ModOp, Workspace};
use sws_model::schema_to_graph;
use sws_odl::parse_schema;
use sws_trace::{to_jsonl, Event, EventKind, FieldValue, Recorder};

const SRC: &str = r#"
schema Dept {
    interface Person { attribute string name; }
    interface Employee : Person {
        relationship Department works_in_a inverse Department::has;
    }
    interface Department {
        relationship set<Employee> has inverse Employee::works_in_a;
    }
}"#;

fn open_spans<'a>(events: &'a [Event], name: &str) -> Vec<&'a Event> {
    events
        .iter()
        .filter(|e| e.name == name && matches!(e.kind, EventKind::SpanOpen))
        .collect()
}

fn field<'a>(e: &'a Event, key: &str) -> &'a FieldValue {
    e.fields
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("span `{}` missing field `{key}`", e.name))
}

#[test]
fn pipeline_session_traces_every_layer() {
    let rec = Recorder::new();
    let _guard = rec.install_thread();

    let schema = parse_schema(SRC).unwrap();
    let graph = schema_to_graph(&schema).unwrap();
    let mut ws = Workspace::new(graph);
    let _decomp = ws.concept_schemas();

    let ops = vec![
        ModOp::AddTypeDefinition {
            ty: "Campus".into(),
        },
        ModOp::AddAttribute {
            ty: "Campus".into(),
            domain: sws_odl::DomainType::String,
            size: None,
            name: "city".into(),
        },
        ModOp::AddTypeDefinition { ty: "Lab".into() },
    ];
    ws.apply_script(ConceptKind::WagonWheel, ops.clone())
        .unwrap();

    let session = rec.take();

    // One ws.apply span per op, each carrying its op kind and context.
    let applies = open_spans(&session.events, "ws.apply");
    assert_eq!(applies.len(), ops.len());
    let kinds: Vec<_> = applies.iter().map(|e| field(e, "op").clone()).collect();
    assert_eq!(
        kinds,
        vec![
            FieldValue::Str("add_type_definition".into()),
            FieldValue::Str("add_attribute".into()),
            FieldValue::Str("add_type_definition".into()),
        ]
    );
    for e in &applies {
        assert_eq!(*field(e, "context"), FieldValue::Str("wagon_wheel".into()));
    }

    // Pipeline stages are children of their ws.apply span.
    let pre = open_spans(&session.events, "core.preconditions");
    let mutate = open_spans(&session.events, "core.apply_op");
    assert_eq!(pre.len(), ops.len());
    assert_eq!(mutate.len(), ops.len());
    let apply_ids: Vec<u64> = applies.iter().map(|e| e.span_id).collect();
    for (p, m) in pre.iter().zip(&mutate) {
        assert!(apply_ids.contains(&p.parent), "preconditions not nested");
        assert!(apply_ids.contains(&m.parent), "apply_op not nested");
    }

    // The ws.apply spans themselves sit inside the ws.apply_script span.
    let script = open_spans(&session.events, "ws.apply_script");
    assert_eq!(script.len(), 1);
    for e in &applies {
        assert_eq!(e.parent, script[0].span_id);
    }

    // Parse and decomposition layers traced too.
    assert_eq!(open_spans(&session.events, "odl.parse").len(), 1);
    assert_eq!(open_spans(&session.events, "core.decompose").len(), 1);
    assert!(!open_spans(&session.events, "core.decompose.wagon_wheels").is_empty());

    // Counters add up; span-close auto-feeds the latency histogram.
    assert_eq!(session.counter("ws.ops_applied"), ops.len() as u64);
    assert_eq!(session.counter("ws.ops_rejected"), 0);
    assert!(session.counter("odl.tokens") > 0);
    let hist = session.histogram("ws.apply").expect("ws.apply histogram");
    assert_eq!(hist.count(), ops.len() as u64);

    // The whole session exports as checker-valid JSONL.
    let jsonl = to_jsonl(&session);
    let lines = sws_trace::export::jsonl::check(&jsonl).unwrap();
    assert!(lines >= session.events.len());
}

#[test]
fn rejected_op_records_verdict_and_counter() {
    let rec = Recorder::new();
    let _guard = rec.install_thread();

    let graph = schema_to_graph(&parse_schema(SRC).unwrap()).unwrap();
    let mut ws = Workspace::new(graph);
    // A move issued from a wagon wheel is rejected by the Table 1 matrix.
    ws.apply(
        ConceptKind::WagonWheel,
        ModOp::ModifyAttribute {
            ty: "Person".into(),
            name: "name".into(),
            new_ty: "Employee".into(),
        },
    )
    .unwrap_err();

    let session = rec.take();
    let close = session
        .closed_spans("ws.apply")
        .next()
        .expect("ws.apply span closed");
    assert_eq!(
        *field(close, "verdict"),
        FieldValue::Str("not_permitted".into())
    );
    assert_eq!(session.counter("ws.ops_rejected"), 1);
    assert_eq!(session.counter("ws.ops_applied"), 0);
}

#[test]
fn consistency_check_traces_span_and_findings_counter() {
    let rec = Recorder::new();
    let _guard = rec.install_thread();

    let graph = schema_to_graph(&parse_schema("interface Loner { }").unwrap()).unwrap();
    let report = sws_core::check_consistency(&graph, &graph);
    assert!(!report.is_clean());

    let session = rec.take();
    let spans = open_spans(&session.events, "core.consistency");
    assert_eq!(spans.len(), 1);
    assert_eq!(*field(spans[0], "types"), FieldValue::U64(1));
    assert_eq!(
        session.counter("consistency.findings"),
        report.findings.len() as u64
    );
}
