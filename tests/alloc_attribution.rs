//! Allocation attribution (the `alloc-stats` feature): with the counting
//! global allocator installed, every closed span carries `alloc.count` /
//! `alloc.bytes` fields, and the trace summary aggregates them per span
//! name.
//!
//! The headline assertion: the steady-state serial incremental recheck —
//! the `core.consistency.recheck` leaf span — performs **zero**
//! allocations. Interned symbols make every name comparison an integer
//! compare, the traversal scratch is warmed before the span opens, and a
//! clean type stores three empty (never-allocated) finding vectors. CI
//! runs this test so a regression that re-introduces allocation on the hot
//! path fails the build.
//!
//! The existence step that follows an add-type op reads the reverse
//! reference index: when no type references the new name, its
//! `core.consistency.existence_scan` span allocates nothing either.
//!
//! A further guard pins submit at head to O(op): one `Session::issue`
//! allocates about as much with 2,000 ops of history as with 10.
//!
//! Another pins the read-view publish to O(batch): one accepted
//! `DesignService::handle(Submit)` — apply, resync, and publish of the
//! new view — allocates about as often and at most 2.5x as many bytes on
//! a 10,000-type schema as on a 1,000-type one, and fewer bytes than a
//! quarter of the ODL text. It runs in release builds (`cargo test --release
//! --features alloc-stats --test alloc_attribution`): debug builds check
//! every incremental read against a from-scratch one inside the publish,
//! and those oracles allocate per type by design.
//!
//! Another pins an export to a copy of the published blocks' stored
//! JSON escapes: one export at 10,000 types allocates fewer bytes than a
//! quarter of its ODL.
//!
//! Another pins a stale submit to O(1) allocations in its lag: answering
//! and writing a `conflict` 128 ops behind the head allocates at most a
//! few times more often than one 1 op behind. The delta clones refcounts
//! and the commutation verdict allocates nothing.
//!
//! The last pins the first write after a publish to the list it changes:
//! an accepted submit on a type whose chunk-mates own many members
//! allocates as often as one on a type whose chunk-mates own none. The
//! chunk copy bumps the refcounts of the mates' member lists instead of
//! copying them.

#![cfg(feature = "alloc-stats")]

use shrink_wrap_schemas::core::{ConceptKind, ModOp, Workspace};
use shrink_wrap_schemas::corpus::synthetic::SyntheticSpec;
use shrink_wrap_schemas::corpus::university;
use shrink_wrap_schemas::designer::{DesignService, OpEnvelope, Request, Response, Session};
use shrink_wrap_schemas::model::{graph_to_schema, SchemaGraph, CHUNK};
use shrink_wrap_schemas::odl::{print_schema, Cardinality, DomainType, Key, Operation};
use std::sync::{Mutex, PoisonError};
use sws_trace::{FieldValue, Recorder, TraceSummary};

/// The allocation counters are process-wide: tests that read them must
/// not overlap with each other.
static COUNTERS: Mutex<()> = Mutex::new(());

#[test]
fn incremental_recheck_span_is_allocation_free() {
    let _serial = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    let rec = Recorder::new();
    let _guard = rec.install_thread();

    let mut ws = Workspace::new(university::graph());
    ws.consistency(); // warm state: the next sync is incremental
    ws.apply(
        ConceptKind::WagonWheel,
        ModOp::AddAttribute {
            ty: "CourseOffering".into(),
            domain: shrink_wrap_schemas::odl::DomainType::String,
            size: Some(8),
            name: "wing".into(),
        },
    )
    .expect("applies");
    ws.consistency();

    let trace = rec.take();
    let close_of = |name: &str| {
        trace
            .events
            .iter()
            .find(|e| e.name == name && matches!(e.kind, sws_trace::EventKind::SpanClose { .. }))
            .unwrap_or_else(|| panic!("`{name}` span ran under the recorder"))
    };
    let field = |ev: &sws_trace::Event, key: &str| {
        ev.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
    };

    // The enclosing incremental sync allocates (dirty sets, closure
    // expansion, recheck id list): zero would mean the counter is not
    // wired through.
    let sync = close_of("core.consistency.incremental_sync");
    let Some(FieldValue::U64(count)) = field(sync, "alloc.count") else {
        panic!("missing alloc.count on incremental_sync close: {sync:?}");
    };
    let Some(FieldValue::U64(bytes)) = field(sync, "alloc.bytes") else {
        panic!("missing alloc.bytes on incremental_sync close: {sync:?}");
    };
    assert!(count > 0, "incremental sync should allocate; got 0");
    assert!(bytes >= count, "bytes ({bytes}) < count ({count})?");

    // The leaf recheck span inside it is the steady-state hot path: with
    // interned symbols and a warm scratch it must not touch the allocator
    // at all.
    let recheck = close_of("core.consistency.recheck");
    let Some(FieldValue::U64(recheck_count)) = field(recheck, "alloc.count") else {
        panic!("missing alloc.count on recheck close: {recheck:?}");
    };
    let Some(FieldValue::U64(recheck_bytes)) = field(recheck, "alloc.bytes") else {
        panic!("missing alloc.bytes on recheck close: {recheck:?}");
    };
    assert_eq!(
        recheck_count, 0,
        "steady-state recheck allocated {recheck_count} times ({recheck_bytes} bytes)"
    );

    // And the summary attributes the sync's allocations per span name.
    let summary = TraceSummary::of(&trace);
    let row = summary
        .allocations
        .iter()
        .find(|a| a.name == "core.consistency.incremental_sync")
        .expect("summary aggregates the sync span's allocations");
    assert!(row.count >= count);
    assert!(row.spans >= 1);
    let rendered = summary.render();
    assert!(rendered.contains("allocations"), "{rendered}");
}

#[test]
fn existence_scan_of_an_unreferenced_new_type_is_allocation_free() {
    let _serial = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    let rec = Recorder::new();
    let _guard = rec.install_thread();

    let mut ws = Workspace::new(university::graph());
    ws.consistency(); // warm state: the next sync is incremental
    ws.apply(
        ConceptKind::WagonWheel,
        ModOp::AddTypeDefinition { ty: "Annex".into() },
    )
    .expect("applies");
    ws.consistency();

    let trace = rec.take();
    let scan = trace
        .events
        .iter()
        .find(|e| {
            e.name == "core.consistency.existence_scan"
                && matches!(e.kind, sws_trace::EventKind::SpanClose { .. })
        })
        .expect("an add-type op runs the existence scan");
    let count = scan.fields.iter().find(|(k, _)| *k == "alloc.count");
    let Some((_, FieldValue::U64(count))) = count else {
        panic!("missing alloc.count on existence_scan close: {scan:?}");
    };
    assert_eq!(
        *count,
        0,
        "the existence scan over {} types allocated",
        ws.working().type_count()
    );
}

/// `alloc.bytes` of one `Session::issue` of the same churn op, after
/// `history` ops are already in the session's undo history.
fn issue_bytes_at(history: usize) -> u64 {
    use shrink_wrap_schemas::core::parse_statement;
    use shrink_wrap_schemas::designer::Session;

    // Alternate adding and deleting one attribute: the schema stays put
    // while the op log and the undo history grow.
    let churn = |i: usize| {
        parse_statement(if i.is_multiple_of(2) {
            "add_attribute(Course, long, zz_churn)"
        } else {
            "delete_attribute(Course, zz_churn)"
        })
        .expect("churn op parses")
    };
    let mut session = Session::from_odl(university::SOURCE).expect("university schema ingests");
    for i in 0..history {
        session.issue(churn(i)).expect("churn op applies");
    }
    let op = churn(history);
    let (_, bytes) = allocations(|| {
        session.issue(op).expect("churn op applies");
    });
    bytes
}

/// `(alloc.count, alloc.bytes)` of running `f` inside one span.
fn allocations(f: impl FnOnce()) -> (u64, u64) {
    let rec = Recorder::new();
    let guard = rec.install_thread();
    {
        let _span = sws_trace::span("test.measured");
        f();
    }
    drop(guard);
    let trace = rec.take();
    let close = trace
        .events
        .iter()
        .find(|e| {
            e.name == "test.measured" && matches!(e.kind, sws_trace::EventKind::SpanClose { .. })
        })
        .expect("the measured span closed under the recorder");
    let field = |name: &str| match close.fields.iter().find(|(k, _)| *k == name) {
        Some((_, FieldValue::U64(value))) => *value,
        other => panic!("missing {name} on the measured span: {other:?}"),
    };
    (field("alloc.count"), field("alloc.bytes"))
}

/// Submit at head costs O(op), not O(session): issuing an op allocates no
/// more at history 2,000 than at history 10 (within 2×). A design that
/// snapshots state for undo grows with the log and fails here.
#[test]
fn issue_allocation_does_not_grow_with_history() {
    let _serial = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    let short = issue_bytes_at(10);
    let long = issue_bytes_at(2_000);
    assert!(short > 0, "the issue span should allocate; got 0 bytes");
    assert!(
        long <= 2 * short,
        "issue at history 2000 allocated {long} bytes, at history 10 {short} bytes"
    );
}

/// What one accepted submit allocated, and the size of the ODL it
/// published.
struct Publish {
    count: u64,
    bytes: u64,
    odl_len: usize,
}

/// `alloc.count` and `alloc.bytes` of one accepted single-op submit at
/// head on a synthetic schema of `types` types, after one warm-up submit
/// (so every lazily synced read state is current, as on a live server).
fn publish_allocations_at(types: usize) -> Publish {
    let g = SyntheticSpec::sized(types, 31).generate();
    let service = DesignService::new(
        Session::from_odl(&print_schema(&graph_to_schema(&g))).expect("synthetic schema ingests"),
    );
    let opened = service.handle(Request::Open {
        session: "guard".to_string(),
    });
    assert!(matches!(opened, Response::Opened { .. }), "{opened:?}");
    // A type outside every generalization hierarchy with few
    // relationships: the consistency resync then rechecks a handful of
    // types on the serial path at both sizes, so the guard measures the
    // publish rather than the shape of the random hierarchy.
    let focal = g
        .types()
        .filter(|(_, n)| n.supertypes.is_empty() && n.subtypes.is_empty() && n.rel_ends.len() <= 2)
        .map(|(_, n)| n.name.to_string())
        .last()
        .expect("some type stands outside the hierarchies");
    let submit = |base_rev: u64, attr: &str| Request::Submit {
        session: "guard".to_string(),
        base_rev,
        ops: vec![OpEnvelope {
            context: ConceptKind::WagonWheel,
            statement: format!("add_attribute({focal}, long, {attr})"),
        }],
    };
    let accepted = |response: Response| match response {
        Response::Accepted { rev, .. } => rev,
        other => panic!("submit at head must be accepted, got {other:?}"),
    };
    let rev = accepted(service.handle(submit(0, "zz_warm")));
    let (count, bytes) = allocations(|| {
        accepted(service.handle(submit(rev, "zz_guard")));
    });
    Publish {
        count,
        bytes,
        odl_len: service.view().odl.text().len(),
    }
}

/// Publishing a read view costs O(batch), not O(schema): one accepted
/// submit allocates at most 2x as often, and at most 2.5x as many bytes,
/// on 10,000 types as on 1,000. A publish that re-renders the whole custom
/// schema, decomposes it, or deep-copies the working graph allocates per
/// type and fails here; so does one that collects a fresh per-type block
/// array. It also allocates fewer bytes than a quarter of the ODL text: a
/// publish that copies the whole text fails that.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds run from-scratch oracles inside the publish; run with --release"
)]
fn publish_allocation_does_not_grow_with_schema_size() {
    let _serial = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    let small = publish_allocations_at(1_000);
    let large = publish_allocations_at(10_000);
    let (small_count, large_count) = (small.count, large.count);
    eprintln!("publish alloc.count: {small_count} at 1,000 types, {large_count} at 10,000");
    assert!(small_count > 0, "the submit span should allocate; got 0");
    assert!(
        large_count <= 2 * small_count,
        "submit at 10,000 types allocated {large_count} times, at 1,000 types {small_count} times"
    );
    eprintln!(
        "publish alloc.bytes: {} at 1,000 types, {} at 10,000 for a {}-byte ODL",
        small.bytes, large.bytes, large.odl_len
    );
    assert!(
        2 * large.bytes <= 5 * small.bytes,
        "submit at 10,000 types allocated {} bytes, more than 2.5x the {} at 1,000 types",
        large.bytes,
        small.bytes
    );
    assert!(
        large.bytes < large.odl_len as u64 / 4,
        "submit at 10,000 types allocated {} bytes for a {}-byte ODL",
        large.bytes,
        large.odl_len
    );
}

/// An export costs a copy of the published blocks' stored escapes, not a
/// new text: one `export` at 10,000 types, answered and written through
/// `write_response` with a warm line buffer, allocates fewer bytes than a
/// quarter of its ODL. An export that assembles the whole text, or escapes
/// it into a new line, fails that.
#[test]
fn export_allocates_less_than_a_quarter_of_its_odl() {
    use shrink_wrap_schemas::designer::protocol::write_response;

    let _serial = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    let g = SyntheticSpec::sized(10_000, 31).generate();
    let service = DesignService::new(
        Session::from_odl(&print_schema(&graph_to_schema(&g))).expect("synthetic schema ingests"),
    );
    let export = || {
        service.handle(Request::Export {
            session: "guard".to_string(),
        })
    };
    let opened = service.handle(Request::Open {
        session: "guard".to_string(),
    });
    assert!(matches!(opened, Response::Opened { .. }), "{opened:?}");
    // The connection's line buffer, grown to one slice by a first export.
    let mut line = String::new();
    let mut write = |response: Response| {
        write_response(&response, &mut line, &mut std::io::sink()).expect("a sink never fails");
    };
    write(export());
    let (_, bytes) = allocations(|| write(export()));
    let odl_len = service.view().odl.text().len();
    eprintln!("export alloc.bytes: {bytes} for a {odl_len}-byte ODL");
    assert!(
        bytes < odl_len as u64 / 4,
        "an export at 10,000 types allocated {bytes} bytes for a {odl_len}-byte ODL"
    );
}

/// A stale submit allocates about as often at lag 128 as at lag 1: one
/// `handle(Submit)` answered `conflict` and written through
/// `write_response` with a warm line buffer. The log is 128 type adds and
/// the stale op adds another, so every pair commutes and no hint is
/// rendered; what is left to grow with the lag is the delta. A delta that
/// copies its records' strings, or a verdict that allocates per pair,
/// allocates per record and fails here.
#[test]
fn a_stale_submit_allocates_as_often_at_lag_128_as_at_lag_1() {
    use shrink_wrap_schemas::designer::protocol::write_response;

    let _serial = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    let service =
        DesignService::new(Session::from_odl(university::SOURCE).expect("university ingests"));
    for session in ["lead", "lag"] {
        let opened = service.handle(Request::Open {
            session: session.to_string(),
        });
        assert!(matches!(opened, Response::Opened { .. }), "{opened:?}");
    }
    let submit = |session: &str, base_rev: u64, ty: &str| Request::Submit {
        session: session.to_string(),
        base_rev,
        ops: vec![OpEnvelope {
            context: ConceptKind::WagonWheel,
            statement: format!("add_type_definition({ty})"),
        }],
    };
    const HEAD: u64 = 128;
    for rev in 0..HEAD {
        let response = service.handle(submit("lead", rev, &format!("Lead{rev}")));
        assert!(
            matches!(response, Response::Accepted { .. }),
            "{response:?}"
        );
    }
    let mut line = String::new();
    let mut stale = |lag: u64| {
        let response = service.handle(submit("lag", HEAD - lag, "Stale"));
        match &response {
            Response::Conflict {
                auto_rebasable: true,
                ..
            } => {}
            other => panic!("a commuting stale submit must auto-rebase, got {other:?}"),
        }
        write_response(&response, &mut line, &mut std::io::sink()).expect("a sink never fails");
    };
    // Grow the line buffer to the longest line first.
    stale(HEAD);
    let (near, _) = allocations(|| stale(1));
    let (far, _) = allocations(|| stale(HEAD));
    eprintln!("stale submit alloc.count: {near} at lag 1, {far} at lag {HEAD}");
    assert!(
        far <= near + 4,
        "a stale submit allocated {far} times at lag {HEAD}, {near} times at lag 1"
    );
}

/// `alloc.count` of one accepted `add_attribute` submit on the member-less
/// type `A00`, whose 31 chunk-mates `A01`…`A31` each own eight attributes,
/// a key, an operation and two relationship ends, and of one on the
/// member-less `B00`, whose 31 chunk-mates `B01`…`B31` own nothing. Each
/// submit follows a publish, so it finds its type chunk shared with the
/// read view.
fn chunk_mate_allocations() -> (u64, u64) {
    let mut g = SchemaGraph::new("chunks");
    let names = |prefix: char| (0..CHUNK).map(move |i| format!("{prefix}{i:02}"));
    for name in names('A').chain(names('B')).chain(["Warm".to_string()]) {
        g.add_type(&name).expect("fresh name");
    }
    let rich: Vec<_> = names('A')
        .skip(1)
        .map(|name| g.type_id(&name).expect("added above"))
        .collect();
    for (i, &t) in rich.iter().enumerate() {
        for k in 0..8 {
            g.add_attribute(t, &format!("a{i}_{k}"), DomainType::Long, None)
                .expect("fresh member");
        }
        g.add_key(t, Key::single(format!("a{i}_0")))
            .expect("key on an own attribute");
        g.add_operation(t, Operation::nullary(format!("op{i}"), DomainType::Void))
            .expect("fresh member");
        g.add_relationship(
            t,
            &format!("next{i}"),
            Cardinality::One,
            vec![],
            rich[(i + 1) % rich.len()],
            &format!("prev{i}"),
            Cardinality::One,
            vec![],
        )
        .expect("fresh paths");
    }
    let session =
        Session::from_odl(&print_schema(&graph_to_schema(&g))).expect("chunk schema ingests");
    let working = session.repository().workspace().working();
    for (chunk, prefix) in [(0, 'A'), (1, 'B')] {
        for name in names(prefix) {
            let id = working.type_id(&name).expect("ingested");
            assert_eq!(id.index() / CHUNK, chunk, "{name} lands in chunk {chunk}");
        }
    }
    let service = DesignService::new(session);
    let opened = service.handle(Request::Open {
        session: "guard".to_string(),
    });
    assert!(matches!(opened, Response::Opened { .. }), "{opened:?}");
    let submit = |base_rev: u64, ty: &str| Request::Submit {
        session: "guard".to_string(),
        base_rev,
        ops: vec![OpEnvelope {
            context: ConceptKind::WagonWheel,
            statement: format!("add_attribute({ty}, long, zz_guard)"),
        }],
    };
    let accepted = |response: Response| match response {
        Response::Accepted { rev, .. } => rev,
        other => panic!("submit at head must be accepted, got {other:?}"),
    };
    let rev = accepted(service.handle(submit(0, "Warm")));
    let mut rev = Some(rev);
    let mut measure = |ty: &str| {
        let base = rev.take().expect("the last submit was accepted");
        allocations(|| rev = Some(accepted(service.handle(submit(base, ty))))).0
    };
    let rich_mates = measure("A00");
    let bare_mates = measure("B00");
    (rich_mates, bare_mates)
}

/// The first write to a type chunk after a publish copies the chunk's
/// slots and bumps their member lists' refcounts; it allocates only for
/// the list it changes. So an accepted submit allocates as often on a
/// type whose 31 chunk-mates own twelve members each as on one whose
/// chunk-mates own none. A chunk copy that clones every member list
/// allocates about 155 more times in the first case and fails here.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds run from-scratch oracles inside the publish; run with --release"
)]
fn a_write_after_a_publish_allocates_alike_whatever_its_chunk_mates_own() {
    let _serial = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    let (rich_mates, bare_mates) = chunk_mate_allocations();
    eprintln!("submit alloc.count: {rich_mates} beside rich chunk-mates, {bare_mates} beside bare");
    assert!(
        rich_mates.abs_diff(bare_mates) <= 8,
        "a submit allocated {rich_mates} times beside member-rich chunk-mates, \
         {bare_mates} times beside member-less ones"
    );
}
