//! Symbol and ID stability across undo and replay.
//!
//! The global interner is append-only: a `Symbol` handle minted for any
//! name stays valid (and keeps the same id) for the life of the process,
//! even after every construct using that name has been deleted or
//! reverted away. These tests pin the two ways a session rewinds:
//!
//! * `Workspace::reset` — pops the whole [`UndoPatch`] journal; the
//!   reverted graph must render the original ODL byte-for-byte,
//! * replaying the saved op log after a reset — must land on the same
//!   rendering as before the reset, and must not mint a single new
//!   symbol (every name was already interned on the first pass),
//! * undoing the last k ops with `Workspace::undo_last` and re-applying
//!   them (the designer's undo/redo) — must land on the same rendering
//!   and the same arena ids for every type.
//!
//! [`UndoPatch`]: shrink_wrap_schemas::model::UndoPatch

use shrink_wrap_schemas::core::{ConceptKind, ModOp, Workspace};
use shrink_wrap_schemas::corpus::university;
use shrink_wrap_schemas::model::{graph_to_schema, Symbol, TypeId};
use shrink_wrap_schemas::odl::{print_schema, DomainType};
use std::sync::{Mutex, MutexGuard};

/// The interner is process-global and the test harness runs tests on
/// parallel threads: each test that counts symbols holds this lock, so
/// no other test mints a name between its two `interner_len` reads.
fn interner_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn render(ws: &Workspace) -> String {
    print_schema(&graph_to_schema(ws.working()))
}

/// Every live type's arena id and name, in arena order.
fn type_ids(ws: &Workspace) -> Vec<(TypeId, Symbol)> {
    ws.working()
        .types()
        .map(|(id, node)| (id, node.name))
        .collect()
}

/// Undo the last `k` ops, then redo them in order.
fn undo_redo(ws: &mut Workspace, k: usize) {
    let mut undone: Vec<_> = (0..k).map_while(|_| ws.undo_last()).collect();
    while let Some(record) = undone.pop() {
        ws.apply(record.context, record.op)
            .expect("an undone op re-applies on the state it came from");
    }
}

/// A deterministic edit script that touches every construct arena: new
/// type, new attribute, a supertype edge, and a deletion with cascade.
fn script() -> Vec<(ConceptKind, ModOp)> {
    vec![
        (
            ConceptKind::WagonWheel,
            ModOp::AddTypeDefinition {
                ty: "ZzStableType".into(),
            },
        ),
        (
            ConceptKind::WagonWheel,
            ModOp::AddAttribute {
                ty: "ZzStableType".into(),
                domain: DomainType::Long,
                size: None,
                name: "zz_stable_attr".into(),
            },
        ),
        (
            ConceptKind::Generalization,
            ModOp::AddSupertype {
                ty: "ZzStableType".into(),
                supertype: "Person".into(),
            },
        ),
        (
            ConceptKind::WagonWheel,
            ModOp::DeleteTypeDefinition { ty: "Book".into() },
        ),
    ]
}

#[test]
fn reset_reverts_odl_byte_for_byte_and_interner_never_shrinks() {
    let _interner = interner_lock();
    let mut ws = Workspace::new(university::graph());
    let odl_before = render(&ws);
    let len_start = Symbol::interner_len();

    let mut len_prev = len_start;
    for (context, op) in script() {
        ws.apply(context, op).expect("scripted edit applies");
        let len_now = Symbol::interner_len();
        assert!(len_now >= len_prev, "interner shrank during apply");
        len_prev = len_now;
    }
    let odl_edited = render(&ws);
    assert_ne!(odl_edited, odl_before, "script must change the schema");

    // Handles minted for names that only exist in the edited schema.
    let novel_type = Symbol::intern("ZzStableType");
    let novel_attr = Symbol::intern("zz_stable_attr");
    let len_edited = Symbol::interner_len();

    ws.reset();

    // Byte-for-byte: the undo journal restores the exact original
    // rendering, not merely a structurally equivalent one.
    assert_eq!(render(&ws), odl_before);
    assert!(ws.log().is_empty());

    // The interner is untouched by the revert: nothing freed, every
    // handle still resolves to the same id and string.
    assert_eq!(Symbol::interner_len(), len_edited);
    assert_eq!(Symbol::try_lookup("ZzStableType"), Some(novel_type));
    assert_eq!(Symbol::try_lookup("zz_stable_attr"), Some(novel_attr));
    assert_eq!(novel_type.as_str(), "ZzStableType");
    assert_eq!(novel_attr.as_str(), "zz_stable_attr");
}

#[test]
fn undo_k_then_redo_k_is_byte_and_id_identical() {
    let _interner = interner_lock();
    let mut ws = Workspace::new(university::graph());
    for (context, op) in script() {
        ws.apply(context, op).expect("scripted edit applies");
    }
    let odl = render(&ws);
    let ids = type_ids(&ws);
    let len = Symbol::interner_len();
    for k in 1..=script().len() {
        undo_redo(&mut ws, k);
        assert_eq!(render(&ws), odl, "undo {k} / redo {k}");
        assert_eq!(type_ids(&ws), ids, "undo {k} / redo {k}");
        assert_eq!(ws.log().len(), script().len());
    }
    assert_eq!(Symbol::interner_len(), len, "redo minted a symbol");
}

#[test]
fn replay_after_reset_reuses_every_symbol() {
    let _interner = interner_lock();
    let mut ws = Workspace::new(university::graph());
    ws.apply_script(
        ConceptKind::WagonWheel,
        script().into_iter().map(|(_, op)| op).take(2),
    )
    .expect("script applies");
    let odl_edited = render(&ws);
    let log: Vec<_> = ws.log().iter().map(|r| (r.context, r.op.clone())).collect();

    // Pin the ids of every name visible in the edited working schema.
    let ids: Vec<(Symbol, &'static str)> = ws
        .working()
        .types()
        .map(|(_, node)| (node.name, node.name.as_str()))
        .collect();

    ws.reset();
    let len_after_reset = Symbol::interner_len();

    ws.replay(log).expect("log replays after reset");
    assert_eq!(render(&ws), odl_edited);

    // Replay re-interns only names seen on the first pass: the interner
    // must not have grown, and every pinned handle must resolve to the
    // same id.
    assert_eq!(Symbol::interner_len(), len_after_reset);
    for (sym, name) in ids {
        assert_eq!(Symbol::try_lookup(name), Some(sym));
    }
}

#[cfg(feature = "proptest")]
mod random {
    use super::*;
    use proptest::prelude::*;
    use shrink_wrap_schemas::model::check_well_formed;

    fn type_name() -> impl Strategy<Value = String> {
        prop_oneof![
            3 => prop::sample::select(vec![
                "Person", "Student", "Employee", "Faculty", "Department",
                "Course", "CourseOffering", "Book", "TimeSlot",
            ])
            .prop_map(str::to_string),
            1 => "[A-Z][a-z]{2,6}".prop_map(|s| format!("Zy{s}")),
        ]
    }

    fn member_name() -> impl Strategy<Value = String> {
        prop_oneof![
            2 => prop::sample::select(vec![
                "name", "address", "salary", "rank", "credits", "title",
            ])
            .prop_map(str::to_string),
            1 => "[a-z]{2,6}".prop_map(|s| format!("zy_{s}")),
        ]
    }

    fn random_op() -> impl Strategy<Value = ModOp> {
        prop_oneof![
            type_name().prop_map(|ty| ModOp::AddTypeDefinition { ty }),
            type_name().prop_map(|ty| ModOp::DeleteTypeDefinition { ty }),
            (type_name(), type_name())
                .prop_map(|(ty, supertype)| ModOp::AddSupertype { ty, supertype }),
            (type_name(), member_name()).prop_map(|(ty, name)| ModOp::AddAttribute {
                ty,
                domain: DomainType::Long,
                size: None,
                name
            }),
            (type_name(), member_name()).prop_map(|(ty, name)| ModOp::DeleteAttribute { ty, name }),
        ]
    }

    fn contexts() -> impl Strategy<Value = ConceptKind> {
        prop::sample::select(ConceptKind::ALL.to_vec())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random accepted/rejected edit mixes, then a reset: the ODL
        /// rendering round-trips byte-for-byte, the interner only grows,
        /// and replaying the accepted log reproduces the edited schema
        /// without minting any new symbol.
        #[test]
        fn random_edit_reset_replay_is_symbol_stable(
            script in prop::collection::vec((contexts(), random_op()), 1..20),
            k in 0usize..20
        ) {
            let _interner = interner_lock();
            let mut ws = Workspace::new(university::graph());
            let odl_before = render(&ws);

            let mut len_prev = Symbol::interner_len();
            for (context, op) in script {
                let _ = ws.apply(context, op);
                let len_now = Symbol::interner_len();
                prop_assert!(len_now >= len_prev, "interner shrank");
                len_prev = len_now;
            }
            let odl_edited = render(&ws);
            let arena_ids = type_ids(&ws);
            undo_redo(&mut ws, k);
            prop_assert_eq!(render(&ws), odl_edited.clone());
            prop_assert_eq!(type_ids(&ws), arena_ids);
            let log: Vec<_> = ws.log().iter().map(|r| (r.context, r.op.clone())).collect();
            let ids: Vec<(Symbol, &'static str)> = ws
                .working()
                .types()
                .map(|(_, node)| (node.name, node.name.as_str()))
                .collect();

            ws.reset();
            prop_assert_eq!(render(&ws), odl_before);
            prop_assert!(Symbol::interner_len() >= len_prev, "reset shrank the interner");

            let len_before_replay = Symbol::interner_len();
            ws.replay(log)
                .map_err(|(i, e)| TestCaseError::fail(format!("replay op {i}: {e}")))?;
            prop_assert_eq!(render(&ws), odl_edited);
            prop_assert_eq!(Symbol::interner_len(), len_before_replay);
            for (sym, name) in ids {
                prop_assert_eq!(Symbol::try_lookup(name), Some(sym));
            }
            let issues = check_well_formed(ws.working());
            prop_assert!(issues.is_empty(), "{issues:?}");
        }
    }
}
