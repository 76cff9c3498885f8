//! Property test for the serve rebase protocol: two clients submit random
//! scripts of 1–3-op batches against one `DesignService` under a random
//! interleaving, each maintaining a local replica from nothing but protocol
//! responses.
//!
//! Invariants under fuzz:
//! * an `accepted` response implies the batch replays cleanly on a replica
//!   synced to the acknowledged `base_rev`,
//! * a `conflict` delta is exactly the accepted ops in `(base_rev, rev]`,
//!   contiguously numbered, and always rebases cleanly onto the stale
//!   replica (the server accepted every record in it),
//! * the `auto_rebasable` classification is honest both ways: when true,
//!   the retry at the head MUST be accepted; when false, the report names
//!   a non-commuting pair or the analyzer rejects the batch at the head,
//! * **zero false conflicts**: a `rejected` batch's `index` is the op at
//!   which `analyze_ops` stops on a replica synced to the head — the
//!   server never turns away a batch the executor would have taken, nor
//!   blames another op than the analyzer does,
//! * the accepted total order (the log since 0) replays serially to the
//!   exported schema, byte for byte, and so does every client replica.

#![cfg(feature = "proptest")]

use proptest::prelude::*;
use shrink_wrap_schemas::corpus::university;
use shrink_wrap_schemas::odl::DomainType;
use shrink_wrap_schemas::repository::Repository;
use sws_analyze::analyze_ops;
use sws_core::{parse_statement, print_op, ConceptKind, ModOp};
use sws_designer::service::LogRecord;
use sws_designer::{DesignService, OpEnvelope, Request, Response, Session};

/// Names biased toward the university schema so ops collide for real.
fn type_name() -> impl Strategy<Value = String> {
    prop_oneof![
        4 => prop::sample::select(vec![
            "Person", "Student", "Employee", "Faculty", "Department",
            "Course", "CourseOffering", "Book", "TimeSlot",
        ])
        .prop_map(str::to_string),
        1 => "[A-Z][a-z]{2,5}".prop_map(|s| format!("Qq{s}")),
    ]
}

fn member_name() -> impl Strategy<Value = String> {
    prop_oneof![
        3 => prop::sample::select(vec![
            "name", "address", "student_id", "badge", "salary", "rank",
            "number", "title", "credits", "gpa",
        ])
        .prop_map(str::to_string),
        1 => "[a-z]{2,5}".prop_map(|s| format!("qq_{s}")),
    ]
}

fn domain() -> impl Strategy<Value = DomainType> {
    prop_oneof![
        Just(DomainType::Long),
        Just(DomainType::String),
        type_name().prop_map(DomainType::Named),
    ]
}

fn random_op() -> impl Strategy<Value = ModOp> {
    let t = type_name;
    let m = member_name;
    prop_oneof![
        t().prop_map(|ty| ModOp::AddTypeDefinition { ty }),
        t().prop_map(|ty| ModOp::DeleteTypeDefinition { ty }),
        (t(), t()).prop_map(|(ty, supertype)| ModOp::AddSupertype { ty, supertype }),
        (t(), t()).prop_map(|(ty, supertype)| ModOp::DeleteSupertype { ty, supertype }),
        (t(), domain(), m()).prop_map(|(ty, domain, name)| ModOp::AddAttribute {
            ty,
            domain,
            size: None,
            name
        }),
        (t(), m()).prop_map(|(ty, name)| ModOp::DeleteAttribute { ty, name }),
        (t(), m(), t()).prop_map(|(ty, name, new_ty)| ModOp::ModifyAttribute { ty, name, new_ty }),
    ]
}

fn contexts() -> impl Strategy<Value = ConceptKind> {
    prop::sample::select(ConceptKind::ALL.to_vec())
}

/// A wagon-wheel attribute add of a fresh name: an op that usually
/// applies and commutes with most others, so multi-op batches are
/// accepted, conflict and auto-rebase often enough to test.
fn fresh_attribute() -> impl Strategy<Value = (ConceptKind, ModOp)> {
    (type_name(), "[a-z]{3,6}").prop_map(|(ty, name)| {
        (
            ConceptKind::WagonWheel,
            ModOp::AddAttribute {
                ty,
                domain: DomainType::Long,
                size: None,
                name: format!("fresh_{name}"),
            },
        )
    })
}

type Batch = Vec<(ConceptKind, ModOp)>;

fn script() -> impl Strategy<Value = Vec<Batch>> {
    let op = prop_oneof![
        1 => (contexts(), random_op()),
        1 => fresh_attribute(),
    ];
    prop::collection::vec(prop::collection::vec(op, 1..4), 1..10)
}

fn statements(batch: &[(ConceptKind, ModOp)]) -> String {
    let ops: Vec<_> = batch.iter().map(|(_, op)| print_op(op)).collect();
    ops.join("; ")
}

/// One simulated client: a replica fed ONLY by its own accepted ops and
/// the deltas of its conflicts — never by peeking at the server.
struct Sim {
    name: &'static str,
    rev: u64,
    replica: Repository,
    accepted: u64,
    rejected: u64,
}

impl Sim {
    fn new(name: &'static str) -> Sim {
        Sim {
            name,
            rev: 0,
            replica: Repository::ingest_odl(university::SOURCE).expect("replica ingests"),
            accepted: 0,
            rejected: 0,
        }
    }

    fn apply_delta(&mut self, delta: &[LogRecord]) -> Result<(), TestCaseError> {
        for record in delta {
            prop_assert_eq!(record.seq, self.rev, "delta is contiguous from base_rev");
            let op = parse_statement(&record.statement)
                .map_err(|e| TestCaseError::fail(format!("logged op reparses: {e}")))?;
            self.replica
                .workspace_mut()
                .apply(record.context, op)
                .map_err(|e| {
                    TestCaseError::fail(format!(
                        "accepted `{}` does not rebase onto a synced replica: {e}",
                        record.statement
                    ))
                })?;
            self.rev += 1;
        }
        Ok(())
    }

    /// Where the static analyzer stops the batch at the replica's current
    /// state, if it does. With the replica synced to the head, `None` is
    /// the analyzer's verdict "the executor would take it now".
    fn analyzer_stop(&self, batch: &[(ConceptKind, ModOp)]) -> Option<usize> {
        let ws = self.replica.workspace();
        analyze_ops(ws.working(), ws.shrink_wrap(), batch).stopped_at
    }

    fn submit(
        &mut self,
        service: &DesignService,
        batch: &[(ConceptKind, ModOp)],
    ) -> Result<(), TestCaseError> {
        // Set when a conflict was classified auto-rebasable: nothing else
        // runs between the delta sync and the retry, so the retry MUST land.
        let mut must_accept = false;
        loop {
            let response = service.handle(Request::Submit {
                session: self.name.to_string(),
                base_rev: self.rev,
                ops: batch
                    .iter()
                    .map(|(context, op)| OpEnvelope {
                        context: *context,
                        statement: print_op(op),
                    })
                    .collect(),
            });
            match response {
                Response::Accepted {
                    base_rev,
                    rev,
                    applied,
                    ..
                } => {
                    prop_assert_eq!(base_rev, self.rev);
                    prop_assert_eq!(rev, self.rev + batch.len() as u64);
                    prop_assert_eq!(applied, batch.len());
                    for (context, op) in batch {
                        self.replica
                            .workspace_mut()
                            .apply(*context, op.clone())
                            .map_err(|e| {
                                TestCaseError::fail(format!(
                                    "server accepted `{}` but a synced replica rejects `{}`: {e}",
                                    statements(batch),
                                    print_op(op)
                                ))
                            })?;
                    }
                    self.rev = rev;
                    self.accepted += batch.len() as u64;
                    return Ok(());
                }
                Response::Conflict {
                    base_rev,
                    rev,
                    auto_rebasable,
                    delta,
                    conflicts,
                    ..
                } => {
                    prop_assert!(!must_accept, "auto_rebasable retry conflicted");
                    prop_assert_eq!(base_rev, self.rev, "conflict echoes the stale base_rev");
                    prop_assert!(rev > base_rev, "a conflict implies the head moved");
                    prop_assert_eq!(delta.len() as u64, rev - base_rev);
                    self.apply_delta(&delta)?;
                    prop_assert_eq!(self.rev, rev);
                    for hint in &conflicts {
                        prop_assert!(hint.op < batch.len(), "a hint names a batch op");
                        prop_assert!(
                            (base_rev..rev).contains(&hint.seq),
                            "a hint names a delta record"
                        );
                    }
                    // Classification honesty, judged on the synced replica.
                    let head_passes = self.analyzer_stop(batch).is_none();
                    if auto_rebasable {
                        prop_assert!(conflicts.is_empty());
                        prop_assert!(
                            head_passes,
                            "auto_rebasable, yet the analyzer rejects `{}` at the head",
                            statements(batch)
                        );
                        must_accept = true;
                    } else {
                        prop_assert!(
                            !conflicts.is_empty() || !head_passes,
                            "manual-rebase verdict for `{}` names no non-commuting pair \
                             and the analyzer passes it at the head",
                            statements(batch)
                        );
                    }
                }
                Response::Rejected {
                    rev, index, error, ..
                } => {
                    prop_assert!(!must_accept, "auto_rebasable retry was rejected: {error}");
                    prop_assert_eq!(rev, self.rev, "a rejection never moves the head");
                    // Zero false conflicts: the analyzer stops the batch at
                    // the same op, at the head the client is now synced to.
                    prop_assert_eq!(
                        self.analyzer_stop(batch),
                        Some(index),
                        "server rejected `{}` at ops[{}] ({}); analyze_ops on a replica \
                         synced to the head disagrees",
                        statements(batch),
                        index,
                        error
                    );
                    self.rejected += 1;
                    return Ok(());
                }
                other => {
                    return Err(TestCaseError::fail(format!(
                        "unexpected response to submit: {other:?}"
                    )))
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_interleavings_obey_the_rebase_contract(
        script_a in script(),
        script_b in script(),
        choices in prop::collection::vec(prop::sample::select(vec![true, false]), 0..24),
    ) {
        let service = DesignService::new(
            Session::from_odl(university::SOURCE).expect("server schema"),
        );
        let mut a = Sim::new("alice");
        let mut b = Sim::new("bob");
        for sim in [&mut a, &mut b] {
            let opened = service.handle(Request::Open { session: sim.name.to_string() });
            prop_assert!(matches!(opened, Response::Opened { rev: 0, .. }));
        }

        // Drain both scripts under the random interleaving; once one side
        // is exhausted the rest of the choices fall through to the other.
        let mut qa = script_a.into_iter();
        let mut qb = script_b.into_iter();
        let mut choices = choices.into_iter();
        loop {
            let pick_a = choices.next().unwrap_or(true);
            let (sim, step) = if pick_a {
                let step = qa.next().map(|s| (s, &mut a)).or_else(|| qb.next().map(|s| (s, &mut b)));
                match step { Some((s, sim)) => (sim, s), None => break }
            } else {
                let step = qb.next().map(|s| (s, &mut b)).or_else(|| qa.next().map(|s| (s, &mut a)));
                match step { Some((s, sim)) => (sim, s), None => break }
            };
            sim.submit(&service, &step)?;
        }

        // The accepted total order replays serially to the exported bytes.
        let head = match service.handle(Request::Export { session: "alice".to_string() }) {
            Response::ExportedBlocks { rev, odl } => {
                prop_assert_eq!(rev, a.accepted + b.accepted);
                odl.text()
            }
            other => return Err(TestCaseError::fail(format!("export failed: {other:?}"))),
        };
        let records = match service.handle(Request::Log { session: "alice".to_string(), since: 0 }) {
            Response::LogSlice { rev, ops, .. } => {
                prop_assert_eq!(rev, a.accepted + b.accepted);
                ops
            }
            other => return Err(TestCaseError::fail(format!("log failed: {other:?}"))),
        };
        let mut serial = Repository::ingest_odl(university::SOURCE).expect("serial replica");
        for record in &records {
            let op = parse_statement(&record.statement)
                .map_err(|e| TestCaseError::fail(format!("logged op reparses: {e}")))?;
            serial
                .workspace_mut()
                .apply(record.context, op)
                .map_err(|e| TestCaseError::fail(format!(
                    "serial replay of accepted `{}` failed: {e}", record.statement
                )))?;
        }
        prop_assert_eq!(serial.custom_schema_odl(), head.clone());

        // And each replica, topped up with the records it has not yet
        // incorporated, converges to the same bytes.
        for sim in [&mut a, &mut b] {
            let missing = records[sim.rev as usize..].to_vec();
            sim.apply_delta(&missing)?;
            prop_assert_eq!(
                sim.replica.custom_schema_odl(),
                head.clone(),
                "{}'s replica diverged from the server", sim.name
            );
        }
    }
}
