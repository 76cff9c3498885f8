//! Crash-consistency property harness (the tentpole guarantee).
//!
//! For every injected crash point during a save or an op-log append, a
//! subsequent (salvage) load must yield *exactly* the pre-operation or the
//! post-operation session — never a corrupted in-between — asserted
//! against the `diff_graphs` oracle. The deterministic sweeps below
//! enumerate every micro-step of the I/O protocol; the proptest-gated
//! module adds a randomized sweep over script prefixes, crash points, and
//! page-cache-loss seeds.

use std::path::Path;

use sws_core::oplang::parse_statement;
use sws_core::{ConceptKind, ModOp};
use sws_model::diff_graphs;
use sws_repository::io::{FaultIo, MemIo, RepoIo};
use sws_repository::{append_log_line, append_log_records, LoadMode, RecoveryReport, Repository};

const DIR: &str = "/session";

fn dir() -> &'static Path {
    Path::new(DIR)
}

/// Parse one `(context tag, statement)` fixture pair.
fn parse_pair(pair: (&str, &str)) -> (ConceptKind, ModOp) {
    let (tag, stmt) = pair;
    (
        ConceptKind::from_tag(tag).expect("fixture context tag"),
        parse_statement(stmt).expect("fixture statement"),
    )
}

/// The university repository with the first `n` ops of the corpus design
/// script applied.
fn university_repo(n: usize) -> Repository {
    let mut repo = Repository::ingest(sws_corpus::university::graph());
    for &pair in &sws_corpus::university::DESIGN_SCRIPT[..n] {
        let (context, op) = parse_pair(pair);
        repo.workspace_mut()
            .apply(context, op)
            .expect("design script prefix is valid");
    }
    repo
}

fn salvage(disk: &MemIo) -> (Repository, RecoveryReport) {
    Repository::load_with(disk, dir(), LoadMode::Salvage).expect("salvage load succeeds")
}

/// The oracle: the loaded working schema is graph-identical to pre or post.
fn assert_pre_or_post(loaded: &Repository, pre: &Repository, post: &Repository, label: &str) {
    let to_pre = diff_graphs(loaded.workspace().working(), pre.workspace().working());
    let to_post = diff_graphs(loaded.workspace().working(), post.workspace().working());
    assert!(
        to_pre.is_empty() || to_post.is_empty(),
        "{label}: loaded session is neither pre nor post\n\
         diff to pre: {to_pre:?}\ndiff to post: {to_post:?}"
    );
}

/// Sweep every crash point of a full save into an *existing* session dir.
#[test]
fn crash_sweep_full_save() {
    let pre = university_repo(4);
    let post = university_repo(5);

    // Base image: the pre session saved cleanly.
    let base = MemIo::new();
    pre.save_with(&base, dir()).unwrap();

    // Size the sweep: one faultless run of the save being tested.
    let probe = FaultIo::new(base.snapshot());
    post.save_with(&probe, dir()).unwrap();
    let steps = probe.steps_taken();
    assert!(steps > 10, "suspiciously few micro-steps: {steps}");

    for k in 0..steps {
        let disk = base.snapshot();
        let io = FaultIo::new(disk.clone());
        io.crash_at(k);
        assert!(
            post.save_with(&io, dir()).is_err(),
            "crash at step {k} must surface"
        );
        disk.post_crash(k.wrapping_mul(0x9E37) + 1);
        let (loaded, report) = salvage(&disk);
        assert_pre_or_post(&loaded, &pre, &post, &format!("save crash at step {k}"));
        // Recovery is idempotent: after healing, a second load is clean
        // and yields the same session.
        if report.healed {
            let (again, report2) = salvage(&disk);
            assert!(report2.is_clean(), "step {k}: {report2:?}");
            assert!(
                diff_graphs(again.workspace().working(), loaded.workspace().working()).is_empty()
            );
        }
    }
}

/// Sweep every crash point of a single op append (the autosave hot path).
#[test]
fn crash_sweep_append() {
    let pre = university_repo(4);
    let post = university_repo(5);
    let (context, op) = parse_pair(sws_corpus::university::DESIGN_SCRIPT[4]);

    let base = MemIo::new();
    pre.save_with(&base, dir()).unwrap();

    let probe = FaultIo::new(base.snapshot());
    append_log_line(&probe, dir(), pre.total_ops(), context, &op).unwrap();
    let steps = probe.steps_taken();
    assert_eq!(steps, 2, "append is one write + one sync");

    for k in 0..steps {
        let disk = base.snapshot();
        let io = FaultIo::new(disk.clone());
        io.crash_at(k);
        assert!(append_log_line(&io, dir(), pre.total_ops(), context, &op).is_err());
        disk.post_crash(k + 11);
        let (loaded, report) = salvage(&disk);
        assert_pre_or_post(&loaded, &pre, &post, &format!("append crash at step {k}"));
        // A torn tail must never be mistaken for extra applied work.
        if report.torn_tail {
            assert!(
                diff_graphs(loaded.workspace().working(), pre.workspace().working()).is_empty()
            );
        }
    }
}

/// A committed append survives any *later* crash: durability.
#[test]
fn committed_append_is_durable() {
    let pre = university_repo(4);
    let post = university_repo(5);
    let (context, op) = parse_pair(sws_corpus::university::DESIGN_SCRIPT[4]);

    let disk = MemIo::new();
    pre.save_with(&disk, dir()).unwrap();
    append_log_line(&disk, dir(), pre.total_ops(), context, &op).unwrap();
    // Power loss with nothing in flight: the append already fsynced.
    disk.post_crash(99);
    let (loaded, _) = salvage(&disk);
    assert!(diff_graphs(loaded.workspace().working(), post.workspace().working()).is_empty());
    assert_eq!(loaded.workspace().log().len(), 5);
}

/// Crash points in a save into a *fresh* directory: the load either finds
/// no session at all (pre) or the complete one (post) — never a session
/// with a silently truncated op log.
#[test]
fn crash_sweep_initial_save() {
    let post = university_repo(3);
    let base = MemIo::new();

    let probe = FaultIo::new(base.snapshot());
    post.save_with(&probe, dir()).unwrap();
    let steps = probe.steps_taken();

    for k in 0..steps {
        let disk = base.snapshot();
        let io = FaultIo::new(disk.clone());
        io.crash_at(k);
        assert!(post.save_with(&io, dir()).is_err());
        disk.post_crash(k + 3);
        match Repository::load_with(&disk, dir(), LoadMode::Salvage) {
            Err(_) => {} // no loadable session: the pre state of a fresh dir
            Ok((loaded, _)) => {
                assert!(
                    diff_graphs(loaded.workspace().working(), post.workspace().working())
                        .is_empty(),
                    "initial-save crash at step {k} exposed a partial session"
                );
                assert_eq!(loaded.workspace().log().len(), 3);
            }
        }
    }
}

/// Sweep every crash point of a checkpoint: snapshot write, archive
/// append, derived-file + MANIFEST commit, tail truncation, and snapshot
/// pruning. A checkpoint only moves bytes between files — every crash
/// point must reload as exactly the same session, with no ops lost, and a
/// retried checkpoint must then converge.
#[test]
fn crash_sweep_checkpoint() {
    let repo = university_repo(5);
    let base = MemIo::new();
    repo.save_with(&base, dir()).unwrap();

    let probe = FaultIo::new(base.snapshot());
    repo.clone()
        .checkpoint_with(&probe, dir())
        .unwrap()
        .expect("five ops to cover");
    let steps = probe.steps_taken();
    assert!(steps > 10, "suspiciously few micro-steps: {steps}");

    for k in 0..steps {
        let disk = base.snapshot();
        let io = FaultIo::new(disk.clone());
        io.crash_at(k);
        assert!(
            repo.clone().checkpoint_with(&io, dir()).is_err(),
            "crash at step {k} must surface"
        );
        disk.post_crash(k.wrapping_mul(0x5BD1) + 7);
        let (loaded, report) = salvage(&disk);
        assert!(
            diff_graphs(loaded.workspace().working(), repo.workspace().working()).is_empty(),
            "checkpoint crash at step {k} changed the schema"
        );
        assert!(!report.data_loss(), "step {k}: {report:?}");
        assert_eq!(loaded.total_ops(), 5, "step {k} lost committed ops");
        // Healing is idempotent: the next load is clean.
        if report.healed {
            let (_, report2) = salvage(&disk);
            assert!(report2.is_clean(), "step {k}: {report2:?}");
        }
        // And the interrupted checkpoint can simply be retried.
        let (mut retry, _) = salvage(&disk);
        retry.checkpoint_with(&disk, dir()).unwrap();
        let (settled, report3) = salvage(&disk);
        assert!(report3.is_clean(), "step {k}: {report3:?}");
        assert!(diff_graphs(settled.workspace().working(), repo.workspace().working()).is_empty());
        assert_eq!(settled.total_ops(), 5);
    }
}

/// Sweep a transient I/O error (ENOSPC-style) through every micro-step of
/// a checkpoint: the directory stays loadable with all ops intact whether
/// the error hit before or after the MANIFEST commit point.
#[test]
fn io_error_sweep_checkpoint() {
    let repo = university_repo(4);
    let base = MemIo::new();
    repo.save_with(&base, dir()).unwrap();

    let probe = FaultIo::new(base.snapshot());
    repo.clone().checkpoint_with(&probe, dir()).unwrap();
    let steps = probe.steps_taken();

    for k in 0..steps {
        let disk = base.snapshot();
        let io = FaultIo::new(disk.clone());
        io.error_at(k);
        // Errors before the MANIFEST rename abort the checkpoint; errors
        // in the cleanup afterwards surface even though the generation
        // committed. Either way no committed state may be harmed.
        let _ = repo.clone().checkpoint_with(&io, dir());
        let (loaded, report) = salvage(&disk);
        assert!(
            diff_graphs(loaded.workspace().working(), repo.workspace().working()).is_empty(),
            "checkpoint error at step {k} changed the schema"
        );
        assert!(!report.data_loss(), "step {k}: {report:?}");
        assert_eq!(loaded.total_ops(), 4, "step {k} lost committed ops");
        // The error was transient: a retried checkpoint converges.
        io.clear_fault();
        let (mut retry, _) = salvage(&disk);
        retry.checkpoint_with(&io, dir()).unwrap();
        let (settled, report2) = salvage(&disk);
        assert!(report2.is_clean(), "step {k}: {report2:?}");
        assert_eq!(settled.total_ops(), 4);
    }
}

/// Sweep every crash point of the append that follows a checkpoint: the
/// tail restarts at the snapshot's coverage, and a torn first tail record
/// must roll back to the checkpointed state, never corrupt it.
#[test]
fn crash_sweep_append_after_checkpoint() {
    let pre = university_repo(4);
    let post = university_repo(5);
    let (context, op) = parse_pair(sws_corpus::university::DESIGN_SCRIPT[4]);

    let base = MemIo::new();
    let mut saved = pre.clone();
    saved.save_with(&base, dir()).unwrap();
    saved.checkpoint_with(&base, dir()).unwrap().unwrap();

    for k in 0..2 {
        let disk = base.snapshot();
        let io = FaultIo::new(disk.clone());
        io.crash_at(k);
        assert!(append_log_line(&io, dir(), saved.total_ops(), context, &op).is_err());
        disk.post_crash(k + 17);
        let (loaded, report) = salvage(&disk);
        assert_pre_or_post(
            &loaded,
            &pre,
            &post,
            &format!("post-checkpoint append crash at step {k}"),
        );
        assert!(!report.degraded(), "step {k}: {report:?}");
    }

    // The committed post-checkpoint append is durable and loads via the
    // snapshot fast path.
    append_log_line(&base, dir(), saved.total_ops(), context, &op).unwrap();
    let (loaded, report) = salvage(&base);
    assert!(diff_graphs(loaded.workspace().working(), post.workspace().working()).is_empty());
    assert_eq!(loaded.total_ops(), 5);
    assert!(
        matches!(
            report.load_path,
            sws_repository::LoadPath::Snapshot { generation: 1 }
        ),
        "{report:?}"
    );
}

/// Sweep a three-op batch append over both micro-steps and many
/// page-cache-loss seeds, so the one write is torn at many offsets: the
/// reload is the state before the batch or after all of it, never a
/// state after one or two of its ops.
#[test]
fn crash_sweep_batch_append_is_all_or_none() {
    let pre = university_repo(4);
    let post = university_repo(7);
    let batch: Vec<(ConceptKind, ModOp)> = sws_corpus::university::DESIGN_SCRIPT[4..7]
        .iter()
        .map(|&pair| parse_pair(pair))
        .collect();
    let records = || batch.iter().map(|(context, op)| (*context, op));

    let base = MemIo::new();
    pre.save_with(&base, dir()).unwrap();
    let probe = FaultIo::new(base.snapshot());
    append_log_records(&probe, dir(), pre.total_ops(), records()).unwrap();
    assert_eq!(probe.steps_taken(), 2, "a batch is one write + one sync");

    let mut torn = 0;
    for k in 0..2 {
        for seed in 0..64u64 {
            let disk = base.snapshot();
            let io = FaultIo::new(disk.clone());
            io.crash_at(k);
            assert!(append_log_records(&io, dir(), pre.total_ops(), records()).is_err());
            disk.post_crash(seed.wrapping_mul(0x9E37_79B9) + k);
            let (loaded, report) = salvage(&disk);
            let label = format!("batch append crash at step {k}, seed {seed}");
            assert_pre_or_post(&loaded, &pre, &post, &label);
            assert!(matches!(loaded.total_ops(), 4 | 7), "{label}: {report:?}");
            torn += usize::from(report.torn_tail);
            if report.torn_tail {
                assert_eq!(loaded.total_ops(), 4, "{label}");
            }
        }
    }
    assert!(torn > 16, "the seeds tore the batch only {torn} times");
}

/// A crash can leave only part of a batch header: the rest of its line,
/// and every record, never reached the disk. Salvage must report the torn
/// line and heal it away, so the next append starts on a line of its own
/// instead of being glued onto the fragment and read as a comment.
#[test]
fn a_batch_header_torn_mid_line_is_healed_before_the_next_append() {
    let pre = university_repo(4);
    let post = university_repo(5);
    let batch: Vec<(ConceptKind, ModOp)> = sws_corpus::university::DESIGN_SCRIPT[4..7]
        .iter()
        .map(|&pair| parse_pair(pair))
        .collect();
    let base = MemIo::new();
    pre.save_with(&base, dir()).unwrap();
    let log = dir().join(sws_repository::SESSION_FILE);
    let before = base.contents(&log).unwrap();
    let whole = base.snapshot();
    let records = batch.iter().map(|(context, op)| (*context, op));
    append_log_records(&whole, dir(), pre.total_ops(), records).unwrap();
    let written = whole.contents(&log).unwrap();
    let header = written[before.len()..]
        .iter()
        .position(|&b| b == b'\n')
        .unwrap();

    for cut in 1..=header {
        let disk = base.snapshot();
        disk.write_atomic(&log, &written[..before.len() + cut])
            .unwrap();
        let (loaded, report) = salvage(&disk);
        assert_eq!(loaded.total_ops(), 4, "cut {cut}: {report:?}");
        assert!(report.torn_tail && report.healed, "cut {cut}: {report:?}");
        assert!(!report.data_loss(), "no record was lost: {report:?}");

        let (context, op) = &batch[0];
        append_log_line(&disk, dir(), loaded.total_ops(), *context, op).unwrap();
        let (next, report) = salvage(&disk);
        assert_pre_or_post(&next, &pre, &post, &format!("append after cut {cut}"));
        assert_eq!(next.total_ops(), 5, "cut {cut}: {report:?}");
    }
}

/// A transient I/O error (disk full) during save must leave the directory
/// loadable as the pre state, and a retry must succeed.
#[test]
fn io_error_sweep_full_save() {
    let pre = university_repo(2);
    let post = university_repo(3);
    let base = MemIo::new();
    pre.save_with(&base, dir()).unwrap();

    let probe = FaultIo::new(base.snapshot());
    post.save_with(&probe, dir()).unwrap();
    let steps = probe.steps_taken();

    for k in 0..steps {
        let disk = base.snapshot();
        let io = FaultIo::new(disk.clone());
        io.error_at(k);
        let err = post.save_with(&io, dir()).unwrap_err();
        assert!(err.to_string().contains("I/O error"), "{err}");
        // No crash: the process lives, the error was transient — retry.
        io.clear_fault();
        post.save_with(&io, dir()).unwrap();
        let (loaded, report) = salvage(&disk);
        assert!(diff_graphs(loaded.workspace().working(), post.workspace().working()).is_empty());
        assert!(report.is_clean(), "step {k}: {report:?}");
    }
}

#[cfg(feature = "proptest")]
mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Randomized crash-point sweep: any script prefix, any crash
        /// step, any page-cache-loss seed — reload is pre or post.
        #[test]
        fn random_crash_point_is_pre_or_post(
            prefix in 0usize..7,
            step_pick in 0u64..1000,
            seed in 0u64..u64::MAX,
        ) {
            let pre = university_repo(prefix);
            let post = university_repo(prefix + 1);
            let (context, op) = parse_pair(sws_corpus::university::DESIGN_SCRIPT[prefix]);

            let base = MemIo::new();
            pre.save_with(&base, dir()).unwrap();

            // The tested operation alternates between the two durable
            // paths: a full save or a single append.
            let use_append = seed % 2 == 0;
            let probe = FaultIo::new(base.snapshot());
            if use_append {
                append_log_line(&probe, dir(), pre.total_ops(), context, &op).unwrap();
            } else {
                post.save_with(&probe, dir()).unwrap();
            }
            let steps = probe.steps_taken();
            let k = step_pick % steps;

            let disk = base.snapshot();
            let io = FaultIo::new(disk.clone());
            io.crash_at(k);
            let result = if use_append {
                append_log_line(&io, dir(), pre.total_ops(), context, &op)
            } else {
                post.save_with(&io, dir())
            };
            prop_assert!(result.is_err());
            disk.post_crash(seed);

            let (loaded, _) = salvage(&disk);
            let to_pre = diff_graphs(loaded.workspace().working(), pre.workspace().working());
            let to_post = diff_graphs(loaded.workspace().working(), post.workspace().working());
            prop_assert!(
                to_pre.is_empty() || to_post.is_empty(),
                "prefix {} step {} append={}: neither pre nor post",
                prefix, k, use_append
            );
        }

        /// Randomized checkpoint crash sweep: any design-script prefix,
        /// any crash step inside the checkpoint, any page-cache-loss
        /// seed — the reload keeps every committed op and the exact
        /// schema, and a retried checkpoint converges to a clean
        /// directory.
        #[test]
        fn random_checkpoint_crash_never_loses_ops(
            prefix in 1usize..8,
            step_pick in 0u64..1000,
            seed in 0u64..u64::MAX,
        ) {
            let repo = university_repo(prefix);
            let base = MemIo::new();
            repo.save_with(&base, dir()).unwrap();

            let probe = FaultIo::new(base.snapshot());
            repo.clone().checkpoint_with(&probe, dir()).unwrap();
            let steps = probe.steps_taken();
            let k = step_pick % steps;

            let disk = base.snapshot();
            let io = FaultIo::new(disk.clone());
            io.crash_at(k);
            prop_assert!(repo.clone().checkpoint_with(&io, dir()).is_err());
            disk.post_crash(seed);

            let (loaded, report) = salvage(&disk);
            prop_assert!(
                diff_graphs(loaded.workspace().working(), repo.workspace().working()).is_empty(),
                "prefix {} step {}: schema changed", prefix, k
            );
            prop_assert!(!report.data_loss(), "prefix {} step {}: {:?}", prefix, k, report);
            prop_assert_eq!(loaded.total_ops() as usize, prefix);

            let (mut retry, _) = salvage(&disk);
            retry.checkpoint_with(&disk, dir()).unwrap();
            let (settled, report2) = salvage(&disk);
            prop_assert!(report2.is_clean(), "prefix {} step {}: {:?}", prefix, k, report2);
            prop_assert_eq!(settled.total_ops() as usize, prefix);
        }
    }
}
