//! The benchmark's own checks; none needs a daemon.

use sws_core::oplang::parse_statement;
use sws_core::Workspace;
use sws_designer::protocol::parse_request;
use sws_repository::Repository;
use swsbench::compare::{compare, read_records, verdict, Record, Verdict};
use swsbench::gate;
use swsbench::run::Outcome;
use swsbench::spec::{Better, Spec};
use swsbench::workload::{
    fingerprint, script, stored_fingerprint, writer_frames, Op, Script, Step, Workload,
    DEFAULT_SEED,
};

fn spec() -> Spec {
    Spec::load(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json loads")
}

#[test]
fn scripts_are_deterministic_per_seed_and_differ_across_seeds() {
    for w in Workload::ALL {
        let a = script(w, 7);
        assert_eq!(a, script(w, 7), "{}", w.name());
        assert_ne!(
            writer_frames(&a),
            writer_frames(&script(w, 8)),
            "{} ignores its seed",
            w.name()
        );
    }
}

#[test]
fn stored_fingerprints_match_the_generated_inputs() {
    for w in Workload::ALL {
        assert_eq!(
            stored_fingerprint(w),
            Some(fingerprint(&script(w, DEFAULT_SEED))),
            "{}: inputs drifted; refresh fingerprints.txt only on purpose",
            w.name()
        );
    }
}

/// Walk a script as the daemon would: submits apply at the head, stale
/// submits lag the head by at most its length and are never applied.
/// Returns the accepted ops in order.
fn replay_on_workspace(s: &Script) -> (Workspace, Vec<Op>) {
    let repo = Repository::ingest_odl(&s.odl).expect("workload schema ingests");
    let mut ws = repo.workspace().clone();
    let mut accepted = Vec::new();
    let mut stale = 0usize;
    for step in s.warmup.iter().chain(&s.steps) {
        match step {
            Step::Submit { ops, .. } => {
                for op in ops {
                    let parsed = parse_statement(&op.stmt).expect("statement parses");
                    ws.apply(op.context, parsed)
                        .unwrap_or_else(|e| panic!("{}: `{}`: {e}", s.workload.name(), op.stmt));
                    accepted.push(op.clone());
                }
            }
            Step::Stale { lag, ops, .. } => {
                assert!(*lag >= 1 && *lag <= accepted.len() as u64);
                for op in ops {
                    parse_statement(&op.stmt).expect("stale statement parses");
                }
                stale += 1;
            }
            Step::Read(_) => {}
        }
    }
    assert!(stale > 0, "{} never conflicts", s.workload.name());
    (ws, accepted)
}

#[test]
fn every_script_replays_cleanly_and_every_frame_parses() {
    for w in Workload::ALL {
        let s = script(w, DEFAULT_SEED);
        let (ws, accepted) = replay_on_workspace(&s);
        assert_eq!(
            gate::replay(&s.odl, &accepted).expect("gate replay"),
            sws_odl::print_schema(&sws_model::graph_to_schema(ws.working())),
        );
        for frame in writer_frames(&s) {
            parse_request(frame.trim_end())
                .unwrap_or_else(|e| panic!("{}: `{frame}`: {e}", w.name()));
        }
        assert!(
            s.steps.iter().any(|st| matches!(st, Step::Read(_))) || s.reader_rate > 0,
            "{} never reads",
            w.name()
        );
    }
}

#[test]
fn the_gate_flags_an_export_with_one_byte_changed() {
    let s = script(Workload::UniConflict, DEFAULT_SEED);
    let (_, accepted) = replay_on_workspace(&s);
    let export = gate::replay(&s.odl, &accepted).expect("replays");
    gate::check_replay(&s.odl, &accepted, &export).expect("the true export passes");
    let mut bytes = export.into_bytes();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    let tampered = String::from_utf8(bytes).expect("ASCII stays UTF-8");
    let err = gate::check_replay(&s.odl, &accepted, &tampered).expect_err("one flipped byte");
    assert!(err.contains(&format!("at byte {mid}")), "{err}");
}

#[test]
fn results_json_round_trips() {
    let outcome = Outcome {
        correct: true,
        attempted: 1234,
        failed: 0,
        metrics: vec![
            ("submit_p50_us".into(), 812.345, "us".into()),
            ("ops_per_s".into(), 799.7888314349207, "1/s".into()),
            ("setup_s".into(), 0.002_909_768, "s".into()),
        ],
    };
    let line = outcome.to_json();
    assert!(!line.contains('\n'));
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": 1234, \"failed\": 0, \"metrics\": {")
    );
    assert_eq!(Outcome::parse(&line), Ok(outcome));
}

#[test]
fn compare_verdicts() {
    let base = [100.0, 101.0, 99.0, 100.5, 99.5];
    let bound = 0.1;
    // Within the bound either way.
    assert_eq!(
        verdict(
            &base,
            &[104.0, 105.0, 103.0, 104.5, 103.5],
            Better::Lower,
            bound
        ),
        Verdict::Unchanged
    );
    // Lower is better: +20% latency is worse, −20% is better.
    assert_eq!(
        verdict(
            &base,
            &[120.0, 121.0, 119.0, 120.5, 119.5],
            Better::Lower,
            bound
        ),
        Verdict::Worse
    );
    assert_eq!(
        verdict(&base, &[80.0, 81.0, 79.0, 80.5, 79.5], Better::Lower, bound),
        Verdict::Better
    );
    // Higher is better flips the reading.
    assert_eq!(
        verdict(
            &base,
            &[80.0, 81.0, 79.0, 80.5, 79.5],
            Better::Higher,
            bound
        ),
        Verdict::Worse
    );
    // A spread wider than the bound leaves an overlapping shift unresolved…
    let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
    assert_eq!(
        verdict(
            &noisy,
            &[70.0, 150.0, 110.0, 90.0, 130.0],
            Better::Lower,
            bound
        ),
        Verdict::Unresolved
    );
    // …unless every run of B beats every run of A.
    assert_eq!(
        verdict(
            &noisy,
            &[10.0, 20.0, 30.0, 40.0, 50.0],
            Better::Lower,
            bound
        ),
        Verdict::Better
    );
    // A single run has no spread to judge by.
    assert_eq!(
        verdict(&[100.0], &[100.0], Better::Lower, bound),
        Verdict::Unresolved
    );
}

#[test]
fn compare_reads_run_output_and_judges_each_workload() {
    let spec = spec();
    let run = |workload: &str, p50: f64| {
        let metrics = spec
            .end_to_end
            .iter()
            .map(|m| {
                let v = if m.name == "submit_p50_us" { p50 } else { 1.0 };
                (m.name.clone(), v, m.unit.clone())
            })
            .collect();
        let outcome = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics,
        };
        format!(
            "swsbench: workload {workload} seed 3 trace 0\n  some human line\n{}\n",
            outcome.to_json()
        )
    };
    let a_text: String = [100.0, 101.0, 99.0]
        .iter()
        .map(|&v| run("uni_history", v))
        .collect();
    let b_text: String = [130.0, 131.0, 129.0]
        .iter()
        .map(|&v| run("uni_history", v))
        .collect();
    let (a, b): (Vec<Record>, Vec<Record>) = (read_records(&a_text), read_records(&b_text));
    assert_eq!(a.len(), 3);
    let rows = compare(&spec, &a, &b);
    assert_eq!(rows.len(), spec.end_to_end.len());
    for row in rows {
        let want = if row.metric == "submit_p50_us" {
            Verdict::Worse
        } else {
            Verdict::Unchanged
        };
        assert_eq!(row.verdict, want, "{}", row.metric);
    }
}

#[test]
fn benchmark_json_declares_exactly_what_the_code_measures() {
    let spec = spec();
    spec.check_matches_code()
        .expect("BENCHMARK.json matches the catalogue");
    for m in &spec.end_to_end {
        let bound = m.bound.expect("bounded");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
    }
    let setup = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is declared");
    assert_eq!(
        setup.bound,
        spec.end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .reduce(f64::max)
    );
}
