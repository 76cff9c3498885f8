//! The semantic oracle for `sws_analyze::commutes`: a pair of ops the
//! footprint check calls commuting must really commute. For every such
//! pair within a short window of a seeded op stream, `a; b` and `b; a`
//! are applied to clones of the same workspace, and
//!
//! * each op gets the same verdict (accepted or rejected) in both orders;
//! * when both orders accept both ops, the results have byte-identical
//!   ODL, equal rendered mappings and equal consistency findings.
//!
//! Findings are compared as a sorted multiset: the report lists them in
//! type-creation order, which the two orders legitimately differ in.
//! The conflict path (`DesignService::conflict`) and the rebase contract
//! rest on this claim, so a mismatch here calls for a more conservative
//! footprint, never for dropping the case.

use shrink_wrap_schemas::core::{ConceptKind, Mapping, ModOp, Workspace};
use shrink_wrap_schemas::corpus::{synthetic::SyntheticSpec, university};
use sws_analyze::{commutes, footprint};
use sws_bench::edit_scripts::{churn_stream, edit_stream};

/// Pairs `(i, j)` with `j - i` below this are checked.
const WINDOW: usize = 6;

/// The observable result of applying a script to a workspace.
#[derive(Debug, PartialEq)]
struct Outcome {
    verdicts: [bool; 2],
    odl: String,
    mapping: String,
    findings: Vec<String>,
}

/// Apply `first` then `second` to a clone of `base`; verdicts are
/// reported in `(first, second)` order.
fn apply_pair(
    base: &Workspace,
    first: &(ConceptKind, ModOp),
    second: &(ConceptKind, ModOp),
) -> Outcome {
    let mut ws = base.clone();
    let verdicts = [
        ws.apply(first.0, first.1.clone()).is_ok(),
        ws.apply(second.0, second.1.clone()).is_ok(),
    ];
    let mut findings: Vec<String> = ws
        .consistency()
        .findings
        .iter()
        .map(|issue| format!("{issue:?}"))
        .collect();
    findings.sort();
    Outcome {
        verdicts,
        odl: ws.custom_odl().to_string(),
        mapping: Mapping::derive(&ws).render(),
        findings,
    }
}

/// Walk `script` on one workspace; before each op, check it against every
/// later op in the window that `commutes` accepts. Returns the number of
/// pairs both orders accepted.
fn check_stream(base: Workspace, script: &[(ConceptKind, ModOp)], name: &str) -> usize {
    let footprints: Vec<_> = script.iter().map(|(_, op)| footprint(op)).collect();
    let mut ws = base;
    let mut both_accepted = 0;
    for i in 0..script.len() {
        for j in i + 1..script.len().min(i + WINDOW) {
            if !commutes(&footprints[i], &footprints[j]) {
                continue;
            }
            let (a, b) = (&script[i], &script[j]);
            let ab = apply_pair(&ws, a, b);
            let mut ba = apply_pair(&ws, b, a);
            ba.verdicts.reverse();
            assert_eq!(
                ab.verdicts, ba.verdicts,
                "{name}: verdicts depend on order for #{i} `{:?}` and #{j} `{:?}`",
                a.1, b.1
            );
            if ab.verdicts == [true, true] {
                both_accepted += 1;
                assert_eq!(
                    ab, ba,
                    "{name}: #{i} `{:?}` and #{j} `{:?}` commute by footprint but not in effect",
                    a.1, b.1
                );
            }
        }
        let _ = ws.apply(script[i].0, script[i].1.clone());
    }
    both_accepted
}

#[test]
fn commuting_pairs_commute_on_the_university_schema() {
    let mut both_accepted = 0;
    for seed in 1..=3 {
        let g = university::graph();
        let edits = edit_stream(&g, 60, seed);
        both_accepted += check_stream(Workspace::new(g.clone()), &edits, "university edits");
        let churn = churn_stream(&g, 60, seed);
        both_accepted += check_stream(Workspace::new(g), &churn, "university churn");
    }
    assert!(
        both_accepted > 1_000,
        "only {both_accepted} pairs exercised"
    );
}

#[test]
fn commuting_pairs_commute_on_a_200_type_schema() {
    // Deriving the mapping of a 200-type schema takes ~60 ms in a debug
    // build, and each pair derives two; release builds run the full sweep.
    let (seeds, ops) = if cfg!(debug_assertions) {
        (2, 8)
    } else {
        (4, 60)
    };
    let mut both_accepted = 0;
    for seed in 1..=seeds {
        let g = SyntheticSpec::sized(200, seed).generate();
        let edits = edit_stream(&g, ops, seed);
        both_accepted += check_stream(Workspace::new(g.clone()), &edits, "synthetic edits");
        let churn = churn_stream(&g, ops, seed);
        both_accepted += check_stream(Workspace::new(g), &churn, "synthetic churn");
    }
    assert!(
        both_accepted >= seeds as usize * ops,
        "only {both_accepted} pairs exercised"
    );
}
