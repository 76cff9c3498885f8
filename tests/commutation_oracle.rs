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

use shrink_wrap_schemas::core::oplang::parse_statement;
use shrink_wrap_schemas::core::{ConceptKind, Mapping, ModOp, Workspace};
use shrink_wrap_schemas::corpus::rng::SplitMix64;
use shrink_wrap_schemas::corpus::{synthetic::SyntheticSpec, university};
use sws_analyze::{commutes, footprint, Footprint};
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
        odl: ws.custom_odl().text(),
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

/// Groups of ops on the university schema whose neighbours depend on each
/// other only through one op's writes and the other's reads: a type is
/// added, then given a member, an extent or a reference to it; a subtype
/// is added, wired under `Employee` or `Faculty`, and `Department::has`
/// is retargeted to it and back. A `commutes` that looked only at
/// write/write overlap would let these pairs reorder. Deterministic in
/// `(groups, seed)`.
fn read_write_stream(groups: usize, seed: u64) -> Vec<(ConceptKind, ModOp)> {
    use ConceptKind::{Generalization as Gen, WagonWheel as Ww};
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut statements = Vec::new();
    for k in 0..groups {
        let t = format!("Rw{seed}x{k}");
        if rng.range_u32(0, 2) == 0 {
            statements.extend([
                (Ww, format!("add_type_definition({t})")),
                (Ww, format!("add_attribute({t}, long, x{k})")),
                (Ww, format!("add_extent_name({t}, rw_ext{seed}x{k})")),
                (Ww, format!("add_attribute(Person, {t}, ref{seed}x{k})")),
            ]);
        } else {
            let sup = ["Employee", "Faculty"][rng.range_usize(0, 2)];
            statements.extend([
                (Gen, format!("add_type_definition({t})")),
                (Gen, format!("add_supertype({t}, {sup})")),
                (
                    Gen,
                    format!("modify_relationship_target_type(Department, has, Employee, {t})"),
                ),
                (
                    Gen,
                    format!("modify_relationship_target_type(Department, has, {t}, Employee)"),
                ),
            ]);
        }
    }
    statements
        .into_iter()
        .map(|(context, stmt)| {
            let op = parse_statement(&stmt).unwrap_or_else(|e| panic!("`{stmt}`: {e}"));
            (context, op)
        })
        .collect()
}

/// Does a write of `a` overlap a write of `b`? The wildcard rules of
/// `sws_analyze::commute`, restated for the write sets alone.
fn writes_overlap(a: &Footprint, b: &Footprint) -> bool {
    let matches = |x: &str, y: &str| {
        x == "*"
            || y == "*"
            || x.strip_suffix('*').is_some_and(|p| y.starts_with(p))
            || y.strip_suffix('*').is_some_and(|p| x.starts_with(p))
            || x == y
    };
    a.writes().any(|x| b.writes().any(|y| matches(x, y)))
}

#[test]
fn pairs_that_depend_only_through_reads_stay_ordered() {
    let (mut read_write_only, mut both_accepted) = (0, 0);
    for seed in 1..=3 {
        let script = read_write_stream(12, seed);
        let footprints: Vec<_> = script.iter().map(|(_, op)| footprint(op)).collect();
        for i in 0..script.len() {
            for j in i + 1..script.len().min(i + WINDOW) {
                let (a, b) = (&footprints[i], &footprints[j]);
                if !commutes(a, b) && !writes_overlap(a, b) {
                    read_write_only += 1;
                }
            }
        }
        both_accepted += check_stream(
            Workspace::new(university::graph()),
            &script,
            "university read/write pairs",
        );
    }
    // Every group holds adjacent read/write-only pairs; each replay must
    // also reach pairs that both orders accept.
    assert!(
        read_write_only >= 36,
        "only {read_write_only} read/write-only pairs"
    );
    assert!(both_accepted > 100, "only {both_accepted} pairs exercised");
}
