//! `swsbench compare A… -- B…`: per (metric, workload), the medians and
//! quartiles of two sets of runs and a verdict against the
//! `BENCHMARK.json` bound.
//!
//! The verdict follows the no-regression rule: B is *worse* when its
//! median is worse than A's by more than the bound, *better* when it is
//! better by more than the bound, otherwise *unchanged* — unless either
//! set's run-to-run spread (interquartile distance over median) exceeds
//! the bound. Then the sets cannot tell a change from noise and the
//! verdict is *unresolved*, except when every run of B reads better (or
//! every run worse) than every run of A.

use crate::run::Outcome;
use crate::spec::{Better, Spec};
use crate::stats::{median, quartiles, relative_spread};

/// One run's result, tagged with its workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub outcome: Outcome,
}

/// The header `swsbench run` prints before each result line.
pub fn header(workload: &str, seed: u64, trace: bool) -> String {
    format!(
        "swsbench: workload {workload} seed {seed} trace {}",
        u8::from(trace)
    )
}

/// Collect the results in captured `swsbench run` output: each result line
/// belongs to the workload named by the header before it. Incorrect runs
/// are skipped.
pub fn read_records(text: &str) -> Vec<Record> {
    let mut workload: Option<String> = None;
    let mut out = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("swsbench: workload ") {
            workload = rest.split_whitespace().next().map(str::to_string);
        } else if line.starts_with("{\"correct\"") {
            if let (Some(w), Ok(outcome)) = (workload.take(), Outcome::parse(line)) {
                if outcome.correct {
                    out.push(Record {
                        workload: w,
                        outcome,
                    });
                }
            }
        }
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

impl Verdict {
    pub fn tag(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge set `b` against baseline set `a`.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return Verdict::Unresolved;
    };
    // Positive = B is worse than A, as a share of A's median.
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (ma - mb) / ma.abs().max(f64::MIN_POSITIVE),
    };
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let spread = match (relative_spread(a), relative_spread(b)) {
        (Some(sa), Some(sb)) => sa.max(sb),
        _ => f64::INFINITY,
    };
    if spread > bound {
        if b.iter().all(|&x| a.iter().all(|&y| beats(x, y))) {
            Verdict::Better
        } else if b.iter().all(|&x| a.iter().all(|&y| beats(y, x))) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// One compared (workload, metric).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: Vec<f64>,
    pub b: Vec<f64>,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Compare every bounded metric on every workload present in both sets.
pub fn compare(spec: &Spec, a: &[Record], b: &[Record]) -> Vec<Row> {
    let values = |set: &[Record], workload: &str, metric: &str| -> Vec<f64> {
        set.iter()
            .filter(|r| r.workload == workload)
            .filter_map(|r| {
                r.outcome
                    .metrics
                    .iter()
                    .find(|(n, _, _)| n == metric)
                    .map(|(_, v, _)| *v)
            })
            .collect()
    };
    let mut rows = Vec::new();
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let Some(bound) = m.bound else { continue };
            let (va, vb) = (values(a, workload, &m.name), values(b, workload, &m.name));
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name.clone(),
                verdict: verdict(&va, &vb, m.better, bound),
                a: va,
                b: vb,
                bound,
            });
        }
    }
    rows
}

/// A value with about four significant digits for the table's range of
/// magnitudes (seconds of set-up to thousands of µs).
fn num(x: f64) -> String {
    match x.abs() {
        a if a >= 100.0 => format!("{x:.1}"),
        a if a >= 1.0 => format!("{x:.3}"),
        _ => format!("{x:.6}"),
    }
}

fn summary(values: &[f64]) -> String {
    match (median(values), quartiles(values)) {
        (Some(_), Some([q1, q2, q3])) => format!(
            "{:>12} [{}, {}] n={}",
            num(q2),
            num(q1),
            num(q3),
            values.len()
        ),
        (Some(m), None) => format!("{:>12} n={}", num(m), values.len()),
        _ => "           - n=0".to_string(),
    }
}

/// The comparison as a table.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::from(
        "workload        metric            A median [q1, q3]                 B median [q1, q3]                 bound  spread  verdict\n",
    );
    for r in rows {
        let spread = relative_spread(&r.a)
            .zip(relative_spread(&r.b))
            .map_or("-".to_string(), |(x, y)| format!("{:.3}", x.max(y)));
        out.push_str(&format!(
            "{:<15} {:<17} {:<33} {:<33} {:>5.2}  {:>6}  {}\n",
            r.workload,
            r.metric,
            summary(&r.a),
            summary(&r.b),
            r.bound,
            spread,
            r.verdict.tag()
        ));
    }
    out
}
