//! Measures what `sws-trace` instrumentation costs on the hot apply path:
//!
//! * **disabled** — no recorder installed; every span/counter call site
//!   is one relaxed atomic load.
//! * **flight** (the row keeps its name so committed baselines still
//!   compare) — a global ring recorder (`Recorder::ring`, what `swsd`
//!   runs with when it is not tracing): every span pushes open/close
//!   events into a fixed-capacity mutex-guarded ring and feeds the span
//!   histograms.
//! * **enabled** — a thread-local unbounded recorder (`Recorder::new`, as
//!   in `swsd --trace`) capturing the full event stream, counters, and
//!   histograms; it takes precedence over the global ring, which stays
//!   installed but idle.
//! * **disabled_after** — the disabled path re-measured after both
//!   recorders have been installed and torn down again.
//!
//! The enabled/disabled p50 ratio is the number docs/observability.md
//! quotes; rerun this binary to refresh it. The disabled_after/disabled
//! ratio guards the *disabled-recording* fast path: installing (and
//! uninstalling) the always-on machinery must leave the uninstrumented
//! cost untouched — when the measured run is long enough to be
//! meaningful (`SWS_BENCH_ITERS` ≥ 20), the binary **asserts** that ratio
//! stays ≤ `SWS_TRACE_OVERHEAD_MAX` (default 1.05) and exits nonzero
//! otherwise. Ratios use exact raw-sample quantiles, not the log2
//! histogram buckets (which can only express power-of-two ratios).
//!
//! Results are written to `BENCH_trace_overhead.json` at the repository
//! root (override with `SWS_BENCH_OUT`) in the versioned
//! [`sws_bench::report::BenchReport`] schema.

use std::process::ExitCode;
use sws_bench::report::BenchReport;
use sws_bench::timing::Runner;
use sws_core::oplang::parse_statement;
use sws_core::{ConceptKind, Workspace};
use sws_corpus::university;
use sws_trace::Recorder;

/// Iteration counts below this make the ratio assertion meaningless
/// (CI smoke runs use `SWS_BENCH_ITERS=2`).
const MIN_ITERS_FOR_ASSERT: u32 = 20;

fn overhead_max() -> f64 {
    std::env::var("SWS_TRACE_OVERHEAD_MAX")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.05)
}

fn main() -> ExitCode {
    let base = Workspace::new(university::graph());
    let op = parse_statement("add_attribute(CourseOffering, string(8), wing)").expect("parses");
    let apply = |ws: &mut Workspace| {
        ws.apply(ConceptKind::WagonWheel, op.clone())
            .expect("applies");
    };

    let mut runner = Runner::new("trace_overhead");
    runner.bench_batched("apply/disabled", || base.clone(), |mut ws| apply(&mut ws));

    // The always-on path: the global ring recorder only.
    sws_trace::set_global(Recorder::ring(256));
    runner.bench_batched("apply/flight", || base.clone(), |mut ws| apply(&mut ws));

    // Full recording (the `swsd --trace` configuration).
    let rec = Recorder::new();
    let guard = rec.install_thread();
    runner.bench_batched(
        "apply/enabled",
        || {
            rec.take(); // keep the event buffer from growing across iterations
            base.clone()
        },
        |mut ws| apply(&mut ws),
    );
    drop(guard);
    sws_trace::clear_global();

    // Back to nothing installed: the disabled fast path must cost what it
    // did before the machinery was ever touched.
    runner.bench_batched(
        "apply/disabled_after",
        || base.clone(),
        |mut ws| apply(&mut ws),
    );

    let p50 = |label: &str| runner.exact_quantile(label, 0.50).expect("ran");
    let disabled = p50("apply/disabled");
    let flight = p50("apply/flight");
    let enabled = p50("apply/enabled");
    let disabled_after = p50("apply/disabled_after");

    let report = BenchReport::from_runner("trace_overhead", 0, &runner);
    let out = std::env::var("SWS_BENCH_OUT").unwrap_or_else(|_| {
        format!(
            "{}/../../BENCH_trace_overhead.json",
            env!("CARGO_MANIFEST_DIR")
        )
    });
    report.write(&out);

    let iters = runner.iters();
    runner.finish();
    let ratio = |num: u64| num as f64 / disabled.max(1) as f64;
    let disabled_ratio = ratio(disabled_after);
    println!(
        "flight/disabled p50 ratio: {:.2}x\n\
         enabled/disabled p50 ratio: {:.2}x\n\
         disabled_after/disabled p50 ratio: {disabled_ratio:.2}x",
        ratio(flight),
        ratio(enabled),
    );

    if iters < MIN_ITERS_FOR_ASSERT {
        println!("disabled-overhead assertion skipped ({iters} iters < {MIN_ITERS_FOR_ASSERT})");
        return ExitCode::SUCCESS;
    }
    let max = overhead_max();
    if disabled_ratio > max {
        eprintln!(
            "bench_trace_overhead: FAIL: disabled_after/disabled p50 ratio {disabled_ratio:.3}x \
             exceeds SWS_TRACE_OVERHEAD_MAX {max:.2}x"
        );
        return ExitCode::from(1);
    }
    println!("disabled-overhead assertion passed ({disabled_ratio:.3}x <= {max:.2}x)");
    ExitCode::SUCCESS
}
