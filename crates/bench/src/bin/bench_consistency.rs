//! P3: consistency-check cost vs schema size — full recheck vs the
//! workspace's incremental engine.
//!
//! For each extended sweep size N (default 100 / 1 000 / 5 000 / 50 000 /
//! 100 000 types, override with `SWS_BENCH_SIZES`):
//!
//! * `full/N` — `check_consistency` from scratch over the whole schema
//!   (timed only up to 5 000 types; the two large sizes exist to show the
//!   incremental path stays flat where a full recheck would not);
//! * `incremental/N` — `Workspace::consistency()` after one edit, against a
//!   pre-synced consistency state (the setup applies the edit untimed, so
//!   the measured region is exactly the incremental sync + report assembly);
//! * `resync16/N` — the same after a batch of 16 edits, so the dirty
//!   closure spans many types.
//!
//! Results are also written machine-readably to `BENCH_incremental.json`
//! at the repository root (override the path with `SWS_BENCH_OUT`), in
//! the versioned [`sws_bench::report::BenchReport`] schema that
//! `bench_compare` diffs against `benches/baselines/`.

use sws_bench::edit_scripts::edit_stream;
use sws_bench::report::BenchReport;
use sws_bench::timing::Runner;
use sws_core::consistency::check_consistency;
use sws_core::Workspace;
use sws_corpus::synthetic;

const SEED: u64 = 42;
/// Edits applied per batched-resync iteration.
const RESYNC_BATCH: usize = 16;
/// Sizes above this only time the incremental path: a timed full recheck
/// at 50k/100k would dominate the run without informing the comparison.
const FULL_CHECK_MAX: usize = 5_000;

fn main() {
    let mut runner = Runner::new("consistency");
    let mut incremental = BenchReport::new("incremental_consistency", SEED, 0);

    for (n, g) in synthetic::size_sweep_large(SEED) {
        incremental.sizes.push(n as u64);
        let full_label = format!("full/{n}");
        if n <= FULL_CHECK_MAX {
            runner.bench(&full_label, || {
                check_consistency(std::hint::black_box(&g), std::hint::black_box(&g))
            });
        }

        // Base workspace with a warm (fully synced) consistency state; each
        // iteration clones it, applies one edit untimed, then times only
        // the incremental recheck.
        let base = Workspace::new(g.clone());
        base.consistency();
        let edits = edit_stream(&g, 64, 7);
        let mut next = 0usize;
        let inc_label = format!("incremental/{n}");
        runner.bench_batched_ref(
            &inc_label,
            || {
                let mut ws = base.clone();
                let (context, op) = edits[next % edits.len()].clone();
                next += 1;
                ws.apply(context, op).expect("edit applies");
                ws
            },
            |ws| ws.consistency(),
        );

        // Batched resync: the dirty closure of many edits at once.
        let batch = edit_stream(&g, RESYNC_BATCH, 13);
        let resync_label = format!("resync{RESYNC_BATCH}/{n}");
        runner.bench_batched_ref(
            &resync_label,
            || {
                let mut ws = base.clone();
                for (context, op) in batch.iter().cloned() {
                    ws.apply(context, op).expect("edit applies");
                }
                ws
            },
            |ws| ws.consistency(),
        );

        let labels: &[&String] = if n <= FULL_CHECK_MAX {
            &[&full_label, &inc_label, &resync_label]
        } else {
            &[&inc_label, &resync_label]
        };
        for &label in labels {
            incremental.push(
                label,
                runner.exact_quantile(label, 0.50).expect("ran"),
                runner.exact_quantile(label, 0.90).expect("ran"),
            );
        }
    }

    let out = std::env::var("SWS_BENCH_OUT").unwrap_or_else(|_| {
        format!(
            "{}/../../BENCH_incremental.json",
            env!("CARGO_MANIFEST_DIR")
        )
    });
    incremental.iters = runner.iters() as u64;
    incremental.write(&out);

    runner.finish();
}
