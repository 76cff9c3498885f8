//! Static-analyzer cost: `sws_analyze::analyze_ops` runs the executor's
//! checks and mutators on a copy-on-write clone of the base schema, and
//! applies op *i* only once op *i + 1* needs it. So a one-op script never
//! clones; a longer one pays one O(types/32) clone (a refcount bump per
//! 32-slot arena chunk) plus one chunk copy per chunk it first writes,
//! then the executor's own per-op cost.
//!
//! Three sweeps make that measurable:
//!
//! * `batchK/typesN` — the served shape: one analysis per iteration of a
//!   K-op chunk of an `edit_stream` (K = 1 is a `lint` read, K = 2 a
//!   stale probe), each chunk against the schema the earlier chunks
//!   produced, on 1 000- and 10 000-type graphs. K = 1 should stay flat
//!   as N grows.
//! * `fixed_script/typesN` — a 64-op stream (adds/deletes; no extent ops,
//!   whose uniqueness precondition scans live types in the executor and
//!   analyzer alike) analyzed against graphs of growing size.
//! * `fixed_graph/opsN` — growing scripts against one 200-type graph.
//!   Total cost should grow linearly in script length.
//!
//! `fixed_script` sizes default to 100 / 500 / 2000 (override
//! `SWS_BENCH_SIZES`); iterations via `SWS_BENCH_ITERS`. Results are also
//! written to `BENCH_lint.json` at the repository root (override the path
//! with `SWS_BENCH_OUT`) in the versioned
//! [`sws_bench::report::BenchReport`] schema that `bench_compare` diffs
//! against `benches/baselines/`.

use sws_analyze::analyze_ops;
use sws_bench::edit_scripts::{edit_stream, faulty_stream};
use sws_bench::report::BenchReport;
use sws_bench::timing::Runner;
use sws_core::ops::apply::apply_op;
use sws_corpus::synthetic::SyntheticSpec;

const SEED: u64 = 17;
/// Graph sizes of the `batchK` rows.
const BATCH_SIZES: [usize; 2] = [1_000, 10_000];
/// Chunks per `batchK` row; iterations cycle through them.
const CHUNKS: usize = 64;

fn sizes() -> Vec<usize> {
    let parsed: Vec<usize> = std::env::var("SWS_BENCH_SIZES")
        .map(|v| {
            v.split(',')
                .filter_map(|s| s.trim().parse().ok())
                .filter(|&n| n > 0)
                .collect()
        })
        .unwrap_or_default();
    if parsed.is_empty() {
        vec![100, 500, 2000]
    } else {
        parsed
    }
}

fn main() {
    let mut runner = Runner::new("lint");

    // Served shape: K-op chunks, each against the schema its predecessors
    // built (clones share every chunk they did not write).
    for &n in &BATCH_SIZES {
        let shrink_wrap = SyntheticSpec::sized(n, SEED).generate();
        for batch in [1usize, 2] {
            let stream = edit_stream(&shrink_wrap, CHUNKS * batch, SEED);
            let mut working = shrink_wrap.clone();
            let cases: Vec<_> = stream
                .chunks(batch)
                .map(|chunk| {
                    let base = working.clone();
                    for (_, op) in chunk {
                        apply_op(&mut working, op).expect("edit_stream applies");
                    }
                    (base, chunk)
                })
                .collect();
            let mut next = 0usize;
            runner.bench(&format!("batch{batch}/types{n}"), || {
                let (base, chunk) = &cases[next % cases.len()];
                next += 1;
                let report = analyze_ops(base, &shrink_wrap, chunk);
                assert!(report.passes());
                report.findings.len()
            });
        }
    }

    // Graph-size sweep, fixed 64-op script.
    let fixed_sizes = sizes();
    for &n in &fixed_sizes {
        let g = SyntheticSpec::sized(n, SEED).generate();
        let script = edit_stream(&g, 64, SEED);
        runner.bench(&format!("fixed_script/types{n}"), || {
            let report = analyze_ops(&g, &g, &script);
            assert!(report.passes());
            report.findings.len()
        });
    }

    // Script-length sweep, fixed 200-type graph; adversarial streams keep
    // the warning/def-use machinery engaged too.
    let g = SyntheticSpec::sized(200, SEED).generate();
    for len in [16usize, 64, 256] {
        let script = edit_stream(&g, len, SEED);
        runner.bench(&format!("fixed_graph/ops{len}"), || {
            analyze_ops(&g, &g, &script).findings.len()
        });
    }
    let faulty = faulty_stream(&g, 64, SEED);
    runner.bench("fixed_graph/faulty64", || {
        analyze_ops(&g, &g, &faulty).findings.len()
    });

    let mut report = BenchReport::from_runner("lint", SEED, &runner);
    let mut swept: Vec<u64> = BATCH_SIZES
        .iter()
        .chain(&fixed_sizes)
        .map(|&n| n as u64)
        .collect();
    swept.sort_unstable();
    swept.dedup();
    report.sizes = swept;
    let out = std::env::var("SWS_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_lint.json", env!("CARGO_MANIFEST_DIR")));
    report.write(&out);

    runner.finish();
}
