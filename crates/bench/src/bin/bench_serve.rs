//! Request-path latency of the `swsd serve` service layer: one client
//! submitting single-op batches through [`DesignService::handle`] while
//! N−1 other sessions sit open and idle, for N ∈ {1, 4, 16, 64}; and a
//! schema-size sweep, one session submitting `edit_stream` ops against
//! synthetic schemas of 1,000 and 10,000 types and exporting their ODL.
//!
//! Idle sessions are the point: the service keeps per-session metadata
//! but serializes mutations on one writer path, so an open-but-quiet
//! session must cost (near) nothing on the submit tail. The binary
//! asserts that directly — p99 with 16 open sessions may not exceed
//! 8× the 1-session p99 (plus a small absolute slack for timer noise).
//!
//! Rows written to `BENCH_serve.json` (override with `SWS_BENCH_OUT`):
//!
//! * `submit/sessionsN` — p50/p90 of one accepted submit round trip;
//! * `submit_p99/sessionsN` — the exact (nearest-rank) p99, stored in
//!   both fields since the schema carries two quantiles per row;
//! * `submit_ns_per_op/sessionsN` — the mean, i.e. ns-per-op; ops/sec
//!   is its reciprocal and is printed on stdout for humans;
//! * `submit/typesN` — p50/p90 of one accepted submit at head on an
//!   N-type synthetic schema. Every accepted submit publishes a new read
//!   view, so these rows show whether that publish scales with the
//!   schema (see `docs/performance.md`, "The publish path");
//! * `submit_add_type/typesN` — p50/p90 of one accepted
//!   `add_type_definition` of a fresh name at head on the same schema:
//!   the op the mixed `submit/typesN` stream hides, and the one that
//!   runs the consistency resync's existence step and moves the concept
//!   count;
//! * `export/typesN` — p50/p90 of one `export` on the same schema right
//!   after an accepted submit, as the daemon answers it without the
//!   socket: `handle(Export)`, which shares the view's ODL blocks, plus
//!   `write_response` into `io::sink()` with a reused line buffer, which
//!   copies the blocks' stored JSON escapes into the line and checksums
//!   it;
//! * `export_wire/typesN` — the same export as a round trip over loopback
//!   TCP: [`serve::serve`] runs in-process on a local listener, and a
//!   naive client writes the request and blocks in `read_line` until the
//!   whole response line has arrived. The daemon streams a long line as it
//!   renders it, so this row shows rendering and transfer overlapping;
//! * `conflict/lagN` — p50/p90 of one stale single-op submit issued N ops
//!   behind the head of a 128-op log on the university schema, as the
//!   daemon answers it without the socket: `handle(Submit)`, which
//!   answers `conflict` with the N-record delta, its commutation hints and
//!   the auto-rebase verdict, plus `write_response` into `io::sink()` with
//!   a reused line buffer. The delta's footprints were stored at accept,
//!   so this row shows whether the verdict scales with the lag alone;
//! * `conflict/lag128_ops2` — the same with a 2-op stale batch 128 ops
//!   behind: the batch × lag commutation pairs of a two-op writer;
//! * `submit/durable_batchN` — p50/p90 of one accepted N-op submit at
//!   head on the university schema, with the session saved to a real
//!   temporary directory: the batch's records reach `session.ops` in one
//!   fsynced append, so N ops cost one fsync, not N;
//! * `submit/historyN` — p50/p90 of one accepted single-op submit at head
//!   on the university schema after N accepted `churn_stream` ops, which
//!   keep the schema the same size: what a submit pays for the session's
//!   length alone (see `docs/performance.md`, "One history window");
//! * `checksum/disk620k`, `checksum/line620k` — p50/p90 of checksumming
//!   one 620 KB buffer (about an `exported` line of 1,000 types) fed in
//!   [`SLICE`]-byte pieces, with the one-lane disk form and with the
//!   eight-lane line form that ends every response line. The line form's
//!   eight multiply chains must overlap, so the binary asserts that its
//!   fastest run takes at most two thirds of the disk form's fastest run;
//!   a loop shape that serializes the chains takes as long as the disk
//!   form and fails that. On a quiet 2-CPU dev host the ratio is about
//!   one quarter. The bound leaves room because the line form's
//!   throughput-bound loop runs up to 2x slower while a co-tenant shares
//!   its core, for whole runs at a time, and the disk form's
//!   latency-bound loop does not.
//!
//! `report.sizes` records the session-count sweep; the type counts are
//! in the row labels. Override the iteration count with
//! `SWS_BENCH_ITERS` (default 200).
//!
//! The committed baseline (`benches/baselines/BENCH_serve.json`)
//! deliberately omits the `submit_p99/*` rows: absolute p99 across runs
//! of a shared CI host is noise (a 20x spike under co-tenant load is
//! routine), so bench_compare treats fresh p99 rows as informational.
//! The tail is guarded by the same-run relative assertion above instead.
//! It omits the `submit/durable_batch*` rows for a like reason: an fsync
//! costs what the host's disk makes it cost; compare those rows with each
//! other within one run.

use std::cell::Cell;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

use sws_bench::edit_scripts::{churn_stream, edit_stream};
use sws_bench::report::BenchReport;
use sws_bench::timing::Runner;
use sws_core::{print_op, ConceptKind};
use sws_corpus::synthetic::SyntheticSpec;
use sws_corpus::university;
use sws_designer::protocol::{write_response, SLICE};
use sws_designer::serve;
use sws_designer::{DesignService, OpEnvelope, Request, Response, Session};
use sws_model::graph_to_schema;
use sws_odl::print_schema;
use sws_repository::checksum::Checksum;

const SEED: u64 = 31;
const SESSIONS: [usize; 4] = [1, 4, 16, 64];
const TYPES: [usize; 2] = [1_000, 10_000];
const LAGS: [u64; 3] = [1, 16, 128];
const DURABLE_BATCHES: [usize; 3] = [1, 2, 8];
const HISTORY: [usize; 2] = [100, 10_000];

/// p99 may wobble on a loaded CI host even when the service is flat
/// across session counts; the ratio check gets this much absolute grace.
const P99_SLACK_NS: u64 = 100_000;

fn label(n: usize) -> String {
    format!("submit/sessions{n}")
}

fn main() {
    let mut runner = Runner::new("serve");

    for &n in &SESSIONS {
        let service =
            DesignService::new(Session::from_odl(university::SOURCE).expect("schema ingests"));
        for i in 0..n {
            let opened = service.handle(Request::Open {
                session: format!("s{i}"),
            });
            assert!(
                matches!(opened, Response::Opened { .. }),
                "open s{i} failed: {opened:?}"
            );
        }

        // s0 submits; the other n−1 sessions stay open and idle. Each
        // accepted op advances the head, so the next request's base_rev
        // comes from the previous response — exactly a client at head.
        let rev = Cell::new(0u64);
        let tick = Cell::new(0u64);
        runner.bench_batched(
            &label(n),
            || {
                let t = tick.get();
                tick.set(t + 1);
                Request::Submit {
                    session: "s0".to_string(),
                    base_rev: rev.get(),
                    ops: vec![OpEnvelope {
                        context: ConceptKind::WagonWheel,
                        statement: format!("add_type_definition(Bench{n}x{t})"),
                    }],
                }
            },
            |request| match service.handle(request) {
                Response::Accepted { rev: head, .. } => rev.set(head),
                other => panic!("submit at head must be accepted, got {other:?}"),
            },
        );
    }

    stale_submits(&mut runner);
    durable_submits(&mut runner);
    history_submits(&mut runner);
    checksums(&mut runner);

    for &n in &TYPES {
        let g = SyntheticSpec::sized(n, SEED).generate();
        let service = DesignService::new(
            Session::from_odl(&print_schema(&graph_to_schema(&g))).expect("schema ingests"),
        );
        let opened = service.handle(Request::Open {
            session: "s0".to_string(),
        });
        assert!(matches!(opened, Response::Opened { .. }), "{opened:?}");
        // Enough ops for the warm-ups and the measured iterations of the
        // three rows (the warm-up is at most 50 iterations).
        let script = edit_stream(&g, 3 * runner.iters() as usize + 192, SEED);
        let rev = Cell::new(0u64);
        let submit_next = || {
            let (context, op) = &script[rev.get() as usize];
            Request::Submit {
                session: "s0".to_string(),
                base_rev: rev.get(),
                ops: vec![OpEnvelope {
                    context: *context,
                    statement: print_op(op),
                }],
            }
        };
        let accept = |request| match service.handle(request) {
            Response::Accepted { rev: head, .. } => rev.set(head),
            other => panic!("submit at head must be accepted, got {other:?}"),
        };
        runner.bench_batched(&format!("submit/types{n}"), submit_next, accept);
        // An export right after a submit reads a freshly published view.
        let mut line = String::new();
        runner.bench_batched(
            &format!("export/types{n}"),
            || {
                accept(submit_next());
                Request::Export {
                    session: "s0".to_string(),
                }
            },
            |request| {
                write_response(&service.handle(request), &mut line, &mut io::sink())
                    .expect("a sink never fails")
            },
        );
        export_over_loopback(&mut runner, &service, n, || accept(submit_next()));
        // Last, so the rows above run on the schema as generated.
        let fresh = Cell::new(0u64);
        runner.bench_batched(
            &format!("submit_add_type/types{n}"),
            || {
                let t = fresh.get();
                fresh.set(t + 1);
                Request::Submit {
                    session: "s0".to_string(),
                    base_rev: rev.get(),
                    ops: vec![OpEnvelope {
                        context: ConceptKind::WagonWheel,
                        statement: format!("add_type_definition(Fresh{t})"),
                    }],
                }
            },
            accept,
        );
    }

    let mut report = BenchReport::from_runner("serve", SEED, &runner);
    report.sizes = SESSIONS.iter().map(|&n| n as u64).collect();
    for &n in &SESSIONS {
        let label = label(n);
        let p99 = runner
            .exact_quantile(&label, 0.99)
            .expect("label was measured");
        report.push(&format!("submit_p99/sessions{n}"), p99, p99);
        let mean = runner.histogram(&label).expect("label was measured").mean();
        report.push(&format!("submit_ns_per_op/sessions{n}"), mean, mean);
        if mean > 0 {
            println!(
                "serve: sessions={n:<3} {:>10.0} ops/sec (mean {mean} ns, p99 {p99} ns)",
                1e9 / mean as f64
            );
        }
    }

    // The acceptance gate: idle sessions must not bend the submit tail.
    let p99_1 = runner
        .exact_quantile(&label(1), 0.99)
        .expect("1-session baseline");
    let p99_16 = runner
        .exact_quantile(&label(16), 0.99)
        .expect("16-session sweep");
    assert!(
        p99_16 <= p99_1.saturating_mul(8).saturating_add(P99_SLACK_NS),
        "p99 with 16 idle sessions ({p99_16} ns) exceeds 8x the 1-session \
         baseline ({p99_1} ns) + {P99_SLACK_NS} ns slack"
    );

    // The line checksum's lanes must run side by side.
    let fastest = |label| {
        runner
            .exact_quantile(label, 0.0)
            .expect("label was measured")
    };
    let (disk, line) = (fastest("checksum/disk620k"), fastest("checksum/line620k"));
    assert!(
        line * 3 <= disk * 2,
        "the line checksum ({line} ns) takes more than two thirds of the \
         disk checksum's time ({disk} ns) on the same buffer"
    );

    let out = std::env::var("SWS_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_serve.json", env!("CARGO_MANIFEST_DIR")));
    report.write(&out);
    runner.finish();
}

/// The `conflict/lag{n}` rows: the university schema with a 128-op log,
/// and one single-op submit from a second session `lag` ops behind.
/// Nothing is applied, so every iteration sees the same log.
fn stale_submits(runner: &mut Runner) {
    let g = university::graph();
    let service =
        DesignService::new(Session::from_odl(university::SOURCE).expect("schema ingests"));
    for session in ["lead", "lag"] {
        let opened = service.handle(Request::Open {
            session: session.to_string(),
        });
        assert!(matches!(opened, Response::Opened { .. }), "{opened:?}");
    }
    let envelope = |(context, op): &(ConceptKind, sws_core::ModOp)| OpEnvelope {
        context: *context,
        statement: print_op(op),
    };
    let head = LAGS[LAGS.len() - 1];
    for (rev, op) in edit_stream(&g, head as usize, SEED).iter().enumerate() {
        let response = service.handle(Request::Submit {
            session: "lead".to_string(),
            base_rev: rev as u64,
            ops: vec![envelope(op)],
        });
        assert!(
            matches!(response, Response::Accepted { .. }),
            "{response:?}"
        );
    }
    let stale: Vec<OpEnvelope> = edit_stream(&g, 2, SEED + 1).iter().map(envelope).collect();
    let mut line = String::new();
    let rows = LAGS
        .iter()
        .map(|&lag| (format!("conflict/lag{lag}"), lag, 1))
        .chain([("conflict/lag128_ops2".to_string(), head, 2)]);
    for (row, lag, ops) in rows {
        runner.bench_batched(
            &row,
            || Request::Submit {
                session: "lag".to_string(),
                base_rev: head - lag,
                ops: stale[..ops].to_vec(),
            },
            |request| match service.handle(request) {
                conflict @ Response::Conflict { .. } => {
                    write_response(&conflict, &mut line, &mut io::sink())
                        .expect("a sink never fails")
                }
                other => panic!("a stale submit must conflict, got {other:?}"),
            },
        );
    }
}

/// The `submit/durable_batch{n}` rows: n-op submits at head through a
/// service whose session autosaves to a directory on the real filesystem.
fn durable_submits(runner: &mut Runner) {
    for n in DURABLE_BATCHES {
        let dir = std::env::temp_dir().join(format!("sws_bench_durable{n}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut session = Session::from_odl(university::SOURCE).expect("schema ingests");
        session.save(&dir).expect("save the session directory");
        let service = DesignService::new(session);
        let opened = service.handle(Request::Open {
            session: "s0".to_string(),
        });
        assert!(matches!(opened, Response::Opened { .. }), "{opened:?}");
        let rev = Cell::new(0u64);
        runner.bench_batched(
            &format!("submit/durable_batch{n}"),
            || Request::Submit {
                session: "s0".to_string(),
                base_rev: rev.get(),
                ops: (0..n)
                    .map(|i| OpEnvelope {
                        context: ConceptKind::WagonWheel,
                        statement: format!("add_type_definition(Durable{}x{i})", rev.get()),
                    })
                    .collect(),
            },
            |request| match service.handle(request) {
                Response::Accepted { rev: head, .. } => rev.set(head),
                other => panic!("submit at head must be accepted, got {other:?}"),
            },
        );
        assert!(
            service
                .with_session(|s| s.take_autosave_warning())
                .is_none(),
            "every append must land"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The `submit/history{n}` rows: `n` accepted single-op submits first,
/// then the measured ones, all from one `churn_stream` at head.
fn history_submits(runner: &mut Runner) {
    let g = university::graph();
    for n in HISTORY {
        let service =
            DesignService::new(Session::from_odl(university::SOURCE).expect("schema ingests"));
        let opened = service.handle(Request::Open {
            session: "s0".to_string(),
        });
        assert!(matches!(opened, Response::Opened { .. }), "{opened:?}");
        // The history, then enough ops for the warm-up (at most 50
        // iterations) and the measured iterations.
        let script = churn_stream(&g, n + runner.iters() as usize + 64, SEED);
        let rev = Cell::new(0u64);
        let submit_next = || {
            let (context, op) = &script[rev.get() as usize];
            Request::Submit {
                session: "s0".to_string(),
                base_rev: rev.get(),
                ops: vec![OpEnvelope {
                    context: *context,
                    statement: print_op(op),
                }],
            }
        };
        let accept = |request| match service.handle(request) {
            Response::Accepted { rev: head, .. } => rev.set(head),
            other => panic!("submit at head must be accepted, got {other:?}"),
        };
        for _ in 0..n {
            accept(submit_next());
        }
        runner.bench_batched(&format!("submit/history{n}"), submit_next, accept);
    }
}

/// The `checksum/{disk,line}620k` rows: one buffer the size of a
/// 1,000-type `exported` line, checksummed in the slices a streamed line
/// is folded in.
fn checksums(runner: &mut Runner) {
    let buf: Vec<u8> = (0..620_000u32)
        .map(|i| (i.wrapping_mul(0x9E37_79B1) >> 24) as u8)
        .collect();
    runner.bench("checksum/disk620k", || sliced(Checksum::new(), &buf));
    runner.bench("checksum/line620k", || sliced(Checksum::line(), &buf));
}

/// `buf` fed to `sum` in [`SLICE`]-byte pieces, as `write_response` folds
/// a streamed line.
fn sliced<const L: usize>(mut sum: Checksum<L>, buf: &[u8]) -> u64 {
    for slice in std::hint::black_box(buf).chunks(SLICE) {
        sum.update(slice);
    }
    sum.finish()
}

/// The `export_wire/types{n}` row: `fresh()` publishes a new view
/// in-process, then one export round trip goes through the daemon's own
/// accept loop on a loopback socket.
fn export_over_loopback(
    runner: &mut Runner,
    service: &DesignService,
    n: usize,
    mut fresh: impl FnMut(),
) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address");
    std::thread::scope(|scope| {
        scope.spawn(|| serve::serve(service, listener, 1).expect("serve"));
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone the stream"));
        let mut line = String::new();
        let mut round_trip = |frame: &str, line: &mut String| {
            stream.write_all(frame.as_bytes()).expect("send");
            line.clear();
            reader.read_line(line).expect("receive");
        };
        runner.bench_batched(&format!("export_wire/types{n}"), &mut fresh, |()| {
            round_trip("{\"type\":\"export\",\"session\":\"s0\"}\n", &mut line);
            assert!(line.starts_with("{\"type\":\"exported\""), "{line:.80}");
        });
        round_trip("{\"type\":\"shutdown\"}\n", &mut line);
        assert!(line.starts_with("{\"type\":\"bye\""), "{line}");
    });
}
