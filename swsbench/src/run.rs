//! One benchmark run: cycles of a workload's script on fresh daemons until
//! the run's time is used, the correctness gate on every cycle, and the
//! metrics.
//!
//! Untraced runs report the end-to-end metrics. A traced run first runs
//! one untraced cycle (the baseline for `bench.trace_overhead.ratio`), then
//! traced cycles, and reports the per-layer metrics.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use sws_designer::crash::checksum_valid;
use sws_repository::Repository;

use crate::client::{peak_connections, response_type, thread_count, Conn, Daemon, Exchange};
use crate::gate;
use crate::host::{Reference, NOMINAL_COMPUTE_US, NOMINAL_ECHO_P90_US};
use crate::json::{quote, Value};
use crate::ladder::Ladder;
use crate::spec::{per_layer, END_TO_END};
use crate::stats::{median, nearest_rank};
use crate::workload::{
    fingerprint, open_frame, read_frame, script, stored_fingerprint, Cursor, ReadKind, Script,
    Step, Workload, CHECKPOINT_INTERVAL, DEFAULT_SEED, PING_FRAME, SHUTDOWN_FRAME,
};

/// Acceptor threads of the daemon under test.
const DAEMON_THREADS: usize = 2;
/// The generator may never exceed this many threads or connections.
const GENERATOR_LIMIT: usize = 2;
/// A generator whose typical request goes out more than this late
/// invalidates the run.
const MAX_GEN_LATE_US: f64 = 1000.0;
/// Trace request ids of the reader's requests start here, apart from the
/// writer's step indices.
const READER_REQ_BASE: u64 = 1 << 32;
/// Scratch space inside the checkout (inputs, session directories,
/// traces), relative to the repository root the run starts in.
const WORK_DIR: &str = ".swsbench";

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    pub swsd: PathBuf,
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// The result line's content.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    /// The single-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(name),
                    json_number(*value),
                    quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parse a result line back.
    pub fn parse(line: &str) -> Result<Outcome, String> {
        let v = Value::parse(line)?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("result has no `{k}`"));
        let metrics = field("metrics")?
            .as_object()
            .ok_or("`metrics` must be an object")?
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Value::as_f64);
                let unit = m.get("unit").and_then(Value::as_str);
                match (value, unit) {
                    (Some(value), Some(unit)) => Ok((name.clone(), value, unit.to_string())),
                    _ => Err(format!("metric {name} needs a numeric value and a unit")),
                }
            })
            .collect::<Result<_, String>>()?;
        Ok(Outcome {
            correct: field("correct")?
                .as_bool()
                .ok_or("`correct` must be a boolean")?,
            attempted: field("attempted")?
                .as_u64()
                .ok_or("`attempted` must be a count")?,
            failed: field("failed")?
                .as_u64()
                .ok_or("`failed` must be a count")?,
            metrics,
        })
    }
}

/// Rust's shortest round-trip rendering, which is valid JSON for every
/// finite value.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// What one cycle measured.
#[derive(Debug, Default)]
struct Cycle {
    submit_ns: Vec<u64>,
    read_ns: Vec<u64>,
    conflict_ns: Vec<u64>,
    /// How late the generator sent each request.
    late_ns: Vec<u64>,
    accepted_ops: u64,
    writer_ns: u64,
    setup_s: f64,
    rss_mib: f64,
    /// How fast the host ran the references around the cycle.
    host: Option<Reference>,
}

impl Cycle {
    fn host(&self) -> Result<Reference, String> {
        self.host
            .ok_or_else(|| "a cycle has no host reference".to_string())
    }
}

/// Everything measured across a run's cycles.
#[derive(Debug, Default)]
struct Acc {
    cycles: Vec<Cycle>,
    /// Accepted-submit round trips of traced cycles.
    traced_submit_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    max_threads: usize,
}

impl Acc {
    fn note_threads(&mut self) {
        self.max_threads = self.max_threads.max(thread_count().unwrap_or(0));
    }
}

/// Verify a response's checksum and type; decode it when asked.
fn expect(acc: &mut Acc, line: &str, ty: &str, decode: bool) -> Result<Option<Value>, String> {
    if !checksum_valid(line) {
        acc.failed += 1;
        return Err(format!("bad checksum on response `{}`", clip(line)));
    }
    if response_type(line) != ty {
        acc.failed += 1;
        return Err(format!("expected `{ty}`, got `{}`", clip(line)));
    }
    if !decode {
        return Ok(None);
    }
    Value::parse(line).map(Some).map_err(|e| {
        acc.failed += 1;
        format!("undecodable response ({e}): `{}`", clip(line))
    })
}

fn clip(line: &str) -> &str {
    let end = (0..=line.len().min(300))
        .rev()
        .find(|&i| line.is_char_boundary(i))
        .unwrap_or(0);
    &line[..end]
}

fn num(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("response has no numeric `{key}`"))
}

fn ensure(acc: &mut Acc, ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        acc.failed += 1;
        Err(what())
    }
}

/// Refuse to run when the generated inputs drifted from the stored
/// fingerprint (corpus, edit streams or op printing changed underneath).
pub fn check_fingerprint(workload: Workload) -> Result<(), String> {
    let have = fingerprint(&script(workload, DEFAULT_SEED));
    match stored_fingerprint(workload) {
        Some(want) if want == have => Ok(()),
        want => Err(format!(
            "{}: the generated inputs changed (fingerprint {have:016x}, stored {}); \
             numbers would not be comparable with earlier runs",
            workload.name(),
            want.map_or("none".to_string(), |w| format!("{w:016x}"))
        )),
    }
}

/// Run one workload. `Err` is a failure to run at all; a gate failure
/// comes back as an [`Outcome`] with `correct: false`.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    check_fingerprint(cfg.workload)?;
    let script = script(cfg.workload, cfg.seed);
    let run_dir =
        Path::new(WORK_DIR).join(format!("{}-{}", cfg.workload.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("cannot create {}: {e}", run_dir.display()))?;

    let mut acc = Acc::default();
    acc.note_threads();
    let mut ladder = cfg.trace.then(|| Ladder::new(cfg.workload.durable()));
    let budget = Duration::from_secs(cfg.seconds);
    let start = Instant::now();
    let mut failure = None;
    let mut host = measure_host()?;
    for index in 0.. {
        let began = Instant::now();
        let traced = if index > 0 { ladder.as_mut() } else { None };
        let mut c = match cycle(
            cfg,
            &script,
            &run_dir.join(format!("c{index}")),
            &mut acc,
            traced,
        ) {
            Ok(c) => c,
            Err(e) => {
                failure = Some(e);
                break;
            }
        };
        let after = measure_host()?;
        c.host = Some(host.around(after));
        host = after;
        acc.cycles.push(c);
        // A traced run needs its untraced baseline cycle plus one traced.
        let needed = if cfg.trace { 2 } else { 1 };
        if index + 1 >= needed && start.elapsed() + began.elapsed() > budget {
            break;
        }
    }
    if let (Some(l), None) = (&ladder, &failure) {
        let path = Path::new(WORK_DIR).join(format!("trace-{}.jsonl", cfg.workload.name()));
        l.tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("swsbench: trace written to {}", path.display());
    }
    let _ = std::fs::remove_dir_all(&run_dir);

    if failure.is_none() {
        failure = validity(&acc).err();
    }
    if let (Ok(compute), Ok(echo)) = (
        per_cycle(&acc, |c| Ok(c.host()?.compute_us)),
        per_cycle(&acc, |c| Ok(c.host()?.echo_p90_us)),
    ) {
        eprintln!(
            "swsbench: host reference over {} cycles: compute {compute:.0} us (nominal {NOMINAL_COMPUTE_US}), \
             echo p90 {echo:.0} us (nominal {NOMINAL_ECHO_P90_US})",
            acc.cycles.len()
        );
    }
    if let Some(e) = &failure {
        eprintln!("swsbench: {}: {e}", cfg.workload.name());
    }
    let metrics = if failure.is_some() {
        Vec::new()
    } else {
        match metrics(&acc, ladder.as_ref()) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("swsbench: {}: {e}", cfg.workload.name());
                failure = Some(e);
                Vec::new()
            }
        }
    };
    Ok(Outcome {
        correct: failure.is_none() && acc.failed == 0,
        attempted: acc.attempted.max(1),
        failed: acc.failed,
        metrics,
    })
}

/// Measure the host references (see [`crate::host`]).
fn measure_host() -> Result<Reference, String> {
    Reference::measure().map_err(|e| format!("host reference: {e}"))
}

/// The generator's own limits: threads, connections, lateness.
fn validity(acc: &Acc) -> Result<(), String> {
    if acc.max_threads > GENERATOR_LIMIT {
        return Err(format!(
            "generator used {} threads (limit {GENERATOR_LIMIT})",
            acc.max_threads
        ));
    }
    if peak_connections() > GENERATOR_LIMIT {
        return Err(format!(
            "generator held {} connections (limit {GENERATOR_LIMIT})",
            peak_connections()
        ));
    }
    let late = per_cycle(acc, |c| us(&c.late_ns, 0.5))?;
    if late > MAX_GEN_LATE_US {
        return Err(format!(
            "generator ran late: median per-cycle p50 {late:.0} us exceeds {MAX_GEN_LATE_US} us"
        ));
    }
    Ok(())
}

/// The `q`-quantile of `samples`, in µs.
fn us(samples: &[u64], q: f64) -> Result<f64, String> {
    let mut s = samples.to_vec();
    nearest_rank(&mut s, q)
        .map(|ns| ns as f64 / 1e3)
        .ok_or_else(|| "a request class has no samples".to_string())
}

/// The median over the run's cycles of a per-cycle value.
fn per_cycle(acc: &Acc, f: impl Fn(&Cycle) -> Result<f64, String>) -> Result<f64, String> {
    let values = acc.cycles.iter().map(f).collect::<Result<Vec<_>, _>>()?;
    median(&values).ok_or_else(|| "the run has no cycle".to_string())
}

/// The run's metrics in catalogue order: end-to-end untraced, per-layer
/// traced.
fn metrics(acc: &Acc, ladder: Option<&Ladder>) -> Result<Vec<(String, f64, String)>, String> {
    let mut values: Vec<(String, f64)> = Vec::new();
    let catalogue: Vec<(String, &str)> = match ladder {
        None => {
            // Each cycle's quantile, scaled to the nominal host, then the
            // median over the cycles.
            let p50 = |samples: fn(&Cycle) -> &Vec<u64>| {
                per_cycle(acc, |c| Ok(us(samples(c), 0.5)? * c.host()?.median_scale()))
            };
            let p90 = |samples: fn(&Cycle) -> &Vec<u64>| {
                per_cycle(acc, |c| Ok(us(samples(c), 0.9)? * c.host()?.tail_scale()))
            };
            values.push(("submit_p50_us".into(), p50(|c| &c.submit_ns)?));
            values.push(("submit_p90_us".into(), p90(|c| &c.submit_ns)?));
            values.push((
                "ops_per_s".into(),
                per_cycle(acc, |c| {
                    let seconds = c.writer_ns.max(1) as f64 / 1e9;
                    Ok(c.accepted_ops as f64 / seconds / c.host()?.median_scale())
                })?,
            ));
            values.push(("read_p50_us".into(), p50(|c| &c.read_ns)?));
            values.push(("read_p90_us".into(), p90(|c| &c.read_ns)?));
            values.push(("conflict_p50_us".into(), p50(|c| &c.conflict_ns)?));
            values.push(("conflict_p90_us".into(), p90(|c| &c.conflict_ns)?));
            values.push((
                "setup_s".into(),
                per_cycle(acc, |c| Ok(c.setup_s * c.host()?.median_scale()))?,
            ));
            values.push(("peak_rss_mb".into(), per_cycle(acc, |c| Ok(c.rss_mib))?));
            END_TO_END
                .iter()
                .map(|(name, unit, _)| (name.to_string(), *unit))
                .collect()
        }
        Some(l) => {
            values.extend(l.metrics()?);
            let untraced = acc.cycles.first().ok_or("the run has no cycle")?;
            values.push((
                "bench.trace_overhead.ratio".into(),
                us(&acc.traced_submit_ns, 0.5)? / us(&untraced.submit_ns, 0.5)?,
            ));
            values.push((
                "bench.gen_late.p99_us".into(),
                per_cycle(acc, |c| us(&c.late_ns, 0.99))?,
            ));
            per_layer()
                .into_iter()
                .map(|(name, unit, _)| (name, unit))
                .collect()
        }
    };
    catalogue
        .into_iter()
        .map(|(name, unit)| {
            values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| (name.clone(), *v, unit.to_string()))
                .ok_or_else(|| format!("metric {name} was not measured"))
        })
        .collect()
}

/// The daemon's command line for this cycle.
fn daemon_args(script: &Script, dir: &Path) -> Result<Vec<String>, String> {
    let mut args = vec![format!("--threads={DAEMON_THREADS}")];
    if script.workload.durable() {
        let session = dir.join("session");
        Repository::ingest_odl(&script.odl)
            .and_then(|repo| repo.save(&session))
            .map_err(|e| format!("cannot create the session directory: {e}"))?;
        args.push(format!("--checkpoint-interval={CHECKPOINT_INTERVAL}"));
        args.push("--session".into());
        args.push(session.display().to_string());
    } else {
        let schema = dir.join("schema.odl");
        std::fs::write(&schema, &script.odl)
            .map_err(|e| format!("cannot write the schema: {e}"))?;
        args.push("--schema".into());
        args.push(schema.display().to_string());
    }
    args.push("serve".into());
    args.push("--addr=127.0.0.1:0".into());
    Ok(args)
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// One cycle on a fresh daemon.
fn cycle(
    cfg: &Config,
    script: &Script,
    dir: &Path,
    acc: &mut Acc,
    mut ladder: Option<&mut Ladder>,
) -> Result<Cycle, String> {
    std::fs::create_dir_all(dir).map_err(io_err("cycle directory"))?;
    let mut c = Cycle::default();
    let args = daemon_args(script, dir)?;
    if let Some(l) = ladder.as_deref_mut() {
        l.begin_cycle(&script.odl, &dir.join("ladder"))?;
    }

    let spawned = Instant::now();
    let daemon = Daemon::spawn(&cfg.swsd, &args, dir)?;
    let mut conn = Conn::connect(daemon.addr).map_err(io_err("connect"))?;
    for (i, session) in script.sessions.iter().enumerate() {
        acc.attempted += 1;
        conn.call(&open_frame(session)).map_err(io_err("open"))?;
        expect(acc, &conn.line, "opened", false)?;
        if i == 0 {
            c.setup_s = spawned.elapsed().as_secs_f64();
        }
    }

    let mut cursor = Cursor::default();
    for step in &script.warmup {
        let frame = cursor.frame(script, step);
        acc.attempted += 1;
        conn.call(&frame).map_err(io_err("warm-up submit"))?;
        expect(acc, &conn.line, "accepted", false)?;
        if let (Some(l), Step::Submit { ops, .. }) = (ladder.as_deref_mut(), step) {
            l.warm(ops)?;
        }
    }

    let stop = AtomicBool::new(false);
    let traced = ladder.is_some();
    let (written, reader) = std::thread::scope(|scope| {
        let reader = (script.reader_rate > 0)
            .then(|| scope.spawn(|| reader_loop(daemon.addr, script, &stop, traced)));
        let written = writer_loop(
            &mut conn,
            script,
            &mut cursor,
            acc,
            &mut c,
            ladder.as_deref_mut(),
        );
        stop.store(true, Ordering::SeqCst);
        let reader = reader.map(|h| {
            h.join()
                .unwrap_or_else(|_| Err("reader thread panicked".into()))
        });
        (written, reader)
    });
    written?;
    if let Some(reader) = reader {
        let out = reader?;
        acc.attempted += out.attempted;
        acc.failed += out.failed;
        c.read_ns.extend(&out.read_ns);
        c.late_ns.extend(&out.late_ns);
        acc.max_threads = acc.max_threads.max(out.max_threads);
        if let Some(problem) = out.problem {
            return Err(format!("reader: {problem}"));
        }
        if let Some(l) = ladder.as_deref_mut() {
            for (i, (kind, ex, bytes)) in out.exchanges.into_iter().enumerate() {
                l.reader_read(READER_REQ_BASE + i as u64, kind, ex, bytes);
            }
        }
    }

    // The gate: serial replay of the accepted order equals the export. At
    // rev 0 a log read asks for everything.
    let session = script.sessions[0];
    acc.attempted += 2;
    conn.call(&read_frame(ReadKind::Log, session, 0, &script.lint_ops, 0))
        .map_err(io_err("log"))?;
    let log = expect(acc, &conn.line, "log", true)?.expect("decoded");
    let records = gate::records(&log, "ops", 0)?;
    ensure(acc, records.len() as u64 == cursor.rev, || {
        format!(
            "log holds {} ops, {} were accepted",
            records.len(),
            cursor.rev
        )
    })?;
    conn.call(&read_frame(
        ReadKind::Export,
        session,
        0,
        &script.lint_ops,
        0,
    ))
    .map_err(io_err("export"))?;
    let export = expect(acc, &conn.line, "exported", true)?.expect("decoded");
    let odl = export
        .get("odl")
        .and_then(Value::as_str)
        .ok_or("export has no odl")?
        .to_string();
    if let Err(e) = gate::check_replay(&script.odl, &records, &odl) {
        acc.failed += 1;
        return Err(e);
    }
    if let Some(l) = ladder {
        l.end_cycle(&odl).inspect_err(|_| acc.failed += 1)?;
    }

    let rss = daemon
        .peak_rss_kib()
        .ok_or("cannot read the daemon's VmHWM")?;
    c.rss_mib = rss as f64 / 1024.0;
    acc.attempted += 1;
    conn.call_last(SHUTDOWN_FRAME).map_err(io_err("shutdown"))?;
    expect(acc, &conn.line, "bye", false)?;
    drop(conn);
    daemon.wait_clean_exit(Duration::from_secs(60))?;
    if script.workload.durable() {
        gate::check_durable(&dir.join("session"), &odl).inspect_err(|_| acc.failed += 1)?;
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(c)
}

/// The closed-loop writer: every measured step of the script.
fn writer_loop(
    conn: &mut Conn,
    script: &Script,
    cursor: &mut Cursor,
    acc: &mut Acc,
    c: &mut Cycle,
    mut ladder: Option<&mut Ladder>,
) -> Result<(), String> {
    acc.note_threads();
    let started = Instant::now();
    for (req, step) in script.steps.iter().enumerate() {
        let req = req as u64;
        let ready = Instant::now();
        let base = cursor.rev;
        let frame = cursor.frame(script, step);
        acc.attempted += 1;
        let ex = conn.call(&frame).map_err(io_err("request"))?;
        c.late_ns
            .push(ex.sent.duration_since(ready).as_nanos() as u64);
        match step {
            Step::Submit { session, ops } => {
                let v = expect(acc, &conn.line, "accepted", true)?.expect("decoded");
                let (got_base, rev) = (num(&v, "base_rev")?, num(&v, "rev")?);
                ensure(acc, got_base == base && rev == cursor.rev, || {
                    format!(
                        "accepted {got_base}->{rev}, expected {base}->{}",
                        cursor.rev
                    )
                })?;
                c.accepted_ops += ops.len() as u64;
                match ladder.as_deref_mut() {
                    None => c.submit_ns.push(ex.ns()),
                    Some(l) => {
                        acc.traced_submit_ns.push(ex.ns());
                        let warnings = v
                            .get("warnings")
                            .and_then(Value::as_array)
                            .map(|w| {
                                w.iter()
                                    .filter_map(Value::as_str)
                                    .map(str::to_string)
                                    .collect()
                            })
                            .unwrap_or_default();
                        let wire = std::mem::take(&mut conn.line);
                        acc.attempted += 1;
                        let ping = conn.call(PING_FRAME).map_err(io_err("ping"))?;
                        expect(acc, &conn.line, "pong", false)?;
                        l.accepted(req, &frame, session, base, ops, warnings, &wire, ex, ping)
                            .inspect_err(|_| acc.failed += 1)?;
                    }
                }
            }
            Step::Stale { lag, ops, .. } => {
                let v = expect(acc, &conn.line, "conflict", true)?.expect("decoded");
                let (got_base, rev) = (num(&v, "base_rev")?, num(&v, "rev")?);
                let delta = gate::records(&v, "delta", base - lag)?;
                ensure(
                    acc,
                    got_base == base - lag && rev == base && delta.len() as u64 == *lag,
                    || {
                        format!(
                            "conflict {got_base}..{rev} with {} records, expected {}..{base}",
                            delta.len(),
                            base - lag
                        )
                    },
                )?;
                c.conflict_ns.push(ex.ns());
                if let Some(l) = ladder.as_deref_mut() {
                    let auto = v
                        .get("auto_rebasable")
                        .and_then(Value::as_bool)
                        .ok_or("conflict has no auto_rebasable")?;
                    l.conflict(req, ops, &delta, auto, ex, conn.line.len())
                        .inspect_err(|_| acc.failed += 1)?;
                }
            }
            Step::Read(kind) => {
                let decode = ladder.is_some() && *kind == ReadKind::Export;
                let v = expect(acc, &conn.line, kind.response(), decode)?;
                c.read_ns.push(ex.ns());
                if let Some(l) = ladder.as_deref_mut() {
                    let exported = v.map(|v| {
                        let rev = v.get("rev").and_then(Value::as_u64).unwrap_or(u64::MAX);
                        let odl = v
                            .get("odl")
                            .and_then(Value::as_str)
                            .unwrap_or("")
                            .to_string();
                        (rev, odl)
                    });
                    l.read(req, *kind, ex, &conn.line, exported)
                        .inspect_err(|_| acc.failed += 1)?;
                }
            }
        }
    }
    if ladder.is_none() {
        c.writer_ns += started.elapsed().as_nanos() as u64;
    }
    Ok(())
}

/// What the open-loop reader measured.
#[derive(Debug, Default)]
struct ReaderOut {
    read_ns: Vec<u64>,
    late_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    max_threads: usize,
    problem: Option<String>,
    /// Per read (traced runs): kind, round trip, response bytes.
    exchanges: Vec<(ReadKind, Exchange, usize)>,
}

/// The open-loop reader: one request every `1 / reader_rate` s, each
/// timed from when it was due, until the writer finishes.
fn reader_loop(
    addr: std::net::SocketAddr,
    script: &Script,
    stop: &AtomicBool,
    traced: bool,
) -> Result<ReaderOut, String> {
    let mut out = ReaderOut::default();
    let mut conn = Conn::connect(addr).map_err(io_err("reader connect"))?;
    out.max_threads = thread_count().unwrap_or(0);
    out.attempted += 1;
    conn.call(&open_frame("reader"))
        .map_err(io_err("reader open"))?;
    if response_type(&conn.line) != "opened" || !checksum_valid(&conn.line) {
        out.failed += 1;
        out.problem = Some(format!("reader open got `{}`", clip(&conn.line)));
        return Ok(out);
    }
    let interval = Duration::from_secs(1) / script.reader_rate;
    let start = Instant::now();
    let mut last_rev = 0u64;
    let mut lint_seq = 0usize;
    let mut free_at = start;
    for k in 0u32.. {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let due = start + interval * k;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let kind = ReadKind::CYCLE[k as usize % ReadKind::CYCLE.len()];
        let frame = read_frame(kind, "reader", last_rev, &script.lint_ops, lint_seq);
        if kind == ReadKind::Lint {
            lint_seq += 1;
        }
        out.attempted += 1;
        let ex = conn.call(&frame).map_err(io_err("reader request"))?;
        out.late_ns
            .push(ex.sent.duration_since(due.max(free_at)).as_nanos() as u64);
        free_at = ex.received;
        out.read_ns
            .push(ex.received.duration_since(due).as_nanos() as u64);
        if !checksum_valid(&conn.line) || response_type(&conn.line) != kind.response() {
            out.failed += 1;
            out.problem
                .get_or_insert_with(|| format!("got `{}`", clip(&conn.line)));
            continue;
        }
        if kind != ReadKind::Export {
            if let Some(rev) = Value::parse(&conn.line)
                .ok()
                .and_then(|v| v.get("rev").and_then(Value::as_u64))
            {
                last_rev = rev;
            }
        }
        if traced {
            out.exchanges.push((
                kind,
                Exchange {
                    sent: due,
                    received: ex.received,
                },
                conn.line.len(),
            ));
        }
    }
    Ok(out)
}
