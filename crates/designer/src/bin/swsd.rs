//! `swsd` — the interactive shrink-wrap-schema designer.
//!
//! Usage:
//!
//! ```text
//! swsd --schema <shrink_wrap.odl>   start a fresh session on a schema
//! swsd --session <dir>              resume a saved session
//! ```
//!
//! Reads commands from stdin (see `help`), writes to stdout. Scriptable:
//! `swsd --schema uni.odl < script.txt`.
//!
//! `--session` loads in salvage mode: a damaged directory is repaired
//! (bad op-log lines quarantined, derived files regenerated) and the
//! recovery report is printed to stderr. Add `--strict` to fail on the
//! first inconsistency instead. While a session directory is attached,
//! every applied op is durably appended to its log, and a full save runs
//! on `quit`.
//!
//! Add `--trace` to record structured spans for the whole session and dump
//! a human-readable trace tree plus a counter/timing summary to stderr on
//! exit; `--trace=json` dumps the raw trace as JSON lines instead (one
//! object per span/event), for machine consumption.
//!
//! `--profile` aggregates the same span stream into an
//! inclusive/exclusive-time call tree and prints it to stderr on exit
//! (`--profile=tree`, the default, is the human-readable table;
//! `--profile=collapsed` emits flamegraph collapsed stacks — pipe stderr
//! into `flamegraph.pl` / `inferno-flamegraph`).
//!
//! Every run installs exactly one global recorder: the unbounded one
//! under `--trace`/`--profile`, otherwise a ring of the last 256
//! span/point events. If the process panics or exits with an error, a
//! checksummed `crash-report.json` (that recorder's last 256 events, its
//! counters, the active span stack, repo path, any recovery report) is
//! written to the session directory — or `SWS_CRASH_DIR`, or the current
//! directory.
//!
//! `--threads=N` sets the number of acceptor threads `serve` runs
//! (default: available parallelism). It is accepted and validated in every
//! mode but only `serve` uses it; consistency checks and decomposition
//! always run on the calling thread.
//!
//! Exit codes (also via `--help`):
//!
//! `--checkpoint-interval=K` auto-checkpoints the attached session
//! directory every K committed ops (snapshot + op-log truncation, see
//! docs/robustness.md), once the response to the command that reached K
//! is out; the `checkpoint` REPL command forces one immediately.
//!
//! `swsd --schema <file.odl> serve --addr=HOST:PORT` (or `--session <dir>
//! serve ...`) runs the concurrent-session daemon instead of the REPL:
//! many named design sessions over one repository, optimistic concurrency
//! via `base_rev`, JSONL + HTTP/1.1 on one port. See docs/serve.md.
//!
//! `swsd --schema <file.odl> lint <script.ops>` runs the static analyzer
//! over an op script instead of starting a REPL: every diagnostic is
//! printed (stable codes, see docs/static-analysis.md) and the exit code
//! is 8 when anything was found. `--lint=json` emits the report as one
//! checksummed JSON line; `--context=<tag>` sets the concept-schema
//! context the script is checked against (default `wagon_wheel`).
//!
//! ```text
//! 0  clean run
//! 2  usage error
//! 3  schema did not parse
//! 4  session directory corrupt / replay failed (strict mode)
//! 5  I/O failure
//! 6  session recovered, but with data loss (ops dropped or files lost)
//! 7  session recovered via a degraded fallback (older snapshot or full
//!    replay), no data loss
//! 8  lint findings (the `lint` subcommand found diagnostics)
//! ```

use std::io::{self, BufRead, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::ExitCode;

use sws_designer::{crash, execute, CommandOutcome, DesignService, Session, SessionError};
use sws_repository::RepoError;
use sws_trace::{render_tree, to_jsonl, Profile, Recorder, TraceSummary};

const EXIT_USAGE: u8 = 2;
const EXIT_PARSE: u8 = 3;
const EXIT_CORRUPT: u8 = 4;
const EXIT_IO: u8 = 5;
const EXIT_RECOVERED: u8 = 6;
const EXIT_DEGRADED: u8 = 7;
const EXIT_LINT: u8 = 8;

const USAGE: &str = "usage: swsd [--trace[=json]] [--profile[=tree|collapsed]] [--strict] [--threads=N] [--checkpoint-interval=K] --schema <file.odl> [lint <script.ops> | serve --addr=HOST:PORT] | --session <dir> [serve --addr=HOST:PORT]";

const HELP: &str = "\
swsd — interactive shrink-wrap-schema designer

usage:
  swsd [options] --schema <file.odl>
  swsd [options] --schema <file.odl> lint <script.ops>
  swsd [options] --schema <file.odl> serve --addr=HOST:PORT
  swsd [options] --session <dir>
  swsd [options] --session <dir> serve --addr=HOST:PORT

options:
  --schema <file.odl>  start a fresh session on an extended-ODL schema
  --session <dir>      resume a saved session directory; loads in salvage
                       mode (damage repaired and reported) unless --strict
  --strict             fail on the first checksum/parse/replay
                       inconsistency instead of salvaging
  --threads=N          with the serve subcommand: acceptor threads, each
                       owning one connection at a time (default: available
                       parallelism). Accepted in every mode; output never
                       depends on it.
  --checkpoint-interval=K
                       auto-checkpoint the session directory every K
                       committed ops: snapshot the working schema, archive
                       and truncate the op log, so resuming replays only
                       the short tail (the `checkpoint` command forces one
                       immediately)
  --addr=HOST:PORT     with the serve subcommand: the address to listen on
                       (PORT 0 picks a free port; the chosen address is
                       printed as `swsd: serving on HOST:PORT`). The daemon
                       speaks JSONL and HTTP/1.1 on the same port — see
                       docs/serve.md — and exits on a `shutdown` frame
  --lint=json          with the lint subcommand: emit the report as one
                       checksummed JSON line instead of human-readable text
  --context=<tag>      with the lint subcommand: concept-schema context the
                       script runs in (wagon_wheel | generalization |
                       aggregation | instance_of; default wagon_wheel)
  --trace[=json]       dump a structured trace to stderr on exit
  --profile[=tree|collapsed]
                       dump a self-profile to stderr on exit: an
                       inclusive/exclusive-time call tree (tree, default)
                       or flamegraph collapsed stacks (collapsed)
  --help               show this help

crash reports:
  one recorder runs at all times (unbounded under --trace/--profile,
  otherwise a ring of the last 256 span/point events); on panic or error
  exit a checksummed crash-report.json with its last 256 events lands in
  the session directory (override with SWS_CRASH_DIR, fallback: current
  directory)

exit codes:
  0  clean run
  2  usage error
  3  schema did not parse
  4  session directory corrupt / replay failed (strict mode)
  5  I/O failure
  6  session recovered, but with data loss (the recovery report on
     stderr names the dropped ops and damaged files)
  7  session recovered via a degraded fallback layer (older snapshot or
     full replay of the archive), no data loss
  8  lint findings (`swsd --schema S lint script.ops` or the REPL `lint`
     command found diagnostics; see docs/static-analysis.md)
";

/// Which exit code a load-time failure maps to.
fn exit_code_for(e: &SessionError) -> u8 {
    match e {
        SessionError::Parse(_) => EXIT_PARSE,
        SessionError::Repo(RepoError::Io(_)) => EXIT_IO,
        SessionError::Repo(RepoError::Odl(_) | RepoError::Lower(_)) => EXIT_PARSE,
        SessionError::Repo(_) => EXIT_CORRUPT,
        _ => EXIT_CORRUPT,
    }
}

fn main() -> ExitCode {
    let mut trace_mode = None;
    let mut profile_mode = None;
    let mut strict = false;
    let mut checkpoint_interval = None;
    let mut lint_json = false;
    let mut lint_context = sws_core::ConceptKind::WagonWheel;
    let mut addr = None;
    let mut threads = None;
    let mut args = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--trace" => trace_mode = Some(TraceMode::Tree),
            "--trace=json" => trace_mode = Some(TraceMode::Json),
            "--lint=json" => lint_json = true,
            _ if arg.starts_with("--addr=") => {
                addr = Some(arg["--addr=".len()..].to_string());
            }
            _ if arg.starts_with("--context=") => {
                let value = &arg["--context=".len()..];
                match sws_core::ConceptKind::from_tag(value) {
                    Some(kind) => lint_context = kind,
                    None => {
                        eprintln!(
                            "swsd: --context wants wagon_wheel | generalization | \
                             aggregation | instance_of, got `{value}`"
                        );
                        return ExitCode::from(EXIT_USAGE);
                    }
                }
            }
            "--profile" | "--profile=tree" => profile_mode = Some(ProfileMode::Tree),
            "--profile=collapsed" => profile_mode = Some(ProfileMode::Collapsed),
            "--strict" => strict = true,
            _ if arg.starts_with("--threads=") => {
                let value = &arg["--threads=".len()..];
                match value.parse::<usize>() {
                    Ok(n) if n >= 1 => threads = Some(n),
                    _ => {
                        eprintln!("swsd: --threads wants a positive integer, got `{value}`");
                        return ExitCode::from(EXIT_USAGE);
                    }
                }
            }
            _ if arg.starts_with("--checkpoint-interval=") => {
                let value = &arg["--checkpoint-interval=".len()..];
                match value.parse::<u64>() {
                    Ok(k) if k >= 1 => checkpoint_interval = Some(k),
                    _ => {
                        eprintln!(
                            "swsd: --checkpoint-interval wants a positive integer, got `{value}`"
                        );
                        return ExitCode::from(EXIT_USAGE);
                    }
                }
            }
            "--help" | "-h" => {
                print!("{HELP}");
                return ExitCode::SUCCESS;
            }
            _ => args.push(arg),
        }
    }

    // One global recorder, read by the panic-hook dumper: unbounded for
    // --trace and --profile, otherwise the ring a crash dump needs.
    let recorder = (trace_mode.is_some() || profile_mode.is_some()).then(Recorder::new);
    sws_trace::set_global(
        recorder
            .clone()
            .unwrap_or_else(|| Recorder::ring(crash::MAX_EVENTS)),
    );
    crash::install_panic_hook();

    // Lint mode: analyze a script against the schema and exit — no REPL,
    // no session directory, nothing is applied.
    if let [flag, schema, sub, script] = args.as_slice() {
        if flag == "--schema" && sub == "lint" {
            return run_lint(schema, script, lint_context, lint_json);
        }
    }

    // Serve mode: the multi-session daemon (docs/serve.md).
    if let [flag, value, sub] = args.as_slice() {
        if sub == "serve" && (flag == "--schema" || flag == "--session") {
            let Some(addr) = addr else {
                eprintln!("swsd: serve needs --addr=HOST:PORT\n{USAGE}");
                return ExitCode::from(EXIT_USAGE);
            };
            return run_serve(flag, value, &addr, strict, checkpoint_interval, threads);
        }
    }
    if args.iter().any(|a| a == "serve") {
        eprintln!("{USAGE}");
        return ExitCode::from(EXIT_USAGE);
    }

    let mut session = match args.as_slice() {
        [flag, value] if flag == "--schema" || flag == "--session" => {
            match open_session(flag, value, strict, checkpoint_interval) {
                Ok(session) => session,
                Err((message, code)) => {
                    crash::dump_error_exit(&message, code);
                    return ExitCode::from(code);
                }
            }
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(EXIT_USAGE);
        }
    };

    // Salvage outcome: report damage to stderr; data loss (and, less
    // urgently, a degraded fallback load) taints the exit code even
    // though the session runs.
    let mut recovered_with_loss = false;
    let mut recovered_degraded = false;
    if let Some(report) = session.recovery().filter(|r| !r.is_clean()) {
        let rendered = report.render();
        eprint!("swsd: session directory was damaged\n{rendered}");
        recovered_with_loss = report.data_loss();
        recovered_degraded = report.degraded();
        crash::set_recovery(rendered);
    }

    // Test hook: prove the panic path produces a dump (used by the CLI
    // integration tests; documented nowhere else on purpose).
    if std::env::var_os("SWS_INJECT_PANIC").is_some() {
        let _sp = sws_trace::span!("swsd.injected_panic");
        panic!("injected panic (SWS_INJECT_PANIC)");
    }

    let created = session.repository().created_roots().to_vec();
    let stdout = io::stdout();
    let mut out = stdout.lock();
    let _ = writeln!(
        out,
        "shrink wrap schema loaded: {} types, {} concept schemas (`help` for commands)",
        session.repository().workspace().working().type_count(),
        session.concept_list().len()
    );
    for root in created {
        let _ = writeln!(
            out,
            "note: synthesized abstract root `{root}` (single-root rule)"
        );
    }

    let stdin = io::stdin();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        match execute(&mut session, &line) {
            CommandOutcome::Continue(text) => {
                let _ = write!(out, "{text}");
                let _ = out.flush();
            }
            CommandOutcome::Quit => break,
        }
        // Off the response path: the command's output is already out.
        if let Err(e) = session.checkpoint_if_due() {
            let _ = writeln!(out, "warning: checkpoint failed ({e}); will retry");
            let _ = out.flush();
        }
    }

    // Recommit the attached session directory: the appends since the last
    // full save left the derived files and manifest behind the log.
    let mut exit = if recovered_with_loss {
        ExitCode::from(EXIT_RECOVERED)
    } else if recovered_degraded {
        ExitCode::from(EXIT_DEGRADED)
    } else {
        ExitCode::SUCCESS
    };
    if let Err(e) = session.final_save() {
        let message = format!("final save failed: {e}");
        eprintln!("swsd: {message}");
        crash::dump_error_exit(&message, EXIT_IO);
        exit = ExitCode::from(EXIT_IO);
    }

    if let Some(rec) = recorder {
        let trace = rec.take();
        sws_trace::clear_global();
        match trace_mode {
            Some(TraceMode::Json) => eprint!("{}", to_jsonl(&trace)),
            Some(TraceMode::Tree) => {
                eprintln!("--- trace ---");
                eprint!("{}", render_tree(&trace.events));
                let summary = TraceSummary::of(&trace);
                if !summary.is_empty() {
                    eprintln!("--- summary ---");
                    eprint!("{}", summary.render());
                }
            }
            None => {}
        }
        match profile_mode {
            Some(ProfileMode::Collapsed) => {
                eprint!("{}", Profile::from_events(&trace.events).collapsed());
            }
            Some(ProfileMode::Tree) => {
                eprintln!("--- profile ---");
                eprint!("{}", Profile::from_events(&trace.events).render_tree());
            }
            None => {}
        }
    }
    exit
}

/// Open the session `--schema <file.odl>` or `--session <dir>` names:
/// ingest the schema, or load the directory (salvage mode unless
/// `strict`), with the checkpoint interval set. `Err` carries the message,
/// already printed as `swsd: <message>`, and the exit code.
fn open_session(
    flag: &str,
    value: &str,
    strict: bool,
    checkpoint_interval: Option<u64>,
) -> Result<Session, (String, u8)> {
    let fail = |message: String, code: u8| {
        eprintln!("swsd: {message}");
        (message, code)
    };
    crash::set_repo_path(value);
    let session = if flag == "--schema" {
        match std::fs::read_to_string(value) {
            Ok(source) => Session::from_odl(&source),
            Err(e) => return Err(fail(format!("cannot read {value}: {e}"), EXIT_IO)),
        }
    } else {
        crash::set_dump_dir(Path::new(value));
        if strict {
            Session::load_strict(Path::new(value))
        } else {
            Session::load(Path::new(value))
        }
    };
    let mut session = session.map_err(|e| fail(e.to_string(), exit_code_for(&e)))?;
    session.set_checkpoint_interval(checkpoint_interval);
    Ok(session)
}

/// `swsd --schema <S> serve --addr=A` / `swsd --session <dir> serve
/// --addr=A`: run the concurrent-session daemon until a `shutdown` frame.
///
/// Exit 2 on an unparsable address, 3/4/5 on load failures (same mapping
/// as the REPL), **6/7 before binding** when the session directory only
/// loads with data loss / via a degraded fallback — a daemon must not
/// serve traffic from a repository it could not load cleanly — 5 when the
/// bind or the final save fails, 0 on a clean shutdown (autosave flushed).
fn run_serve(
    flag: &str,
    value: &str,
    addr: &str,
    strict: bool,
    checkpoint_interval: Option<u64>,
    threads: Option<usize>,
) -> ExitCode {
    let addr: SocketAddr = match addr.parse() {
        Ok(a) => a,
        Err(_) => {
            eprintln!("swsd: --addr wants HOST:PORT (e.g. 127.0.0.1:7878), got `{addr}`");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let session = match open_session(flag, value, strict, checkpoint_interval) {
        Ok(session) => session,
        Err((_, code)) => return ExitCode::from(code),
    };
    if let Some(report) = session.recovery().filter(|r| !r.is_clean()) {
        eprint!("swsd: session directory was damaged\n{}", report.render());
        if report.data_loss() {
            eprintln!("swsd: refusing to serve a session recovered with data loss");
            return ExitCode::from(EXIT_RECOVERED);
        }
        if report.degraded() {
            eprintln!("swsd: refusing to serve a degraded fallback load");
            return ExitCode::from(EXIT_DEGRADED);
        }
    }

    let threads = threads.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    let listener = match TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("swsd: cannot bind {addr}: {e}");
            return ExitCode::from(EXIT_IO);
        }
    };
    let local = listener.local_addr().unwrap_or(addr);
    // The CLI tests (and any supervisor) parse this line for the port.
    println!("swsd: serving on {local}");
    let _ = io::stdout().flush();

    let service = DesignService::new(session);
    if let Err(e) = sws_designer::serve::serve(&service, listener, threads) {
        eprintln!("swsd: serve failed: {e}");
        return ExitCode::from(EXIT_IO);
    }
    if let Err(e) = service.final_save() {
        eprintln!("swsd: final save failed: {e}");
        return ExitCode::from(EXIT_IO);
    }
    ExitCode::SUCCESS
}

/// `swsd --schema <S> lint <script.ops>`: run the static analyzer over the
/// script and exit. Nothing is applied; a session directory is never
/// touched. Exit 0 clean, 3 on a schema/script parse error, 5 on I/O, 8
/// when the analyzer reports findings.
fn run_lint(schema: &str, script: &str, context: sws_core::ConceptKind, json: bool) -> ExitCode {
    let source = match std::fs::read_to_string(schema) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("swsd: cannot read {schema}: {e}");
            return ExitCode::from(EXIT_IO);
        }
    };
    let session = match Session::from_odl(&source) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("swsd: {e}");
            return ExitCode::from(exit_code_for(&e));
        }
    };
    let script_src = match std::fs::read_to_string(script) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("swsd: cannot read {script}: {e}");
            return ExitCode::from(EXIT_IO);
        }
    };
    let ws = session.repository().workspace();
    let report =
        match sws_analyze::analyze_script(ws.working(), ws.shrink_wrap(), context, &script_src) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("swsd: {script}: {e}");
                return ExitCode::from(EXIT_PARSE);
            }
        };
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_LINT)
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum TraceMode {
    Tree,
    Json,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum ProfileMode {
    Tree,
    Collapsed,
}
