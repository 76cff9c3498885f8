//! Crash dumps: turn the global recorder's last [`MAX_EVENTS`] events into
//! a checksummed `crash-report.json` when `swsd` panics or exits with an
//! error.
//!
//! The dump is one JSON object on a single line, with a **pinned key
//! order** (golden-tested):
//!
//! ```text
//! schema_version, reason, message, location, exit_code, repo_path,
//! recovery, active_spans, counters, events, dropped, checksum
//! ```
//!
//! `checksum` is the SplitMix64 repository checksum
//! ([`sws_repository::checksum`]) of every serialized byte before the
//! `,"checksum":…` suffix, hex-encoded — the same integrity primitive the
//! session manifest uses, so a truncated or hand-edited report is
//! detectable with [`checksum_valid`].
//!
//! Everything here is panic-hook-safe: locks are poison-tolerant and I/O
//! failures are reported to stderr, never unwound.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};
use sws_repository::checksum;
use sws_trace::export::{escape_json, event_json};

/// Version of the crash-report JSON schema. Version 2 dropped the
/// `sws_threads` key.
pub const SCHEMA_VERSION: u64 = 2;

/// The dump file name, created inside the crash directory.
pub const FILE_NAME: &str = "crash-report.json";

/// Most events a report carries: the tail of an unbounded `--trace`
/// recorder is cut to this, and it is the capacity of the ring `swsd`
/// installs otherwise.
pub const MAX_EVENTS: usize = 256;

struct Context {
    repo_path: Option<String>,
    recovery: Option<String>,
    dump_dir: Option<PathBuf>,
}

static CONTEXT: Mutex<Context> = Mutex::new(Context {
    repo_path: None,
    recovery: None,
    dump_dir: None,
});

fn context() -> MutexGuard<'static, Context> {
    CONTEXT.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Record the schema file / session directory the process is working on.
pub fn set_repo_path(path: &str) {
    context().repo_path = Some(path.to_string());
}

/// Record the rendered salvage
/// [`RecoveryReport`](sws_repository::RecoveryReport) of the loaded
/// session, if any.
pub fn set_recovery(rendered: String) {
    context().recovery = Some(rendered);
}

/// Direct dumps into `dir` (normally the attached session directory).
pub fn set_dump_dir(dir: &Path) {
    context().dump_dir = Some(dir.to_path_buf());
}

/// Where a dump would be written right now: `SWS_CRASH_DIR` if set, else
/// the directory given to [`set_dump_dir`], else the current directory.
pub fn dump_path() -> PathBuf {
    let dir = std::env::var_os("SWS_CRASH_DIR")
        .map(PathBuf::from)
        .or_else(|| context().dump_dir.clone())
        .unwrap_or_else(|| PathBuf::from("."));
    dir.join(FILE_NAME)
}

fn json_opt_str(value: &Option<String>) -> String {
    match value {
        Some(s) => format!("\"{}\"", escape_json(s)),
        None => "null".to_string(),
    }
}

/// Serialize the report. `reason` is `"panic"` or `"error_exit"`.
fn render(reason: &str, message: &str, location: Option<&str>, exit_code: Option<u8>) -> String {
    let mut snapshot = sws_trace::global()
        .map(|rec| rec.snapshot())
        .unwrap_or_default();
    let excess = snapshot.events.len().saturating_sub(MAX_EVENTS);
    snapshot.events.drain(..excess);
    snapshot.dropped += excess as u64;
    let stack = snapshot.stack_from(sws_trace::current_span_id());
    let ctx = {
        let guard = context();
        (guard.repo_path.clone(), guard.recovery.clone())
    };

    let mut out = String::with_capacity(4096);
    out.push_str(&format!("{{\"schema_version\":{SCHEMA_VERSION}"));
    out.push_str(&format!(",\"reason\":\"{}\"", escape_json(reason)));
    out.push_str(&format!(",\"message\":\"{}\"", escape_json(message)));
    out.push_str(&format!(
        ",\"location\":{}",
        json_opt_str(&location.map(str::to_string))
    ));
    match exit_code {
        Some(code) => out.push_str(&format!(",\"exit_code\":{code}")),
        None => out.push_str(",\"exit_code\":null"),
    }
    out.push_str(&format!(",\"repo_path\":{}", json_opt_str(&ctx.0)));
    out.push_str(&format!(",\"recovery\":{}", json_opt_str(&ctx.1)));
    out.push_str(",\"active_spans\":[");
    for (i, name) in stack.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\"", escape_json(name)));
    }
    out.push_str("],\"counters\":{");
    for (i, (name, value)) in snapshot.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{value}", escape_json(name)));
    }
    out.push_str("},\"events\":[");
    for (i, event) in snapshot.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&event_json(event));
    }
    out.push_str(&format!("],\"dropped\":{}", snapshot.dropped));
    let sum = checksum::checksum(out.as_bytes());
    out.push_str(&format!(",\"checksum\":\"{}\"}}", checksum::to_hex(sum)));
    out
}

/// Verify a report produced by this module: recompute the checksum over
/// everything before the `,"checksum":…` suffix.
pub fn checksum_valid(report: &str) -> bool {
    let report = report.trim_end();
    let Some(at) = report.rfind(",\"checksum\":\"") else {
        return false;
    };
    let body = &report[..at];
    let suffix = &report[at + ",\"checksum\":\"".len()..];
    let Some(hex) = suffix.strip_suffix("\"}") else {
        return false;
    };
    checksum::from_hex(hex) == Some(checksum::checksum(body.as_bytes()))
}

fn write_dump(reason: &str, message: &str, location: Option<&str>, exit_code: Option<u8>) {
    let path = dump_path();
    let mut report = render(reason, message, location, exit_code);
    report.push('\n');
    match std::fs::write(&path, report) {
        Ok(()) => eprintln!("swsd: crash report written to {}", path.display()),
        Err(e) => eprintln!("swsd: cannot write crash report to {}: {e}", path.display()),
    }
}

/// Dump a report for an error exit (load failure, corrupt session, I/O
/// failure) before the process returns `exit_code`.
pub fn dump_error_exit(message: &str, exit_code: u8) {
    write_dump("error_exit", message, None, Some(exit_code));
}

/// Install the panic hook: dump `crash-report.json`, then run the
/// previous hook (which prints the normal panic message). Idempotent per
/// process in effect, but call it once from `main`.
pub fn install_panic_hook() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with non-string payload".to_string());
        let location = info
            .location()
            .map(|l| format!("{}:{}", l.file(), l.line()));
        write_dump("panic", &message, location.as_deref(), None);
        previous(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_valid_json_with_pinned_keys_and_checksum() {
        let report = render("error_exit", "it \"broke\"", Some("src/x.rs:7"), Some(4));
        sws_trace::export::jsonl::check_value(&report).expect("valid JSON");
        assert!(checksum_valid(&report));
        // Key order is part of the format.
        let order = [
            "schema_version",
            "reason",
            "message",
            "location",
            "exit_code",
            "repo_path",
            "recovery",
            "active_spans",
            "counters",
            "events",
            "dropped",
            "checksum",
        ];
        let mut last = 0;
        for key in order {
            let at = report
                .find(&format!("\"{key}\":"))
                .unwrap_or_else(|| panic!("missing key {key}"));
            assert!(
                at > last || key == "schema_version",
                "key {key} out of order"
            );
            last = at;
        }
        assert!(report.contains("\"reason\":\"error_exit\""));
        assert!(report.contains("\"exit_code\":4"));
        assert!(report.contains("it \\\"broke\\\""));
    }

    #[test]
    fn tampering_breaks_the_checksum() {
        let report = render("panic", "boom", None, None);
        assert!(checksum_valid(&report));
        let tampered = report.replace("\"reason\":\"panic\"", "\"reason\":\"calm!\"");
        assert_ne!(report, tampered);
        assert!(!checksum_valid(&tampered));
        assert!(!checksum_valid("not json at all"));
        assert!(!checksum_valid("{\"checksum\":\"00\"}"));
    }
}
