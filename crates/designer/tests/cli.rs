//! End-to-end test of the `swsd` binary: feed it a scripted session on
//! stdin and check the transcript, exactly as a user would drive it.

use std::io::Write;
use std::process::{Command, Stdio};

/// Run `swsd` with extra environment variables; returns
/// `(stdout, stderr, exit_code)`. Unless the caller overrides it,
/// `SWS_CRASH_DIR` points at the temp dir so error-exit crash reports
/// never land in the source tree.
fn run_swsd_env(args: &[&str], stdin: &str, envs: &[(&str, &str)]) -> (String, String, i32) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_swsd"));
    if !envs.iter().any(|(k, _)| *k == "SWS_CRASH_DIR") {
        cmd.env("SWS_CRASH_DIR", std::env::temp_dir());
    }
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let mut child = cmd
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("swsd spawns");
    // A child that rejects its arguments (usage error, strict-mode load
    // failure) exits without reading stdin; the resulting BrokenPipe on
    // our side is expected, not a test failure.
    let _ = child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(stdin.as_bytes());
    let output = child.wait_with_output().expect("swsd exits");
    (
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
        output.status.code().expect("not killed by signal"),
    )
}

fn run_swsd(args: &[&str], stdin: &str) -> (String, String, bool) {
    let (stdout, stderr, code) = run_swsd_env(args, stdin, &[]);
    (stdout, stderr, code == 0)
}

/// Like [`run_swsd`], but returns the exact exit code.
fn run_swsd_code(args: &[&str], stdin: &str) -> (String, String, i32) {
    run_swsd_env(args, stdin, &[])
}

fn schema_file() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("swsd_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("uni.odl");
    std::fs::write(
        &path,
        "interface Person { attribute string name; }\n\
         interface Employee : Person { attribute long badge; }\n",
    )
    .unwrap();
    path
}

#[test]
fn scripted_session_produces_expected_transcript() {
    let schema = schema_file();
    let script = "\
concepts
add_attribute(Employee, double, salary)
context generalization
modify_attribute(Employee, badge, Person)
map
odl
quit
";
    let (stdout, stderr, ok) = run_swsd(&["--schema", schema.to_str().unwrap()], script);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("shrink wrap schema loaded: 2 types"));
    assert!(stdout.contains("wagon wheel: Person"));
    assert!(stdout.contains("applied: add_attribute(Employee, double, salary)"));
    assert!(stdout.contains("applied: modify_attribute(Employee, badge, Person)"));
    assert!(stdout.contains("moved to `Person`"));
    assert!(stdout.contains("attribute double salary;"));
}

#[test]
fn save_and_resume_via_cli() {
    let schema = schema_file();
    let session_dir = std::env::temp_dir().join(format!("swsd_session_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&session_dir);
    let save_script = format!(
        "add_type_definition(Project)\nsave {}\nquit\n",
        session_dir.display()
    );
    let (stdout, stderr, ok) = run_swsd(&["--schema", schema.to_str().unwrap()], &save_script);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("saved to"));

    let (stdout, stderr, ok) = run_swsd(
        &["--session", session_dir.to_str().unwrap()],
        "odl\nlog\nquit\n",
    );
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("interface Project"));
    assert!(stdout.contains("wagon_wheel\tadd_type_definition(Project)"));
    std::fs::remove_dir_all(&session_dir).unwrap();
}

#[test]
fn trace_json_flag_dumps_checker_valid_jsonl_to_stderr() {
    let schema = schema_file();
    // Parse happens at load, decomposition at `concepts`, a ModOp apply,
    // and a consistency pass at `check` — the whole pipeline in one script.
    let script = "concepts\nadd_type_definition(Project)\ncheck\nquit\n";
    let (stdout, stderr, ok) = run_swsd(
        &["--trace=json", "--schema", schema.to_str().unwrap()],
        script,
    );
    assert!(ok, "stderr: {stderr}");
    // stdout is untouched by tracing.
    assert!(stdout.contains("applied: add_type_definition(Project)"));
    assert!(!stdout.contains("span_open"));
    // stderr is non-empty, checker-valid JSONL...
    let lines = sws_trace::export::jsonl::check(&stderr)
        .unwrap_or_else(|e| panic!("invalid JSONL: {e}\n{stderr}"));
    assert!(lines > 0);
    // ...with spans for every pipeline layer.
    for name in [
        "odl.parse",
        "core.decompose",
        "ws.apply",
        "core.consistency",
    ] {
        assert!(
            stderr.contains(&format!("\"name\":\"{name}\"")),
            "missing span `{name}` in:\n{stderr}"
        );
    }
}

/// A schema of 16 independent types, so a consistency check and a
/// decomposition have many per-type walks to run.
fn wide_schema_file(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("swsd_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wide.odl");
    let src: String = (0..16)
        .map(|i| format!("interface Wide{i} {{ attribute long x{i}; }}\n"))
        .collect();
    std::fs::write(&path, src).unwrap();
    path
}

#[test]
fn threads_flag_leaves_output_unchanged() {
    let schema = wide_schema_file("threads");
    let script = "concepts\ncheck\nadd_type_definition(Extra)\ncheck\nreport\nquit\n";
    let run = |threads: &str| {
        let (out, stderr, ok) = run_swsd(&[threads, "--schema", schema.to_str().unwrap()], script);
        assert!(ok, "{threads}: {stderr}");
        out
    };
    // `--threads` sizes only the serve acceptor pool: the REPL transcript
    // is byte-identical whatever it says.
    assert_eq!(run("--threads=1"), run("--threads=4"));
}

#[test]
fn threads_flag_rejects_garbage() {
    for bad in ["--threads=0", "--threads=abc", "--threads="] {
        let (_, stderr, code) = run_swsd_code(&[bad], "");
        assert_eq!(code, 2, "{bad} must be a usage error");
        assert!(stderr.contains("--threads"), "{stderr}");
    }
}

#[test]
fn help_documents_threads_flag() {
    let (stdout, _, code) = run_swsd_code(&["--help"], "");
    assert_eq!(code, 0);
    assert!(stdout.contains("--threads=N"), "{stdout}");
    assert!(stdout.contains("acceptor threads"), "{stdout}");
}

/// The top-level keys of one flat-ish JSON object, in order. Nested
/// objects (the `fields` payload) are skipped, not descended into.
fn top_level_keys(line: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let bytes = line.as_bytes();
    let mut depth = 0i32;
    let mut i = 0usize;
    let mut in_str = false;
    let mut str_start = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if in_str {
            match b {
                b'\\' => i += 1,
                b'"' => {
                    // A string at depth 1 followed by `:` is a top-level key.
                    if depth == 1 && bytes.get(i + 1) == Some(&b':') {
                        keys.push(line[str_start..i].to_string());
                    }
                    in_str = false;
                }
                _ => {}
            }
        } else {
            match b {
                b'"' => {
                    in_str = true;
                    str_start = i + 1;
                }
                b'{' | b'[' => depth += 1,
                b'}' | b']' => depth -= 1,
                _ => {}
            }
        }
        i += 1;
    }
    keys
}

/// Golden pin of the `--trace=json` JSONL schema: the exact top-level key
/// sequence of every line type. Downstream consumers key on these names;
/// any future field rename must show up here as a deliberate diff.
#[test]
fn trace_json_schema_is_pinned() {
    let schema = wide_schema_file("golden");
    let script = "concepts\nadd_type_definition(Project)\ncheck\nquit\n";
    let (_, stderr, ok) = run_swsd(
        &["--trace=json", "--schema", schema.to_str().unwrap()],
        script,
    );
    assert!(ok, "stderr: {stderr}");
    sws_trace::export::jsonl::check(&stderr).unwrap();

    let mut seen = std::collections::BTreeSet::new();
    for line in stderr.lines().filter(|l| !l.trim().is_empty()) {
        let keys = top_level_keys(line);
        assert_eq!(keys.first().map(String::as_str), Some("type"), "{line}");
        let ty = line
            .split("\"type\":\"")
            .nth(1)
            .and_then(|r| r.split('"').next())
            .unwrap_or_else(|| panic!("no type in {line}"));
        seen.insert(ty.to_string());
        let joined = keys.join(",");
        let expect: &[&str] = match ty {
            "span_open" | "event" => &[
                "type,seq,ts_ns,name,span,parent",
                "type,seq,ts_ns,name,span,parent,fields",
            ],
            "span_close" => &[
                "type,seq,ts_ns,name,span,parent,dur_ns",
                "type,seq,ts_ns,name,span,parent,dur_ns,fields",
            ],
            "counter" => &["type,name,value"],
            "histogram" => &["type,name,count,sum_ns,min_ns,p50_ns,p99_ns,max_ns"],
            other => panic!("unknown line type `{other}`: {line}"),
        };
        assert!(
            expect.contains(&joined.as_str()),
            "schema drift for `{ty}`: got [{joined}] in {line}"
        );
    }
    // Every line type the pipeline emits occurred, so every shape above
    // was actually checked ("event" lines exist in the format but no
    // pipeline stage emits Point events today), and the op counter and
    // the apply span's latency histogram ride the pinned shapes.
    for ty in ["span_open", "span_close", "counter", "histogram"] {
        assert!(seen.contains(ty), "no `{ty}` line in:\n{stderr}");
    }
    assert!(
        stderr.contains("\"type\":\"counter\",\"name\":\"ws.ops_applied\",\"value\":"),
        "{stderr}"
    );
    assert!(
        stderr.contains("\"type\":\"histogram\",\"name\":\"ws.apply\","),
        "{stderr}"
    );
}

#[test]
fn trace_flag_dumps_tree_and_summary_to_stderr() {
    let schema = schema_file();
    let script = "add_type_definition(Project)\nquit\n";
    let (_, stderr, ok) = run_swsd(&["--trace", "--schema", schema.to_str().unwrap()], script);
    assert!(ok, "stderr: {stderr}");
    assert!(stderr.contains("--- trace ---"), "{stderr}");
    assert!(stderr.contains("ws.apply"), "{stderr}");
    assert!(stderr.contains("--- summary ---"), "{stderr}");
    assert!(stderr.contains("ws.ops_applied = 1"), "{stderr}");
}

#[test]
fn bad_usage_fails_cleanly() {
    let (_, stderr, code) = run_swsd_code(&[], "");
    assert_eq!(code, 2, "usage error is exit 2");
    assert!(stderr.contains("usage: swsd"));
    let (_, stderr, code) = run_swsd_code(&["--schema", "/nonexistent/x.odl"], "");
    assert_eq!(code, 5, "unreadable schema file is an I/O failure");
    assert!(stderr.contains("cannot read"));
}

#[test]
fn help_documents_the_exit_codes() {
    let (stdout, _, code) = run_swsd_code(&["--help"], "");
    assert_eq!(code, 0);
    assert!(stdout.contains("exit codes:"), "{stdout}");
    for snippet in [
        "2  usage error",
        "3  schema did not parse",
        "4  session directory corrupt",
        "5  I/O failure",
        "6  session recovered, but with data loss",
    ] {
        assert!(
            stdout.contains(snippet),
            "missing {snippet:?} in:\n{stdout}"
        );
    }
}

#[test]
fn unparseable_schema_is_exit_3() {
    let dir = std::env::temp_dir().join(format!("swsd_parse_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.odl");
    std::fs::write(&bad, "interface { this is not odl").unwrap();
    let (_, stderr, code) = run_swsd_code(&["--schema", bad.to_str().unwrap()], "");
    assert_eq!(code, 3, "stderr: {stderr}");
    assert!(stderr.contains("swsd:"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_session_exit_codes_strict_vs_salvage() {
    let schema = schema_file();
    let session_dir = std::env::temp_dir().join(format!("swsd_corrupt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&session_dir);
    let script = format!(
        "add_type_definition(Project)\nadd_type_definition(Task)\nsave {}\nquit\n",
        session_dir.display()
    );
    let (_, _, code) = run_swsd_code(&["--schema", schema.to_str().unwrap()], &script);
    assert_eq!(code, 0);

    // Corrupt the first op-log record: both ops become unreplayable.
    let ops_path = session_dir.join("session.ops");
    let ops = std::fs::read_to_string(&ops_path).unwrap();
    std::fs::write(&ops_path, format!("garbage line\n{ops}")).unwrap();

    // Strict: refuse the directory outright.
    let (_, stderr, code) = run_swsd_code(
        &["--strict", "--session", session_dir.to_str().unwrap()],
        "quit\n",
    );
    assert_eq!(code, 4, "stderr: {stderr}");
    assert!(stderr.contains("op-log line 1"), "{stderr}");

    // Salvage: the session runs, damage is reported, exit taints to 6.
    let (stdout, stderr, code) =
        run_swsd_code(&["--session", session_dir.to_str().unwrap()], "odl\nquit\n");
    assert_eq!(code, 6, "stderr: {stderr}");
    assert!(stderr.contains("recovery report:"), "{stderr}");
    assert!(stderr.contains("0 op(s) replayed, 3 dropped"), "{stderr}");
    assert!(stdout.contains("shrink wrap schema loaded"));

    // The salvage run healed and recommitted the directory: clean now.
    let (_, stderr, code) = run_swsd_code(&["--session", session_dir.to_str().unwrap()], "quit\n");
    assert_eq!(code, 0, "healed directory loads clean: {stderr}");
    assert!(session_dir.join("session.ops.quarantine.1").exists());
    std::fs::remove_dir_all(&session_dir).unwrap();
}

#[test]
fn ops_survive_without_an_explicit_resave() {
    let schema = schema_file();
    let session_dir = std::env::temp_dir().join(format!("swsd_autosave_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&session_dir);
    // Save first, then keep designing; never save again.
    let script = format!(
        "save {}\nadd_attribute(Employee, double, salary)\nquit\n",
        session_dir.display()
    );
    let (stdout, _, code) = run_swsd_code(&["--schema", schema.to_str().unwrap()], &script);
    assert_eq!(code, 0);
    assert!(stdout.contains("(autosave on)"));

    let (stdout, stderr, code) = run_swsd_code(
        &["--strict", "--session", session_dir.to_str().unwrap()],
        "odl\nquit\n",
    );
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stdout.contains("attribute double salary;"), "{stdout}");
    std::fs::remove_dir_all(&session_dir).unwrap();
}

#[test]
fn errors_in_session_do_not_kill_the_repl() {
    let schema = schema_file();
    let script = "add_type_definition(Person)\nadd_type_definition(Fresh)\nquit\n";
    let (stdout, _, ok) = run_swsd(&["--schema", schema.to_str().unwrap()], script);
    assert!(ok);
    assert!(stdout.contains("error: constraint violation"));
    assert!(stdout.contains("applied: add_type_definition(Fresh)"));
}

// --- crash dumps / profiler ------------------------------

/// Fresh per-test crash directory under the system temp dir.
fn crash_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("swsd_crash_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn injected_panic_writes_a_checksummed_crash_report() {
    let schema = schema_file();
    let dir = crash_dir("panic");
    let (_, stderr, code) = run_swsd_env(
        &["--schema", schema.to_str().unwrap()],
        "",
        &[
            ("SWS_INJECT_PANIC", "1"),
            ("SWS_CRASH_DIR", dir.to_str().unwrap()),
        ],
    );
    assert_ne!(code, 0, "a panic must not exit 0");
    assert!(
        stderr.contains("crash report written to"),
        "stderr: {stderr}"
    );
    let report = std::fs::read_to_string(dir.join("crash-report.json")).expect("dump exists");
    let line = report.trim_end();
    sws_trace::export::jsonl::check_value(line).expect("dump is one valid JSON object");
    assert!(
        sws_designer::crash::checksum_valid(line),
        "self-checksum must verify: {line}"
    );
    assert!(line.contains("\"reason\":\"panic\""), "{line}");
    assert!(line.contains("injected panic (SWS_INJECT_PANIC)"), "{line}");
    // The panic fired inside a live span; the ring recorder names it.
    assert!(
        line.contains("\"active_spans\":[\"swsd.injected_panic\"]"),
        "active span stack missing: {line}"
    );
    assert!(
        line.contains(&format!("\"repo_path\":\"{}\"", schema.to_str().unwrap())),
        "{line}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn traced_panic_dumps_the_tail_of_the_one_recorder() {
    // Under --trace the crash dump reads the unbounded trace recorder;
    // replaying a long session overflows the dump's event budget.
    let schema = schema_file();
    let session_dir = std::env::temp_dir().join(format!("swsd_crash_long_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&session_dir);
    let mut script: String = (0..120)
        .map(|i| format!("add_type_definition(T{i})\n"))
        .collect();
    script.push_str(&format!("save {}\nquit\n", session_dir.display()));
    let (_, _, code) = run_swsd_code(&["--schema", schema.to_str().unwrap()], &script);
    assert_eq!(code, 0);

    let dir = crash_dir("traced");
    let (_, stderr, code) = run_swsd_env(
        &["--trace", "--session", session_dir.to_str().unwrap()],
        "",
        &[
            ("SWS_INJECT_PANIC", "1"),
            ("SWS_CRASH_DIR", dir.to_str().unwrap()),
        ],
    );
    assert_ne!(code, 0, "a panic must not exit 0");
    let report = std::fs::read_to_string(dir.join("crash-report.json")).expect("dump exists");
    let line = report.trim_end();
    sws_trace::export::jsonl::check_value(line).expect("dump is one valid JSON object");
    assert!(sws_designer::crash::checksum_valid(line), "{line}");
    let events = line.matches("{\"type\":\"").count();
    assert!(
        (1..=sws_designer::crash::MAX_EVENTS).contains(&events),
        "{events} events: {stderr}"
    );
    let dropped: u64 = line
        .split("\"dropped\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.parse().ok())
        .expect("dropped is a number");
    assert!(dropped > 0, "{line}");
    assert!(
        line.contains("\"active_spans\":[\"swsd.injected_panic\"]"),
        "active span stack missing: {line}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&session_dir).unwrap();
}

#[test]
fn crash_report_key_order_is_pinned() {
    let dir = crash_dir("keys");
    let (_, stderr, code) = run_swsd_env(
        &["--schema", "/nonexistent/no_such_schema.odl"],
        "",
        &[("SWS_CRASH_DIR", dir.to_str().unwrap())],
    );
    assert_eq!(code, 5, "unreadable schema is an I/O failure: {stderr}");
    let report = std::fs::read_to_string(dir.join("crash-report.json")).expect("dump exists");
    let line = report.trim_end();
    // The key order is part of the format: external tooling may parse the
    // dump positionally, and the checksum covers the exact byte sequence.
    assert_eq!(
        top_level_keys(line),
        [
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
        ]
    );
    assert!(line.contains("\"schema_version\":3"), "{line}");
    assert!(line.contains("\"reason\":\"error_exit\""), "{line}");
    assert!(line.contains("\"exit_code\":5"), "{line}");
    assert!(sws_designer::crash::checksum_valid(line));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_strict_session_dumps_a_crash_report() {
    let schema = schema_file();
    let session_dir = std::env::temp_dir().join(format!("swsd_crash_sess_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&session_dir);
    let script = format!(
        "add_type_definition(Project)\nsave {}\nquit\n",
        session_dir.display()
    );
    let (_, _, code) = run_swsd_code(&["--schema", schema.to_str().unwrap()], &script);
    assert_eq!(code, 0);
    // Garble the op log, then reload strictly: exit 4 plus a dump that
    // carries the failure message.
    let log = session_dir.join("session.ops");
    std::fs::write(&log, "definitely-not-an-op\n").unwrap();
    let dir = crash_dir("strict");
    let (_, stderr, code) = run_swsd_env(
        &["--strict", "--session", session_dir.to_str().unwrap()],
        "quit\n",
        &[("SWS_CRASH_DIR", dir.to_str().unwrap())],
    );
    assert_eq!(code, 4, "stderr: {stderr}");
    let report = std::fs::read_to_string(dir.join("crash-report.json")).expect("dump exists");
    let line = report.trim_end();
    assert!(line.contains("\"reason\":\"error_exit\""), "{line}");
    assert!(line.contains("\"exit_code\":4"), "{line}");
    assert!(sws_designer::crash::checksum_valid(line));
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&session_dir).unwrap();
}

fn university_schema_file() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("swsd_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("university.odl");
    std::fs::write(&path, sws_corpus::university::SOURCE).unwrap();
    path
}

#[test]
fn profile_collapsed_is_flamegraph_loadable_and_structurally_golden() {
    let schema = university_schema_file();
    let (_, stderr, ok) = run_swsd(
        &[
            "--profile=collapsed",
            "--threads=1",
            "--schema",
            schema.to_str().unwrap(),
        ],
        "add_attribute(CourseOffering, string(8), wing)\ncheck\nquit\n",
    );
    assert!(ok, "stderr: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert!(!lines.is_empty(), "collapsed profile must not be empty");
    // Every line must load into flamegraph.pl / inferno: `path weight`
    // where path is `;`-separated frame names and weight a bare integer.
    for line in &lines {
        let (path, weight) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("not `path weight`: {line}"));
        assert!(
            path.split(';').all(|seg| {
                !seg.is_empty()
                    && seg
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '_')
            }),
            "flamegraph-hostile frame name: {line}"
        );
        weight
            .parse::<u64>()
            .unwrap_or_else(|e| panic!("weight not an integer ({e}): {line}"));
    }
    // The span structure is deterministic at --threads=1 for this script;
    // only the weights vary run to run. Pin the full path set.
    let paths: Vec<&str> = lines
        .iter()
        .map(|l| l.rsplit_once(' ').unwrap().0)
        .collect();
    assert_eq!(
        paths,
        [
            "core.consistency",
            "core.consistency.full_sync",
            "core.consistency.report",
            "core.decompose",
            "core.decompose;core.decompose.generalizations",
            "core.decompose;core.decompose.hierarchies",
            "core.decompose;core.decompose.wagon_wheels",
            "odl.parse",
            "odl.parse;odl.parse_interface",
            "ws.apply",
            "ws.apply;core.apply_op",
            "ws.apply;core.preconditions",
        ],
        "collapsed stack structure changed"
    );
}

#[test]
fn profile_tree_renders_a_call_tree_with_counts() {
    let schema = schema_file();
    let (_, stderr, ok) = run_swsd(
        &[
            "--profile",
            "--threads=1",
            "--schema",
            schema.to_str().unwrap(),
        ],
        "add_attribute(Person, long, age)\nquit\n",
    );
    assert!(ok, "stderr: {stderr}");
    assert!(stderr.contains("--- profile ---"), "{stderr}");
    assert!(stderr.contains("ws.apply"), "{stderr}");
    assert!(
        stderr.contains("x1"),
        "per-node invocation counts: {stderr}"
    );
}

#[test]
fn help_documents_profile_and_crash_reports() {
    let (stdout, _, ok) = run_swsd(&["--help"], "");
    assert!(ok);
    assert!(stdout.contains("--profile[=tree|collapsed]"));
    assert!(stdout.contains("crash-report.json"));
    assert!(stdout.contains("SWS_CRASH_DIR"));
}

// --- checkpointing / compaction --------------------------------------------

#[test]
fn checkpoint_command_truncates_the_log_and_resumes_fast() {
    let schema = schema_file();
    let session_dir = std::env::temp_dir().join(format!("swsd_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&session_dir);
    let script = format!(
        "save {}\nadd_type_definition(Project)\nadd_type_definition(Task)\n\
         checkpoint\nadd_type_definition(Sprint)\nquit\n",
        session_dir.display()
    );
    let (stdout, stderr, code) = run_swsd_code(&["--schema", schema.to_str().unwrap()], &script);
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(
        stdout.contains("checkpoint generation 1 written: 2 op(s) covered, 2 archived"),
        "{stdout}"
    );
    assert!(session_dir.join("snapshot.1").exists());
    assert!(session_dir.join("session.ops.archive").exists());

    // Resume strictly: the snapshot plus the one-op tail rebuild the state
    // without ever touching the archive.
    let (stdout, stderr, code) = run_swsd_code(
        &["--strict", "--session", session_dir.to_str().unwrap()],
        "odl\nquit\n",
    );
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stdout.contains("interface Project"), "{stdout}");
    assert!(stdout.contains("interface Sprint"), "{stdout}");
    std::fs::remove_dir_all(&session_dir).unwrap();
}

#[test]
fn checkpoint_without_a_session_directory_is_an_error() {
    let schema = schema_file();
    let (stdout, _, code) = run_swsd_code(
        &["--schema", schema.to_str().unwrap()],
        "checkpoint\nquit\n",
    );
    assert_eq!(code, 0, "command errors do not kill the repl");
    assert!(stdout.contains("no session directory attached"), "{stdout}");
}

#[test]
fn checkpoint_interval_flag_autocheckpoints_and_validates() {
    // Bad values are usage errors, not silent defaults.
    for bad in ["0", "-3", "many"] {
        let arg = format!("--checkpoint-interval={bad}");
        let (_, stderr, code) = run_swsd_code(&[arg.as_str()], "");
        assert_eq!(code, 2, "`{bad}` must be a usage error");
        assert!(
            stderr.contains("--checkpoint-interval wants a positive integer"),
            "{stderr}"
        );
    }
    let (stdout, _, ok) = run_swsd(&["--help"], "");
    assert!(ok);
    assert!(stdout.contains("--checkpoint-interval=K"), "{stdout}");
    assert!(stdout.contains("degraded fallback layer"), "{stdout}");

    // With K=2, the second committed op checkpoints without being asked.
    let schema = schema_file();
    let session_dir = std::env::temp_dir().join(format!("swsd_ckptiv_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&session_dir);
    let script = format!(
        "save {}\nadd_type_definition(Project)\nadd_type_definition(Task)\nquit\n",
        session_dir.display()
    );
    let (_, stderr, code) = run_swsd_code(
        &[
            "--checkpoint-interval=2",
            "--schema",
            schema.to_str().unwrap(),
        ],
        &script,
    );
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(session_dir.join("snapshot.1").exists(), "auto-checkpoint");
    let tail = std::fs::read_to_string(session_dir.join("session.ops")).unwrap();
    assert!(tail.is_empty(), "tail truncated, got {tail:?}");
    std::fs::remove_dir_all(&session_dir).unwrap();
}

#[test]
fn corrupt_snapshot_degrades_to_exit_7_then_heals() {
    let schema = schema_file();
    let session_dir = std::env::temp_dir().join(format!("swsd_degraded_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&session_dir);
    let script = format!(
        "save {}\nadd_type_definition(Project)\ncheckpoint\nquit\n",
        session_dir.display()
    );
    let (_, _, code) = run_swsd_code(&["--schema", schema.to_str().unwrap()], &script);
    assert_eq!(code, 0);
    let snap = session_dir.join("snapshot.1");
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&snap, &bytes).unwrap();

    // Strict refuses a damaged snapshot outright.
    let (_, stderr, code) = run_swsd_code(
        &["--strict", "--session", session_dir.to_str().unwrap()],
        "quit\n",
    );
    assert_eq!(code, 4, "stderr: {stderr}");

    // Salvage rebuilds from the archived log: right state, no data loss,
    // but the degraded load path taints the exit code to 7 (not 6).
    let (stdout, stderr, code) =
        run_swsd_code(&["--session", session_dir.to_str().unwrap()], "odl\nquit\n");
    assert_eq!(code, 7, "stderr: {stderr}");
    assert!(stderr.contains("FALLBACK to full replay"), "{stderr}");
    assert!(stdout.contains("interface Project"), "{stdout}");

    // The salvage healed the directory; the next load is clean.
    let (_, stderr, code) = run_swsd_code(&["--session", session_dir.to_str().unwrap()], "quit\n");
    assert_eq!(code, 0, "healed directory loads clean: {stderr}");
    std::fs::remove_dir_all(&session_dir).unwrap();
}

/// A schema the graph refuses exits 3 with a message that names the
/// types involved, never their slot ids (`t0`, `t1`).
#[test]
fn graph_errors_in_a_schema_name_its_types() {
    let dir = std::env::temp_dir().join(format!("swsd_graph_err_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cases: [(&str, &str, &[&str]); 6] = [
        (
            "supertype_cycle",
            "interface A : B { attribute long a; } interface B : A { attribute long b; }",
            &["`A`", "`B`"],
        ),
        (
            "duplicate_member",
            "interface A { attribute long a; attribute string a; }",
            &["`A`"],
        ),
        (
            "self_supertype",
            "interface A : A { attribute long a; }",
            &["`A`"],
        ),
        (
            "duplicate_supertype",
            "interface B { attribute long b; } interface A : B, B { attribute long a; }",
            &["`A`", "`B`"],
        ),
        (
            "part_of_cycle",
            "interface A { part_of set<B> bs inverse B::a; part_of B b inverse B::as_; }
             interface B { part_of A a inverse A::bs; part_of set<A> as_ inverse A::b; }",
            &["`A`", "`B`"],
        ),
        (
            "duplicate_key",
            "interface A { attribute long x; keys x, x; }",
            &["`A`"],
        ),
    ];
    for (name, src, types) in cases {
        let path = dir.join(format!("{name}.odl"));
        std::fs::write(&path, src).unwrap();
        let (_, stderr, code) = run_swsd_code(&["--schema", path.to_str().unwrap()], "");
        assert_eq!(code, 3, "{name}: {stderr}");
        for ty in types {
            assert!(stderr.contains(ty), "{name} does not name {ty}: {stderr}");
        }
        let slot_id = stderr.split(|c: char| !c.is_ascii_alphanumeric()).any(|w| {
            w.len() > 1 && w.starts_with('t') && w[1..].bytes().all(|b| b.is_ascii_digit())
        });
        assert!(!slot_id, "{name} prints a slot id: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
