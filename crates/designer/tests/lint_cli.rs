//! End-to-end tests of `swsd ... lint`: the batch subcommand, the JSON
//! emitter, exit code 8, and the REPL `lint` command. Also pins the
//! analyzer's locally-restated SplitMix64 checksum to the repository's —
//! the two crates must never drift apart.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn run_swsd(args: &[&str], stdin: &str) -> (String, String, i32) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_swsd"))
        .env("SWS_CRASH_DIR", std::env::temp_dir())
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("swsd spawns");
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

/// Write `name` with `contents` into a temp dir of `test`'s own: tests
/// run in parallel, and one rewriting a file another's `swsd` child is
/// reading would race.
fn fixture(test: &str, name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swsd_lint_cli_{}_{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("fixture write");
    path
}

fn schema_file(test: &str) -> PathBuf {
    fixture(
        test,
        "uni.odl",
        "interface Person { attribute string name; }\n\
         interface Employee : Person { attribute long badge; }\n",
    )
}

#[test]
fn lint_clean_script_exits_zero() {
    let schema = schema_file("lint_clean_script_exits_zero");
    let script = fixture(
        "lint_clean_script_exits_zero",
        "clean.ops",
        "add_type_definition(Course);\nadd_attribute(Course, string(16), room);\n",
    );
    let (stdout, stderr, code) = run_swsd(
        &[
            "--schema",
            schema.to_str().expect("utf8"),
            "lint",
            script.to_str().expect("utf8"),
        ],
        "",
    );
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stdout.contains("no findings"), "{stdout}");
}

#[test]
fn lint_findings_exit_eight_with_stable_codes() {
    let schema = schema_file("lint_findings_exit_eight_with_stable_codes");
    let script = fixture(
        "lint_findings_exit_eight_with_stable_codes",
        "bad.ops",
        "add_type_definition(T);\ndelete_type_definition(T);\nadd_attribute(T, long, x);\n",
    );
    let (stdout, _, code) = run_swsd(
        &[
            "--schema",
            schema.to_str().expect("utf8"),
            "lint",
            script.to_str().expect("utf8"),
        ],
        "",
    );
    assert_eq!(code, 8);
    assert!(stdout.contains("[A002]"), "{stdout}");
    assert!(stdout.contains("[W102]"), "{stdout}");
    assert!(stdout.contains("stops at op #2"), "{stdout}");
}

#[test]
fn lint_json_is_one_checksummed_line() {
    let schema = schema_file("lint_json_is_one_checksummed_line");
    let script = fixture(
        "lint_json_is_one_checksummed_line",
        "json.ops",
        "delete_type_definition(Ghost);\n",
    );
    let (stdout, _, code) = run_swsd(
        &[
            "--lint=json",
            "--schema",
            schema.to_str().expect("utf8"),
            "lint",
            script.to_str().expect("utf8"),
        ],
        "",
    );
    assert_eq!(code, 8);
    let line = stdout.trim_end();
    assert!(!line.contains('\n'), "one line: {stdout}");
    assert!(line.starts_with("{\"schema_version\":1,\"ops\":1,\"stopped_at\":0"));
    assert!(line.contains("\"code\":\"A001\""));
    assert!(sws_analyze::LintReport::checksum_valid(line), "{line}");
}

#[test]
fn lint_context_flag_changes_the_permission_verdict() {
    let schema = schema_file("lint_context_flag_changes_the_permission_verdict");
    // add_supertype is legal in a generalization, banned in a wagon wheel.
    let script = fixture(
        "lint_context_flag_changes_the_permission_verdict",
        "ctx.ops",
        "add_supertype(Employee, Person);\n",
    );
    let (stdout, _, code) = run_swsd(
        &[
            "--schema",
            schema.to_str().expect("utf8"),
            "lint",
            script.to_str().expect("utf8"),
        ],
        "",
    );
    assert_eq!(code, 8, "{stdout}");
    assert!(stdout.contains("[A011]"), "{stdout}");
    // Same script, generalization context: rejected for a different reason
    // (the edge already exists — A003), proving --context reached the
    // matrix.
    let (stdout, _, code) = run_swsd(
        &[
            "--context=generalization",
            "--schema",
            schema.to_str().expect("utf8"),
            "lint",
            script.to_str().expect("utf8"),
        ],
        "",
    );
    assert_eq!(code, 8, "{stdout}");
    assert!(stdout.contains("[A003]"), "{stdout}");
}

#[test]
fn lint_parse_error_exits_three() {
    let schema = schema_file("lint_parse_error_exits_three");
    let script = fixture(
        "lint_parse_error_exits_three",
        "broken.ops",
        "this is not an op(\n",
    );
    let (_, stderr, code) = run_swsd(
        &[
            "--schema",
            schema.to_str().expect("utf8"),
            "lint",
            script.to_str().expect("utf8"),
        ],
        "",
    );
    assert_eq!(code, 3, "stderr: {stderr}");
}

#[test]
fn repl_lint_analyzes_without_applying() {
    let schema = schema_file("repl_lint_analyzes_without_applying");
    let stdin = "\
lint add_attribute(Person, double, salary); delete_attribute(Person, salary)
odl
quit
";
    let (stdout, stderr, code) = run_swsd(&["--schema", schema.to_str().expect("utf8")], stdin);
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stdout.contains("[W102]"), "{stdout}");
    // Nothing was applied: salary never appears in the rendered ODL.
    assert!(!stdout.contains("salary;"), "{stdout}");
}

#[test]
fn analyzer_checksum_matches_repository_checksum() {
    for sample in [
        &b""[..],
        b"x",
        b"{\"schema_version\":1}",
        b"0123456789abcdef0123456789abcdef",
    ] {
        assert_eq!(
            sws_analyze::diag::checksum(sample),
            sws_repository::checksum::checksum(sample),
            "SplitMix64 restatement drifted from sws_repository::checksum"
        );
    }
}
