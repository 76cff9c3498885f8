//! `swsbench` command line.
//!
//! ```text
//! swsbench run [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]] [--swsd PATH]
//! swsbench compare A.txt… -- B.txt…
//! swsbench fingerprint
//! ```
//!
//! `run` must start at the repository root: it reads `BENCHMARK.json` and
//! keeps its scratch files under `.swsbench/`. The last stdout line of a
//! run is its JSON result; exit 0 when every check passed, 1 when a check
//! failed, 2 when the run was refused.

use std::path::PathBuf;
use std::process::ExitCode;

use swsbench::compare::{compare, header, read_records, render, Verdict};
use swsbench::run::{run, Config};
use swsbench::spec::Spec;
use swsbench::workload::{render_fingerprints, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: swsbench run [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]] [--swsd PATH]
       swsbench compare A.txt... -- B.txt...
       swsbench fingerprint";

const SPEC_FILE: &str = "BENCHMARK.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("fingerprint") => {
            print!("{}", render_fingerprints());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("swsbench: {e}");
        ExitCode::from(2)
    })
}

/// Split `--key value` / `--key=value` flags; a bare `--trace` means 1.
fn flags(args: &[String]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{arg}`\n{USAGE}"))?;
        if let Some((k, v)) = key.split_once('=') {
            out.push((k.to_string(), v.to_string()));
        } else if key == "trace" && args.get(i + 1).is_none_or(|v| v.starts_with("--")) {
            out.push((key.to_string(), "1".to_string()));
        } else {
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{key} needs a value"))?;
            out.push((key.to_string(), value.clone()));
            i += 1;
        }
        i += 1;
    }
    Ok(out)
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let mut workloads = Workload::ALL.to_vec();
    let mut cfg = Config {
        swsd: PathBuf::from(target).join("release").join("swsd"),
        workload: Workload::UniHistory,
        seed: DEFAULT_SEED,
        seconds: 0,
        trace: false,
    };
    let spec = Spec::load(SPEC_FILE)?;
    spec.check_matches_code()
        .map_err(|e| format!("{SPEC_FILE} disagrees with the benchmark: {e}"))?;
    cfg.seconds = spec.run_seconds;
    for (key, value) in flags(args)? {
        let bad = || format!("bad value `{value}` for --{key}");
        match key.as_str() {
            "workload" if value == "all" => workloads = Workload::ALL.to_vec(),
            "workload" => workloads = vec![Workload::from_name(&value).ok_or_else(bad)?],
            "seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "seconds" => cfg.seconds = value.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?,
            "trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "swsd" => cfg.swsd = PathBuf::from(value),
            _ => return Err(format!("unknown flag --{key}\n{USAGE}")),
        }
    }
    if !cfg.swsd.is_file() {
        return Err(format!("no daemon binary at {}", cfg.swsd.display()));
    }
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut all_correct = true;
    for workload in workloads {
        cfg.workload = workload;
        println!("{}", header(workload.name(), cfg.seed, cfg.trace));
        let outcome = run(&cfg)?;
        println!(
            "  host_parallelism={host} seconds={} attempted={} failed={}",
            cfg.seconds, outcome.attempted, outcome.failed
        );
        for (name, value, unit) in &outcome.metrics {
            println!("  {name:<40} {value:>16.3} {unit}");
        }
        println!("{}", outcome.to_json());
        all_correct &= outcome.correct;
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or_else(|| format!("compare needs `--` between the two sets\n{USAGE}"))?;
    let read = |files: &[String]| -> Result<Vec<_>, String> {
        let mut records = Vec::new();
        for f in files {
            let text = std::fs::read_to_string(f).map_err(|e| format!("cannot read {f}: {e}"))?;
            records.extend(read_records(&text));
        }
        Ok(records)
    };
    let (a, b) = (read(&args[..split])?, read(&args[split + 1..])?);
    if a.is_empty() || b.is_empty() {
        return Err("each side needs at least one correct run result".to_string());
    }
    let spec = Spec::load(SPEC_FILE)?;
    let rows = compare(&spec, &a, &b);
    print!("{}", render(&rows));
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{} rows: {worse} worse, {unresolved} unresolved",
        rows.len()
    );
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
