//! The metric catalogue, and `BENCHMARK.json`, which must declare exactly
//! the workloads and metrics this code produces.

use crate::json::Value;
use crate::workload::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// End-to-end metrics, reported by every untraced run of every workload.
pub const END_TO_END: [(&str, &str, Better); 9] = [
    ("submit_p50_us", "us", Better::Lower),
    ("submit_p90_us", "us", Better::Lower),
    ("ops_per_s", "1/s", Better::Higher),
    ("read_p50_us", "us", Better::Lower),
    ("read_p90_us", "us", Better::Lower),
    ("conflict_p50_us", "us", Better::Lower),
    ("conflict_p90_us", "us", Better::Lower),
    ("setup_s", "s", Better::Lower),
    ("peak_rss_mb", "MiB", Better::Lower),
];

/// Layers timed in traced runs. Each reports `.count`, `.busy_ms`,
/// `.p50_us` and `.p99_us`.
pub const TIMED_LAYERS: [&str; 23] = [
    "session.issue",
    "session.undo_snapshot",
    "session.clear_history",
    "workspace.apply",
    "oplang.parse",
    "oplang.print",
    "model.graph_clone",
    "model.graph_to_schema",
    "odl.print_schema",
    "concept.decompose",
    "consistency.report",
    "repository.append",
    "repository.checkpoint",
    "protocol.parse_request",
    "protocol.render_response",
    "analyze.analyze_ops",
    "analyze.commute",
    "serve.ping_rtt",
    "service.report_rtt",
    "service.export_rtt",
    "service.log_rtt",
    "service.lint_rtt",
    "service.residual",
];

/// Per-layer counts and ratios of traced runs.
pub const LAYER_COUNTS: [(&str, &str, Better); 9] = [
    ("odl.bytes.mean", "bytes", Better::Lower),
    ("serve.response_bytes.mean", "bytes", Better::Lower),
    ("repository.disk_bytes_per_op", "bytes", Better::Lower),
    ("analyze.commute_pairs.mean", "count", Better::Lower),
    ("service.conflict_delta_len.mean", "count", Better::Lower),
    ("service.auto_rebasable.ratio", "ratio", Better::Higher),
    ("bench.coverage.ratio", "ratio", Better::Higher),
    ("bench.trace_overhead.ratio", "ratio", Better::Lower),
    ("bench.gen_late.p99_us", "us", Better::Lower),
];

/// Every per-layer metric, in report order.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut out = Vec::new();
    for layer in TIMED_LAYERS {
        out.push((format!("{layer}.count"), "count", Better::Higher));
        out.push((format!("{layer}.busy_ms"), "ms", Better::Lower));
        out.push((format!("{layer}.p50_us"), "us", Better::Lower));
        out.push((format!("{layer}.p99_us"), "us", Better::Lower));
    }
    for (name, unit, better) in LAYER_COUNTS {
        out.push((name.to_string(), unit, better));
    }
    out
}

/// The parts of `BENCHMARK.json` the benchmark reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(root: &Value, key: &str) -> Result<Vec<MetricSpec>, String> {
    let items = root
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("`{key}` must be an array"))?;
    items
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("{key}: every metric needs a string `{k}`"))
            };
            let better = match field("better")? {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("{key}: `better` must be lower|higher, got {other}")),
            };
            Ok(MetricSpec {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                better,
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Spec {
    pub fn parse(text: &str) -> Result<Spec, String> {
        let root = Value::parse(text)?;
        let workloads = root
            .get("workloads")
            .and_then(Value::as_array)
            .ok_or("`workloads` must be an array")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| "every workload needs a `name`".to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            run_seconds: root
                .get("run_seconds")
                .and_then(Value::as_u64)
                .ok_or("`run_seconds` must be a whole number")?,
            workloads,
            end_to_end: metrics(&root, "end_to_end")?,
            per_layer: metrics(&root, "per_layer")?,
        })
    }

    pub fn load(path: &str) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Spec::parse(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// Check that the file declares exactly what this code measures.
    pub fn check_matches_code(&self) -> Result<(), String> {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        if self.workloads != names {
            return Err(format!(
                "workloads {:?} do not match the code's {names:?}",
                self.workloads
            ));
        }
        let declared = |list: &[MetricSpec]| -> Vec<(String, String, Better)> {
            list.iter()
                .map(|m| (m.name.clone(), m.unit.clone(), m.better))
                .collect()
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), *b))
            .collect();
        if declared(&self.end_to_end) != e2e {
            return Err("end_to_end metrics do not match the code's catalogue".to_string());
        }
        if self.end_to_end.iter().any(|m| m.bound.is_none()) {
            return Err("every end_to_end metric needs a bound".to_string());
        }
        let layers: Vec<_> = per_layer()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b))
            .collect();
        if declared(&self.per_layer) != layers {
            return Err("per_layer metrics do not match the code's catalogue".to_string());
        }
        Ok(())
    }
}
