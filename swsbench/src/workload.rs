//! The four workloads: seeded scripts of frames for the writer connection,
//! the schema the daemon starts from, and the open-loop reader's plan.
//!
//! A script is one *cycle*: a fresh daemon, the warm-up, then the measured
//! steps. A run repeats cycles on fresh daemons until its time is up, so
//! every cycle sees the same session length and schema size however fast
//! the daemon is.
//!
//! Every workload sends every request class — accepted submits, stale
//! submits that must conflict, and reads — so each end-to-end metric
//! exists on each workload. Where a class is not the workload's subject it
//! comes as a light closed-loop probe between the main steps.

use sws_bench::edit_scripts::{churn_stream, edit_stream};
use sws_core::oplang::print_op;
use sws_core::{ConceptKind, ModOp};
use sws_corpus::synthetic::SyntheticSpec;
use sws_corpus::university;
use sws_model::SchemaGraph;
use sws_repository::{checksum, Repository};

use crate::json::quote;

/// The seed the stored fingerprints are taken at.
pub const DEFAULT_SEED: u64 = 1;

/// Single-op submits per `uni_history` cycle.
pub const HISTORY_SUBMITS: usize = 2000;
/// Types in the `synth1k_edits` schema.
pub const SYNTH_TYPES: usize = 1000;
/// Single-op submits per `synth1k_edits` cycle.
pub const SYNTH_SUBMITS: usize = 150;
/// Two-op submits per `uni_rw_durable` cycle.
pub const DURABLE_BATCHES: usize = 500;
/// The `uni_rw_durable` reader's request rate.
pub const READER_RATE: u32 = 500;
/// `--checkpoint-interval` of the durable daemon.
pub const CHECKPOINT_INTERVAL: u64 = 256;
/// Unmeasured `lead` ops before the `uni_conflict` rounds.
pub const CONFLICT_WARMUP: usize = 128;
/// Rounds per `uni_conflict` cycle.
pub const CONFLICT_ROUNDS: usize = 500;
/// How far behind the head a stale submit is, cycled per conflict.
pub const LAGS: [u64; 3] = [1, 16, 128];

/// Distinct stream seeds per purpose, so probe, lint and lag ops never
/// repeat the main stream's fresh names.
const PROBE_SALT: u64 = 0x5052_4f42;
const LINT_SALT: u64 = 0x4c49_4e54;
const LAG_SALT: u64 = 0x4c41_4721;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    UniHistory,
    Synth1kEdits,
    UniRwDurable,
    UniConflict,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::UniHistory,
        Workload::Synth1kEdits,
        Workload::UniRwDurable,
        Workload::UniConflict,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::UniHistory => "uni_history",
            Workload::Synth1kEdits => "synth1k_edits",
            Workload::UniRwDurable => "uni_rw_durable",
            Workload::UniConflict => "uni_conflict",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Does the daemon serve a session directory (fsynced append per op)?
    pub fn durable(self) -> bool {
        self == Workload::UniRwDurable
    }
}

/// One op of a batch: its concept-schema context and statement text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    pub context: ConceptKind,
    pub stmt: String,
}

impl Op {
    fn of((context, op): &(ConceptKind, ModOp)) -> Op {
        Op {
            context: *context,
            stmt: print_op(op),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    Report,
    Export,
    Log,
    Lint,
}

impl ReadKind {
    /// Reads cycle through the kinds in this order.
    pub const CYCLE: [ReadKind; 4] = [
        ReadKind::Report,
        ReadKind::Export,
        ReadKind::Log,
        ReadKind::Lint,
    ];

    pub fn tag(self) -> &'static str {
        match self {
            ReadKind::Report => "report",
            ReadKind::Export => "export",
            ReadKind::Log => "log",
            ReadKind::Lint => "lint",
        }
    }

    /// The response type a successful read gets.
    pub fn response(self) -> &'static str {
        match self {
            ReadKind::Report => "reported",
            ReadKind::Export => "exported",
            ReadKind::Log => "log",
            ReadKind::Lint => "linted",
        }
    }
}

/// One step of the writer connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Submit at the head; must be accepted.
    Submit { session: &'static str, ops: Vec<Op> },
    /// Submit `lag` ops behind the head; must get a `conflict` whose delta
    /// holds exactly the `lag` newest records. Never applied.
    Stale {
        session: &'static str,
        lag: u64,
        ops: Vec<Op>,
    },
    /// A closed-loop read probe.
    Read(ReadKind),
}

/// One cycle of a workload at a seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Script {
    pub workload: Workload,
    /// The extended ODL the daemon starts from: its `--schema` file, or the
    /// schema the session directory is created from.
    pub odl: String,
    /// Sessions the writer connection opens, in order.
    pub sessions: Vec<&'static str>,
    /// Unmeasured submits before the measured steps.
    pub warmup: Vec<Step>,
    pub steps: Vec<Step>,
    /// Requests per second of the open-loop reader connection (0: none).
    pub reader_rate: u32,
    /// Ops the lint reads cycle through.
    pub lint_ops: Vec<Op>,
}

/// The head graph the daemon starts from: the ODL ingested exactly as
/// `swsd` ingests it (single-root normalization included).
fn start_graph(odl: &str) -> SchemaGraph {
    Repository::ingest_odl(odl)
        .expect("generated workload schemas ingest")
        .workspace()
        .working()
        .clone()
}

fn ops(stream: &[(ConceptKind, ModOp)]) -> Vec<Op> {
    stream.iter().map(Op::of).collect()
}

fn submit(session: &'static str, ops: Vec<Op>) -> Step {
    Step::Submit { session, ops }
}

/// Generate one workload's cycle. Deterministic in `(workload, seed)`.
pub fn script(workload: Workload, seed: u64) -> Script {
    let odl = match workload {
        Workload::Synth1kEdits => sws_odl::print_schema(&sws_model::graph_to_schema(
            &SyntheticSpec::sized(SYNTH_TYPES, seed).generate(),
        )),
        _ => university::SOURCE.to_string(),
    };
    let g = start_graph(&odl);
    let lint_ops = ops(&edit_stream(&g, 64, seed ^ LINT_SALT));
    let mut probe_ops = ops(&edit_stream(&g, 4096, seed ^ PROBE_SALT)).into_iter();
    let mut probes = 0usize;
    let mut rev = 0u64;
    // A stale probe carries a batch the size of the workload's submits.
    let mut stale = |session, rev: u64, batch: usize| {
        let lag = LAGS[probes % LAGS.len()].min(rev);
        probes += 1;
        Step::Stale {
            session,
            lag,
            ops: probe_ops.by_ref().take(batch).collect(),
        }
    };
    let mut steps = Vec::new();
    let mut warmup = Vec::new();
    let mut sessions = vec!["main"];
    let mut reader_rate = 0;
    match workload {
        // Session length is the variable: churn keeps the schema within one
        // attribute of the base while the log grows.
        Workload::UniHistory => {
            for (i, op) in ops(&churn_stream(&g, HISTORY_SUBMITS, seed))
                .into_iter()
                .enumerate()
            {
                steps.push(submit("main", vec![op]));
                rev += 1;
                match i % 4 {
                    1 => steps.push(Step::Read(ReadKind::CYCLE[(i / 4) % 4])),
                    3 => steps.push(stale("main", rev, 1)),
                    _ => {}
                }
            }
        }
        // Schema size is the variable: a short history on 1k types.
        Workload::Synth1kEdits => {
            for (i, op) in ops(&edit_stream(&g, SYNTH_SUBMITS, seed))
                .into_iter()
                .enumerate()
            {
                steps.push(submit("main", vec![op]));
                rev += 1;
                steps.push(Step::Read(ReadKind::CYCLE[i % 4]));
                steps.push(stale("main", rev, 1));
            }
        }
        // Durable writes beside open-loop reads.
        Workload::UniRwDurable => {
            reader_rate = READER_RATE;
            let stream = ops(&edit_stream(&g, 2 * DURABLE_BATCHES, seed));
            for (i, pair) in stream.chunks(2).enumerate() {
                steps.push(submit("main", pair.to_vec()));
                rev += 2;
                if i % 4 == 3 {
                    steps.push(stale("main", rev, 2));
                }
            }
        }
        // The conflict path: `lag` is always behind `lead` by 1, 16 or 128.
        Workload::UniConflict => {
            sessions = vec!["lead", "lag"];
            let lead = ops(&churn_stream(&g, CONFLICT_WARMUP + CONFLICT_ROUNDS, seed));
            let lag = ops(&edit_stream(&g, CONFLICT_ROUNDS, seed ^ LAG_SALT));
            warmup = lead[..CONFLICT_WARMUP]
                .iter()
                .map(|op| submit("lead", vec![op.clone()]))
                .collect();
            for (r, (lead_op, lag_op)) in lead[CONFLICT_WARMUP..].iter().zip(lag).enumerate() {
                steps.push(submit("lead", vec![lead_op.clone()]));
                steps.push(Step::Stale {
                    session: "lag",
                    lag: LAGS[r % LAGS.len()],
                    ops: vec![lag_op.clone()],
                });
                steps.push(submit("lag", vec![lag_op]));
                if r % 2 == 1 {
                    steps.push(Step::Read(ReadKind::CYCLE[(r / 2) % 4]));
                }
            }
        }
    }
    Script {
        workload,
        odl,
        sessions,
        warmup,
        steps,
        reader_rate,
        lint_ops,
    }
}

fn ops_json(ops: &[Op]) -> String {
    let items: Vec<String> = ops
        .iter()
        .map(|op| {
            format!(
                "{{\"context\":\"{}\",\"stmt\":{}}}",
                op.context.tag(),
                quote(&op.stmt)
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// The `open` frame for `session`.
pub fn open_frame(session: &str) -> String {
    format!("{{\"type\":\"open\",\"session\":{}}}\n", quote(session))
}

/// A `submit` frame issued against `base_rev`.
pub fn submit_frame(session: &str, base_rev: u64, ops: &[Op]) -> String {
    format!(
        "{{\"type\":\"submit\",\"session\":{},\"base_rev\":{base_rev},\"ops\":{}}}\n",
        quote(session),
        ops_json(ops)
    )
}

/// The frame of a read of `kind` by `session` at head `rev`; a lint read
/// checks the `lint_seq`-th lint op.
pub fn read_frame(
    kind: ReadKind,
    session: &str,
    rev: u64,
    lint_ops: &[Op],
    lint_seq: usize,
) -> String {
    let session = quote(session);
    match kind {
        ReadKind::Report | ReadKind::Export => {
            format!("{{\"type\":\"{}\",\"session\":{session}}}\n", kind.tag())
        }
        ReadKind::Log => format!(
            "{{\"type\":\"log\",\"session\":{session},\"since\":{}}}\n",
            rev.saturating_sub(32)
        ),
        ReadKind::Lint => format!(
            "{{\"type\":\"lint\",\"session\":{session},\"ops\":{}}}\n",
            ops_json(std::slice::from_ref(&lint_ops[lint_seq % lint_ops.len()]))
        ),
    }
}

pub const PING_FRAME: &str = "{\"type\":\"ping\"}\n";
pub const SHUTDOWN_FRAME: &str = "{\"type\":\"shutdown\"}\n";

/// Tracks the head rev and lint sequence while walking the writer's steps,
/// so the run and the fingerprint render the same frames.
#[derive(Debug, Default, Clone)]
pub struct Cursor {
    pub rev: u64,
    pub lint_seq: usize,
}

impl Cursor {
    /// The frame for `step` at the cursor, advancing past it on the
    /// assumption that the daemon answers as the script expects.
    pub fn frame(&mut self, script: &Script, step: &Step) -> String {
        match step {
            Step::Submit { session, ops } => {
                let frame = submit_frame(session, self.rev, ops);
                self.rev += ops.len() as u64;
                frame
            }
            Step::Stale { session, lag, ops } => submit_frame(session, self.rev - lag, ops),
            Step::Read(kind) => {
                let frame = read_frame(
                    *kind,
                    script.sessions[0],
                    self.rev,
                    &script.lint_ops,
                    self.lint_seq,
                );
                if *kind == ReadKind::Lint {
                    self.lint_seq += 1;
                }
                frame
            }
        }
    }
}

/// Every frame the writer connection sends in one cycle, in order (the
/// final gate and shutdown frames excluded).
pub fn writer_frames(script: &Script) -> Vec<String> {
    let mut cursor = Cursor::default();
    let mut frames: Vec<String> = script.sessions.iter().map(|s| open_frame(s)).collect();
    for step in script.warmup.iter().chain(&script.steps) {
        frames.push(cursor.frame(script, step));
    }
    frames
}

/// SplitMix64 digest of the workload's generated inputs: the starting ODL,
/// every writer frame, and the reader's plan.
pub fn fingerprint(script: &Script) -> u64 {
    let mut text = format!("{}\n{}\n", script.workload.name(), script.odl);
    for frame in writer_frames(script) {
        text.push_str(&frame);
    }
    text.push_str(&format!("reader {}\n", script.reader_rate));
    text.push_str(&ops_json(&script.lint_ops));
    checksum::checksum(text.as_bytes())
}

/// The fingerprints the benchmark was defined with, at [`DEFAULT_SEED`].
const STORED_FINGERPRINTS: &str = include_str!("../fingerprints.txt");

/// The stored fingerprint of `workload`, if the table has one.
pub fn stored_fingerprint(workload: Workload) -> Option<u64> {
    STORED_FINGERPRINTS
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .find(|(name, _)| *name == workload.name())
        .and_then(|(_, hex)| checksum::from_hex(hex.trim()))
}

/// The fingerprint table for the current code, in the stored format.
pub fn render_fingerprints() -> String {
    let mut out = String::from(
        "# SplitMix64 digests of each workload's generated inputs at seed 1.\n\
         # Refresh with `swsbench fingerprint` only when the inputs change on purpose.\n",
    );
    for w in Workload::ALL {
        out.push_str(&format!(
            "{} {}\n",
            w.name(),
            checksum::to_hex(fingerprint(&script(w, DEFAULT_SEED)))
        ));
    }
    out
}
