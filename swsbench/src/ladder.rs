//! The traced run's in-process ladder.
//!
//! After each accepted submit the generator replays the identical op
//! through the public calls the daemon makes for it — a [`Session`] with
//! no directory plus a bare [`Workspace`] — timing each call between
//! requests. Spans go to a bench-local buffer, written out as JSONL when
//! the run ends; nothing here runs inside the daemon.
//!
//! The ladder also mirrors the daemon's durable path (an fsynced append per
//! op and a checkpoint every [`CHECKPOINT_INTERVAL`] ops into a directory
//! of its own, plus one checkpoint at the end of each cycle) on every
//! workload, so each layer is measured on each workload's op stream. Only
//! on the durable workload does the append count towards the submit's
//! explained time.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use sws_analyze::{analyze_ops, commutes, footprint};
use sws_core::oplang::{parse_statement, print_op};
use sws_core::{ConceptKind, ModOp, Workspace};
use sws_designer::protocol::{parse_request, render_response};
use sws_designer::{Response, Session};
use sws_model::graph_to_schema;
use sws_odl::print_schema;
use sws_repository::append_log_line;
use sws_repository::io::RealIo;

use crate::client::Exchange;
use crate::spec::TIMED_LAYERS;
use crate::stats::nearest_rank;
use crate::workload::{Op, ReadKind, CHECKPOINT_INTERVAL};

/// Trace request id of the end-of-cycle work, apart from the writer's
/// steps and the reader's requests.
const CYCLE_END_REQ: u64 = 1 << 40;

/// One recorded interval.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: u64,
    /// Traced cycle (from 1) and step within it identify the request.
    cycle: u64,
    req: u64,
    name: &'static str,
    start: Instant,
    end: Instant,
}

/// In-memory span buffer plus per-layer duration samples (ns; the
/// residual may be negative).
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: u64,
    cycle: u64,
    spans: Vec<Span>,
    samples: BTreeMap<&'static str, Vec<i64>>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: 1,
            cycle: 0,
            spans: Vec::new(),
            samples: BTreeMap::new(),
        }
    }

    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// Record a span and its duration sample. Returns the duration in ns.
    fn span(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> i64 {
        let id = self.id();
        self.spans.push(Span {
            id,
            parent,
            cycle: self.cycle,
            req,
            name,
            start,
            end,
        });
        let ns = end.duration_since(start).as_nanos() as i64;
        self.sample(name, ns);
        ns
    }

    fn sample(&mut self, name: &'static str, ns: i64) {
        self.samples.entry(name).or_default().push(ns);
    }

    /// Run `f` as a child span of `parent`.
    fn time<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> (R, i64) {
        let start = Instant::now();
        let out = f();
        let ns = self.span(name, parent, req, start, Instant::now());
        (out, ns)
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"cycle\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                s.cycle,
                s.req,
                s.name,
                s.start.saturating_duration_since(self.origin).as_nanos(),
                s.end.saturating_duration_since(self.origin).as_nanos()
            )?;
        }
        out.flush()
    }
}

fn parse(stmt: &str) -> Result<ModOp, String> {
    parse_statement(stmt).map_err(|e| format!("`{stmt}` does not parse: {e}"))
}

fn mean(values: &[u64]) -> f64 {
    values.iter().sum::<u64>() as f64 / values.len().max(1) as f64
}

/// Bytes of the regular files in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// One cycle's in-process replicas.
struct Replica {
    session: Session,
    bare: Workspace,
    dir: PathBuf,
}

/// The ladder: replicas for the current cycle, and everything measured
/// across cycles.
pub struct Ladder {
    replica: Option<Replica>,
    /// The daemon appends on the request path (durable workload).
    append_on_request_path: bool,
    pub tracer: Tracer,
    odl_bytes: Vec<u64>,
    response_bytes: Vec<u64>,
    commute_pairs: Vec<u64>,
    delta_lens: Vec<u64>,
    rebasable: u64,
    conflicts: u64,
    explained_ns: i128,
    rtt_ns: i128,
    disk_bytes_per_op: Vec<f64>,
}

impl Ladder {
    pub fn new(append_on_request_path: bool) -> Ladder {
        Ladder {
            replica: None,
            append_on_request_path,
            tracer: Tracer::new(),
            odl_bytes: Vec::new(),
            response_bytes: Vec::new(),
            commute_pairs: Vec::new(),
            delta_lens: Vec::new(),
            rebasable: 0,
            conflicts: 0,
            explained_ns: 0,
            rtt_ns: 0,
            disk_bytes_per_op: Vec::new(),
        }
    }

    /// Start a cycle on the daemon's starting schema; `dir` receives the
    /// ladder's durable log.
    pub fn begin_cycle(&mut self, odl: &str, dir: &Path) -> Result<(), String> {
        let session = Session::from_odl(odl).map_err(|e| format!("ladder schema: {e}"))?;
        let bare = Workspace::new(session.repository().workspace().shrink_wrap().clone());
        session
            .repository()
            .save(dir)
            .map_err(|e| format!("ladder directory: {e}"))?;
        self.tracer.cycle += 1;
        self.replica = Some(Replica {
            session,
            bare,
            dir: dir.to_path_buf(),
        });
        Ok(())
    }

    fn replica(&mut self) -> Result<&mut Replica, String> {
        self.replica
            .as_mut()
            .ok_or_else(|| "ladder used outside a cycle".to_string())
    }

    /// Apply unmeasured ops (the warm-up) to stay in step with the daemon.
    pub fn warm(&mut self, ops: &[Op]) -> Result<(), String> {
        let r = self.replica()?;
        for op in ops {
            let parsed = parse(&op.stmt)?;
            r.session.set_context(op.context);
            r.session
                .issue(parsed.clone())
                .map_err(|e| format!("ladder warm-up `{}`: {e}", op.stmt))?;
            r.bare
                .apply(op.context, parsed.clone())
                .map_err(|e| format!("bare warm-up `{}`: {e}", op.stmt))?;
            let seq = r.session.repository().total_ops() - 1;
            append_log_line(&RealIo, &r.dir, seq, op.context, &parsed)
                .map_err(|e| format!("ladder append: {e}"))?;
        }
        r.session.clear_history();
        Ok(())
    }

    /// Replay an accepted submit through the ladder. `frame` is the request
    /// as sent, `wire` the response line received; the ladder's rendering
    /// of the same response must equal it byte for byte.
    #[allow(clippy::too_many_arguments)]
    pub fn accepted(
        &mut self,
        req: u64,
        frame: &str,
        session_name: &str,
        base_rev: u64,
        ops: &[Op],
        warnings: Vec<String>,
        wire: &str,
        rtt: Exchange,
        ping: Exchange,
    ) -> Result<(), String> {
        let append_counts = self.append_on_request_path;
        let mut r = self.replica.take().ok_or("ladder used outside a cycle")?;
        let t = &mut self.tracer;
        let root = t.id();
        t.span("submit_rtt", root, req, rtt.sent, rtt.received);
        let ping_ns = t.span("serve.ping_rtt", root, req, ping.sent, ping.received);
        let mut explained = 0i64;

        let (parsed_req, ns) = t.time("protocol.parse_request", root, req, || {
            parse_request(frame.trim_end())
        });
        explained += ns;
        parsed_req.map_err(|e| format!("own frame does not parse: {e}"))?;

        for op in ops {
            let (parsed, ns) = t.time("oplang.parse", root, req, || parse(&op.stmt));
            explained += ns;
            let parsed = parsed?;
            let (snapshot, _) = t.time("session.undo_snapshot", root, req, || {
                r.session.repository().clone()
            });
            drop(snapshot);
            r.session.set_context(op.context);
            let (issued, ns) = t.time("session.issue", root, req, || {
                r.session.issue(parsed.clone())
            });
            explained += ns;
            issued.map_err(|e| format!("ladder rejected accepted `{}`: {e}", op.stmt))?;
            let (applied, _) = t.time("workspace.apply", root, req, || {
                r.bare.apply(op.context, parsed.clone())
            });
            applied.map_err(|e| format!("bare workspace rejected `{}`: {e}", op.stmt))?;
            let (printed, ns) = t.time("oplang.print", root, req, || print_op(&parsed));
            explained += ns;
            if printed != op.stmt {
                return Err(format!("print_op drift: `{printed}` vs `{}`", op.stmt));
            }
            let seq = r.session.repository().total_ops() - 1;
            let (appended, ns) = t.time("repository.append", root, req, || {
                append_log_line(&RealIo, &r.dir, seq, op.context, &parsed)
            });
            appended.map_err(|e| format!("ladder append: {e}"))?;
            if append_counts {
                explained += ns;
            }
        }
        let ((), ns) = t.time("session.clear_history", root, req, || {
            r.session.clear_history()
        });
        explained += ns;

        // The read-view publish the daemon runs after every accepted batch.
        let repo = r.session.repository();
        let working = repo.workspace().working();
        let (graphs, ns) = t.time("model.graph_clone", root, req, || {
            (
                Arc::new(working.clone()),
                Arc::new(repo.workspace().shrink_wrap().clone()),
            )
        });
        explained += ns;
        drop(graphs);
        let (schema, ns) = t.time("model.graph_to_schema", root, req, || {
            graph_to_schema(working)
        });
        explained += ns;
        let (odl, ns) = t.time("odl.print_schema", root, req, || print_schema(&schema));
        explained += ns;
        self.odl_bytes.push(odl.len() as u64);
        let (_, ns) = t.time("concept.decompose", root, req, || {
            r.session.concept_list().len()
        });
        explained += ns;
        let (_, ns) = t.time("consistency.report", root, req, || {
            let report = repo.consistency();
            (report.errors().count(), report.warnings().count())
        });
        explained += ns;

        let response = Response::Accepted {
            session: session_name.to_string(),
            base_rev,
            rev: base_rev + ops.len() as u64,
            applied: ops.len(),
            warnings,
        };
        let (line, ns) = t.time("protocol.render_response", root, req, || {
            render_response(&response)
        });
        explained += ns;
        if line != wire {
            return Err(format!("ladder renders `{line}`, daemon sent `{wire}`"));
        }

        // Off the request path, as `maintain()` runs it.
        let pending = {
            let repo = r.session.repository();
            repo.total_ops().saturating_sub(repo.tail_start())
        };
        if pending >= CHECKPOINT_INTERVAL {
            let dir = r.dir.clone();
            let (done, _) = t.time("repository.checkpoint", root, req, || {
                r.session.repository_mut().checkpoint_with(&RealIo, &dir)
            });
            done.map_err(|e| format!("ladder checkpoint: {e}"))?;
        }

        let rtt_ns = rtt.ns() as i64;
        t.sample("service.residual", rtt_ns - ping_ns - explained);
        t.spans.push(Span {
            id: root,
            parent: 0,
            cycle: t.cycle,
            req,
            name: "submit",
            start: rtt.sent,
            end: Instant::now(),
        });
        self.explained_ns += i128::from(ping_ns + explained);
        self.rtt_ns += i128::from(rtt_ns);
        self.response_bytes.push(wire.len() as u64);
        self.replica = Some(r);
        Ok(())
    }

    /// Mirror the daemon's conflict classification for a stale submit and
    /// check that it agrees with the daemon's `auto_rebasable`.
    pub fn conflict(
        &mut self,
        req: u64,
        ops: &[Op],
        delta: &[Op],
        daemon_auto_rebasable: bool,
        rtt: Exchange,
        wire_len: usize,
    ) -> Result<(), String> {
        let r = self.replica.as_ref().ok_or("ladder used outside a cycle")?;
        let t = &mut self.tracer;
        let root = t.id();
        t.span("conflict_rtt", root, req, rtt.sent, rtt.received);
        let mut script: Vec<(ConceptKind, ModOp)> = Vec::new();
        for op in ops {
            let (parsed, _) = t.time("oplang.parse", root, req, || parse(&op.stmt));
            script.push((op.context, parsed?));
        }
        let mut accepted = Vec::new();
        for record in delta {
            let (parsed, _) = t.time("oplang.parse", root, req, || parse(&record.stmt));
            accepted.push(parsed?);
        }
        let (clashes, _) = t.time("analyze.commute", root, req, || {
            let mut clashes = 0usize;
            for (_, op) in &script {
                let fp = footprint(op);
                for a in &accepted {
                    if !commutes(&fp, &footprint(a)) {
                        clashes += 1;
                    }
                }
            }
            clashes
        });
        let ws = r.session.repository().workspace();
        let (passes, _) = t.time("analyze.analyze_ops", root, req, || {
            analyze_ops(ws.working(), ws.shrink_wrap(), &script).passes()
        });
        let auto = clashes == 0 && passes;
        if auto != daemon_auto_rebasable {
            return Err(format!(
                "daemon says auto_rebasable={daemon_auto_rebasable}, the ladder derives {auto}"
            ));
        }
        t.spans.push(Span {
            id: root,
            parent: 0,
            cycle: t.cycle,
            req,
            name: "conflict",
            start: rtt.sent,
            end: Instant::now(),
        });
        self.commute_pairs
            .push((script.len() * accepted.len()) as u64);
        self.delta_lens.push(delta.len() as u64);
        self.conflicts += 1;
        self.rebasable += u64::from(auto);
        self.response_bytes.push(wire_len as u64);
        Ok(())
    }

    /// Record a read's round trip. For a writer-side export, `exported`
    /// carries the decoded `(rev, odl)`; the ladder re-renders the response
    /// and checks it against the wire bytes.
    pub fn read(
        &mut self,
        req: u64,
        kind: ReadKind,
        rtt: Exchange,
        wire: &str,
        exported: Option<(u64, String)>,
    ) -> Result<(), String> {
        self.reader_read(req, kind, rtt, wire.len());
        if let Some((rev, odl)) = exported {
            let response = Response::Exported { rev, odl };
            let (line, _) = self.tracer.time("protocol.render_response", 0, req, || {
                render_response(&response)
            });
            if line != wire {
                return Err("ladder's export rendering differs from the daemon's".to_string());
            }
        }
        Ok(())
    }

    /// Record a read's round trip and response size.
    pub fn reader_read(&mut self, req: u64, kind: ReadKind, rtt: Exchange, bytes: usize) {
        let name = match kind {
            ReadKind::Report => "service.report_rtt",
            ReadKind::Export => "service.export_rtt",
            ReadKind::Log => "service.log_rtt",
            ReadKind::Lint => "service.lint_rtt",
        };
        self.tracer.span(name, 0, req, rtt.sent, rtt.received);
        self.response_bytes.push(bytes as u64);
    }

    /// Finish the cycle: a checkpoint of the ops since the last one, so
    /// that layer is measured on every workload however short its cycle;
    /// a final save (as the daemon's shutdown does); disk bytes per op;
    /// and the replicas' ODL, which must both equal the daemon's export.
    pub fn end_cycle(&mut self, export: &str) -> Result<(), String> {
        let mut r = self.replica.take().ok_or("ladder used outside a cycle")?;
        let (done, _) = self
            .tracer
            .time("repository.checkpoint", 0, CYCLE_END_REQ, || {
                r.session.repository_mut().checkpoint_with(&RealIo, &r.dir)
            });
        done.map_err(|e| format!("ladder checkpoint: {e}"))?;
        let repo = r.session.repository();
        repo.save(&r.dir)
            .map_err(|e| format!("ladder final save: {e}"))?;
        let ops = repo.total_ops().max(1);
        self.disk_bytes_per_op
            .push(dir_bytes(&r.dir) as f64 / ops as f64);
        if repo.custom_schema_odl() != export {
            return Err("the ladder session's ODL differs from the daemon's export".to_string());
        }
        if print_schema(&graph_to_schema(r.bare.working())) != export {
            return Err("the bare workspace's ODL differs from the daemon's export".to_string());
        }
        Ok(())
    }

    /// Every per-layer metric the ladder measures, in catalogue order.
    /// Fails if a layer never ran.
    pub fn metrics(&self) -> Result<Vec<(String, f64)>, String> {
        let mut out = Vec::new();
        for layer in TIMED_LAYERS {
            let mut samples = self
                .tracer
                .samples
                .get(layer)
                .filter(|s| !s.is_empty())
                .ok_or_else(|| format!("layer {layer} never ran"))?
                .clone();
            let busy: i64 = samples.iter().sum();
            let count = samples.len() as f64;
            let p50 = nearest_rank(&mut samples, 0.5).unwrap_or(0);
            let p99 = nearest_rank(&mut samples, 0.99).unwrap_or(0);
            out.push((format!("{layer}.count"), count));
            out.push((format!("{layer}.busy_ms"), busy as f64 / 1e6));
            out.push((format!("{layer}.p50_us"), p50 as f64 / 1e3));
            out.push((format!("{layer}.p99_us"), p99 as f64 / 1e3));
        }
        let mut disk = self.disk_bytes_per_op.clone();
        disk.sort_by(f64::total_cmp);
        out.push(("odl.bytes.mean".to_string(), mean(&self.odl_bytes)));
        out.push((
            "serve.response_bytes.mean".to_string(),
            mean(&self.response_bytes),
        ));
        out.push((
            "repository.disk_bytes_per_op".to_string(),
            crate::stats::median(&disk).unwrap_or(0.0),
        ));
        out.push((
            "analyze.commute_pairs.mean".to_string(),
            mean(&self.commute_pairs),
        ));
        out.push((
            "service.conflict_delta_len.mean".to_string(),
            mean(&self.delta_lens),
        ));
        out.push((
            "service.auto_rebasable.ratio".to_string(),
            self.rebasable as f64 / self.conflicts.max(1) as f64,
        ));
        out.push((
            "bench.coverage.ratio".to_string(),
            self.explained_ns as f64 / self.rtt_ns.max(1) as f64,
        ));
        Ok(out)
    }
}
