//! Designer deliverables (paper activity 11): "an approach to generating
//! deliverables for designer feedback as a result of shrink wrap schema
//! customization."
//!
//! [`DesignReport`] bundles everything a designer (or a design review)
//! needs about a session: the custom schema, the operation log with
//! impact, the mapping, the consistency report, and repair advice — as one
//! renderable document.

use crate::advice::{advise, Suggestion};
use crate::consistency::ConsistencyReport;
use crate::mapping::Mapping;
use crate::workspace::Workspace;
use sws_trace::TraceSummary;

/// The complete deliverable bundle for one design session.
#[derive(Debug, Clone)]
pub struct DesignReport {
    /// Schema name.
    pub schema_name: String,
    /// Shrink wrap size (constructs).
    pub shrink_wrap_constructs: usize,
    /// Custom schema size (constructs).
    pub custom_constructs: usize,
    /// Number of operations applied.
    pub ops_applied: usize,
    /// The custom schema as extended ODL.
    pub custom_odl: String,
    /// The derived mapping.
    pub mapping: Mapping,
    /// The consistency report.
    pub consistency: ConsistencyReport,
    /// Repair advice for the consistency findings.
    pub advice: Vec<Suggestion>,
    /// Rendered op log lines with impact counts.
    pub log_lines: Vec<String>,
    /// Counter/timing summary captured from the active trace recorder, if
    /// tracing was enabled during the session.
    pub instrumentation: Option<TraceSummary>,
}

impl DesignReport {
    /// Generate the deliverables for a workspace.
    pub fn generate(ws: &Workspace) -> Self {
        // Tombstone-ratio counters (`model.graph.*.live/dead`) go into the
        // instrumentation summary so unbounded arena growth in long
        // sessions is observable. Counters accumulate, so emit them once
        // per report, not per sync.
        ws.working().emit_arena_counters();
        let consistency = ws.consistency();
        let advice = advise(&consistency, ws.working());
        let log_lines = ws
            .log()
            .iter()
            .map(|r| {
                if r.impact.is_empty() {
                    format!("[{}] {}", r.context.tag(), r.op)
                } else {
                    format!(
                        "[{}] {} (+{} propagated changes)",
                        r.context.tag(),
                        r.op,
                        r.impact.len()
                    )
                }
            })
            .collect();
        DesignReport {
            schema_name: ws.shrink_wrap().name().to_string(),
            shrink_wrap_constructs: ws.shrink_wrap().construct_count(),
            custom_constructs: ws.working().construct_count(),
            ops_applied: ws.log().len(),
            custom_odl: ws.custom_odl().to_string(),
            mapping: Mapping::derive(ws),
            consistency,
            advice,
            log_lines,
            // A ring (swsd's always-on crash recorder) is not a trace.
            instrumentation: sws_trace::current()
                .filter(|rec| rec.capacity().is_none())
                .map(|rec| TraceSummary::of(&rec.snapshot()))
                .filter(|s| !s.is_empty()),
        }
    }

    /// Render the whole deliverable as one document.
    pub fn render(&self) -> String {
        let summary = self.mapping.summary();
        let mut out = String::new();
        out.push_str(&format!("# Design report — {}\n\n", self.schema_name));
        out.push_str(&format!(
            "shrink wrap: {} constructs; custom: {} constructs; {} operation(s) applied\n",
            self.shrink_wrap_constructs, self.custom_constructs, self.ops_applied
        ));
        out.push_str(&format!(
            "reuse: {:.1}% ({} unchanged, {} modified, {} moved, {} deleted, {} added)\n\n",
            summary.reuse_fraction() * 100.0,
            summary.unchanged,
            summary.modified,
            summary.moved,
            summary.deleted,
            summary.added
        ));
        out.push_str("## Operation log\n");
        for line in &self.log_lines {
            out.push_str(&format!("  {line}\n"));
        }
        out.push_str("\n## Consistency\n");
        if self.consistency.is_clean() {
            out.push_str("  no findings\n");
        } else {
            for finding in &self.consistency.findings {
                out.push_str(&format!("  {}: {finding}\n", finding.severity()));
            }
        }
        if !self.advice.is_empty() {
            out.push_str("\n## Advice\n");
            for s in &self.advice {
                out.push_str(&format!("  {}\n", s.finding));
                for candidate in &s.candidates {
                    out.push_str(&format!("    -> {candidate}\n"));
                }
            }
        }
        out.push_str("\n## Mapping\n");
        for entry in &self.mapping.entries {
            out.push_str(&format!("  {}: {}\n", entry.construct, entry.disposition));
        }
        if let Some(summary) = &self.instrumentation {
            out.push_str("\n## Instrumentation\n");
            out.push_str(&summary.render());
        }
        out.push_str("\n## Custom schema\n");
        out.push_str(&self.custom_odl);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concept::ConceptKind;
    use crate::ops::ModOp;
    use sws_model::schema_to_graph;
    use sws_odl::parse_schema;

    #[test]
    fn report_reflects_the_session() {
        let src = r#"
        schema T {
            interface A { attribute set<B> bs; attribute long x; keys x; }
            interface B { attribute long y; }
        }"#;
        let mut ws = Workspace::new(schema_to_graph(&parse_schema(src).unwrap()).unwrap());
        ws.apply(
            ConceptKind::WagonWheel,
            ModOp::DeleteTypeDefinition { ty: "B".into() },
        )
        .unwrap();
        let report = DesignReport::generate(&ws);
        assert_eq!(report.ops_applied, 1);
        assert!(report.shrink_wrap_constructs > report.custom_constructs);
        let text = report.render();
        assert!(text.contains("# Design report — T"));
        assert!(text.contains("delete_type_definition(B)"));
        // Deleting B left A::bs dangling: finding + advice present.
        assert!(text.contains("error:"), "{text}");
        assert!(text.contains("-> add_type_definition(B)"), "{text}");
        assert!(text.contains("type `B`: deleted"));
        assert!(text.contains("## Custom schema"));
    }

    #[test]
    fn instrumentation_section_reflects_traced_session() {
        let rec = sws_trace::Recorder::new();
        let _guard = rec.install_thread();
        let mut ws = Workspace::new(
            schema_to_graph(&parse_schema("interface A { attribute long x; keys x; }").unwrap())
                .unwrap(),
        );
        ws.apply(
            ConceptKind::WagonWheel,
            ModOp::AddTypeDefinition { ty: "B".into() },
        )
        .unwrap();
        let report = DesignReport::generate(&ws);
        let summary = report.instrumentation.as_ref().expect("summary captured");
        assert!(summary
            .counters
            .iter()
            .any(|(name, v)| name == "ws.ops_applied" && *v == 1));
        assert!(summary.histograms.iter().any(|h| h.name == "ws.apply"));
        // Tombstone-ratio counters: A plus the added B are live, nothing
        // has been deleted, so the dead counters exist and read zero.
        assert!(summary
            .counters
            .iter()
            .any(|(name, v)| name == "model.graph.types.live" && *v == 2));
        assert!(summary
            .counters
            .iter()
            .any(|(name, v)| name == "model.graph.types.dead" && *v == 0));
        assert!(summary
            .counters
            .iter()
            .any(|(name, v)| name == "model.graph.attrs.live" && *v == 1));
        let text = report.render();
        assert!(text.contains("## Instrumentation"), "{text}");
        assert!(text.contains("ws.ops_applied = 1"), "{text}");
    }

    #[test]
    fn report_without_tracing_omits_instrumentation() {
        let ws = Workspace::new(
            schema_to_graph(&parse_schema("interface A { attribute long x; keys x; }").unwrap())
                .unwrap(),
        );
        let report = DesignReport::generate(&ws);
        assert!(report.instrumentation.is_none());
        assert!(!report.render().contains("## Instrumentation"));
        // The always-on ring recorder is not a trace either.
        let ring = sws_trace::Recorder::ring(16);
        let _guard = ring.install_thread();
        assert!(DesignReport::generate(&ws).instrumentation.is_none());
        assert!(ring.snapshot().counter("model.graph.attrs.live") > 0);
    }

    #[test]
    fn clean_session_reports_no_findings() {
        let ws = Workspace::new(
            schema_to_graph(&parse_schema("interface A { attribute long x; keys x; }").unwrap())
                .unwrap(),
        );
        let report = DesignReport::generate(&ws);
        assert!(report.consistency.is_clean());
        assert!(report.advice.is_empty());
        assert!(report.render().contains("no findings"));
    }
}
