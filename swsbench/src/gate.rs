//! The correctness gate every cycle must pass.
//!
//! * every response line carries a valid checksum (checked per response by
//!   the runner with `crash::checksum_valid`);
//! * a serial replay of `log since=0` from the starting ODL byte-equals the
//!   daemon's `export`;
//! * on the durable workload, a strict load of the session directory after
//!   shutdown equals the last export, so every acknowledged op is durable;
//! * in traced runs, the ladder's replicas equal the export too.

use std::path::Path;

use sws_core::oplang::parse_statement;
use sws_core::ConceptKind;
use sws_repository::Repository;

use crate::json::Value;
use crate::workload::Op;

/// Decode the `ops` (or `delta`) records of a `log` / `conflict` response,
/// checking that their `seq`s run contiguously from `first_seq`.
pub fn records(v: &Value, key: &str, first_seq: u64) -> Result<Vec<Op>, String> {
    let items = v
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("response has no `{key}` array"))?;
    items
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let seq = r.get("seq").and_then(Value::as_u64);
            if seq != Some(first_seq + i as u64) {
                return Err(format!(
                    "{key}[{i}] has seq {seq:?}, expected {}",
                    first_seq + i as u64
                ));
            }
            let context = r
                .get("context")
                .and_then(Value::as_str)
                .and_then(ConceptKind::from_tag)
                .ok_or_else(|| format!("{key}[{i}] has no valid context"))?;
            let stmt = r
                .get("stmt")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("{key}[{i}] has no stmt"))?;
            Ok(Op {
                context,
                stmt: stmt.to_string(),
            })
        })
        .collect()
}

/// Replay `records` serially on a fresh repository ingested from `odl`
/// and return its custom-schema ODL.
pub fn replay(odl: &str, records: &[Op]) -> Result<String, String> {
    let mut repo = Repository::ingest_odl(odl).map_err(|e| format!("replay ingest: {e}"))?;
    for (i, r) in records.iter().enumerate() {
        let op = parse_statement(&r.stmt).map_err(|e| format!("log[{i}] does not parse: {e}"))?;
        repo.workspace_mut()
            .apply(r.context, op)
            .map_err(|e| format!("log[{i}] `{}` does not replay: {e}", r.stmt))?;
    }
    Ok(repo.custom_schema_odl())
}

/// The serial-replay check: the accepted total order, replayed from the
/// starting schema, must reproduce the export byte for byte.
pub fn check_replay(odl: &str, records: &[Op], export: &str) -> Result<(), String> {
    let replayed = replay(odl, records)?;
    if replayed != export {
        let at = replayed
            .bytes()
            .zip(export.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(replayed.len().min(export.len()));
        return Err(format!(
            "serial replay of {} logged ops differs from the export at byte {at}",
            records.len()
        ));
    }
    Ok(())
}

/// The durability check: a strict load of the session directory equals
/// the last export.
pub fn check_durable(dir: &Path, export: &str) -> Result<(), String> {
    let repo =
        Repository::load(dir).map_err(|e| format!("strict load of {}: {e}", dir.display()))?;
    if repo.custom_schema_odl() != export {
        return Err("the reloaded session directory differs from the last export".to_string());
    }
    Ok(())
}
