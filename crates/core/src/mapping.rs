//! The mapping between shrink wrap schema and custom schema (paper activity
//! 10): "a mapping representation that records the semantic correspondence
//! between the shrink wrap and customized schema".
//!
//! The mapping is **derived** — from the shrink wrap schema, the customized
//! working schema, and a [`MoveTable`]: the fold of the operation log that
//! disambiguates *moved* members from deleted-and-re-added ones. Every
//! shrink wrap construct receives a [`Disposition`]; constructs only in
//! the custom schema are listed as [`Disposition::Added`].

use crate::ops::ModOp;
use crate::workspace::Workspace;
use std::collections::BTreeMap;
use std::fmt;
use sws_model::{graph_to_schema, SchemaGraph};
use sws_odl::{HierKind, Schema};

/// A construct, identified by names (name equivalence).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Construct {
    /// An object type.
    Type(String),
    /// `(type, attribute)`.
    Attribute(String, String),
    /// `(type, operation)`.
    Operation(String, String),
    /// `(type_a, path_a, type_b, path_b)`, endpoint-sorted.
    Relationship(String, String, String, String),
    /// `(kind, parent, parent_path, child, child_path)`.
    Link(HierKind, String, String, String, String),
    /// `(subtype, supertype)`.
    SupertypeEdge(String, String),
}

impl fmt::Display for Construct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Construct::Type(t) => write!(f, "type `{t}`"),
            Construct::Attribute(t, a) => write!(f, "attribute `{t}::{a}`"),
            Construct::Operation(t, o) => write!(f, "operation `{t}::{o}`"),
            Construct::Relationship(a, pa, b, pb) => {
                write!(f, "relationship `{a}::{pa}` <-> `{b}::{pb}`")
            }
            Construct::Link(k, p, pp, c, cp) => {
                write!(f, "{k} link `{p}::{pp}` -> `{c}::{cp}`")
            }
            Construct::SupertypeEdge(sub, sup) => write!(f, "`{sub}` isa `{sup}`"),
        }
    }
}

/// What became of a construct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Disposition {
    /// Present, identical.
    Unchanged,
    /// Present in place, with the listed property changes.
    Modified(Vec<String>),
    /// Moved to another type (via a generalization-hierarchy move), with
    /// any further property changes.
    Moved { to: String, details: Vec<String> },
    /// Absent from the custom schema.
    Deleted,
    /// Only in the custom schema.
    Added,
}

impl Disposition {
    /// True for dispositions that count as *reused* (the construct
    /// semantics carried over): unchanged, modified, or moved.
    pub fn is_reused(&self) -> bool {
        matches!(
            self,
            Disposition::Unchanged | Disposition::Modified(_) | Disposition::Moved { .. }
        )
    }
}

impl fmt::Display for Disposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Disposition::Unchanged => f.write_str("unchanged"),
            Disposition::Modified(details) => write!(f, "modified ({})", details.join("; ")),
            Disposition::Moved { to, details } if details.is_empty() => {
                write!(f, "moved to `{to}`")
            }
            Disposition::Moved { to, details } => {
                write!(f, "moved to `{to}` ({})", details.join("; "))
            }
            Disposition::Deleted => f.write_str("deleted"),
            Disposition::Added => f.write_str("added"),
        }
    }
}

/// One mapping entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapEntry {
    /// The construct (shrink-wrap-side identity for everything except
    /// `Added` entries).
    pub construct: Construct,
    /// Its disposition.
    pub disposition: Disposition,
}

/// Counts per disposition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MappingSummary {
    /// Constructs carried over unchanged.
    pub unchanged: usize,
    /// Constructs modified in place.
    pub modified: usize,
    /// Constructs moved within a generalization hierarchy.
    pub moved: usize,
    /// Shrink wrap constructs absent from the custom schema.
    pub deleted: usize,
    /// Custom-schema-only constructs.
    pub added: usize,
}

impl MappingSummary {
    /// Shrink wrap construct count (everything but `added`).
    pub fn shrink_wrap_total(&self) -> usize {
        self.unchanged + self.modified + self.moved + self.deleted
    }

    /// Fraction of shrink wrap constructs reused in the custom schema.
    pub fn reuse_fraction(&self) -> f64 {
        let total = self.shrink_wrap_total();
        if total == 0 {
            return 0.0;
        }
        (self.unchanged + self.modified + self.moved) as f64 / total as f64
    }
}

/// The full mapping.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Mapping {
    /// All entries: shrink wrap constructs first, then additions.
    pub entries: Vec<MapEntry>,
}

impl Mapping {
    /// Derive the mapping for a workspace: the one entry point. Where
    /// history left the shrink wrap's attributes and operations comes from
    /// the workspace's [`MoveTable`] folded up to the head, so the result
    /// is the same however much of the history was retired.
    pub fn derive(ws: &Workspace) -> Mapping {
        derive_mapping(ws.shrink_wrap(), ws.working(), &ws.move_table())
    }

    /// Per-disposition counts.
    pub fn summary(&self) -> MappingSummary {
        let mut s = MappingSummary::default();
        for e in &self.entries {
            match &e.disposition {
                Disposition::Unchanged => s.unchanged += 1,
                Disposition::Modified(_) => s.modified += 1,
                Disposition::Moved { .. } => s.moved += 1,
                Disposition::Deleted => s.deleted += 1,
                Disposition::Added => s.added += 1,
            }
        }
        s
    }

    /// Render the mapping, one entry per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&format!("{}: {}\n", e.construct, e.disposition));
        }
        let s = self.summary();
        out.push_str(&format!(
            "summary: {} unchanged, {} modified, {} moved, {} deleted, {} added \
             (reuse {:.1}%)\n",
            s.unchanged,
            s.modified,
            s.moved,
            s.deleted,
            s.added,
            s.reuse_fraction() * 100.0
        ));
        out
    }
}

/// Where history left the shrink wrap's attributes and operations: the
/// fold of applied ops that moved, deleted or re-added one. A member the
/// table does not list is live on the type the shrink wrap declares it
/// on, so the table holds only what history changed.
///
/// The fold keeps each entry's liveness, which is what keeps it exact:
///
/// * a delete, and a type deletion's cascade, retires the entry at that
///   location;
/// * a move matches only live entries;
/// * an add of the same name at that location revives the entry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MoveTable {
    attrs: Members,
    ops: Members,
}

/// Where a listed shrink-wrap member is now.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Place {
    /// The type it is declared on now, or was declared on when deleted.
    ty: String,
    /// False once deleted; an add of the same name on `ty` revives it.
    live: bool,
}

/// One member kind's listed entries: `(name, shrink-wrap type)` → place,
/// keyed by name first so the entries sharing a name are one range.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Members(BTreeMap<(String, String), Place>);

impl Members {
    /// `(shrink-wrap type, place)` of every listed entry named `name`.
    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (&'a str, &'a Place)> + 'a {
        self.0
            .range((name.to_string(), String::new())..)
            .take_while(move |((n, _), _)| n == name)
            .map(|((_, home), place)| (home.as_str(), place))
    }

    /// The shrink-wrap type of the live entry named `name` on `ty`.
    /// `declared` says whether the shrink wrap declares `name` on `ty`
    /// (the unlisted entry that may still be there).
    fn live_on(&self, ty: &str, name: &str, declared: bool) -> Option<String> {
        let listed = self
            .named(name)
            .filter(|(_, place)| place.live && place.ty == ty)
            .map(|(home, _)| home);
        let unlisted =
            (declared && !self.0.contains_key(&(name.to_string(), ty.to_string()))).then_some(ty);
        listed.chain(unlisted).min().map(str::to_string)
    }

    /// Where the member `home::name` is now: `(type, live)`.
    fn place(&self, home: &str, name: &str) -> (String, bool) {
        match self.0.get(&(name.to_string(), home.to_string())) {
            Some(place) => (place.ty.clone(), place.live),
            None => (home.to_string(), true),
        }
    }

    /// Record that `home::name` is on `ty`; a live entry back home is
    /// unlisted.
    fn set(&mut self, home: String, name: &str, ty: &str, live: bool) {
        let key = (name.to_string(), home);
        if live && ty == key.1 {
            self.0.remove(&key);
        } else {
            let ty = ty.to_string();
            self.0.insert(key, Place { ty, live });
        }
    }

    /// The live entry named `name` on `ty` moved to `to`, or was deleted
    /// there (`live` false).
    fn relocate(&mut self, ty: &str, name: &str, declared: bool, to: &str, live: bool) {
        if let Some(home) = self.live_on(ty, name, declared) {
            self.set(home, name, to, live);
        }
    }

    /// `name` was added on `ty`: the entry deleted there, if any, lives
    /// again.
    fn added(&mut self, ty: &str, name: &str) {
        let revived = self
            .named(name)
            .find(|(_, place)| !place.live && place.ty == ty)
            .map(|(home, _)| home.to_string());
        if let Some(home) = revived {
            self.set(home, name, ty, true);
        }
    }

    /// Type `ty` was deleted: every live entry on it goes with it,
    /// `declared` (the shrink wrap's members of `ty`) included.
    fn type_deleted<'a>(&mut self, ty: &str, declared: impl Iterator<Item = &'a str>) {
        for place in self.0.values_mut() {
            if place.live && place.ty == ty {
                place.live = false;
            }
        }
        for name in declared {
            let key = (name.to_string(), ty.to_string());
            self.0.entry(key).or_insert_with(|| Place {
                ty: ty.to_string(),
                live: false,
            });
        }
    }
}

impl MoveTable {
    /// Fold one applied op into the table. `shrink_wrap` is the schema
    /// the table's entries are members of.
    pub fn fold(&mut self, shrink_wrap: &SchemaGraph, op: &ModOp) {
        let ty_id = |ty: &str| shrink_wrap.type_id(ty);
        let has_attr = |ty: &str, name: &str| {
            ty_id(ty).is_some_and(|id| shrink_wrap.find_attr(id, name).is_some())
        };
        let has_op = |ty: &str, name: &str| {
            ty_id(ty).is_some_and(|id| shrink_wrap.find_op(id, name).is_some())
        };
        match op {
            ModOp::ModifyAttribute { ty, name, new_ty } => {
                self.attrs
                    .relocate(ty, name, has_attr(ty, name), new_ty, true)
            }
            ModOp::DeleteAttribute { ty, name } => {
                self.attrs.relocate(ty, name, has_attr(ty, name), ty, false)
            }
            ModOp::AddAttribute { ty, name, .. } => self.attrs.added(ty, name),
            ModOp::ModifyOperation { ty, name, new_ty } => {
                self.ops.relocate(ty, name, has_op(ty, name), new_ty, true)
            }
            ModOp::DeleteOperation { ty, name } => {
                self.ops.relocate(ty, name, has_op(ty, name), ty, false)
            }
            ModOp::AddOperation { ty, name, .. } => self.ops.added(ty, name),
            ModOp::DeleteTypeDefinition { ty } => {
                let node = ty_id(ty).map(|id| shrink_wrap.ty(id));
                let attrs = node.iter().flat_map(|n| &n.attrs);
                self.attrs
                    .type_deleted(ty, attrs.map(|&a| shrink_wrap.attr(a).name.as_str()));
                let ops = node.iter().flat_map(|n| &n.ops);
                self.ops
                    .type_deleted(ty, ops.map(|&o| shrink_wrap.op(o).name.as_str()));
            }
            _ => {}
        }
    }

    /// The table as text, one listed entry per line:
    /// `<attribute|operation>\t<shrink-wrap type>\t<name>\t<type now>\t<live|deleted>`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (kind, members) in [("attribute", &self.attrs), ("operation", &self.ops)] {
            for ((name, home), place) in &members.0 {
                let state = if place.live { "live" } else { "deleted" };
                let ty = &place.ty;
                out.push_str(&format!("{kind}\t{home}\t{name}\t{ty}\t{state}\n"));
            }
        }
        out
    }

    /// Parse [`Self::render`]'s text; `Err` carries the first bad line.
    pub fn parse(text: &str) -> Result<MoveTable, String> {
        let mut table = MoveTable::default();
        for line in text.lines() {
            let fields: Vec<&str> = line.split('\t').collect();
            let [kind, home, name, ty, state] = fields[..] else {
                return Err(line.to_string());
            };
            let members = match kind {
                "attribute" => &mut table.attrs,
                "operation" => &mut table.ops,
                _ => return Err(line.to_string()),
            };
            let live = match state {
                "live" => true,
                "deleted" => false,
                _ => return Err(line.to_string()),
            };
            members.set(home.to_string(), name, ty, live);
        }
        Ok(table)
    }
}

/// Derive the mapping from graphs and the move table at the head.
fn derive_mapping(shrink_wrap: &SchemaGraph, working: &SchemaGraph, moves: &MoveTable) -> Mapping {
    let sw = graph_to_schema(shrink_wrap);
    let cu = graph_to_schema(working);

    let mut entries = Vec::new();

    // Types.
    for iface in &sw.interfaces {
        let disposition = match cu.interface(&iface.name) {
            None => Disposition::Deleted,
            Some(new_iface) => {
                let mut details = Vec::new();
                if new_iface.extent != iface.extent {
                    details.push(format!(
                        "extent {:?} -> {:?}",
                        iface.extent, new_iface.extent
                    ));
                }
                if new_iface.keys != iface.keys {
                    details.push("key list changed".into());
                }
                if details.is_empty() {
                    Disposition::Unchanged
                } else {
                    Disposition::Modified(details)
                }
            }
        };
        entries.push(MapEntry {
            construct: Construct::Type(iface.name.clone()),
            disposition,
        });
    }

    // Supertype edges.
    for iface in &sw.interfaces {
        for sup in &iface.supertypes {
            let kept = cu
                .interface(&iface.name)
                .map(|i| i.supertypes.contains(sup))
                .unwrap_or(false);
            entries.push(MapEntry {
                construct: Construct::SupertypeEdge(iface.name.clone(), sup.clone()),
                disposition: if kept {
                    Disposition::Unchanged
                } else {
                    Disposition::Deleted
                },
            });
        }
    }

    // Attributes.
    for iface in &sw.interfaces {
        for attr in &iface.attributes {
            let (final_ty, live) = moves.attrs.place(&iface.name, &attr.name);
            let found = cu
                .interface(&final_ty)
                .and_then(|i| i.attribute(&attr.name))
                .filter(|_| live);
            let disposition = match found {
                None => Disposition::Deleted,
                Some(new_attr) => {
                    let mut details = Vec::new();
                    if new_attr.ty != attr.ty {
                        details.push(format!("type {} -> {}", attr.ty, new_attr.ty));
                    }
                    if new_attr.size != attr.size {
                        details.push(format!("size {:?} -> {:?}", attr.size, new_attr.size));
                    }
                    if final_ty != iface.name {
                        Disposition::Moved {
                            to: final_ty,
                            details,
                        }
                    } else if details.is_empty() {
                        Disposition::Unchanged
                    } else {
                        Disposition::Modified(details)
                    }
                }
            };
            entries.push(MapEntry {
                construct: Construct::Attribute(iface.name.clone(), attr.name.clone()),
                disposition,
            });
        }
    }

    // Operations.
    for iface in &sw.interfaces {
        for op in &iface.operations {
            let (final_ty, live) = moves.ops.place(&iface.name, &op.name);
            let found = cu
                .interface(&final_ty)
                .and_then(|i| i.operation(&op.name))
                .filter(|_| live);
            let disposition = match found {
                None => Disposition::Deleted,
                Some(new_op) => {
                    let mut details = Vec::new();
                    if new_op.return_type != op.return_type {
                        details.push(format!(
                            "return {} -> {}",
                            op.return_type, new_op.return_type
                        ));
                    }
                    if new_op.args != op.args {
                        details.push("argument list changed".into());
                    }
                    if new_op.raises != op.raises {
                        details.push("exception list changed".into());
                    }
                    if final_ty != iface.name {
                        Disposition::Moved {
                            to: final_ty,
                            details,
                        }
                    } else if details.is_empty() {
                        Disposition::Unchanged
                    } else {
                        Disposition::Modified(details)
                    }
                }
            };
            entries.push(MapEntry {
                construct: Construct::Operation(iface.name.clone(), op.name.clone()),
                disposition,
            });
        }
    }

    // Relationships (endpoint-sorted, once per pair) and links.
    map_relationships(&sw, &cu, &mut entries);
    map_links(&sw, &cu, &mut entries);

    // Additions: custom constructs with no shrink wrap counterpart.
    map_additions(&sw, &cu, moves, &mut entries);

    Mapping { entries }
}

fn rel_pairs(schema: &Schema) -> BTreeMap<(String, String, String, String), (String, String)> {
    // key: endpoint-sorted pair; value: per-side cardinality/order rendering
    let mut out = BTreeMap::new();
    for iface in &schema.interfaces {
        for rel in &iface.relationships {
            let mine = (iface.name.clone(), rel.path.clone());
            let theirs = (rel.target.clone(), rel.inverse_path.clone());
            if mine <= theirs {
                let key = (
                    mine.0.clone(),
                    mine.1.clone(),
                    theirs.0.clone(),
                    theirs.1.clone(),
                );
                let back = schema
                    .interface(&rel.target)
                    .and_then(|i| i.relationship(&rel.inverse_path));
                let back_desc = back
                    .map(|b| format!("{} order_by({})", b.cardinality, b.order_by.join(",")))
                    .unwrap_or_default();
                let desc = format!("{} order_by({})", rel.cardinality, rel.order_by.join(","));
                out.insert(key, (desc, back_desc));
            }
        }
    }
    out
}

fn map_relationships(sw: &Schema, cu: &Schema, entries: &mut Vec<MapEntry>) {
    let sw_rels = rel_pairs(sw);
    let cu_rels = rel_pairs(cu);
    for (key, val) in &sw_rels {
        let construct =
            Construct::Relationship(key.0.clone(), key.1.clone(), key.2.clone(), key.3.clone());
        let disposition = match cu_rels.get(key) {
            None => {
                // The pair may have moved: same paths, one endpoint moved up
                // or down. Look for a custom pair sharing both path names.
                let moved = cu_rels.keys().find(|k| k.1 == key.1 && k.3 == key.3);
                match moved {
                    Some(m) => {
                        let to = if m.0 != key.0 {
                            m.0.clone()
                        } else {
                            m.2.clone()
                        };
                        Disposition::Moved {
                            to,
                            details: vec![],
                        }
                    }
                    None => Disposition::Deleted,
                }
            }
            Some(v) if v == val => Disposition::Unchanged,
            Some(v) => Disposition::Modified(vec![format!(
                "ends changed: {} / {} (was {} / {})",
                v.0, v.1, val.0, val.1
            )]),
        };
        entries.push(MapEntry {
            construct,
            disposition,
        });
    }
}

fn link_keys(schema: &Schema) -> BTreeMap<(String, String, String, String, String), String> {
    let mut out = BTreeMap::new();
    for iface in &schema.interfaces {
        for (kind, links) in [
            ("part-of", &iface.part_ofs),
            ("instance-of", &iface.instance_ofs),
        ] {
            for link in links {
                if link.cardinality.is_many() {
                    out.insert(
                        (
                            kind.to_string(),
                            iface.name.clone(),
                            link.path.clone(),
                            link.target.clone(),
                            link.inverse_path.clone(),
                        ),
                        format!("{} order_by({})", link.cardinality, link.order_by.join(",")),
                    );
                }
            }
        }
    }
    out
}

fn map_links(sw: &Schema, cu: &Schema, entries: &mut Vec<MapEntry>) {
    let sw_links = link_keys(sw);
    let cu_links = link_keys(cu);
    for (key, val) in &sw_links {
        let kind = if key.0 == "part-of" {
            HierKind::PartOf
        } else {
            HierKind::InstanceOf
        };
        let construct = Construct::Link(
            kind,
            key.1.clone(),
            key.2.clone(),
            key.3.clone(),
            key.4.clone(),
        );
        let disposition = match cu_links.get(key) {
            None => {
                let moved = cu_links
                    .keys()
                    .find(|k| k.0 == key.0 && k.2 == key.2 && k.4 == key.4 && *k != key);
                match moved {
                    Some(m) => {
                        let to = if m.1 != key.1 {
                            m.1.clone()
                        } else {
                            m.3.clone()
                        };
                        Disposition::Moved {
                            to,
                            details: vec![],
                        }
                    }
                    None => Disposition::Deleted,
                }
            }
            Some(v) if v == val => Disposition::Unchanged,
            Some(v) => Disposition::Modified(vec![format!("parent end changed: {v} (was {val})")]),
        };
        entries.push(MapEntry {
            construct,
            disposition,
        });
    }
}

fn map_additions(sw: &Schema, cu: &Schema, moves: &MoveTable, entries: &mut Vec<MapEntry>) {
    for iface in &cu.interfaces {
        if sw.interface(&iface.name).is_none() {
            entries.push(MapEntry {
                construct: Construct::Type(iface.name.clone()),
                disposition: Disposition::Added,
            });
        }
        for sup in &iface.supertypes {
            let existed = sw
                .interface(&iface.name)
                .map(|i| i.supertypes.contains(sup))
                .unwrap_or(false);
            if !existed {
                entries.push(MapEntry {
                    construct: Construct::SupertypeEdge(iface.name.clone(), sup.clone()),
                    disposition: Disposition::Added,
                });
            }
        }
        let sw_iface = sw.interface(&iface.name);
        for attr in &iface.attributes {
            // Covered if some shrink wrap attribute resolves here.
            let declared = sw_iface.is_some_and(|i| i.attribute(&attr.name).is_some());
            let covered = moves
                .attrs
                .live_on(&iface.name, &attr.name, declared)
                .is_some();
            if !covered {
                entries.push(MapEntry {
                    construct: Construct::Attribute(iface.name.clone(), attr.name.clone()),
                    disposition: Disposition::Added,
                });
            }
        }
        for op in &iface.operations {
            let declared = sw_iface.is_some_and(|i| i.operation(&op.name).is_some());
            let covered = moves.ops.live_on(&iface.name, &op.name, declared).is_some();
            if !covered {
                entries.push(MapEntry {
                    construct: Construct::Operation(iface.name.clone(), op.name.clone()),
                    disposition: Disposition::Added,
                });
            }
        }
    }
    // Relationship / link additions.
    let sw_rels = rel_pairs(sw);
    for key in rel_pairs(cu).keys() {
        let covered =
            sw_rels.contains_key(key) || sw_rels.keys().any(|k| k.1 == key.1 && k.3 == key.3);
        if !covered {
            entries.push(MapEntry {
                construct: Construct::Relationship(
                    key.0.clone(),
                    key.1.clone(),
                    key.2.clone(),
                    key.3.clone(),
                ),
                disposition: Disposition::Added,
            });
        }
    }
    let sw_links = link_keys(sw);
    for key in link_keys(cu).keys() {
        let covered = sw_links.contains_key(key)
            || sw_links
                .keys()
                .any(|k| k.0 == key.0 && k.2 == key.2 && k.4 == key.4);
        if !covered {
            let kind = if key.0 == "part-of" {
                HierKind::PartOf
            } else {
                HierKind::InstanceOf
            };
            entries.push(MapEntry {
                construct: Construct::Link(
                    kind,
                    key.1.clone(),
                    key.2.clone(),
                    key.3.clone(),
                    key.4.clone(),
                ),
                disposition: Disposition::Added,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concept::ConceptKind;
    use crate::ops::ModOp;
    use sws_model::schema_to_graph;
    use sws_odl::parse_schema;

    fn workspace() -> Workspace {
        let src = r#"
        schema Dept {
            interface Person { attribute string name; }
            interface Employee : Person {
                attribute long badge;
                relationship Department works_in_a inverse Department::has;
            }
            interface Department {
                extent departments;
                attribute string dname;
                keys dname;
                relationship set<Employee> has inverse Employee::works_in_a;
            }
        }"#;
        Workspace::new(schema_to_graph(&parse_schema(src).unwrap()).unwrap())
    }

    #[test]
    fn untouched_workspace_maps_everything_unchanged() {
        let ws = workspace();
        let m = Mapping::derive(&ws);
        let s = m.summary();
        assert_eq!(s.deleted, 0);
        assert_eq!(s.added, 0);
        assert_eq!(s.moved, 0);
        assert_eq!(s.modified, 0);
        assert!((s.reuse_fraction() - 1.0).abs() < 1e-9);
        // 3 types + 1 edge + 3 attrs + 1 rel = 8
        assert_eq!(s.unchanged, 8);
    }

    #[test]
    fn moves_are_distinguished_from_delete_add() {
        let mut ws = workspace();
        ws.apply(
            ConceptKind::Generalization,
            ModOp::ModifyAttribute {
                ty: "Employee".into(),
                name: "badge".into(),
                new_ty: "Person".into(),
            },
        )
        .unwrap();
        let m = Mapping::derive(&ws);
        let badge = m
            .entries
            .iter()
            .find(|e| {
                matches!(&e.construct, Construct::Attribute(t, a) if t == "Employee" && a == "badge")
            })
            .unwrap();
        assert_eq!(
            badge.disposition,
            Disposition::Moved {
                to: "Person".into(),
                details: vec![]
            }
        );
        assert_eq!(m.summary().moved, 1);
        assert_eq!(m.summary().added, 0);
    }

    #[test]
    fn deletions_and_additions_tracked() {
        let mut ws = workspace();
        ws.apply(
            ConceptKind::WagonWheel,
            ModOp::DeleteAttribute {
                ty: "Person".into(),
                name: "name".into(),
            },
        )
        .unwrap();
        ws.apply(
            ConceptKind::WagonWheel,
            ModOp::AddTypeDefinition {
                ty: "Course".into(),
            },
        )
        .unwrap();
        ws.apply(
            ConceptKind::WagonWheel,
            ModOp::AddAttribute {
                ty: "Course".into(),
                domain: sws_odl::DomainType::String,
                size: None,
                name: "number".into(),
            },
        )
        .unwrap();
        let m = Mapping::derive(&ws);
        let s = m.summary();
        assert_eq!(s.deleted, 1);
        assert_eq!(s.added, 2);
    }

    #[test]
    fn relationship_retarget_maps_as_moved() {
        let mut ws = workspace();
        ws.apply(
            ConceptKind::Generalization,
            ModOp::ModifyRelationshipTargetType {
                ty: "Department".into(),
                path: "has".into(),
                old_target: "Employee".into(),
                new_target: "Person".into(),
            },
        )
        .unwrap();
        let m = Mapping::derive(&ws);
        let rel = m
            .entries
            .iter()
            .find(|e| matches!(&e.construct, Construct::Relationship(..)))
            .unwrap();
        assert!(matches!(&rel.disposition, Disposition::Moved { to, .. } if to == "Person"));
    }

    #[test]
    fn type_property_changes_map_as_modified() {
        let mut ws = workspace();
        ws.apply(
            ConceptKind::WagonWheel,
            ModOp::ModifyExtentName {
                ty: "Department".into(),
                old: "departments".into(),
                new: "depts".into(),
            },
        )
        .unwrap();
        let m = Mapping::derive(&ws);
        let dept = m
            .entries
            .iter()
            .find(|e| matches!(&e.construct, Construct::Type(t) if t == "Department"))
            .unwrap();
        assert!(matches!(&dept.disposition, Disposition::Modified(_)));
    }

    fn attribute<'a>(m: &'a Mapping, ty: &str, name: &str) -> &'a Disposition {
        &m.entries
            .iter()
            .find(|e| matches!(&e.construct, Construct::Attribute(t, a) if t == ty && a == name))
            .expect("a shrink wrap attribute")
            .disposition
    }

    /// Derive the mapping with the whole history in the window, then again
    /// with all of it retired into the move table: the two must agree.
    fn derive_both_ways(ws: &mut Workspace) -> Mapping {
        let windowed = Mapping::derive(ws);
        ws.retire(ws.total_ops());
        assert!(ws.log().is_empty());
        assert_eq!(Mapping::derive(ws), windowed);
        windowed
    }

    #[test]
    fn a_move_never_credits_a_deleted_member() {
        let src = r#"
        interface R { attribute long r; }
        interface A : R { attribute long x; }
        interface B : R { attribute long x; }"#;
        let mut ws = Workspace::new(schema_to_graph(&parse_schema(src).unwrap()).unwrap());
        let delete = ModOp::DeleteAttribute {
            ty: "A".into(),
            name: "x".into(),
        };
        ws.apply(ConceptKind::WagonWheel, delete).unwrap();
        for (ty, new_ty) in [("B", "R"), ("R", "A"), ("A", "R")] {
            let op = ModOp::ModifyAttribute {
                ty: ty.into(),
                name: "x".into(),
                new_ty: new_ty.into(),
            };
            ws.apply(ConceptKind::Generalization, op).unwrap();
        }
        let m = derive_both_ways(&mut ws);
        assert_eq!(*attribute(&m, "A", "x"), Disposition::Deleted);
        assert_eq!(
            *attribute(&m, "B", "x"),
            Disposition::Moved {
                to: "R".into(),
                details: vec![]
            }
        );
        assert_eq!(m.summary().added, 0);
    }

    #[test]
    fn re_adding_a_deleted_member_revives_it() {
        let mut ws = workspace();
        let ops = [
            ModOp::DeleteAttribute {
                ty: "Employee".into(),
                name: "badge".into(),
            },
            ModOp::AddAttribute {
                ty: "Employee".into(),
                domain: sws_odl::DomainType::Long,
                size: None,
                name: "badge".into(),
            },
        ];
        ws.apply_script(ConceptKind::WagonWheel, ops).unwrap();
        let m = derive_both_ways(&mut ws);
        assert_eq!(*attribute(&m, "Employee", "badge"), Disposition::Unchanged);
        assert_eq!(m.summary().added, 0);
        // A type deletion retires its members; re-adding the type alone
        // does not bring them back.
        let ops = [
            ModOp::DeleteTypeDefinition {
                ty: "Employee".into(),
            },
            ModOp::AddTypeDefinition {
                ty: "Employee".into(),
            },
        ];
        ws.apply_script(ConceptKind::WagonWheel, ops).unwrap();
        let m = derive_both_ways(&mut ws);
        assert_eq!(*attribute(&m, "Employee", "badge"), Disposition::Deleted);
    }

    #[test]
    fn render_contains_summary() {
        let ws = workspace();
        let text = Mapping::derive(&ws).render();
        assert!(text.contains("summary:"));
        assert!(text.contains("reuse 100.0%"));
    }
}
