//! The working schema's canonical ODL, kept current one interface at a
//! time and published as shared blocks.
//!
//! [`print_schema`](sws_odl::print_schema) of
//! [`graph_to_schema`](sws_model::graph_to_schema) renders every type on
//! every call. An op, though, changes the printed definition of only the
//! few types its [`UndoPatch`] names ([`UndoPatch::touched_types`]): a
//! wagon-wheel edit touches its focal type and the far ends of the
//! members it changes. [`OdlBlocks`] keeps one printed block per live
//! type in name order, marks the touched names stale as ops are applied
//! and undone, and on the next read re-renders just those — the shape
//! [`ConsistencyState`] has for findings.
//!
//! A read returns an [`OdlSnapshot`]: the schema name and the blocks
//! themselves, shared by reference count. Building one costs a refcount
//! bump per type and copies no text; a reader that needs the whole text
//! assembles it with [`OdlSnapshot::text`], on its own thread.
//!
//! [`ConsistencyState`]: crate::consistency::ConsistencyState

use std::collections::BTreeMap;
use std::sync::Arc;
use sws_model::{type_to_interface, SchemaGraph, Symbol, TypeId, UndoPatch};
use sws_odl::{assemble_schema, print_interface_block};

/// One published state of a schema's ODL: its name and its printed
/// interface blocks ([`print_interface_block`]) in name order. Cloning it
/// bumps two refcounts.
#[derive(Debug, Clone)]
pub struct OdlSnapshot {
    name: Arc<str>,
    blocks: Arc<[Arc<str>]>,
}

impl OdlSnapshot {
    /// The whole ODL text, byte-identical to
    /// `print_schema(&graph_to_schema(g))` of the graph it was read from.
    /// Assembled on every call, into one allocation sized up front.
    pub fn text(&self) -> String {
        let bytes: usize = self.blocks.iter().map(|block| block.len() + 1).sum();
        let mut out = String::with_capacity(bytes + self.name.len() + 16);
        assemble_schema(&mut out, &self.name, self.blocks.iter().map(|b| &**b));
        out
    }
}

/// Per-interface ODL blocks of one graph. See the module docs.
#[derive(Debug, Clone)]
pub struct OdlBlocks {
    /// The printed block of every live type, keyed — and so ordered, as
    /// `graph_to_schema` orders interfaces — by name.
    blocks: BTreeMap<&'static str, Arc<str>>,
    /// Names whose blocks may be out of date: re-rendered, or dropped if
    /// no live type has the name any more, at the next read.
    stale: Vec<Symbol>,
    /// Nothing is rendered yet (a fresh or resumed workspace): the next
    /// read renders every type. Until then recording is a no-op, so a
    /// replay pays nothing here.
    full_pending: bool,
    /// The snapshot built by the last read, while nothing changed since.
    snapshot: Option<OdlSnapshot>,
}

impl Default for OdlBlocks {
    fn default() -> Self {
        OdlBlocks::new()
    }
}

impl OdlBlocks {
    /// Nothing rendered yet: the first [`snapshot`](Self::snapshot)
    /// renders all.
    pub fn new() -> Self {
        OdlBlocks {
            blocks: BTreeMap::new(),
            stale: Vec::new(),
            full_pending: true,
            snapshot: None,
        }
    }

    /// Note the types `patch` touched, read against `g` (the graph the
    /// patch was just committed on, or is about to be reverted on).
    pub fn record(&mut self, patch: &UndoPatch, g: &SchemaGraph) {
        if self.full_pending {
            return;
        }
        self.stale.extend(patch.touched_types(g));
        self.snapshot = None;
    }

    /// The ODL of `g` as shared blocks: re-render the stale blocks, then
    /// collect the name-ordered block list. Free when nothing changed
    /// since the last read.
    pub fn snapshot(&mut self, g: &SchemaGraph) -> OdlSnapshot {
        if let Some(snapshot) = &self.snapshot {
            return snapshot.clone();
        }
        let mut sp = sws_trace::span!("core.odl.sync", full = self.full_pending);
        let rendered = if self.full_pending {
            self.blocks.clear();
            self.stale.clear();
            for (id, node) in g.types() {
                self.blocks.insert(node.name.as_str(), render(g, id));
            }
            self.full_pending = false;
            self.blocks.len()
        } else {
            self.stale.sort_unstable_by_key(|name| name.index());
            self.stale.dedup();
            let mut rendered = 0;
            for name in self.stale.drain(..) {
                match g.type_id_sym(name) {
                    Some(id) => {
                        self.blocks.insert(name.as_str(), render(g, id));
                        rendered += 1;
                    }
                    None => {
                        self.blocks.remove(name.as_str());
                    }
                }
            }
            rendered
        };
        let snapshot = OdlSnapshot {
            name: Arc::from(g.name()),
            blocks: self.blocks.values().cloned().collect(),
        };
        self.snapshot = Some(snapshot.clone());
        sp.record("rendered", rendered);
        sp.record("blocks", self.blocks.len());
        snapshot
    }
}

fn render(g: &SchemaGraph, id: TypeId) -> Arc<str> {
    Arc::from(print_interface_block(&type_to_interface(g, id)))
}
