//! The working schema's canonical ODL text, kept current one interface at
//! a time.
//!
//! [`print_schema`](sws_odl::print_schema) of
//! [`graph_to_schema`](sws_model::graph_to_schema) renders every type on
//! every call. An op, though, changes the printed definition of only the
//! few types its [`UndoPatch`] names ([`UndoPatch::touched_types`]): a
//! wagon-wheel edit touches its focal type and the far ends of the
//! members it changes. [`OdlBlocks`] keeps one printed block per live
//! type in name order, marks the touched names stale as ops are applied
//! and undone, and on the next read re-renders just those before
//! reassembling the text — the shape [`ConsistencyState`] has for
//! findings.
//!
//! [`ConsistencyState`]: crate::consistency::ConsistencyState

use std::collections::BTreeMap;
use std::sync::Arc;
use sws_model::{type_to_interface, SchemaGraph, Symbol, TypeId, UndoPatch};
use sws_odl::{assemble_schema, print_interface_block};

/// Per-interface ODL blocks of one graph. See the module docs.
#[derive(Debug, Clone)]
pub struct OdlBlocks {
    /// The printed block of every live type, keyed — and so ordered, as
    /// `graph_to_schema` orders interfaces — by name.
    blocks: BTreeMap<&'static str, String>,
    /// Names whose blocks may be out of date: re-rendered, or dropped if
    /// no live type has the name any more, at the next read.
    stale: Vec<Symbol>,
    /// Nothing is rendered yet (a fresh or resumed workspace): the next
    /// read renders every type. Until then recording is a no-op, so a
    /// replay pays nothing here.
    full_pending: bool,
    /// The text assembled by the last read, while nothing changed since.
    text: Option<Arc<str>>,
    /// Assembly buffer, reused from read to read.
    buf: String,
}

impl Default for OdlBlocks {
    fn default() -> Self {
        OdlBlocks::new()
    }
}

impl OdlBlocks {
    /// Nothing rendered yet: the first [`text`](Self::text) renders all.
    pub fn new() -> Self {
        OdlBlocks {
            blocks: BTreeMap::new(),
            stale: Vec::new(),
            full_pending: true,
            text: None,
            buf: String::new(),
        }
    }

    /// Note the types `patch` touched, read against `g` (the graph the
    /// patch was just committed on, or is about to be reverted on).
    pub fn record(&mut self, patch: &UndoPatch, g: &SchemaGraph) {
        if self.full_pending {
            return;
        }
        self.stale.extend(patch.touched_types(g));
        self.text = None;
    }

    /// The ODL text of `g`, byte-identical to
    /// `print_schema(&graph_to_schema(g))`: re-render the stale blocks,
    /// then reassemble. Free when nothing changed since the last read.
    pub fn text(&mut self, g: &SchemaGraph) -> Arc<str> {
        if let Some(text) = &self.text {
            return Arc::clone(text);
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
        assemble_schema(
            &mut self.buf,
            g.name(),
            self.blocks.values().map(String::as_str),
        );
        let text: Arc<str> = Arc::from(self.buf.as_str());
        self.text = Some(Arc::clone(&text));
        sp.record("rendered", rendered);
        sp.record("bytes", text.len());
        text
    }
}

fn render(g: &SchemaGraph, id: TypeId) -> String {
    print_interface_block(&type_to_interface(g, id))
}
