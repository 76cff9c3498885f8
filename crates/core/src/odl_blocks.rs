//! The working schema's canonical ODL, kept current one interface at a
//! time and published as shared blocks.
//!
//! [`print_schema`](sws_odl::print_schema) of
//! [`graph_to_schema`](sws_model::graph_to_schema) renders every type on
//! every call. An op, though, changes the printed definition of only the
//! few types its [`UndoPatch`] names ([`UndoPatch::touched_types`]): a
//! wagon-wheel edit touches its focal type and the far ends of the
//! members it changes. [`OdlBlocks`] keeps one printed block per live
//! type, marks the touched names stale as ops are applied
//! and undone, and on the next read re-renders just those — the shape
//! [`ConsistencyState`] has for findings.
//!
//! The blocks live in a copy-on-write [`ChunkedVec`] keyed by type slot,
//! the storage the graph's own arenas use, next to a shared list of the
//! live types in name order. A read returns an [`OdlSnapshot`]: the schema
//! name, the block table and the order, shared by reference count. Taking
//! one copies a pointer per 32-slot chunk and no text; the writer's next
//! re-render copies only the chunk it lands in, and the order is copied
//! only when a name appears or disappears. A reader that needs the whole text assembles it with
//! [`OdlSnapshot::text`], on its own thread.
//!
//! Each block is JSON-escaped once, when it is rendered, and kept beside
//! its text. Escaping works byte by byte, so the escape of the whole text
//! is the escapes of its pieces in order ([`OdlSnapshot::json_pieces`]):
//! an `export` response copies the stored escapes into its line instead
//! of escaping the whole schema again.
//!
//! [`ConsistencyState`]: crate::consistency::ConsistencyState
//! [`UndoPatch`]: sws_model::UndoPatch
//! [`UndoPatch::touched_types`]: sws_model::UndoPatch::touched_types

use std::sync::Arc;
use sws_model::{type_to_interface, ChunkedVec, SchemaGraph, Symbol, TypeId};
use sws_odl::{assemble_schema, print_interface_block};
use sws_trace::export::escape_json;

/// Live types by name, in name order — the order `graph_to_schema` gives
/// interfaces.
type NameOrder = Arc<Vec<(&'static str, TypeId)>>;

/// A piece of printed ODL and its escape for a JSON string literal
/// ([`escape_json`]), made together.
#[derive(Debug, Clone)]
struct Block {
    text: Arc<str>,
    json: Arc<str>,
}

impl Block {
    fn new(text: &str) -> Self {
        Block {
            text: Arc::from(text),
            json: Arc::from(escape_json(text)),
        }
    }
}

/// One published state of a schema's ODL: its name, its printed interface
/// blocks ([`print_interface_block`]) with their JSON escapes by type slot,
/// and the live types in name order. Cloning it bumps a refcount per block
/// chunk.
#[derive(Debug, Clone)]
pub struct OdlSnapshot {
    name: Block,
    blocks: ChunkedVec<Option<Block>>,
    order: NameOrder,
}

impl OdlSnapshot {
    /// The blocks in name order.
    fn blocks(&self) -> impl Iterator<Item = &Block> {
        self.order.iter().map(|&(_, id)| {
            self.blocks[id.index()]
                .as_ref()
                .expect("every live type has a block")
        })
    }

    /// The whole ODL text, byte-identical to
    /// `print_schema(&graph_to_schema(g))` of the graph it was read from.
    /// Assembled on every call, into one allocation sized up front.
    pub fn text(&self) -> String {
        let bytes: usize = self.blocks().map(|block| block.text.len() + 1).sum();
        let mut out = String::with_capacity(bytes + self.name.text.len() + 16);
        assemble_schema(
            &mut out,
            &self.name.text,
            self.blocks().map(|block| &*block.text),
        );
        out
    }

    /// [`text`](Self::text) escaped for a JSON string literal, in pieces
    /// whose concatenation is `escape_json(&self.text())`: the stored
    /// escapes of the name and the blocks, between the escaped frame
    /// [`assemble_schema`] puts around them. Walking them copies no text.
    pub fn json_pieces(&self) -> impl Iterator<Item = &str> {
        let mut blocks = self.blocks().map(|block| &*block.json);
        let first = blocks.next();
        ["schema ", &*self.name.json, " {\\n"]
            .into_iter()
            .chain(first)
            .chain(blocks.flat_map(|json| ["\\n", json]))
            .chain(["}\\n"])
    }

    /// The length of `escape_json(&self.text())`, summed over
    /// [`json_pieces`](Self::json_pieces).
    pub fn json_len(&self) -> usize {
        self.json_pieces().map(str::len).sum()
    }
}

/// Two snapshots are equal when they hold the same name and the same
/// blocks in the same order, and so the same text.
impl PartialEq for OdlSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.name.text == other.name.text
            && self.order.len() == other.order.len()
            && self
                .blocks()
                .zip(other.blocks())
                .all(|(a, b)| a.text == b.text)
    }
}

impl Eq for OdlSnapshot {}

/// Per-interface ODL blocks of one graph. See the module docs.
#[derive(Debug, Clone)]
pub struct OdlBlocks {
    name: Block,
    /// The printed block of every live type at its slot; `None` at dead
    /// slots.
    blocks: ChunkedVec<Option<Block>>,
    /// Every live type's name and slot, in name order.
    order: NameOrder,
    /// Names whose blocks may be out of date: re-rendered, or dropped if
    /// no live type has the name any more, at the next read.
    stale: Vec<Symbol>,
    /// Nothing is rendered yet (a fresh or resumed workspace): the next
    /// read renders every type. Until then recording is a no-op.
    full_pending: bool,
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
            name: Block::new(""),
            blocks: ChunkedVec::new(),
            order: Arc::default(),
            stale: Vec::new(),
            full_pending: true,
        }
    }

    /// Note the names of the types an applied or undone patch touched
    /// ([`UndoPatch::touched_types`](sws_model::UndoPatch::touched_types)).
    pub fn record(&mut self, touched: &[Symbol]) {
        if !self.full_pending {
            self.stale.extend_from_slice(touched);
        }
    }

    /// The ODL of `g` as shared blocks: re-render the stale blocks, then
    /// share the block table and the name order.
    pub fn snapshot(&mut self, g: &SchemaGraph) -> OdlSnapshot {
        if self.full_pending || !self.stale.is_empty() {
            self.sync(g);
        }
        OdlSnapshot {
            name: self.name.clone(),
            blocks: self.blocks.clone(),
            order: Arc::clone(&self.order),
        }
    }

    fn sync(&mut self, g: &SchemaGraph) {
        let mut sp = sws_trace::span!("core.odl.sync", full = self.full_pending);
        let rendered = if self.full_pending {
            let mut blocks = ChunkedVec::new();
            let mut order = Vec::with_capacity(g.type_count());
            for (id, node) in g.types() {
                put(&mut blocks, id, render(g, id));
                order.push((node.name.as_str(), id));
            }
            order.sort_unstable_by_key(|&(name, _)| name);
            self.name = Block::new(g.name());
            self.blocks = blocks;
            self.order = Arc::new(order);
            self.stale.clear();
            self.full_pending = false;
            self.order.len()
        } else {
            self.stale.sort_unstable_by_key(|name| name.index());
            self.stale.dedup();
            self.blocks.truncate(g.type_slots());
            // Names that left, or now live at another slot, go first: a
            // slot an undone add freed and a later add reused must not be
            // cleared after its new type is rendered into it.
            for &name in &self.stale {
                let Ok(at) = position(&self.order, name) else {
                    continue;
                };
                let old = self.order[at].1;
                if g.type_id_sym(name) != Some(old) {
                    Arc::make_mut(&mut self.order).remove(at);
                    if let Some(slot) = self.blocks.get_mut(old.index()) {
                        *slot = None;
                    }
                }
            }
            let mut rendered = 0;
            for name in self.stale.drain(..) {
                let Some(id) = g.type_id_sym(name) else {
                    continue;
                };
                put(&mut self.blocks, id, render(g, id));
                if let Err(at) = position(&self.order, name) {
                    Arc::make_mut(&mut self.order).insert(at, (name.as_str(), id));
                }
                rendered += 1;
            }
            rendered
        };
        sp.record("rendered", rendered);
        sp.record("blocks", self.order.len());
    }
}

/// Store `block` at `id`'s slot, growing the table with empty slots.
fn put(blocks: &mut ChunkedVec<Option<Block>>, id: TypeId, block: Block) {
    while blocks.len() <= id.index() {
        blocks.push(None);
    }
    blocks[id.index()] = Some(block);
}

/// Where `name` is, or would go, in `order`.
fn position(order: &[(&'static str, TypeId)], name: Symbol) -> Result<usize, usize> {
    let name = name.as_str();
    order.binary_search_by_key(&name, |&(n, _)| n)
}

fn render(g: &SchemaGraph, id: TypeId) -> Block {
    Block::new(&print_interface_block(&type_to_interface(g, id)))
}
