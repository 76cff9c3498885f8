//! The schema graph: typed arenas plus invariant-preserving mutators.
//!
//! Arena slots are tombstoned on removal and never reused, so IDs remain
//! stable across a whole design session — op logs, mappings, and
//! concept-schema views can reference them safely.
//!
//! Mutators that remove things return a [`CascadeReport`] describing every
//! secondary change they performed (relationships dropped with a type, key
//! entries pruned with an attribute, …). `sws-core`'s propagation layer
//! turns these reports into the designer-facing *impact reports* of the
//! paper (activity 9).

use crate::arena::ChunkedVec;
use crate::error::ModelError;
use crate::ids::{AttrId, LinkId, OpId, RelId, TypeId};
use crate::intern::{SymKey, Symbol};
use std::collections::HashMap;
use std::sync::Arc;
use sws_odl::{Cardinality, CollectionKind, DomainType, HierKind, Key, Operation, Param};

/// One object type (interface definition).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeNode {
    /// Type name (interned), unique among live types.
    pub name: Symbol,
    /// Abstract types have no direct instances (used for synthesized roots).
    pub is_abstract: bool,
    /// Extent name, if declared; unique among live types.
    pub extent: Option<Symbol>,
    /// Key list (interned attribute names).
    pub keys: Vec<SymKey>,
    /// Direct supertypes.
    pub supertypes: Vec<TypeId>,
    /// Direct subtypes (derived; maintained by the graph).
    pub subtypes: Vec<TypeId>,
    /// Attributes owned by this type.
    pub attrs: Vec<AttrId>,
    /// Relationship ends owned by this type, as `(relationship, end index)`.
    pub rel_ends: Vec<(RelId, u8)>,
    /// Operations owned by this type.
    pub ops: Vec<OpId>,
    /// Hierarchy links in which this type is the parent (whole / generic).
    pub parent_links: Vec<LinkId>,
    /// Hierarchy links in which this type is the child (part / instance).
    pub child_links: Vec<LinkId>,
    pub(crate) alive: bool,
}

impl TypeNode {
    /// A new, live, empty type node. States that build nodes outside a
    /// graph (the static analyzer's overlay) start from this.
    pub fn fresh(name: Symbol) -> TypeNode {
        TypeNode {
            name,
            is_abstract: false,
            extent: None,
            keys: Vec::new(),
            supertypes: Vec::new(),
            subtypes: Vec::new(),
            attrs: Vec::new(),
            rel_ends: Vec::new(),
            ops: Vec::new(),
            parent_links: Vec::new(),
            child_links: Vec::new(),
            alive: true,
        }
    }
}

/// An attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrNode {
    /// Owning type.
    pub owner: TypeId,
    /// Attribute name (interned).
    pub name: Symbol,
    /// Domain type.
    pub ty: DomainType,
    /// Optional size constraint.
    pub size: Option<u32>,
    pub(crate) alive: bool,
}

impl AttrNode {
    /// A new, live attribute node (see [`TypeNode::fresh`]).
    pub fn fresh(owner: TypeId, name: Symbol, ty: DomainType, size: Option<u32>) -> AttrNode {
        AttrNode {
            owner,
            name,
            ty,
            size,
            alive: true,
        }
    }
}

/// One end of a relationship.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelEnd {
    /// The type owning this end (the *target type* of the opposite end).
    pub owner: TypeId,
    /// Traversal path name (interned).
    pub path: Symbol,
    /// One-way cardinality of this end.
    pub cardinality: Cardinality,
    /// Order-by attribute list (attributes of the opposite end's owner).
    pub order_by: Vec<Symbol>,
}

/// A relationship: two ends sharing one ID.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelNode {
    /// The two ends. `ends[0]` is the side that was stated first.
    pub ends: [RelEnd; 2],
    pub(crate) alive: bool,
}

impl RelNode {
    /// A new, live relationship node (see [`TypeNode::fresh`]).
    pub fn fresh(ends: [RelEnd; 2]) -> RelNode {
        RelNode { ends, alive: true }
    }

    /// The end at `idx` (0 or 1).
    pub fn end(&self, idx: u8) -> &RelEnd {
        &self.ends[idx as usize]
    }

    /// The end opposite `idx`.
    pub fn other(&self, idx: u8) -> &RelEnd {
        &self.ends[1 - idx as usize]
    }
}

/// An operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpNode {
    /// Owning type.
    pub owner: TypeId,
    /// The operation name, interned (denormalized from `op.name` so the
    /// hot member-name compares never touch the `String`).
    pub name: Symbol,
    /// The full signature (name, return type, args, raises).
    pub op: Operation,
    pub(crate) alive: bool,
}

impl OpNode {
    /// A new, live operation node (see [`TypeNode::fresh`]). The interned
    /// name is derived from the signature, like [`SchemaGraph::add_operation`]
    /// does.
    pub fn fresh(owner: TypeId, op: Operation) -> OpNode {
        OpNode {
            owner,
            name: Symbol::intern(&op.name),
            op,
            alive: true,
        }
    }
}

/// A part-of or instance-of link. The parent side (whole / generic entity)
/// is collection-valued; the child side (component / instance entity) is
/// single-valued — the implicit 1:N cardinality of the paper's extensions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkNode {
    /// Part-of or instance-of.
    pub kind: HierKind,
    /// Parent (whole / generic) type.
    pub parent: TypeId,
    /// Traversal path on the parent side (e.g. `walls`), interned.
    pub parent_path: Symbol,
    /// Collection kind of the parent side.
    pub collection: CollectionKind,
    /// Order-by list for the parent side (attributes of the child type).
    pub order_by: Vec<Symbol>,
    /// Child (component / instance) type.
    pub child: TypeId,
    /// Traversal path on the child side (e.g. `wall_of`), interned.
    pub child_path: Symbol,
    pub(crate) alive: bool,
}

impl LinkNode {
    /// A new, live link node (see [`TypeNode::fresh`]).
    pub fn fresh(
        kind: HierKind,
        parent: TypeId,
        parent_path: Symbol,
        collection: CollectionKind,
        order_by: Vec<Symbol>,
        child: TypeId,
        child_path: Symbol,
    ) -> LinkNode {
        LinkNode {
            kind,
            parent,
            parent_path,
            collection,
            order_by,
            child,
            child_path,
            alive: true,
        }
    }
}

/// Which side of a [`LinkNode`] a lookup landed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkSide {
    /// The parent (whole / generic) side.
    Parent,
    /// The child (component / instance) side.
    Child,
}

/// What to do with the subtypes of a removed type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RemoveTypeMode {
    /// Re-wire each subtype to the removed type's supertypes, preserving
    /// inheritance paths (our default propagation rule).
    #[default]
    RewireSubtypes,
    /// Detach subtypes, leaving them rootless.
    DetachSubtypes,
}

/// Every secondary change performed by a cascading removal. All entries use
/// names (not IDs) so they stay meaningful after the referents die; the
/// names are interned symbols, so recording a cascade never copies strings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CascadeReport {
    /// Attributes removed: `(type, attribute)`.
    pub removed_attrs: Vec<(Symbol, Symbol)>,
    /// Operations removed: `(type, operation)`.
    pub removed_ops: Vec<(Symbol, Symbol)>,
    /// Relationships removed: `(type_a, path_a, type_b, path_b)`.
    pub removed_rels: Vec<(Symbol, Symbol, Symbol, Symbol)>,
    /// Hierarchy links removed: `(kind, parent, parent_path, child, child_path)`.
    pub removed_links: Vec<(HierKind, Symbol, Symbol, Symbol, Symbol)>,
    /// Supertype edges removed: `(subtype, supertype)`.
    pub removed_supertype_edges: Vec<(Symbol, Symbol)>,
    /// Subtypes re-wired to a new supertype: `(subtype, new_supertype)`.
    pub rewired_subtypes: Vec<(Symbol, Symbol)>,
    /// Subtypes left detached: type names.
    pub detached_subtypes: Vec<Symbol>,
    /// Keys pruned because an attribute vanished: `(type, rendered key)`.
    pub keys_pruned: Vec<(Symbol, String)>,
    /// Order-by entries pruned: `(type, path, attribute)`.
    pub order_by_pruned: Vec<(Symbol, Symbol, Symbol)>,
}

impl CascadeReport {
    /// True if nothing cascaded.
    pub fn is_empty(&self) -> bool {
        self.removed_attrs.is_empty()
            && self.removed_ops.is_empty()
            && self.removed_rels.is_empty()
            && self.removed_links.is_empty()
            && self.removed_supertype_edges.is_empty()
            && self.rewired_subtypes.is_empty()
            && self.detached_subtypes.is_empty()
            && self.keys_pruned.is_empty()
            && self.order_by_pruned.is_empty()
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: CascadeReport) {
        self.removed_attrs.extend(other.removed_attrs);
        self.removed_ops.extend(other.removed_ops);
        self.removed_rels.extend(other.removed_rels);
        self.removed_links.extend(other.removed_links);
        self.removed_supertype_edges
            .extend(other.removed_supertype_edges);
        self.rewired_subtypes.extend(other.rewired_subtypes);
        self.detached_subtypes.extend(other.detached_subtypes);
        self.keys_pruned.extend(other.keys_pruned);
        self.order_by_pruned.extend(other.order_by_pruned);
    }
}

/// Live/dead slot counts per arena; see [`SchemaGraph::arena_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    pub types_live: usize,
    pub types_dead: usize,
    pub attrs_live: usize,
    pub attrs_dead: usize,
    pub rels_live: usize,
    pub rels_dead: usize,
    pub ops_live: usize,
    pub ops_dead: usize,
    pub links_live: usize,
    pub links_dead: usize,
}

/// A recorded set of inverse mutations, sufficient to revert a graph to the
/// state it had when [`SchemaGraph::begin_undo`] was called.
///
/// The journal uses *first-touch before-images*: the first time a mutator
/// touches an arena slot while a journal is active, the slot's previous
/// contents are saved. Slots created after `begin_undo` need no image — the
/// arenas are append-only, so truncating back to the recorded base lengths
/// removes them. Because arena slots are tombstoned and never reused,
/// reverting a patch restores the *exact* previous arena state, IDs included.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UndoPatch {
    base_types: usize,
    base_attrs: usize,
    base_rels: usize,
    base_ops: usize,
    base_links: usize,
    types: Vec<(usize, TypeNode)>,
    attrs: Vec<(usize, AttrNode)>,
    rels: Vec<(usize, RelNode)>,
    ops: Vec<(usize, OpNode)>,
    links: Vec<(usize, LinkNode)>,
    by_name: Vec<(Symbol, Option<TypeId>)>,
}

impl UndoPatch {
    /// Number of before-images recorded (a rough size measure; does not
    /// count slots created after `begin_undo`, which revert by truncation).
    pub fn touched(&self) -> usize {
        self.types.len()
            + self.attrs.len()
            + self.rels.len()
            + self.ops.len()
            + self.links.len()
            + self.by_name.len()
    }

    /// Names of every type whose rendered definition this patch can
    /// change, read against `g` — the graph the patch was committed on,
    /// either right after the mutation or right before [`SchemaGraph::revert`]
    /// (the two are the same state).
    ///
    /// That is the type of every type before-image and every created type
    /// slot, plus the owners of every attribute, operation, relationship
    /// end and link end the patch touched or created, both as the
    /// before-image has them and as `g` has them now. A type's slot never
    /// changes its name, so the names are exact. Sorted by symbol id and
    /// deduplicated.
    pub fn touched_types(&self, g: &SchemaGraph) -> Vec<Symbol> {
        let mut owners: Vec<TypeId> = Vec::new();
        let mut names: Vec<Symbol> = self.by_name.iter().map(|(name, _)| *name).collect();
        names.extend(self.types.iter().map(|(_, node)| node.name));
        names.extend(g.types.iter().skip(self.base_types).map(|n| n.name));
        for (i, old) in &self.attrs {
            owners.push(old.owner);
            owners.extend(g.attrs.get(*i).map(|n| n.owner));
        }
        owners.extend(g.attrs.iter().skip(self.base_attrs).map(|n| n.owner));
        for (i, old) in &self.ops {
            owners.push(old.owner);
            owners.extend(g.ops.get(*i).map(|n| n.owner));
        }
        owners.extend(g.ops.iter().skip(self.base_ops).map(|n| n.owner));
        let rel_owners = |n: &RelNode| [n.ends[0].owner, n.ends[1].owner];
        for (i, old) in &self.rels {
            owners.extend(rel_owners(old));
            owners.extend(g.rels.get(*i).into_iter().flat_map(rel_owners));
        }
        owners.extend(g.rels.iter().skip(self.base_rels).flat_map(rel_owners));
        let link_owners = |n: &LinkNode| [n.parent, n.child];
        for (i, old) in &self.links {
            owners.extend(link_owners(old));
            owners.extend(g.links.get(*i).into_iter().flat_map(link_owners));
        }
        owners.extend(g.links.iter().skip(self.base_links).flat_map(link_owners));
        names.extend(
            owners
                .iter()
                .filter_map(|t| g.types.get(t.index()).map(|n| n.name)),
        );
        names.sort_unstable_by_key(|s| s.index());
        names.dedup();
        names
    }

    /// Could reverting this patch (equivalently: could the mutation it
    /// journals) change the concept-schema decomposition's *shape* — the
    /// set of live types, generalization edges, or hierarchy links? Read
    /// against `g` as in [`Self::touched_types`]. False means every
    /// supertype list, subtype list, link list and `alive` flag is as it
    /// was, so a concept count taken before still holds.
    pub fn changes_hierarchy(&self, g: &SchemaGraph) -> bool {
        g.types.len() != self.base_types
            || g.links.len() != self.base_links
            || self.types.iter().any(|(i, old)| {
                g.types.get(*i).is_none_or(|now| {
                    now.alive != old.alive
                        || now.supertypes != old.supertypes
                        || now.subtypes != old.subtypes
                        || now.parent_links != old.parent_links
                        || now.child_links != old.child_links
                })
            })
    }
}

/// The schema graph. See the module docs.
///
/// Cloning is cheap: the arenas are copy-on-write chunks and the name
/// index is shared until the next type is added or removed, so a clone
/// costs one refcount bump per chunk (see `arena.rs`) and the first write
/// after it copies only the chunks it lands in.
#[derive(Debug, Clone)]
pub struct SchemaGraph {
    name: String,
    types: ChunkedVec<TypeNode>,
    attrs: ChunkedVec<AttrNode>,
    rels: ChunkedVec<RelNode>,
    ops: ChunkedVec<OpNode>,
    links: ChunkedVec<LinkNode>,
    by_name: Arc<HashMap<Symbol, TypeId>>,
    /// Count of live (non-tombstoned) type slots, maintained incrementally
    /// so `type_count` is O(1) on the checking hot paths.
    live_types: usize,
    journal: Option<UndoPatch>,
}

impl SchemaGraph {
    /// Create an empty graph with the given schema name.
    pub fn new(name: impl Into<String>) -> Self {
        SchemaGraph {
            name: name.into(),
            types: ChunkedVec::new(),
            attrs: ChunkedVec::new(),
            rels: ChunkedVec::new(),
            ops: ChunkedVec::new(),
            links: ChunkedVec::new(),
            by_name: Arc::default(),
            live_types: 0,
            journal: None,
        }
    }

    /// The schema name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The name index, unshared first if a clone still holds it.
    fn names_mut(&mut self) -> &mut HashMap<Symbol, TypeId> {
        Arc::make_mut(&mut self.by_name)
    }

    // ------------------------------------------------------------------
    // Undo journal
    // ------------------------------------------------------------------

    /// Start recording inverse mutations. Every subsequent mutator call logs
    /// first-touch before-images until [`Self::commit_undo`] or
    /// [`Self::rollback_undo`]. Journals do not nest.
    pub fn begin_undo(&mut self) {
        debug_assert!(
            self.journal.is_none(),
            "nested undo journals are not supported"
        );
        self.journal = Some(UndoPatch {
            base_types: self.types.len(),
            base_attrs: self.attrs.len(),
            base_rels: self.rels.len(),
            base_ops: self.ops.len(),
            base_links: self.links.len(),
            ..UndoPatch::default()
        });
    }

    /// Stop recording and return the patch that reverts everything mutated
    /// since [`Self::begin_undo`]. The mutations themselves are kept.
    pub fn commit_undo(&mut self) -> UndoPatch {
        self.journal.take().expect("commit_undo without begin_undo")
    }

    /// Abort the journal: revert every mutation made since
    /// [`Self::begin_undo`] and stop recording.
    pub fn rollback_undo(&mut self) {
        let patch = self
            .journal
            .take()
            .expect("rollback_undo without begin_undo");
        self.revert(&patch);
    }

    /// Apply a committed [`UndoPatch`], reverting the graph to the state it
    /// had at the matching `begin_undo`. Patches must be reverted in strict
    /// reverse order of the mutations they journal.
    pub fn revert(&mut self, patch: &UndoPatch) {
        debug_assert!(self.journal.is_none(), "revert during an active journal");
        // The live-type count moves only where the patch reaches: slots
        // created after begin_undo (dropped below) and before-images whose
        // `alive` flag differs from the slot they restore.
        let mut live = self.live_types;
        live -= (patch.base_types..self.types.len())
            .filter(|&i| self.types[i].alive)
            .count();
        // Slots created after begin_undo are at the arena tails: drop them.
        self.types.truncate(patch.base_types);
        self.attrs.truncate(patch.base_attrs);
        self.rels.truncate(patch.base_rels);
        self.ops.truncate(patch.base_ops);
        self.links.truncate(patch.base_links);
        // Restore before-images (all indices are below the base lengths).
        for (i, node) in &patch.types {
            match (self.types[*i].alive, node.alive) {
                (false, true) => live += 1,
                (true, false) => live -= 1,
                _ => {}
            }
            self.types[*i] = node.clone();
        }
        for (i, node) in &patch.attrs {
            self.attrs[*i] = node.clone();
        }
        for (i, node) in &patch.rels {
            self.rels[*i] = node.clone();
        }
        for (i, node) in &patch.ops {
            self.ops[*i] = node.clone();
        }
        for (i, node) in &patch.links {
            self.links[*i] = node.clone();
        }
        if !patch.by_name.is_empty() {
            let names = self.names_mut();
            for (name, prev) in &patch.by_name {
                match prev {
                    Some(id) => {
                        names.insert(*name, *id);
                    }
                    None => {
                        names.remove(name);
                    }
                }
            }
        }
        self.live_types = live;
    }

    fn touch_type(&mut self, id: TypeId) {
        if let Some(j) = &mut self.journal {
            let i = id.index();
            if i < j.base_types && !j.types.iter().any(|(k, _)| *k == i) {
                j.types.push((i, self.types[i].clone()));
            }
        }
    }

    fn touch_attr(&mut self, id: AttrId) {
        if let Some(j) = &mut self.journal {
            let i = id.index();
            if i < j.base_attrs && !j.attrs.iter().any(|(k, _)| *k == i) {
                j.attrs.push((i, self.attrs[i].clone()));
            }
        }
    }

    fn touch_rel(&mut self, id: RelId) {
        if let Some(j) = &mut self.journal {
            let i = id.index();
            if i < j.base_rels && !j.rels.iter().any(|(k, _)| *k == i) {
                j.rels.push((i, self.rels[i].clone()));
            }
        }
    }

    fn touch_op(&mut self, id: OpId) {
        if let Some(j) = &mut self.journal {
            let i = id.index();
            if i < j.base_ops && !j.ops.iter().any(|(k, _)| *k == i) {
                j.ops.push((i, self.ops[i].clone()));
            }
        }
    }

    fn touch_link(&mut self, id: LinkId) {
        if let Some(j) = &mut self.journal {
            let i = id.index();
            if i < j.base_links && !j.links.iter().any(|(k, _)| *k == i) {
                j.links.push((i, self.links[i].clone()));
            }
        }
    }

    fn touch_name(&mut self, name: Symbol) {
        if let Some(j) = &mut self.journal {
            if !j.by_name.iter().any(|(n, _)| *n == name) {
                let prev = self.by_name.get(&name).copied();
                j.by_name.push((name, prev));
            }
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The type node for `id`. Panics if `id` is dead (use [`Self::try_ty`]
    /// when the ID may be stale).
    pub fn ty(&self, id: TypeId) -> &TypeNode {
        let node = &self.types[id.index()];
        assert!(node.alive, "access to dead type {id}");
        node
    }

    /// The type node for `id`, or `None` if dead.
    pub fn try_ty(&self, id: TypeId) -> Option<&TypeNode> {
        self.types.get(id.index()).filter(|n| n.alive)
    }

    /// Look up a live type by name. A name the interner has never seen
    /// cannot be in `by_name`, so the miss path is one read-locked hash
    /// probe with no allocation.
    pub fn type_id(&self, name: &str) -> Option<TypeId> {
        let sym = Symbol::try_lookup(name)?;
        self.by_name.get(&sym).copied()
    }

    /// Look up a live type by interned name (the hot-path form: one `u32`
    /// hash probe, no interner access).
    pub fn type_id_sym(&self, name: Symbol) -> Option<TypeId> {
        self.by_name.get(&name).copied()
    }

    /// Look up a live type by name, erroring otherwise.
    pub fn require_type(&self, name: &str) -> Result<TypeId, ModelError> {
        self.type_id(name)
            .ok_or_else(|| ModelError::UnknownTypeName(name.to_string()))
    }

    /// The name of type `id` (panics if dead).
    pub fn type_name(&self, id: TypeId) -> &'static str {
        self.ty(id).name.as_str()
    }

    /// Iterate over live types in insertion order.
    pub fn types(&self) -> impl Iterator<Item = (TypeId, &TypeNode)> {
        self.types
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive)
            .map(|(i, n)| (TypeId(i as u32), n))
    }

    /// Number of live types. O(1): maintained by the mutators.
    pub fn type_count(&self) -> usize {
        self.live_types
    }

    /// Total type arena slots, live and tombstoned. Traversal scratch
    /// (visited epochs, closure buffers) sizes itself to this.
    pub fn type_slots(&self) -> usize {
        self.types.len()
    }

    /// Total link arena slots, live and tombstoned.
    pub fn link_slots(&self) -> usize {
        self.links.len()
    }

    /// The attribute node for `id` (panics if dead).
    pub fn attr(&self, id: AttrId) -> &AttrNode {
        let node = &self.attrs[id.index()];
        assert!(node.alive, "access to dead attribute {id}");
        node
    }

    /// The attribute node for `id`, or `None` if dead.
    pub fn try_attr(&self, id: AttrId) -> Option<&AttrNode> {
        self.attrs.get(id.index()).filter(|n| n.alive)
    }

    /// The relationship node for `id` (panics if dead).
    pub fn rel(&self, id: RelId) -> &RelNode {
        let node = &self.rels[id.index()];
        assert!(node.alive, "access to dead relationship {id}");
        node
    }

    /// The relationship node for `id`, or `None` if dead.
    pub fn try_rel(&self, id: RelId) -> Option<&RelNode> {
        self.rels.get(id.index()).filter(|n| n.alive)
    }

    /// The operation node for `id` (panics if dead).
    pub fn op(&self, id: OpId) -> &OpNode {
        let node = &self.ops[id.index()];
        assert!(node.alive, "access to dead operation {id}");
        node
    }

    /// The operation node for `id`, or `None` if dead.
    pub fn try_op(&self, id: OpId) -> Option<&OpNode> {
        self.ops.get(id.index()).filter(|n| n.alive)
    }

    /// The link node for `id` (panics if dead).
    pub fn link(&self, id: LinkId) -> &LinkNode {
        let node = &self.links[id.index()];
        assert!(node.alive, "access to dead link {id}");
        node
    }

    /// The link node for `id`, or `None` if dead.
    pub fn try_link(&self, id: LinkId) -> Option<&LinkNode> {
        self.links.get(id.index()).filter(|n| n.alive)
    }

    /// Find an attribute by owner and name.
    pub fn find_attr(&self, owner: TypeId, name: &str) -> Option<AttrId> {
        self.ty(owner)
            .attrs
            .iter()
            .copied()
            .find(|&a| self.attr(a).name == name)
    }

    /// Find a relationship end by owner and traversal path name.
    pub fn find_rel_end(&self, owner: TypeId, path: &str) -> Option<(RelId, u8)> {
        self.ty(owner)
            .rel_ends
            .iter()
            .copied()
            .find(|&(r, e)| self.rel(r).end(e).path == path)
    }

    /// Find an operation by owner and name.
    pub fn find_op(&self, owner: TypeId, name: &str) -> Option<OpId> {
        self.ty(owner)
            .ops
            .iter()
            .copied()
            .find(|&o| self.op(o).name == name)
    }

    /// Find a hierarchy link of `kind` by owner and traversal path name,
    /// reporting which side of the link the path belongs to.
    pub fn find_link(
        &self,
        kind: HierKind,
        owner: TypeId,
        path: &str,
    ) -> Option<(LinkId, LinkSide)> {
        let node = self.ty(owner);
        for &l in &node.parent_links {
            let link = self.link(l);
            if link.kind == kind && link.parent_path == path {
                return Some((l, LinkSide::Parent));
            }
        }
        for &l in &node.child_links {
            let link = self.link(l);
            if link.kind == kind && link.child_path == path {
                return Some((l, LinkSide::Child));
            }
        }
        None
    }

    /// True if `name` is already used by any member of `owner` (attribute,
    /// relationship path, operation, or hierarchy-link path).
    pub fn member_exists(&self, owner: TypeId, name: &str) -> bool {
        self.find_attr(owner, name).is_some()
            || self.find_rel_end(owner, name).is_some()
            || self.find_op(owner, name).is_some()
            || self.find_link(HierKind::PartOf, owner, name).is_some()
            || self.find_link(HierKind::InstanceOf, owner, name).is_some()
    }

    fn check_member_free(&self, owner: TypeId, name: &str) -> Result<(), ModelError> {
        if self.member_exists(owner, name) {
            Err(ModelError::DuplicateMember {
                owner,
                member: name.to_string(),
            })
        } else {
            Ok(())
        }
    }

    /// Iterate over live relationships.
    pub fn rels(&self) -> impl Iterator<Item = (RelId, &RelNode)> {
        self.rels
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive)
            .map(|(i, n)| (RelId(i as u32), n))
    }

    /// Iterate over live links.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &LinkNode)> {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive)
            .map(|(i, n)| (LinkId(i as u32), n))
    }

    /// Iterate over live attributes.
    pub fn attrs(&self) -> impl Iterator<Item = (AttrId, &AttrNode)> {
        self.attrs
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive)
            .map(|(i, n)| (AttrId(i as u32), n))
    }

    /// Iterate over live operations.
    pub fn ops(&self) -> impl Iterator<Item = (OpId, &OpNode)> {
        self.ops
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive)
            .map(|(i, n)| (OpId(i as u32), n))
    }

    /// Total count of live constructs (types + supertype edges + attributes
    /// + relationships + operations + links).
    pub fn construct_count(&self) -> usize {
        let supertype_edges: usize = self.types().map(|(_, n)| n.supertypes.len()).sum();
        self.type_count()
            + supertype_edges
            + self.attrs().count()
            + self.rels().count()
            + self.ops().count()
            + self.links().count()
    }

    // ------------------------------------------------------------------
    // Type mutators
    // ------------------------------------------------------------------

    /// Add a new object type.
    pub fn add_type(&mut self, name: &str) -> Result<TypeId, ModelError> {
        let sym = Symbol::intern(name);
        if self.by_name.contains_key(&sym) {
            return Err(ModelError::DuplicateTypeName(name.to_string()));
        }
        self.touch_name(sym);
        let id = TypeId(self.types.len() as u32);
        self.types.push(TypeNode {
            name: sym,
            is_abstract: false,
            extent: None,
            keys: Vec::new(),
            supertypes: Vec::new(),
            subtypes: Vec::new(),
            attrs: Vec::new(),
            rel_ends: Vec::new(),
            ops: Vec::new(),
            parent_links: Vec::new(),
            child_links: Vec::new(),
            alive: true,
        });
        self.names_mut().insert(sym, id);
        self.live_types += 1;
        Ok(id)
    }

    /// Mark a type abstract (or concrete).
    pub fn set_abstract(&mut self, id: TypeId, is_abstract: bool) -> Result<(), ModelError> {
        self.check_live(id)?;
        self.touch_type(id);
        self.type_mut(id)?.is_abstract = is_abstract;
        Ok(())
    }

    /// Set or clear the extent name of a type.
    pub fn set_extent(&mut self, id: TypeId, extent: Option<String>) -> Result<(), ModelError> {
        let extent_sym = extent.as_deref().map(Symbol::intern);
        if let Some(sym) = extent_sym {
            let clash = self
                .types()
                .any(|(other, node)| other != id && node.extent == Some(sym));
            if clash {
                return Err(ModelError::DuplicateExtent(sym.to_string()));
            }
        }
        self.check_live(id)?;
        self.touch_type(id);
        self.type_mut(id)?.extent = extent_sym;
        Ok(())
    }

    /// Add a key to a type's key list.
    pub fn add_key(&mut self, id: TypeId, key: Key) -> Result<(), ModelError> {
        let skey = SymKey::from_key(&key);
        if self.ty(id).keys.contains(&skey) {
            return Err(ModelError::DuplicateKey {
                owner: id,
                key: key.to_string(),
            });
        }
        self.check_live(id)?;
        self.touch_type(id);
        self.type_mut(id)?.keys.push(skey);
        Ok(())
    }

    /// Remove a key from a type's key list.
    pub fn remove_key(&mut self, id: TypeId, key: &Key) -> Result<(), ModelError> {
        self.check_live(id)?;
        if !self.ty(id).keys.iter().any(|k| k == key) {
            return Err(ModelError::NoSuchKey {
                owner: id,
                key: key.to_string(),
            });
        }
        self.touch_type(id);
        self.type_mut(id)?.keys.retain(|k| k != key);
        Ok(())
    }

    /// Remove a type and everything incident to it. See [`RemoveTypeMode`]
    /// for subtype handling.
    pub fn remove_type(
        &mut self,
        id: TypeId,
        mode: RemoveTypeMode,
    ) -> Result<CascadeReport, ModelError> {
        self.check_live(id)?;
        let mut report = CascadeReport::default();
        let name = self.ty(id).name;

        // Relationships with an end here.
        let incident_rels: Vec<RelId> = self
            .rels()
            .filter(|(_, r)| r.ends[0].owner == id || r.ends[1].owner == id)
            .map(|(rid, _)| rid)
            .collect();
        for rid in incident_rels {
            report.merge(self.remove_relationship(rid)?);
        }

        // Hierarchy links touching this type.
        let incident_links: Vec<LinkId> = self
            .links()
            .filter(|(_, l)| l.parent == id || l.child == id)
            .map(|(lid, _)| lid)
            .collect();
        for lid in incident_links {
            report.merge(self.remove_link(lid)?);
        }

        // Members.
        for a in self.ty(id).attrs.clone() {
            let attr = self.attr(a);
            report.removed_attrs.push((name, attr.name));
            self.touch_attr(a);
            self.attrs[a.index()].alive = false;
        }
        for o in self.ty(id).ops.clone() {
            let op = self.op(o);
            report.removed_ops.push((name, op.name));
            self.touch_op(o);
            self.ops[o.index()].alive = false;
        }

        // Supertype edges up.
        let supers = self.ty(id).supertypes.clone();
        for sup in &supers {
            let sup_name = self.ty(*sup).name;
            report.removed_supertype_edges.push((name, sup_name));
            self.touch_type(*sup);
            self.types[sup.index()].subtypes.retain(|&s| s != id);
        }

        // Subtype edges down: rewire or detach.
        let subs = self.ty(id).subtypes.clone();
        for sub in subs {
            let sub_name = self.ty(sub).name;
            report.removed_supertype_edges.push((sub_name, name));
            self.touch_type(sub);
            self.types[sub.index()].supertypes.retain(|&s| s != id);
            match mode {
                RemoveTypeMode::RewireSubtypes => {
                    let mut rewired = false;
                    for sup in &supers {
                        if !self.types[sub.index()].supertypes.contains(sup) {
                            self.types[sub.index()].supertypes.push(*sup);
                            self.types[sup.index()].subtypes.push(sub);
                            report.rewired_subtypes.push((sub_name, self.ty(*sup).name));
                            rewired = true;
                        }
                    }
                    if !rewired && supers.is_empty() {
                        report.detached_subtypes.push(sub_name);
                    }
                }
                RemoveTypeMode::DetachSubtypes => {
                    report.detached_subtypes.push(sub_name);
                }
            }
        }

        self.touch_type(id);
        self.touch_name(name);
        let node = &mut self.types[id.index()];
        node.alive = false;
        node.attrs.clear();
        node.ops.clear();
        node.rel_ends.clear();
        node.parent_links.clear();
        node.child_links.clear();
        node.supertypes.clear();
        node.subtypes.clear();
        self.names_mut().remove(&name);
        self.live_types -= 1;
        Ok(report)
    }

    // ------------------------------------------------------------------
    // Supertype mutators
    // ------------------------------------------------------------------

    /// Add a supertype edge `sub ISA sup`.
    pub fn add_supertype(&mut self, sub: TypeId, sup: TypeId) -> Result<(), ModelError> {
        self.check_live(sub)?;
        self.check_live(sup)?;
        if sub == sup {
            return Err(ModelError::SelfReference(sub));
        }
        if self.ty(sub).supertypes.contains(&sup) {
            return Err(ModelError::DuplicateSupertype { sub, sup });
        }
        if self.gen_reachable(sub, sup) {
            // `sub` is already an ancestor of `sup`: adding the edge closes a cycle.
            return Err(ModelError::SupertypeCycle { sub, sup });
        }
        self.touch_type(sub);
        self.touch_type(sup);
        self.types[sub.index()].supertypes.push(sup);
        self.types[sup.index()].subtypes.push(sub);
        Ok(())
    }

    /// Remove the supertype edge `sub ISA sup`.
    pub fn remove_supertype(&mut self, sub: TypeId, sup: TypeId) -> Result<(), ModelError> {
        self.check_live(sub)?;
        self.check_live(sup)?;
        if !self.ty(sub).supertypes.contains(&sup) {
            return Err(ModelError::NoSuchSupertype { sub, sup });
        }
        self.touch_type(sub);
        self.touch_type(sup);
        self.types[sub.index()].supertypes.retain(|&s| s != sup);
        self.types[sup.index()].subtypes.retain(|&s| s != sub);
        Ok(())
    }

    /// True if `ancestor` is reachable from `start` via supertype edges
    /// (excluding `start` itself unless a cycle exists).
    pub(crate) fn gen_reachable(&self, ancestor: TypeId, start: TypeId) -> bool {
        let mut stack = vec![start];
        let mut seen = vec![false; self.types.len()];
        while let Some(t) = stack.pop() {
            if seen[t.index()] {
                continue;
            }
            seen[t.index()] = true;
            for &sup in &self.ty(t).supertypes {
                if sup == ancestor {
                    return true;
                }
                stack.push(sup);
            }
        }
        false
    }

    // ------------------------------------------------------------------
    // Attribute mutators
    // ------------------------------------------------------------------

    /// Add an attribute.
    pub fn add_attribute(
        &mut self,
        owner: TypeId,
        name: &str,
        ty: DomainType,
        size: Option<u32>,
    ) -> Result<AttrId, ModelError> {
        self.check_live(owner)?;
        self.check_member_free(owner, name)?;
        self.touch_type(owner);
        let id = AttrId(self.attrs.len() as u32);
        self.attrs.push(AttrNode {
            owner,
            name: Symbol::intern(name),
            ty,
            size,
            alive: true,
        });
        self.types[owner.index()].attrs.push(id);
        Ok(id)
    }

    /// Remove an attribute, pruning keys and order-by lists that name it.
    pub fn remove_attribute(&mut self, id: AttrId) -> Result<CascadeReport, ModelError> {
        let node = self
            .attrs
            .get(id.index())
            .filter(|n| n.alive)
            .ok_or(ModelError::DeadAttr(id))?;
        let owner = node.owner;
        let name = node.name;
        let mut report = CascadeReport::default();
        self.prune_attr_references(owner, name, &mut report);
        self.touch_attr(id);
        self.touch_type(owner);
        self.attrs[id.index()].alive = false;
        self.types[owner.index()].attrs.retain(|&a| a != id);
        Ok(report)
    }

    /// Move an attribute to a different owner (used by the generalization-
    /// hierarchy `modify_attribute` operation). Keys and order-by lists that
    /// referenced the attribute on the old owner are pruned and reported.
    pub fn move_attribute(
        &mut self,
        id: AttrId,
        new_owner: TypeId,
    ) -> Result<CascadeReport, ModelError> {
        let node = self
            .attrs
            .get(id.index())
            .filter(|n| n.alive)
            .ok_or(ModelError::DeadAttr(id))?;
        let old_owner = node.owner;
        let name = node.name;
        self.check_live(new_owner)?;
        if old_owner == new_owner {
            return Ok(CascadeReport::default());
        }
        self.check_member_free(new_owner, name.as_str())?;
        let mut report = CascadeReport::default();
        self.prune_attr_references(old_owner, name, &mut report);
        self.touch_type(old_owner);
        self.touch_type(new_owner);
        self.touch_attr(id);
        self.types[old_owner.index()].attrs.retain(|&a| a != id);
        self.types[new_owner.index()].attrs.push(id);
        self.attrs[id.index()].owner = new_owner;
        Ok(report)
    }

    /// Change an attribute's domain type.
    pub fn set_attr_type(&mut self, id: AttrId, ty: DomainType) -> Result<(), ModelError> {
        if self.try_attr(id).is_none() {
            return Err(ModelError::DeadAttr(id));
        }
        self.touch_attr(id);
        self.attrs[id.index()].ty = ty;
        Ok(())
    }

    /// Change an attribute's size constraint.
    pub fn set_attr_size(&mut self, id: AttrId, size: Option<u32>) -> Result<(), ModelError> {
        if self.try_attr(id).is_none() {
            return Err(ModelError::DeadAttr(id));
        }
        self.touch_attr(id);
        self.attrs[id.index()].size = size;
        Ok(())
    }

    /// Remove references to attribute `name` of type `owner` from keys of
    /// `owner` and from order-by lists whose target type is `owner`.
    fn prune_attr_references(&mut self, owner: TypeId, name: Symbol, report: &mut CascadeReport) {
        let owner_name = self.ty(owner).name;
        // Keys of the owner.
        self.touch_type(owner);
        let node = &mut self.types[owner.index()];
        let mut pruned_keys = Vec::new();
        node.keys.retain(|k| {
            if k.0.contains(&name) {
                pruned_keys.push(k.to_string());
                false
            } else {
                true
            }
        });
        for k in pruned_keys {
            report.keys_pruned.push((owner_name, k));
        }
        // Order-by lists of relationship ends whose *target* is `owner`,
        // i.e. ends opposite to ends owned by `owner`.
        for r in 0..self.rels.len() {
            if !self.rels[r].alive {
                continue;
            }
            for e in 0..2 {
                if self.rels[r].ends[1 - e].owner == owner
                    && self.rels[r].ends[e].order_by.contains(&name)
                {
                    let end_owner = self.ty(self.rels[r].ends[e].owner).name;
                    let path = self.rels[r].ends[e].path;
                    self.touch_rel(RelId(r as u32));
                    self.rels[r].ends[e].order_by.retain(|&a| a != name);
                    report.order_by_pruned.push((end_owner, path, name));
                }
            }
        }
        // Order-by lists of links whose child type is `owner`.
        for l in 0..self.links.len() {
            if !self.links[l].alive {
                continue;
            }
            if self.links[l].child == owner && self.links[l].order_by.contains(&name) {
                let parent_name = self.ty(self.links[l].parent).name;
                let path = self.links[l].parent_path;
                self.touch_link(LinkId(l as u32));
                self.links[l].order_by.retain(|&a| a != name);
                report.order_by_pruned.push((parent_name, path, name));
            }
        }
    }

    // ------------------------------------------------------------------
    // Relationship mutators
    // ------------------------------------------------------------------

    /// Add a relationship between `a_owner` and `b_owner`. Both traversal
    /// paths must be free member names on their owners.
    #[allow(clippy::too_many_arguments)]
    pub fn add_relationship(
        &mut self,
        a_owner: TypeId,
        a_path: &str,
        a_cardinality: Cardinality,
        a_order_by: Vec<String>,
        b_owner: TypeId,
        b_path: &str,
        b_cardinality: Cardinality,
        b_order_by: Vec<String>,
    ) -> Result<RelId, ModelError> {
        self.check_live(a_owner)?;
        self.check_live(b_owner)?;
        self.check_member_free(a_owner, a_path)?;
        if a_owner == b_owner && a_path == b_path {
            return Err(ModelError::DuplicateMember {
                owner: b_owner,
                member: b_path.to_string(),
            });
        }
        self.check_member_free(b_owner, b_path)?;
        self.touch_type(a_owner);
        self.touch_type(b_owner);
        let id = RelId(self.rels.len() as u32);
        self.rels.push(RelNode {
            ends: [
                RelEnd {
                    owner: a_owner,
                    path: Symbol::intern(a_path),
                    cardinality: a_cardinality,
                    order_by: a_order_by.iter().map(|s| Symbol::intern(s)).collect(),
                },
                RelEnd {
                    owner: b_owner,
                    path: Symbol::intern(b_path),
                    cardinality: b_cardinality,
                    order_by: b_order_by.iter().map(|s| Symbol::intern(s)).collect(),
                },
            ],
            alive: true,
        });
        self.types[a_owner.index()].rel_ends.push((id, 0));
        self.types[b_owner.index()].rel_ends.push((id, 1));
        Ok(id)
    }

    /// Remove a relationship (both ends).
    pub fn remove_relationship(&mut self, id: RelId) -> Result<CascadeReport, ModelError> {
        let node = self
            .rels
            .get(id.index())
            .filter(|n| n.alive)
            .ok_or(ModelError::DeadRel(id))?;
        let a = node.ends[0].clone();
        let b = node.ends[1].clone();
        let mut report = CascadeReport::default();
        report
            .removed_rels
            .push((self.ty(a.owner).name, a.path, self.ty(b.owner).name, b.path));
        self.touch_rel(id);
        self.touch_type(a.owner);
        self.touch_type(b.owner);
        self.types[a.owner.index()]
            .rel_ends
            .retain(|&(r, _)| r != id);
        self.types[b.owner.index()]
            .rel_ends
            .retain(|&(r, _)| r != id);
        self.rels[id.index()].alive = false;
        Ok(report)
    }

    /// Move one end of a relationship to a new owning type (the
    /// `modify_relationship_target_type` operation: the end defined on one
    /// object type moves up or down its generalization hierarchy).
    pub fn retarget_rel_end(
        &mut self,
        id: RelId,
        end: u8,
        new_owner: TypeId,
    ) -> Result<(), ModelError> {
        let node = self
            .rels
            .get(id.index())
            .filter(|n| n.alive)
            .ok_or(ModelError::DeadRel(id))?;
        let path = node.ends[end as usize].path;
        let old_owner = node.ends[end as usize].owner;
        self.check_live(new_owner)?;
        if old_owner == new_owner {
            return Ok(());
        }
        self.check_member_free(new_owner, path.as_str())?;
        self.touch_type(old_owner);
        self.touch_type(new_owner);
        self.touch_rel(id);
        self.types[old_owner.index()]
            .rel_ends
            .retain(|&(r, e)| !(r == id && e == end));
        self.types[new_owner.index()].rel_ends.push((id, end));
        self.rels[id.index()].ends[end as usize].owner = new_owner;
        Ok(())
    }

    /// Change the one-way cardinality of a relationship end.
    pub fn set_rel_cardinality(
        &mut self,
        id: RelId,
        end: u8,
        cardinality: Cardinality,
    ) -> Result<(), ModelError> {
        if self.try_rel(id).is_none() {
            return Err(ModelError::DeadRel(id));
        }
        self.touch_rel(id);
        self.rels[id.index()].ends[end as usize].cardinality = cardinality;
        Ok(())
    }

    /// Replace the order-by list of a relationship end.
    pub fn set_rel_order_by(
        &mut self,
        id: RelId,
        end: u8,
        order_by: Vec<String>,
    ) -> Result<(), ModelError> {
        if self.try_rel(id).is_none() {
            return Err(ModelError::DeadRel(id));
        }
        self.touch_rel(id);
        self.rels[id.index()].ends[end as usize].order_by =
            order_by.iter().map(|s| Symbol::intern(s)).collect();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Operation mutators
    // ------------------------------------------------------------------

    /// Add an operation. Operation names may override same-named operations
    /// of ancestors, but must be unique among the owner's own members.
    pub fn add_operation(&mut self, owner: TypeId, op: Operation) -> Result<OpId, ModelError> {
        self.check_live(owner)?;
        self.check_member_free(owner, &op.name)?;
        self.touch_type(owner);
        let id = OpId(self.ops.len() as u32);
        let name = Symbol::intern(&op.name);
        self.ops.push(OpNode {
            owner,
            name,
            op,
            alive: true,
        });
        self.types[owner.index()].ops.push(id);
        Ok(id)
    }

    /// Remove an operation.
    pub fn remove_operation(&mut self, id: OpId) -> Result<CascadeReport, ModelError> {
        let node = self
            .ops
            .get(id.index())
            .filter(|n| n.alive)
            .ok_or(ModelError::DeadOp(id))?;
        let owner = node.owner;
        let op_name = node.name;
        let mut report = CascadeReport::default();
        report.removed_ops.push((self.ty(owner).name, op_name));
        self.touch_type(owner);
        self.touch_op(id);
        self.types[owner.index()].ops.retain(|&o| o != id);
        self.ops[id.index()].alive = false;
        Ok(report)
    }

    /// Move an operation to a new owner (generalization-hierarchy
    /// `modify_operation`).
    pub fn move_operation(&mut self, id: OpId, new_owner: TypeId) -> Result<(), ModelError> {
        let node = self
            .ops
            .get(id.index())
            .filter(|n| n.alive)
            .ok_or(ModelError::DeadOp(id))?;
        let old_owner = node.owner;
        let name = node.name;
        self.check_live(new_owner)?;
        if old_owner == new_owner {
            return Ok(());
        }
        self.check_member_free(new_owner, name.as_str())?;
        self.touch_type(old_owner);
        self.touch_type(new_owner);
        self.touch_op(id);
        self.types[old_owner.index()].ops.retain(|&o| o != id);
        self.types[new_owner.index()].ops.push(id);
        self.ops[id.index()].owner = new_owner;
        Ok(())
    }

    /// Change an operation's return type.
    pub fn set_op_return(&mut self, id: OpId, return_type: DomainType) -> Result<(), ModelError> {
        if self.try_op(id).is_none() {
            return Err(ModelError::DeadOp(id));
        }
        self.touch_op(id);
        self.ops[id.index()].op.return_type = return_type;
        Ok(())
    }

    /// Replace an operation's argument list.
    pub fn set_op_args(&mut self, id: OpId, args: Vec<Param>) -> Result<(), ModelError> {
        if self.try_op(id).is_none() {
            return Err(ModelError::DeadOp(id));
        }
        self.touch_op(id);
        self.ops[id.index()].op.args = args;
        Ok(())
    }

    /// Replace an operation's raised-exception list.
    pub fn set_op_raises(&mut self, id: OpId, raises: Vec<String>) -> Result<(), ModelError> {
        if self.try_op(id).is_none() {
            return Err(ModelError::DeadOp(id));
        }
        self.touch_op(id);
        self.ops[id.index()].op.raises = raises;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Hierarchy-link mutators (part-of, instance-of)
    // ------------------------------------------------------------------

    /// Add a part-of or instance-of link. The parent (whole / generic) side
    /// is collection-valued; the child side single-valued (implicit 1:N).
    #[allow(clippy::too_many_arguments)]
    pub fn add_link(
        &mut self,
        kind: HierKind,
        parent: TypeId,
        parent_path: &str,
        collection: CollectionKind,
        order_by: Vec<String>,
        child: TypeId,
        child_path: &str,
    ) -> Result<LinkId, ModelError> {
        self.check_live(parent)?;
        self.check_live(child)?;
        if parent == child {
            return Err(ModelError::SelfReference(parent));
        }
        if self.hier_reachable(kind, child, parent) {
            // `child` is already above `parent`: the new edge closes a cycle.
            return Err(ModelError::HierarchyCycle { parent, child });
        }
        self.check_member_free(parent, parent_path)?;
        self.check_member_free(child, child_path)?;
        self.touch_type(parent);
        self.touch_type(child);
        let id = LinkId(self.links.len() as u32);
        self.links.push(LinkNode {
            kind,
            parent,
            parent_path: Symbol::intern(parent_path),
            collection,
            order_by: order_by.iter().map(|s| Symbol::intern(s)).collect(),
            child,
            child_path: Symbol::intern(child_path),
            alive: true,
        });
        self.types[parent.index()].parent_links.push(id);
        self.types[child.index()].child_links.push(id);
        Ok(id)
    }

    /// True if `above` is reachable upward from `start` (child → parent)
    /// in the `kind` hierarchy, or equal to it.
    pub(crate) fn hier_reachable(&self, kind: HierKind, above: TypeId, start: TypeId) -> bool {
        if above == start {
            return true;
        }
        let mut stack = vec![start];
        let mut seen = vec![false; self.types.len()];
        while let Some(t) = stack.pop() {
            if seen[t.index()] {
                continue;
            }
            seen[t.index()] = true;
            for &l in &self.ty(t).child_links {
                let link = self.link(l);
                if link.kind != kind {
                    continue;
                }
                if link.parent == above {
                    return true;
                }
                stack.push(link.parent);
            }
        }
        false
    }

    /// Remove a hierarchy link (both ends).
    pub fn remove_link(&mut self, id: LinkId) -> Result<CascadeReport, ModelError> {
        let node = self
            .links
            .get(id.index())
            .filter(|n| n.alive)
            .ok_or(ModelError::DeadLink(id))?;
        let (kind, parent, child) = (node.kind, node.parent, node.child);
        let (ppath, cpath) = (node.parent_path, node.child_path);
        let mut report = CascadeReport::default();
        report.removed_links.push((
            kind,
            self.ty(parent).name,
            ppath,
            self.ty(child).name,
            cpath,
        ));
        self.touch_link(id);
        self.touch_type(parent);
        self.touch_type(child);
        self.types[parent.index()].parent_links.retain(|&l| l != id);
        self.types[child.index()].child_links.retain(|&l| l != id);
        self.links[id.index()].alive = false;
        Ok(report)
    }

    /// Move one side of a hierarchy link to a new type (the
    /// `modify_part_of_target_type` / `modify_instance_of_target_type`
    /// operations).
    pub fn retarget_link_end(
        &mut self,
        id: LinkId,
        side: LinkSide,
        new_type: TypeId,
    ) -> Result<(), ModelError> {
        let node = self
            .links
            .get(id.index())
            .filter(|n| n.alive)
            .ok_or(ModelError::DeadLink(id))?;
        let kind = node.kind;
        let (old_type, path, other_type) = match side {
            LinkSide::Parent => (node.parent, node.parent_path, node.child),
            LinkSide::Child => (node.child, node.child_path, node.parent),
        };
        self.check_live(new_type)?;
        if old_type == new_type {
            return Ok(());
        }
        if new_type == other_type {
            return Err(ModelError::SelfReference(new_type));
        }
        self.check_member_free(new_type, path.as_str())?;
        // Cycle check with the link itself ignored: the move creates the
        // edge (p → c); it closes a cycle iff c is already an ancestor of p.
        let (p, c) = match side {
            LinkSide::Parent => (new_type, other_type),
            LinkSide::Child => (other_type, new_type),
        };
        if self.hier_reachable_excluding(kind, id, c, p) {
            return Err(ModelError::HierarchyCycle {
                parent: p,
                child: c,
            });
        }
        self.touch_type(old_type);
        self.touch_type(new_type);
        self.touch_link(id);
        match side {
            LinkSide::Parent => {
                self.types[old_type.index()]
                    .parent_links
                    .retain(|&l| l != id);
                self.types[new_type.index()].parent_links.push(id);
                self.links[id.index()].parent = new_type;
            }
            LinkSide::Child => {
                self.types[old_type.index()]
                    .child_links
                    .retain(|&l| l != id);
                self.types[new_type.index()].child_links.push(id);
                self.links[id.index()].child = new_type;
            }
        }
        Ok(())
    }

    /// Like [`Self::hier_reachable`], ignoring link `skip`.
    fn hier_reachable_excluding(
        &self,
        kind: HierKind,
        skip: LinkId,
        above: TypeId,
        start: TypeId,
    ) -> bool {
        if above == start {
            return true;
        }
        let mut stack = vec![start];
        let mut seen = vec![false; self.types.len()];
        while let Some(t) = stack.pop() {
            if seen[t.index()] {
                continue;
            }
            seen[t.index()] = true;
            for &l in &self.ty(t).child_links {
                if l == skip {
                    continue;
                }
                let link = self.link(l);
                if link.kind != kind {
                    continue;
                }
                if link.parent == above {
                    return true;
                }
                stack.push(link.parent);
            }
        }
        false
    }

    /// Change the collection kind of a link's parent side (the grammar
    /// allows cardinality modification only on the to-parts /
    /// to-instance-entities end).
    pub fn set_link_collection(
        &mut self,
        id: LinkId,
        collection: CollectionKind,
    ) -> Result<(), ModelError> {
        if self.try_link(id).is_none() {
            return Err(ModelError::DeadLink(id));
        }
        self.touch_link(id);
        self.links[id.index()].collection = collection;
        Ok(())
    }

    /// Replace the order-by list of a link's parent side.
    pub fn set_link_order_by(
        &mut self,
        id: LinkId,
        order_by: Vec<String>,
    ) -> Result<(), ModelError> {
        if self.try_link(id).is_none() {
            return Err(ModelError::DeadLink(id));
        }
        self.touch_link(id);
        self.links[id.index()].order_by = order_by.iter().map(|s| Symbol::intern(s)).collect();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Test-only malformation helpers
    // ------------------------------------------------------------------

    /// Force a supertype edge WITHOUT the cycle check, producing a malformed
    /// graph. Used by tests that exercise traversal guards on cyclic input
    /// (mid-edit states can be arbitrarily ill-formed).
    #[cfg(test)]
    pub(crate) fn force_supertype_edge(&mut self, sub: TypeId, sup: TypeId) {
        self.touch_type(sub);
        self.touch_type(sup);
        self.types[sub.index()].supertypes.push(sup);
        self.types[sup.index()].subtypes.push(sub);
    }

    /// Force a hierarchy link WITHOUT the cycle check (see
    /// [`Self::force_supertype_edge`]).
    #[cfg(test)]
    pub(crate) fn force_link(
        &mut self,
        kind: HierKind,
        parent: TypeId,
        parent_path: &str,
        child: TypeId,
        child_path: &str,
    ) -> LinkId {
        self.touch_type(parent);
        self.touch_type(child);
        let id = LinkId(self.links.len() as u32);
        self.links.push(LinkNode {
            kind,
            parent,
            parent_path: Symbol::intern(parent_path),
            collection: CollectionKind::Set,
            order_by: Vec::new(),
            child,
            child_path: Symbol::intern(child_path),
            alive: true,
        });
        self.types[parent.index()].parent_links.push(id);
        self.types[child.index()].child_links.push(id);
        id
    }

    // ------------------------------------------------------------------
    // Arena occupancy (tombstone observability)
    // ------------------------------------------------------------------

    /// Live/dead slot counts for every arena. Dead slots are tombstones:
    /// removal never frees a slot (IDs stay stable for undo), so long edit
    /// sessions grow the arenas monotonically. The ratio of dead to total
    /// slots is the signal that a compaction pass would pay off.
    pub fn arena_stats(&self) -> ArenaStats {
        let live = |n: usize, l: usize| (l, n - l);
        let (types_live, types_dead) = live(self.types.len(), self.live_types);
        let attrs_live = self.attrs.iter().filter(|n| n.alive).count();
        let rels_live = self.rels.iter().filter(|n| n.alive).count();
        let ops_live = self.ops.iter().filter(|n| n.alive).count();
        let links_live = self.links.iter().filter(|n| n.alive).count();
        ArenaStats {
            types_live,
            types_dead,
            attrs_live,
            attrs_dead: self.attrs.len() - attrs_live,
            rels_live,
            rels_dead: self.rels.len() - rels_live,
            ops_live,
            ops_dead: self.ops.len() - ops_live,
            links_live,
            links_dead: self.links.len() - links_live,
        }
    }

    /// Emit the arena occupancy as trace counters
    /// (`model.graph.<arena>.live` / `.dead`). Counters accumulate, so call
    /// this once per report, not per sync.
    pub fn emit_arena_counters(&self) {
        let s = self.arena_stats();
        for (name, v) in [
            ("model.graph.types.live", s.types_live),
            ("model.graph.types.dead", s.types_dead),
            ("model.graph.attrs.live", s.attrs_live),
            ("model.graph.attrs.dead", s.attrs_dead),
            ("model.graph.rels.live", s.rels_live),
            ("model.graph.rels.dead", s.rels_dead),
            ("model.graph.ops.live", s.ops_live),
            ("model.graph.ops.dead", s.ops_dead),
            ("model.graph.links.live", s.links_live),
            ("model.graph.links.dead", s.links_dead),
        ] {
            sws_trace::counter(name, v as u64);
        }
    }

    // ------------------------------------------------------------------

    fn check_live(&self, id: TypeId) -> Result<(), ModelError> {
        match self.types.get(id.index()) {
            Some(node) if node.alive => Ok(()),
            _ => Err(ModelError::DeadType(id)),
        }
    }

    fn type_mut(&mut self, id: TypeId) -> Result<&mut TypeNode, ModelError> {
        match self.types.get_mut(id.index()) {
            Some(node) if node.alive => Ok(node),
            _ => Err(ModelError::DeadType(id)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> SchemaGraph {
        SchemaGraph::new("test")
    }

    #[test]
    fn add_and_lookup_types() {
        let mut g = graph();
        let a = g.add_type("A").unwrap();
        assert_eq!(g.type_id("A"), Some(a));
        assert_eq!(g.type_name(a), "A");
        assert_eq!(g.type_count(), 1);
        assert_eq!(
            g.add_type("A").unwrap_err(),
            ModelError::DuplicateTypeName("A".into())
        );
    }

    #[test]
    fn remove_type_frees_name_but_not_slot() {
        let mut g = graph();
        let a = g.add_type("A").unwrap();
        g.remove_type(a, RemoveTypeMode::default()).unwrap();
        assert_eq!(g.type_id("A"), None);
        assert!(g.try_ty(a).is_none());
        // Name reusable; slot not reused.
        let a2 = g.add_type("A").unwrap();
        assert_ne!(a, a2);
    }

    #[test]
    fn extent_uniqueness() {
        let mut g = graph();
        let a = g.add_type("A").unwrap();
        let b = g.add_type("B").unwrap();
        g.set_extent(a, Some("things".into())).unwrap();
        assert_eq!(
            g.set_extent(b, Some("things".into())).unwrap_err(),
            ModelError::DuplicateExtent("things".into())
        );
        // Resetting one's own extent to the same name is fine.
        g.set_extent(a, Some("things".into())).unwrap();
        g.set_extent(a, None).unwrap();
        g.set_extent(b, Some("things".into())).unwrap();
    }

    #[test]
    fn keys_add_remove() {
        let mut g = graph();
        let a = g.add_type("A").unwrap();
        g.add_key(a, Key::single("id")).unwrap();
        assert!(matches!(
            g.add_key(a, Key::single("id")),
            Err(ModelError::DuplicateKey { .. })
        ));
        g.remove_key(a, &Key::single("id")).unwrap();
        assert!(matches!(
            g.remove_key(a, &Key::single("id")),
            Err(ModelError::NoSuchKey { .. })
        ));
    }

    #[test]
    fn supertype_cycle_rejected() {
        let mut g = graph();
        let a = g.add_type("A").unwrap();
        let b = g.add_type("B").unwrap();
        let c = g.add_type("C").unwrap();
        g.add_supertype(b, a).unwrap();
        g.add_supertype(c, b).unwrap();
        assert!(matches!(
            g.add_supertype(a, c),
            Err(ModelError::SupertypeCycle { .. })
        ));
        assert!(matches!(
            g.add_supertype(a, a),
            Err(ModelError::SelfReference(_))
        ));
    }

    #[test]
    fn subtypes_maintained() {
        let mut g = graph();
        let a = g.add_type("A").unwrap();
        let b = g.add_type("B").unwrap();
        g.add_supertype(b, a).unwrap();
        assert_eq!(g.ty(a).subtypes, vec![b]);
        g.remove_supertype(b, a).unwrap();
        assert!(g.ty(a).subtypes.is_empty());
    }

    #[test]
    fn attribute_uniqueness_across_member_kinds() {
        let mut g = graph();
        let a = g.add_type("A").unwrap();
        let b = g.add_type("B").unwrap();
        g.add_relationship(
            a,
            "x",
            Cardinality::One,
            vec![],
            b,
            "a_of",
            Cardinality::One,
            vec![],
        )
        .unwrap();
        // Attribute clashing with relationship path.
        assert!(matches!(
            g.add_attribute(a, "x", DomainType::Long, None),
            Err(ModelError::DuplicateMember { .. })
        ));
    }

    #[test]
    fn remove_attribute_prunes_keys_and_order_by() {
        let mut g = graph();
        let a = g.add_type("A").unwrap();
        let b = g.add_type("B").unwrap();
        let name = g
            .add_attribute(b, "name", DomainType::String, Some(32))
            .unwrap();
        g.add_key(b, Key::single("name")).unwrap();
        g.add_relationship(
            a,
            "bs",
            Cardinality::Many(CollectionKind::Set),
            vec!["name".into()],
            b,
            "a_of",
            Cardinality::One,
            vec![],
        )
        .unwrap();
        let report = g.remove_attribute(name).unwrap();
        assert_eq!(
            report.keys_pruned,
            vec![(Symbol::intern("B"), "name".to_string())]
        );
        assert_eq!(
            report.order_by_pruned,
            vec![(
                Symbol::intern("A"),
                Symbol::intern("bs"),
                Symbol::intern("name")
            )]
        );
        assert!(g.ty(b).keys.is_empty());
        let (rid, e) = g.find_rel_end(a, "bs").unwrap();
        assert!(g.rel(rid).end(e).order_by.is_empty());
    }

    #[test]
    fn move_attribute_between_types() {
        let mut g = graph();
        let a = g.add_type("A").unwrap();
        let b = g.add_type("B").unwrap();
        let x = g.add_attribute(a, "x", DomainType::Long, None).unwrap();
        g.move_attribute(x, b).unwrap();
        assert_eq!(g.attr(x).owner, b);
        assert!(g.find_attr(a, "x").is_none());
        assert_eq!(g.find_attr(b, "x"), Some(x));
    }

    #[test]
    fn move_attribute_name_clash_rejected() {
        let mut g = graph();
        let a = g.add_type("A").unwrap();
        let b = g.add_type("B").unwrap();
        let x = g.add_attribute(a, "x", DomainType::Long, None).unwrap();
        g.add_attribute(b, "x", DomainType::String, None).unwrap();
        assert!(matches!(
            g.move_attribute(x, b),
            Err(ModelError::DuplicateMember { .. })
        ));
    }

    #[test]
    fn relationship_round_trip() {
        let mut g = graph();
        let d = g.add_type("Department").unwrap();
        let e = g.add_type("Employee").unwrap();
        let r = g
            .add_relationship(
                d,
                "has",
                Cardinality::Many(CollectionKind::Set),
                vec![],
                e,
                "works_in_a",
                Cardinality::One,
                vec![],
            )
            .unwrap();
        assert_eq!(g.find_rel_end(d, "has"), Some((r, 0)));
        assert_eq!(g.find_rel_end(e, "works_in_a"), Some((r, 1)));
        let report = g.remove_relationship(r).unwrap();
        assert_eq!(report.removed_rels.len(), 1);
        assert!(g.find_rel_end(d, "has").is_none());
    }

    #[test]
    fn self_relationship_allowed_with_distinct_paths() {
        let mut g = graph();
        let p = g.add_type("Person").unwrap();
        let r = g
            .add_relationship(
                p,
                "mentors",
                Cardinality::Many(CollectionKind::Set),
                vec![],
                p,
                "mentored_by",
                Cardinality::One,
                vec![],
            )
            .unwrap();
        assert_eq!(g.find_rel_end(p, "mentors"), Some((r, 0)));
        assert_eq!(g.find_rel_end(p, "mentored_by"), Some((r, 1)));
        // Same path twice on the same type is rejected.
        assert!(g
            .add_relationship(
                p,
                "peer",
                Cardinality::One,
                vec![],
                p,
                "peer",
                Cardinality::One,
                vec![]
            )
            .is_err());
    }

    #[test]
    fn retarget_rel_end_moves_path() {
        // The paper's Fig. 8: works_in_a moves from Employee to Person.
        let mut g = graph();
        let dept = g.add_type("Department").unwrap();
        let person = g.add_type("Person").unwrap();
        let emp = g.add_type("Employee").unwrap();
        g.add_supertype(emp, person).unwrap();
        let r = g
            .add_relationship(
                dept,
                "has",
                Cardinality::Many(CollectionKind::Set),
                vec![],
                emp,
                "works_in_a",
                Cardinality::One,
                vec![],
            )
            .unwrap();
        g.retarget_rel_end(r, 1, person).unwrap();
        assert!(g.find_rel_end(emp, "works_in_a").is_none());
        assert_eq!(g.find_rel_end(person, "works_in_a"), Some((r, 1)));
        // Department's side still targets the relationship; its target type
        // is now Person.
        let (rid, e) = g.find_rel_end(dept, "has").unwrap();
        assert_eq!(g.rel(rid).other(e).owner, person);
    }

    #[test]
    fn remove_type_cascades() {
        let mut g = graph();
        let a = g.add_type("A").unwrap();
        let b = g.add_type("B").unwrap();
        let c = g.add_type("C").unwrap();
        g.add_supertype(b, a).unwrap();
        g.add_supertype(c, b).unwrap();
        g.add_attribute(b, "x", DomainType::Long, None).unwrap();
        g.add_operation(b, Operation::nullary("f", DomainType::Void))
            .unwrap();
        g.add_relationship(
            b,
            "r",
            Cardinality::One,
            vec![],
            a,
            "inv",
            Cardinality::One,
            vec![],
        )
        .unwrap();
        g.add_link(
            HierKind::PartOf,
            b,
            "parts",
            CollectionKind::Set,
            vec![],
            c,
            "whole",
        )
        .unwrap();
        let report = g.remove_type(b, RemoveTypeMode::RewireSubtypes).unwrap();
        assert_eq!(
            report.removed_attrs,
            vec![(Symbol::intern("B"), Symbol::intern("x"))]
        );
        assert_eq!(
            report.removed_ops,
            vec![(Symbol::intern("B"), Symbol::intern("f"))]
        );
        assert_eq!(report.removed_rels.len(), 1);
        assert_eq!(report.removed_links.len(), 1);
        // C was rewired to A.
        assert_eq!(
            report.rewired_subtypes,
            vec![(Symbol::intern("C"), Symbol::intern("A"))]
        );
        assert_eq!(g.ty(c).supertypes, vec![a]);
        assert_eq!(g.ty(a).subtypes, vec![c]);
    }

    #[test]
    fn remove_type_detach_mode() {
        let mut g = graph();
        let a = g.add_type("A").unwrap();
        let b = g.add_type("B").unwrap();
        let c = g.add_type("C").unwrap();
        g.add_supertype(b, a).unwrap();
        g.add_supertype(c, b).unwrap();
        let report = g.remove_type(b, RemoveTypeMode::DetachSubtypes).unwrap();
        assert_eq!(report.detached_subtypes, vec!["C".to_string()]);
        assert!(g.ty(c).supertypes.is_empty());
    }

    #[test]
    fn link_cycle_rejected() {
        let mut g = graph();
        let a = g.add_type("A").unwrap();
        let b = g.add_type("B").unwrap();
        let c = g.add_type("C").unwrap();
        g.add_link(
            HierKind::PartOf,
            a,
            "bs",
            CollectionKind::Set,
            vec![],
            b,
            "a_of",
        )
        .unwrap();
        g.add_link(
            HierKind::PartOf,
            b,
            "cs",
            CollectionKind::Set,
            vec![],
            c,
            "b_of",
        )
        .unwrap();
        assert!(matches!(
            g.add_link(
                HierKind::PartOf,
                c,
                "as",
                CollectionKind::Set,
                vec![],
                a,
                "c_of"
            ),
            Err(ModelError::HierarchyCycle { .. })
        ));
        // But an instance-of link C→A is a different hierarchy: allowed.
        g.add_link(
            HierKind::InstanceOf,
            c,
            "as",
            CollectionKind::Set,
            vec![],
            a,
            "c_of",
        )
        .unwrap();
    }

    #[test]
    fn retarget_link_end() {
        let mut g = graph();
        let house = g.add_type("House").unwrap();
        let wall = g.add_type("Wall").unwrap();
        let brick_wall = g.add_type("BrickWall").unwrap();
        g.add_supertype(brick_wall, wall).unwrap();
        let l = g
            .add_link(
                HierKind::PartOf,
                house,
                "walls",
                CollectionKind::Set,
                vec![],
                wall,
                "house",
            )
            .unwrap();
        g.retarget_link_end(l, LinkSide::Child, brick_wall).unwrap();
        assert_eq!(g.link(l).child, brick_wall);
        assert!(g.find_link(HierKind::PartOf, wall, "house").is_none());
        assert_eq!(
            g.find_link(HierKind::PartOf, brick_wall, "house"),
            Some((l, LinkSide::Child))
        );
    }

    #[test]
    fn retarget_link_end_cycle_rejected() {
        let mut g = graph();
        let a = g.add_type("A").unwrap();
        let b = g.add_type("B").unwrap();
        let c = g.add_type("C").unwrap();
        g.add_link(
            HierKind::PartOf,
            a,
            "bs",
            CollectionKind::Set,
            vec![],
            b,
            "a_of",
        )
        .unwrap();
        let l2 = g
            .add_link(
                HierKind::PartOf,
                b,
                "cs",
                CollectionKind::Set,
                vec![],
                c,
                "b_of",
            )
            .unwrap();
        // Moving the parent of l2 from B to C would make C its own parent.
        assert!(g.retarget_link_end(l2, LinkSide::Parent, c).is_err());
        // Moving the child of l2 from C to A would create A→B→A.
        assert!(g.retarget_link_end(l2, LinkSide::Child, a).is_err());
    }

    #[test]
    fn operation_override_allowed_in_subtype() {
        let mut g = graph();
        let a = g.add_type("A").unwrap();
        let b = g.add_type("B").unwrap();
        g.add_supertype(b, a).unwrap();
        g.add_operation(a, Operation::nullary("f", DomainType::Void))
            .unwrap();
        // Same name on the subtype: an override, allowed.
        g.add_operation(b, Operation::nullary("f", DomainType::Long))
            .unwrap();
        // Same name twice on the same type: rejected.
        assert!(g
            .add_operation(b, Operation::nullary("f", DomainType::Void))
            .is_err());
    }

    #[test]
    fn construct_count() {
        let mut g = graph();
        let a = g.add_type("A").unwrap();
        let b = g.add_type("B").unwrap();
        g.add_supertype(b, a).unwrap();
        g.add_attribute(a, "x", DomainType::Long, None).unwrap();
        g.add_relationship(
            a,
            "r",
            Cardinality::One,
            vec![],
            b,
            "i",
            Cardinality::One,
            vec![],
        )
        .unwrap();
        // 2 types + 1 supertype edge + 1 attr + 1 rel = 5
        assert_eq!(g.construct_count(), 5);
    }

    #[test]
    fn undo_rollback_restores_exact_state() {
        let mut g = graph();
        let a = g.add_type("A").unwrap();
        let b = g.add_type("B").unwrap();
        g.add_supertype(b, a).unwrap();
        g.add_attribute(a, "x", DomainType::Long, None).unwrap();
        g.add_key(a, Key::single("x")).unwrap();
        let oracle = g.clone();

        g.begin_undo();
        g.add_type("C").unwrap();
        g.add_attribute(b, "y", DomainType::String, None).unwrap();
        g.remove_type(a, RemoveTypeMode::RewireSubtypes).unwrap();
        g.rollback_undo();

        assert!(crate::diff::diff_graphs(&oracle, &g).is_empty());
        // IDs are restored exactly, not just structure.
        assert_eq!(g.type_id("A"), Some(a));
        assert_eq!(g.ty(a).keys, vec![Key::single("x")]);
        assert_eq!(g.ty(a).subtypes, vec![b]);
        assert_eq!(g.type_id("C"), None);
    }

    #[test]
    fn undo_commit_then_revert() {
        let mut g = graph();
        let a = g.add_type("A").unwrap();
        let oracle = g.clone();

        g.begin_undo();
        g.add_attribute(a, "x", DomainType::Long, None).unwrap();
        let p1 = g.commit_undo();
        g.begin_undo();
        g.remove_type(a, RemoveTypeMode::default()).unwrap();
        let p2 = g.commit_undo();
        assert!(p2.touched() > 0);

        // Mutations are kept by commit; reverting in reverse order undoes
        // them one transaction at a time.
        assert_eq!(g.type_id("A"), None);
        g.revert(&p2);
        assert_eq!(g.type_id("A"), Some(a));
        assert!(g.find_attr(a, "x").is_some());
        g.revert(&p1);
        assert!(g.find_attr(a, "x").is_none());
        assert!(crate::diff::diff_graphs(&oracle, &g).is_empty());
    }

    #[test]
    fn move_operation() {
        let mut g = graph();
        let a = g.add_type("A").unwrap();
        let b = g.add_type("B").unwrap();
        let f = g
            .add_operation(a, Operation::nullary("f", DomainType::Void))
            .unwrap();
        g.move_operation(f, b).unwrap();
        assert_eq!(g.op(f).owner, b);
        assert!(g.find_op(a, "f").is_none());
        assert_eq!(g.find_op(b, "f"), Some(f));
    }

    /// A small deterministic mutation source for the journal properties:
    /// every call does one random mutation (errors are fine: a rejected
    /// mutator leaves the graph untouched).
    struct Mutator {
        state: u64,
        fresh: usize,
    }

    impl Mutator {
        fn new(seed: u64) -> Mutator {
            Mutator {
                state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
                fresh: 0,
            }
        }

        fn next(&mut self, n: usize) -> usize {
            self.state ^= self.state << 13;
            self.state ^= self.state >> 7;
            self.state ^= self.state << 17;
            (self.state % n.max(1) as u64) as usize
        }

        fn live_type(&mut self, g: &SchemaGraph) -> Option<TypeId> {
            let live: Vec<TypeId> = g.types().map(|(id, _)| id).collect();
            (!live.is_empty()).then(|| live[self.next(live.len())])
        }

        fn mutate(&mut self, g: &mut SchemaGraph) {
            self.fresh += 1;
            let (Some(a), Some(b)) = (self.live_type(g), self.live_type(g)) else {
                let _ = g.add_type(&format!("T{}", self.fresh));
                return;
            };
            let name = format!("m{}", self.fresh);
            let _ = match self.next(9) {
                // Reuse a small name pool so deleted names come back.
                0 => g.add_type(&format!("T{}", self.next(12))).map(|_| ()),
                1 => g.remove_type(a, RemoveTypeMode::default()).map(|_| ()),
                2 => g.add_supertype(a, b),
                3 => g
                    .add_attribute(a, &name, DomainType::Long, None)
                    .map(|_| ()),
                4 => match g.ty(a).attrs.first().copied() {
                    Some(x) => g.move_attribute(x, b).map(|_| ()),
                    None => Ok(()),
                },
                5 => g
                    .add_relationship(
                        a,
                        &name,
                        Cardinality::One,
                        Vec::new(),
                        b,
                        &format!("{name}_inv"),
                        Cardinality::One,
                        Vec::new(),
                    )
                    .map(|_| ()),
                6 => match g.ty(a).rel_ends.first().copied() {
                    Some((r, e)) => g.retarget_rel_end(r, e, b),
                    None => Ok(()),
                },
                7 => g
                    .add_link(
                        HierKind::PartOf,
                        a,
                        &name,
                        CollectionKind::Set,
                        Vec::new(),
                        b,
                        &format!("{name}_of"),
                    )
                    .map(|_| ()),
                _ => match g.ty(a).child_links.first().copied() {
                    Some(l) => g.remove_link(l).map(|_| ()),
                    None => g.remove_supertype(a, b),
                },
            };
        }
    }

    fn interfaces(g: &SchemaGraph) -> HashMap<Symbol, sws_odl::Interface> {
        g.types()
            .map(|(id, n)| (n.name, crate::lower::type_to_interface(g, id)))
            .collect()
    }

    type Shape = Vec<(Symbol, Vec<TypeId>, Vec<TypeId>, Vec<LinkId>, Vec<LinkId>)>;

    fn shape(g: &SchemaGraph) -> Shape {
        g.types()
            .map(|(_, n)| {
                let sorted = |v: &Vec<TypeId>| {
                    let mut v = v.clone();
                    v.sort();
                    v
                };
                (
                    n.name,
                    sorted(&n.supertypes),
                    sorted(&n.subtypes),
                    n.parent_links.clone(),
                    n.child_links.clone(),
                )
            })
            .collect()
    }

    #[test]
    fn revert_keeps_the_live_count_equal_to_a_scan() {
        for seed in 1..=24u64 {
            let mut mutator = Mutator::new(seed);
            let mut g = graph();
            let mut patches = Vec::new();
            for _ in 0..80 {
                if !patches.is_empty() && mutator.next(3) == 0 {
                    g.revert(&patches.pop().unwrap());
                } else {
                    g.begin_undo();
                    for _ in 0..=mutator.next(3) {
                        mutator.mutate(&mut g);
                    }
                    patches.push(g.commit_undo());
                }
                assert_eq!(g.type_count(), g.types().count(), "seed {seed}");
                assert_eq!(g.by_name.len(), g.type_count(), "seed {seed}");
            }
            while let Some(p) = patches.pop() {
                g.revert(&p);
                assert_eq!(g.type_count(), g.types().count(), "seed {seed}");
            }
            assert_eq!(g.type_slots(), 0);
        }
    }

    #[test]
    fn touched_types_cover_every_changed_interface() {
        for seed in 1..=24u64 {
            let mut mutator = Mutator::new(seed + 100);
            let mut g = graph();
            for _ in 0..60 {
                let (before, before_shape) = (interfaces(&g), shape(&g));
                g.begin_undo();
                for _ in 0..=mutator.next(3) {
                    mutator.mutate(&mut g);
                }
                let patch = g.commit_undo();
                let (after, after_shape) = (interfaces(&g), shape(&g));
                let touched = patch.touched_types(&g);
                for name in before.keys().chain(after.keys()) {
                    if before.get(name) != after.get(name) {
                        assert!(
                            touched.contains(name),
                            "seed {seed}: `{name}` changed untracked"
                        );
                    }
                }
                if !patch.changes_hierarchy(&g) {
                    assert_eq!(before_shape, after_shape, "seed {seed}");
                }
                // Read before reverting, the same patch names the same types.
                let mut undone = g.clone();
                assert_eq!(patch.touched_types(&undone), touched);
                undone.revert(&patch);
                assert_eq!(interfaces(&undone), before, "seed {seed}");
            }
        }
    }

    #[test]
    fn a_clone_is_isolated_from_later_writes() {
        let mut g = graph();
        let mut mutator = Mutator::new(0x5EED);
        for _ in 0..200 {
            mutator.mutate(&mut g);
        }
        let snapshot = g.clone();
        let frozen = interfaces(&snapshot);
        assert!(g.types.shares_chunk_with(&snapshot.types, 0));
        for _ in 0..50 {
            mutator.mutate(&mut g);
        }
        assert_eq!(interfaces(&snapshot), frozen);
        assert_eq!(snapshot.type_count(), snapshot.types().count());
        // A write unshares the chunk it lands in, and only for the writer.
        let id = g.types().next().map(|(id, _)| id).unwrap();
        let fresh = g.clone();
        g.set_abstract(id, true).unwrap();
        assert!(!g.types.shares_chunk_with(&fresh.types, id.index()));
        assert!(!fresh.ty(id).is_abstract);
    }
}
