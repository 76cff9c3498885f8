//! [`AbsState`]: the abstract interpreter's schema state — a copy-on-write
//! overlay over a base [`SchemaGraph`] that is never mutated.
//!
//! The state implements [`SchemaView`], so the *identical* precondition
//! checker the executor runs (`sws_core::check_preconditions`) runs
//! over it unchanged — the analyzer cannot drift from the executor on what
//! a script may do. What remains to mirror is the *transfer function*: the
//! effect of one accepted operation on the state, which follows
//! `sws_core::ops::apply::apply_op` and the `SchemaGraph` mutators
//! statement by statement (minus undo journaling and cascade reporting,
//! neither of which is observable through the view).
//!
//! Two properties the mirror preserves exactly:
//!
//! * **ID discipline** — arena slots are tombstoned and never reused, new
//!   nodes append. The overlay mints IDs from the base slot counts, so a
//!   parallel real application produces the same IDs.
//! * **List order** — member and edge lists (`attrs`, `rel_ends`,
//!   `supertypes`, …) are pushed and `retain`ed in the same order as the
//!   real mutators, so traversal-order-sensitive checker output (BFS
//!   ancestor order, visible-member shadowing, violation order) is
//!   identical.
//!
//! Deliberate divergence: `remove_type` discovers incident relationships
//! and links through the *node's own* adjacency lists (`rel_ends`,
//! `parent_links`, `child_links`) instead of the executor's full-arena
//! scan. The graph invariant (a live edge is registered on both of its
//! endpoint types) makes the two discovery routes find the same edge set,
//! and the final state is identical; the analyzer stays O(script), not
//! O(graph), per operation.

use std::collections::{BTreeSet, HashMap, HashSet};
use sws_core::ModOp;
use sws_model::{
    AttrId, AttrNode, LinkId, LinkNode, LinkSide, OpId, OpNode, RelEnd, RelId, RelNode,
    SchemaGraph, SchemaView, SymKey, Symbol, TypeId, TypeNode,
};
use sws_odl::{Cardinality, CollectionKind, HierKind, Operation};

/// Copy-on-write overlay state. See the module docs.
pub struct AbsState<'a> {
    base: &'a SchemaGraph,
    /// Overlay nodes, keyed by raw arena index. An entry shadows the base
    /// slot (or is a minted node at an index past the base slot count).
    types: HashMap<u32, TypeNode>,
    attrs: HashMap<u32, AttrNode>,
    rels: HashMap<u32, RelNode>,
    ops: HashMap<u32, OpNode>,
    links: HashMap<u32, LinkNode>,
    /// Tombstones. A dead index never resolves, whatever the overlay holds.
    dead_types: HashSet<u32>,
    dead_attrs: HashSet<u32>,
    dead_rels: HashSet<u32>,
    dead_ops: HashSet<u32>,
    dead_links: HashSet<u32>,
    /// Next IDs to mint, seeded from the base arena slot counts.
    next_type: u32,
    next_attr: u32,
    next_rel: u32,
    next_op: u32,
    next_link: u32,
    /// Base slot counts (indices below resolve through the base arena).
    base_type_slots: u32,
    /// Name-resolution overlay: `Some(id)` after an add, `None` after a
    /// delete; absence falls through to the base index.
    by_name: HashMap<Symbol, Option<TypeId>>,
}

impl<'a> AbsState<'a> {
    /// Start from `base` with an empty overlay.
    pub fn new(base: &'a SchemaGraph) -> Self {
        let stats = base.arena_stats();
        AbsState {
            base,
            types: HashMap::new(),
            attrs: HashMap::new(),
            rels: HashMap::new(),
            ops: HashMap::new(),
            links: HashMap::new(),
            dead_types: HashSet::new(),
            dead_attrs: HashSet::new(),
            dead_rels: HashSet::new(),
            dead_ops: HashSet::new(),
            dead_links: HashSet::new(),
            next_type: (stats.types_live + stats.types_dead) as u32,
            next_attr: (stats.attrs_live + stats.attrs_dead) as u32,
            next_rel: (stats.rels_live + stats.rels_dead) as u32,
            next_op: (stats.ops_live + stats.ops_dead) as u32,
            next_link: (stats.links_live + stats.links_dead) as u32,
            base_type_slots: (stats.types_live + stats.types_dead) as u32,
            by_name: HashMap::new(),
        }
    }

    /// How many arena slots the overlay shadows or minted (test aid).
    pub fn overlay_len(&self) -> usize {
        self.types.len() + self.attrs.len() + self.rels.len() + self.ops.len() + self.links.len()
    }

    fn live_ty(&self, i: u32) -> Option<&TypeNode> {
        if self.dead_types.contains(&i) {
            return None;
        }
        if let Some(n) = self.types.get(&i) {
            return Some(n);
        }
        if i < self.base_type_slots {
            self.base.try_ty(TypeId(i))
        } else {
            None
        }
    }

    // -- copy-on-write mutable accessors --------------------------------

    fn type_mut(&mut self, id: TypeId) -> &mut TypeNode {
        self.types.entry(id.0).or_insert_with(|| {
            self.base
                .try_ty(id)
                .expect("analyzer touched a type the checker did not resolve")
                .clone()
        })
    }

    fn attr_mut(&mut self, id: AttrId) -> &mut AttrNode {
        self.attrs.entry(id.0).or_insert_with(|| {
            self.base
                .try_attr(id)
                .expect("analyzer touched an attribute the checker did not resolve")
                .clone()
        })
    }

    fn rel_mut(&mut self, id: RelId) -> &mut RelNode {
        self.rels.entry(id.0).or_insert_with(|| {
            self.base
                .try_rel(id)
                .expect("analyzer touched a relationship the checker did not resolve")
                .clone()
        })
    }

    fn op_mut(&mut self, id: OpId) -> &mut OpNode {
        self.ops.entry(id.0).or_insert_with(|| {
            self.base
                .try_op(id)
                .expect("analyzer touched an operation the checker did not resolve")
                .clone()
        })
    }

    fn link_mut(&mut self, id: LinkId) -> &mut LinkNode {
        self.links.entry(id.0).or_insert_with(|| {
            self.base
                .try_link(id)
                .expect("analyzer touched a link the checker did not resolve")
                .clone()
        })
    }

    fn require(&self, name: &str) -> TypeId {
        SchemaView::type_id(self, name).expect("precondition checker resolved this type")
    }

    // -- mirrored mutators ----------------------------------------------
    // Each function follows the same-named `SchemaGraph` mutator. Error
    // paths are omitted: `transfer` runs only on operations the shared
    // precondition checker accepted, which (by the coverage contract the
    // differential suite enforces) implies the mutator succeeds.

    fn add_type(&mut self, name: &str) {
        let sym = Symbol::intern(name);
        let id = TypeId(self.next_type);
        self.next_type += 1;
        self.types.insert(id.0, TypeNode::fresh(sym));
        self.by_name.insert(sym, Some(id));
    }

    fn remove_type(&mut self, id: TypeId) {
        let node = self.ty(id).clone();

        // Relationships with an end here — via the node's adjacency list
        // instead of the executor's arena scan (see module docs). A
        // self-loop registers twice; dedup preserves first-seen order,
        // matching the arena scan's ascending-ID order because adjacency
        // lists are push-ordered.
        let mut seen = BTreeSet::new();
        for &(rid, _) in &node.rel_ends {
            if seen.insert(rid) {
                self.remove_relationship(rid);
            }
        }
        let mut seen_links = BTreeSet::new();
        for &lid in node.parent_links.iter().chain(&node.child_links) {
            if seen_links.insert(lid) {
                self.remove_link(lid);
            }
        }

        // Members die with the type.
        for &a in &node.attrs {
            self.dead_attrs.insert(a.0);
        }
        for &o in &node.ops {
            self.dead_ops.insert(o.0);
        }

        // Supertype edges up.
        for &sup in &node.supertypes {
            self.type_mut(sup).subtypes.retain(|&s| s != id);
        }

        // Subtype edges down, rewired across the removed type
        // (`RemoveTypeMode::RewireSubtypes`, the only mode the apply
        // pipeline uses).
        for &sub in &node.subtypes {
            self.type_mut(sub).supertypes.retain(|&s| s != id);
            for &sup in &node.supertypes {
                if !self.ty(sub).supertypes.contains(&sup) {
                    self.type_mut(sub).supertypes.push(sup);
                    self.type_mut(sup).subtypes.push(sub);
                }
            }
        }

        self.dead_types.insert(id.0);
        self.by_name.insert(node.name, None);
    }

    fn add_supertype(&mut self, sub: TypeId, sup: TypeId) {
        self.type_mut(sub).supertypes.push(sup);
        self.type_mut(sup).subtypes.push(sub);
    }

    fn remove_supertype(&mut self, sub: TypeId, sup: TypeId) {
        self.type_mut(sub).supertypes.retain(|&s| s != sup);
        self.type_mut(sup).subtypes.retain(|&s| s != sub);
    }

    fn set_extent(&mut self, id: TypeId, extent: Option<&str>) {
        self.type_mut(id).extent = extent.map(Symbol::intern);
    }

    fn add_key(&mut self, id: TypeId, key: &sws_odl::Key) {
        let skey = SymKey::from_key(key);
        self.type_mut(id).keys.push(skey);
    }

    fn remove_key(&mut self, id: TypeId, key: &sws_odl::Key) {
        let skey = SymKey::from_key(key);
        self.type_mut(id).keys.retain(|k| *k != skey);
    }

    fn add_attribute(
        &mut self,
        owner: TypeId,
        name: &str,
        ty: sws_odl::DomainType,
        size: Option<u32>,
    ) {
        let id = AttrId(self.next_attr);
        self.next_attr += 1;
        self.attrs
            .insert(id.0, AttrNode::fresh(owner, Symbol::intern(name), ty, size));
        self.type_mut(owner).attrs.push(id);
    }

    fn remove_attribute(&mut self, id: AttrId) {
        let (owner, name) = {
            let a = self.attr(id);
            (a.owner, a.name)
        };
        self.prune_attr_references(owner, name);
        self.dead_attrs.insert(id.0);
        self.type_mut(owner).attrs.retain(|&a| a != id);
    }

    fn move_attribute(&mut self, id: AttrId, new_owner: TypeId) {
        let (old_owner, name) = {
            let a = self.attr(id);
            (a.owner, a.name)
        };
        if old_owner == new_owner {
            return;
        }
        self.prune_attr_references(old_owner, name);
        self.type_mut(old_owner).attrs.retain(|&a| a != id);
        self.type_mut(new_owner).attrs.push(id);
        self.attr_mut(id).owner = new_owner;
    }

    /// Mirror of `SchemaGraph::prune_attr_references`, using the owner's
    /// adjacency lists instead of the arena scans (see module docs: the
    /// opposite-end condition in the executor's scan selects exactly the
    /// relationships registered on `owner`, and the child-link condition
    /// selects exactly `owner`'s `child_links`).
    fn prune_attr_references(&mut self, owner: TypeId, name: Symbol) {
        self.type_mut(owner).keys.retain(|k| !k.0.contains(&name));
        let rel_ends = self.ty(owner).rel_ends.clone();
        for (rid, me) in rel_ends {
            let far = (1 - me) as usize;
            if self.rel(rid).ends[far].order_by.contains(&name) {
                self.rel_mut(rid).ends[far].order_by.retain(|&a| a != name);
            }
        }
        let child_links = self.ty(owner).child_links.clone();
        for lid in child_links {
            if self.link(lid).order_by.contains(&name) {
                self.link_mut(lid).order_by.retain(|&a| a != name);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn add_relationship(
        &mut self,
        a_owner: TypeId,
        a_path: &str,
        a_cardinality: Cardinality,
        a_order_by: &[String],
        b_owner: TypeId,
        b_path: &str,
        b_cardinality: Cardinality,
        b_order_by: &[String],
    ) {
        let id = RelId(self.next_rel);
        self.next_rel += 1;
        self.rels.insert(
            id.0,
            RelNode::fresh([
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
            ]),
        );
        self.type_mut(a_owner).rel_ends.push((id, 0));
        self.type_mut(b_owner).rel_ends.push((id, 1));
    }

    fn remove_relationship(&mut self, id: RelId) {
        let (a, b) = {
            let r = self.rel(id);
            (r.ends[0].owner, r.ends[1].owner)
        };
        self.type_mut(a).rel_ends.retain(|&(r, _)| r != id);
        self.type_mut(b).rel_ends.retain(|&(r, _)| r != id);
        self.dead_rels.insert(id.0);
    }

    fn retarget_rel_end(&mut self, id: RelId, end: u8, new_owner: TypeId) {
        let old_owner = self.rel(id).ends[end as usize].owner;
        if old_owner == new_owner {
            return;
        }
        self.type_mut(old_owner)
            .rel_ends
            .retain(|&(r, e)| !(r == id && e == end));
        self.type_mut(new_owner).rel_ends.push((id, end));
        self.rel_mut(id).ends[end as usize].owner = new_owner;
    }

    fn add_operation(&mut self, owner: TypeId, op: Operation) {
        let id = OpId(self.next_op);
        self.next_op += 1;
        self.ops.insert(id.0, OpNode::fresh(owner, op));
        self.type_mut(owner).ops.push(id);
    }

    fn remove_operation(&mut self, id: OpId) {
        let owner = self.op(id).owner;
        self.type_mut(owner).ops.retain(|&o| o != id);
        self.dead_ops.insert(id.0);
    }

    fn move_operation(&mut self, id: OpId, new_owner: TypeId) {
        let old_owner = self.op(id).owner;
        if old_owner == new_owner {
            return;
        }
        self.type_mut(old_owner).ops.retain(|&o| o != id);
        self.type_mut(new_owner).ops.push(id);
        self.op_mut(id).owner = new_owner;
    }

    #[allow(clippy::too_many_arguments)]
    fn add_link(
        &mut self,
        kind: HierKind,
        parent: TypeId,
        parent_path: &str,
        collection: CollectionKind,
        order_by: &[String],
        child: TypeId,
        child_path: &str,
    ) {
        let id = LinkId(self.next_link);
        self.next_link += 1;
        self.links.insert(
            id.0,
            LinkNode::fresh(
                kind,
                parent,
                Symbol::intern(parent_path),
                collection,
                order_by.iter().map(|s| Symbol::intern(s)).collect(),
                child,
                Symbol::intern(child_path),
            ),
        );
        self.type_mut(parent).parent_links.push(id);
        self.type_mut(child).child_links.push(id);
    }

    fn remove_link(&mut self, id: LinkId) {
        let (parent, child) = {
            let l = self.link(id);
            (l.parent, l.child)
        };
        self.type_mut(parent).parent_links.retain(|&l| l != id);
        self.type_mut(child).child_links.retain(|&l| l != id);
        self.dead_links.insert(id.0);
    }

    fn retarget_link_end(&mut self, id: LinkId, side: LinkSide, new_type: TypeId) {
        let old_type = match side {
            LinkSide::Parent => self.link(id).parent,
            LinkSide::Child => self.link(id).child,
        };
        if old_type == new_type {
            return;
        }
        match side {
            LinkSide::Parent => {
                self.type_mut(old_type).parent_links.retain(|&l| l != id);
                self.type_mut(new_type).parent_links.push(id);
                self.link_mut(id).parent = new_type;
            }
            LinkSide::Child => {
                self.type_mut(old_type).child_links.retain(|&l| l != id);
                self.type_mut(new_type).child_links.push(id);
                self.link_mut(id).child = new_type;
            }
        }
    }

    /// Abstract transfer: the effect of one *accepted* operation. Mirrors
    /// `apply_op` arm by arm; callers must run the precondition checker
    /// first (the `analyze` driver does).
    pub fn transfer(&mut self, op: &ModOp) {
        match op {
            ModOp::AddTypeDefinition { ty } => self.add_type(ty),
            ModOp::DeleteTypeDefinition { ty } => {
                let id = self.require(ty);
                self.remove_type(id);
            }
            ModOp::AddSupertype { ty, supertype } => {
                let sub = self.require(ty);
                let sup = self.require(supertype);
                self.add_supertype(sub, sup);
            }
            ModOp::DeleteSupertype { ty, supertype } => {
                let sub = self.require(ty);
                let sup = self.require(supertype);
                self.remove_supertype(sub, sup);
            }
            ModOp::ModifySupertype { ty, old, new } => {
                let sub = self.require(ty);
                for sup_name in old {
                    let sup = self.require(sup_name);
                    self.remove_supertype(sub, sup);
                }
                for sup_name in new {
                    let sup = self.require(sup_name);
                    self.add_supertype(sub, sup);
                }
            }
            ModOp::AddExtentName { ty, extent }
            | ModOp::ModifyExtentName {
                ty, new: extent, ..
            } => {
                let id = self.require(ty);
                self.set_extent(id, Some(extent));
            }
            ModOp::DeleteExtentName { ty, .. } => {
                let id = self.require(ty);
                self.set_extent(id, None);
            }
            ModOp::AddKeyList { ty, keys } => {
                let id = self.require(ty);
                for key in keys {
                    self.add_key(id, key);
                }
            }
            ModOp::DeleteKeyList { ty, keys } => {
                let id = self.require(ty);
                for key in keys {
                    self.remove_key(id, key);
                }
            }
            ModOp::ModifyKeyList { ty, old, new } => {
                let id = self.require(ty);
                for key in old {
                    self.remove_key(id, key);
                }
                for key in new {
                    self.add_key(id, key);
                }
            }
            ModOp::AddAttribute {
                ty,
                domain,
                size,
                name,
            } => {
                let id = self.require(ty);
                self.add_attribute(id, name, domain.clone(), *size);
            }
            ModOp::DeleteAttribute { ty, name } => {
                let id = self.require(ty);
                let aid = self
                    .find_attr(id, name)
                    .expect("precondition checker resolved this attribute");
                self.remove_attribute(aid);
            }
            ModOp::ModifyAttribute { ty, name, new_ty } => {
                let id = self.require(ty);
                let dest = self.require(new_ty);
                let aid = self
                    .find_attr(id, name)
                    .expect("precondition checker resolved this attribute");
                self.move_attribute(aid, dest);
            }
            ModOp::ModifyAttributeType { ty, name, new, .. } => {
                let id = self.require(ty);
                let aid = self
                    .find_attr(id, name)
                    .expect("precondition checker resolved this attribute");
                let had_size = self.attr(aid).size;
                self.attr_mut(aid).ty = new.clone();
                if had_size.is_some() && !new.admits_size() {
                    self.attr_mut(aid).size = None;
                }
            }
            ModOp::ModifyAttributeSize { ty, name, new, .. } => {
                let id = self.require(ty);
                let aid = self
                    .find_attr(id, name)
                    .expect("precondition checker resolved this attribute");
                self.attr_mut(aid).size = *new;
            }
            ModOp::AddRelationship {
                ty,
                target,
                cardinality,
                path,
                inverse_path,
                order_by,
            } => {
                let a = self.require(ty);
                let b = self.require(target);
                self.add_relationship(
                    a,
                    path,
                    *cardinality,
                    order_by,
                    b,
                    inverse_path,
                    Cardinality::One,
                    &[],
                );
            }
            ModOp::DeleteRelationship { ty, path } => {
                let id = self.require(ty);
                let (rid, _) = self
                    .find_rel_end(id, path)
                    .expect("precondition checker resolved this relationship");
                self.remove_relationship(rid);
            }
            ModOp::ModifyRelationshipTargetType {
                ty,
                path,
                new_target,
                ..
            } => {
                let id = self.require(ty);
                let dest = self.require(new_target);
                let (rid, e) = self
                    .find_rel_end(id, path)
                    .expect("precondition checker resolved this relationship");
                self.retarget_rel_end(rid, 1 - e, dest);
            }
            ModOp::ModifyRelationshipCardinality { ty, path, new, .. } => {
                let id = self.require(ty);
                let (rid, e) = self
                    .find_rel_end(id, path)
                    .expect("precondition checker resolved this relationship");
                self.rel_mut(rid).ends[e as usize].cardinality = *new;
            }
            ModOp::ModifyRelationshipOrderBy { ty, path, new, .. } => {
                let id = self.require(ty);
                let (rid, e) = self
                    .find_rel_end(id, path)
                    .expect("precondition checker resolved this relationship");
                self.rel_mut(rid).ends[e as usize].order_by =
                    new.iter().map(|s| Symbol::intern(s)).collect();
            }
            ModOp::AddOperation {
                ty,
                return_type,
                name,
                args,
                raises,
            } => {
                let id = self.require(ty);
                self.add_operation(
                    id,
                    Operation {
                        name: name.clone(),
                        return_type: return_type.clone(),
                        args: args.clone(),
                        raises: raises.clone(),
                    },
                );
            }
            ModOp::DeleteOperation { ty, name } => {
                let id = self.require(ty);
                let oid = self
                    .find_op(id, name)
                    .expect("precondition checker resolved this operation");
                self.remove_operation(oid);
            }
            ModOp::ModifyOperation { ty, name, new_ty } => {
                let id = self.require(ty);
                let dest = self.require(new_ty);
                let oid = self
                    .find_op(id, name)
                    .expect("precondition checker resolved this operation");
                self.move_operation(oid, dest);
            }
            ModOp::ModifyOperationReturnType { ty, name, new, .. } => {
                let id = self.require(ty);
                let oid = self
                    .find_op(id, name)
                    .expect("precondition checker resolved this operation");
                self.op_mut(oid).op.return_type = new.clone();
            }
            ModOp::ModifyOperationArgList { ty, name, new, .. } => {
                let id = self.require(ty);
                let oid = self
                    .find_op(id, name)
                    .expect("precondition checker resolved this operation");
                self.op_mut(oid).op.args = new.clone();
            }
            ModOp::ModifyOperationExceptionsRaised { ty, name, new, .. } => {
                let id = self.require(ty);
                let oid = self
                    .find_op(id, name)
                    .expect("precondition checker resolved this operation");
                self.op_mut(oid).op.raises = new.clone();
            }
            ModOp::AddPartOfRelationship {
                ty,
                collection,
                target,
                path,
                inverse_path,
                order_by,
            } => self.transfer_add_link(
                HierKind::PartOf,
                ty,
                *collection,
                target,
                path,
                inverse_path,
                order_by,
            ),
            ModOp::DeletePartOfRelationship { ty, path } => {
                self.transfer_delete_link(HierKind::PartOf, ty, path)
            }
            ModOp::ModifyPartOfTargetType {
                ty,
                path,
                new_target,
                ..
            } => self.transfer_retarget_link(HierKind::PartOf, ty, path, new_target),
            ModOp::ModifyPartOfCardinality { ty, path, new, .. } => {
                self.transfer_set_link_collection(HierKind::PartOf, ty, path, *new)
            }
            ModOp::ModifyPartOfOrderBy { ty, path, new, .. } => {
                self.transfer_set_link_order_by(HierKind::PartOf, ty, path, new)
            }
            ModOp::AddInstanceOfRelationship {
                ty,
                collection,
                target,
                path,
                inverse_path,
                order_by,
            } => self.transfer_add_link(
                HierKind::InstanceOf,
                ty,
                *collection,
                target,
                path,
                inverse_path,
                order_by,
            ),
            ModOp::DeleteInstanceOfRelationship { ty, path } => {
                self.transfer_delete_link(HierKind::InstanceOf, ty, path)
            }
            ModOp::ModifyInstanceOfTargetType {
                ty,
                path,
                new_target,
                ..
            } => self.transfer_retarget_link(HierKind::InstanceOf, ty, path, new_target),
            ModOp::ModifyInstanceOfCardinality { ty, path, new, .. } => {
                self.transfer_set_link_collection(HierKind::InstanceOf, ty, path, *new)
            }
            ModOp::ModifyInstanceOfOrderBy { ty, path, new, .. } => {
                self.transfer_set_link_order_by(HierKind::InstanceOf, ty, path, new)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn transfer_add_link(
        &mut self,
        kind: HierKind,
        ty: &str,
        collection: Option<CollectionKind>,
        target: &str,
        path: &str,
        inverse_path: &str,
        order_by: &[String],
    ) {
        let a = self.require(ty);
        let b = self.require(target);
        match collection {
            // To-parts / to-instance-entities form: `ty` is the parent.
            Some(kind_coll) => self.add_link(kind, a, path, kind_coll, order_by, b, inverse_path),
            // To-whole / to-generic-entity form: `ty` is the child.
            None => self.add_link(kind, b, inverse_path, CollectionKind::Set, &[], a, path),
        }
    }

    fn transfer_delete_link(&mut self, kind: HierKind, ty: &str, path: &str) {
        let id = self.require(ty);
        let (lid, _) = self
            .find_link(kind, id, path)
            .expect("precondition checker resolved this link");
        self.remove_link(lid);
    }

    fn transfer_retarget_link(&mut self, kind: HierKind, ty: &str, path: &str, new_target: &str) {
        let id = self.require(ty);
        let dest = self.require(new_target);
        let (lid, side) = self
            .find_link(kind, id, path)
            .expect("precondition checker resolved this link");
        // The path belongs to `ty`; its target is the opposite side.
        let opposite = match side {
            LinkSide::Parent => LinkSide::Child,
            LinkSide::Child => LinkSide::Parent,
        };
        self.retarget_link_end(lid, opposite, dest);
    }

    fn transfer_set_link_collection(
        &mut self,
        kind: HierKind,
        ty: &str,
        path: &str,
        collection: CollectionKind,
    ) {
        let id = self.require(ty);
        let (lid, _) = self
            .find_link(kind, id, path)
            .expect("precondition checker resolved this link");
        self.link_mut(lid).collection = collection;
    }

    fn transfer_set_link_order_by(&mut self, kind: HierKind, ty: &str, path: &str, new: &[String]) {
        let id = self.require(ty);
        let (lid, _) = self
            .find_link(kind, id, path)
            .expect("precondition checker resolved this link");
        self.link_mut(lid).order_by = new.iter().map(|s| Symbol::intern(s)).collect();
    }
}

impl SchemaView for AbsState<'_> {
    fn type_id(&self, name: &str) -> Option<TypeId> {
        let sym = Symbol::try_lookup(name)?;
        if let Some(entry) = self.by_name.get(&sym) {
            return *entry;
        }
        self.base.type_id(name)
    }

    fn ty(&self, id: TypeId) -> &TypeNode {
        self.live_ty(id.0)
            .expect("AbsState::ty on a dead or unknown type")
    }

    fn attr(&self, id: AttrId) -> &AttrNode {
        if self.dead_attrs.contains(&id.0) {
            panic!("AbsState::attr on a dead attribute");
        }
        self.attrs
            .get(&id.0)
            .or_else(|| self.base.try_attr(id))
            .expect("AbsState::attr on an unknown attribute")
    }

    fn rel(&self, id: RelId) -> &RelNode {
        if self.dead_rels.contains(&id.0) {
            panic!("AbsState::rel on a dead relationship");
        }
        self.rels
            .get(&id.0)
            .or_else(|| self.base.try_rel(id))
            .expect("AbsState::rel on an unknown relationship")
    }

    fn op(&self, id: OpId) -> &OpNode {
        if self.dead_ops.contains(&id.0) {
            panic!("AbsState::op on a dead operation");
        }
        self.ops
            .get(&id.0)
            .or_else(|| self.base.try_op(id))
            .expect("AbsState::op on an unknown operation")
    }

    fn link(&self, id: LinkId) -> &LinkNode {
        if self.dead_links.contains(&id.0) {
            panic!("AbsState::link on a dead link");
        }
        self.links
            .get(&id.0)
            .or_else(|| self.base.try_link(id))
            .expect("AbsState::link on an unknown link")
    }

    fn types_iter(&self) -> Box<dyn Iterator<Item = (TypeId, &TypeNode)> + '_> {
        Box::new((0..self.next_type).filter_map(move |i| self.live_ty(i).map(|n| (TypeId(i), n))))
    }
}
