//! [`SchemaView`]: a read-only abstraction over "something that looks like
//! a schema graph".
//!
//! The precondition checker in `sws-core` and the static analyzer in
//! `sws-analyze` must agree *exactly* on what a schema looks like mid-edit:
//! the analyzer predicts the first `OpError` the apply pipeline would
//! produce without ever mutating a [`SchemaGraph`]. Instead of duplicating
//! the checker over a second state representation (and letting the two
//! drift), the checker is generic over this trait. Implementations:
//!
//! * [`SchemaGraph`] itself — the executor's working and shrink wrap
//!   schemas,
//! * `sws_analyze::AbsState` — a copy-on-write overlay over a base graph.
//!
//! The traversal algorithms (`ancestors`, `descendants`, visible members,
//! hierarchy parents) live here as generic functions; `crate::query`'s
//! concrete functions delegate to them, so there is exactly one BFS to get
//! right. Every query is computed fresh: there is no memo to invalidate.
//! The only other walk is [`ClosureScratch`](crate::ClosureScratch), the
//! allocation-free copy the consistency recheck uses; tests pin the two to
//! each other.

use crate::graph::{AttrNode, LinkNode, LinkSide, OpNode, RelNode, SchemaGraph, TypeNode};
use crate::ids::{AttrId, LinkId, OpId, RelId, TypeId};
use crate::intern::Symbol;
use std::collections::{BTreeSet, VecDeque};
use sws_odl::HierKind;

/// Read-only access to a schema state: node accessors plus the derived
/// hierarchy queries the precondition checker needs. See the module docs.
///
/// Required methods are the primitive accessors; everything else has a
/// provided implementation written against them, mirroring the inherent
/// methods on [`SchemaGraph`] (which the blanket impl forwards to, so the
/// two can never disagree).
pub trait SchemaView {
    /// Look up a live type by name.
    fn type_id(&self, name: &str) -> Option<TypeId>;
    /// The type node for `id` (panics if dead).
    fn ty(&self, id: TypeId) -> &TypeNode;
    /// The attribute node for `id` (panics if dead).
    fn attr(&self, id: AttrId) -> &AttrNode;
    /// The relationship node for `id` (panics if dead).
    fn rel(&self, id: RelId) -> &RelNode;
    /// The operation node for `id` (panics if dead).
    fn op(&self, id: OpId) -> &OpNode;
    /// The link node for `id` (panics if dead).
    fn link(&self, id: LinkId) -> &LinkNode;
    /// Iterate over live types in arena (= insertion) order. Boxed so the
    /// trait stays object-safe and implementable over composite states.
    fn types_iter(&self) -> Box<dyn Iterator<Item = (TypeId, &TypeNode)> + '_>;

    /// The name of type `id`.
    fn type_name(&self, id: TypeId) -> &'static str {
        self.ty(id).name.as_str()
    }

    /// Find an attribute by owner and name.
    fn find_attr(&self, owner: TypeId, name: &str) -> Option<AttrId> {
        self.ty(owner)
            .attrs
            .iter()
            .copied()
            .find(|&a| self.attr(a).name == name)
    }

    /// Find a relationship end by owner and traversal path name.
    fn find_rel_end(&self, owner: TypeId, path: &str) -> Option<(RelId, u8)> {
        self.ty(owner)
            .rel_ends
            .iter()
            .copied()
            .find(|&(r, e)| self.rel(r).end(e).path == path)
    }

    /// Find an operation by owner and name.
    fn find_op(&self, owner: TypeId, name: &str) -> Option<OpId> {
        self.ty(owner)
            .ops
            .iter()
            .copied()
            .find(|&o| self.op(o).name == name)
    }

    /// Find a hierarchy link of `kind` by owner and traversal path name,
    /// reporting which side of the link the path belongs to.
    fn find_link(&self, kind: HierKind, owner: TypeId, path: &str) -> Option<(LinkId, LinkSide)> {
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

    /// True if `name` is already used by any member of `owner`.
    fn member_exists(&self, owner: TypeId, name: &str) -> bool {
        self.find_attr(owner, name).is_some()
            || self.find_rel_end(owner, name).is_some()
            || self.find_op(owner, name).is_some()
            || self.find_link(HierKind::PartOf, owner, name).is_some()
            || self.find_link(HierKind::InstanceOf, owner, name).is_some()
    }

    /// Direct hierarchy parents of `t` in the `kind` hierarchy.
    fn hier_parents(&self, kind: HierKind, t: TypeId) -> Vec<(LinkId, TypeId)> {
        self.ty(t)
            .child_links
            .iter()
            .filter_map(|&l| {
                let link = self.link(l);
                (link.kind == kind).then_some((l, link.parent))
            })
            .collect()
    }

    /// All strict ancestors of `t` via supertype edges, in BFS order.
    fn ancestors(&self, t: TypeId) -> Vec<TypeId> {
        ancestors_of(self, t)
    }

    /// All strict descendants of `t` via subtype edges, in BFS order.
    fn descendants(&self, t: TypeId) -> Vec<TypeId> {
        descendants_of(self, t)
    }

    /// The member names visible on `t` (own plus inherited), as
    /// `(name, defining type)` pairs; nearest definition wins.
    fn visible_members(&self, t: TypeId) -> Vec<(Symbol, TypeId)> {
        visible_members_of(self, t)
    }

    /// True if `a` is a strict ancestor of `b`.
    fn is_ancestor(&self, a: TypeId, b: TypeId) -> bool {
        self.ancestors(b).contains(&a)
    }

    /// The paper's *semantic stability* predicate: `a` and `b` lie on one
    /// generalization path.
    fn on_same_generalization_path(&self, a: TypeId, b: TypeId) -> bool {
        a == b || self.is_ancestor(a, b) || self.is_ancestor(b, a)
    }
}

/// The single generic BFS behind [`SchemaView::ancestors`] and
/// [`crate::query::ancestors`].
pub fn ancestors_of<V: SchemaView + ?Sized>(v: &V, t: TypeId) -> Vec<TypeId> {
    let mut out = Vec::new();
    let mut seen = BTreeSet::new();
    let mut queue: VecDeque<TypeId> = v.ty(t).supertypes.iter().copied().collect();
    while let Some(current) = queue.pop_front() {
        if !seen.insert(current) {
            continue;
        }
        out.push(current);
        queue.extend(v.ty(current).supertypes.iter().copied());
    }
    out
}

/// The single generic BFS behind [`SchemaView::descendants`] and
/// [`crate::query::descendants`].
pub fn descendants_of<V: SchemaView + ?Sized>(v: &V, t: TypeId) -> Vec<TypeId> {
    let mut out = Vec::new();
    let mut seen = BTreeSet::new();
    let mut queue: VecDeque<TypeId> = v.ty(t).subtypes.iter().copied().collect();
    while let Some(current) = queue.pop_front() {
        if !seen.insert(current) {
            continue;
        }
        out.push(current);
        queue.extend(v.ty(current).subtypes.iter().copied());
    }
    out
}

/// The single generic layered walk behind [`SchemaView::visible_members`]
/// and [`crate::query::visible_members`].
pub fn visible_members_of<V: SchemaView + ?Sized>(v: &V, t: TypeId) -> Vec<(Symbol, TypeId)> {
    let mut out: Vec<(Symbol, TypeId)> = Vec::new();
    let mut have: BTreeSet<Symbol> = BTreeSet::new();
    let mut layer = vec![t];
    let mut seen = BTreeSet::new();
    while !layer.is_empty() {
        let mut next = Vec::new();
        for &current in &layer {
            if !seen.insert(current) {
                continue;
            }
            let node = v.ty(current);
            let mut push = |name: Symbol| {
                if have.insert(name) {
                    out.push((name, current));
                }
            };
            for &a in &node.attrs {
                push(v.attr(a).name);
            }
            for &(r, e) in &node.rel_ends {
                push(v.rel(r).end(e).path);
            }
            for &o in &node.ops {
                push(v.op(o).name);
            }
            for &l in &node.parent_links {
                push(v.link(l).parent_path);
            }
            for &l in &node.child_links {
                push(v.link(l).child_path);
            }
            next.extend(node.supertypes.iter().copied());
        }
        layer = next;
    }
    out
}

impl SchemaView for SchemaGraph {
    fn type_id(&self, name: &str) -> Option<TypeId> {
        SchemaGraph::type_id(self, name)
    }

    fn ty(&self, id: TypeId) -> &TypeNode {
        SchemaGraph::ty(self, id)
    }

    fn attr(&self, id: AttrId) -> &AttrNode {
        SchemaGraph::attr(self, id)
    }

    fn rel(&self, id: RelId) -> &RelNode {
        SchemaGraph::rel(self, id)
    }

    fn op(&self, id: OpId) -> &OpNode {
        SchemaGraph::op(self, id)
    }

    fn link(&self, id: LinkId) -> &LinkNode {
        SchemaGraph::link(self, id)
    }

    fn types_iter(&self) -> Box<dyn Iterator<Item = (TypeId, &TypeNode)> + '_> {
        Box::new(SchemaGraph::types(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query;
    use sws_odl::DomainType;

    fn fixture() -> SchemaGraph {
        let mut g = SchemaGraph::new("v");
        let person = g.add_type("Person").expect("fresh type");
        let emp = g.add_type("Employee").expect("fresh type");
        let mgr = g.add_type("Manager").expect("fresh type");
        g.add_supertype(emp, person).expect("edge");
        g.add_supertype(mgr, emp).expect("edge");
        g.add_attribute(person, "name", DomainType::String, None)
            .expect("attr");
        g
    }

    #[test]
    fn graph_view_matches_query_functions() {
        let g = fixture();
        let mgr = g.type_id("Manager").expect("Manager");
        let person = g.type_id("Person").expect("Person");
        assert_eq!(SchemaView::ancestors(&g, mgr), query::ancestors(&g, mgr));
        assert_eq!(
            SchemaView::descendants(&g, person),
            query::descendants(&g, person)
        );
        assert_eq!(
            SchemaView::visible_members(&g, mgr),
            query::visible_members(&g, mgr)
        );
        assert!(SchemaView::is_ancestor(&g, person, mgr));
        assert!(SchemaView::on_same_generalization_path(&g, mgr, person));
    }
}
