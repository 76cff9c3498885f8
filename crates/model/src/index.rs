//! Allocation-free hierarchy traversal scratch.
//!
//! The hierarchy traversals (ancestors, descendants, part-of / instance-of
//! closures, cycle probes) used to allocate a fresh `Vec` + `BTreeSet` per
//! call. [`ClosureScratch`] removes both costs: it holds epoch-stamped
//! visited marks and reusable queue/stack storage, walks the live
//! [`SchemaGraph`] directly, and writes into caller-provided buffers. After
//! warm-up (`ensure_slots`), every traversal is allocation-free.
//!
//! Edges are visited in the graph's arena-vec order (the order mutators
//! appended them), so every traversal returns exactly what the eager
//! [`crate::query`] routine returns. That routine — the generic BFS in
//! [`crate::view`] — is the reference; this copy exists only for the
//! consistency recheck's zero-allocation hot path, and tests pin the two
//! to each other under arbitrary mutation.

use crate::graph::SchemaGraph;
use crate::ids::{LinkId, TypeId};
use sws_odl::HierKind;

/// Reusable traversal state: epoch-stamped visited marks (no clearing
/// between traversals — bumping the epoch invalidates all marks in O(1))
/// plus a queue that doubles as a stack. Allocation-free once
/// [`ClosureScratch::ensure_slots`] has sized it for the graph.
#[derive(Debug, Clone, Default)]
pub struct ClosureScratch {
    epoch: u64,
    type_mark: Vec<u64>,
    link_mark: Vec<u64>,
    queue: Vec<TypeId>,
    head: usize,
}

impl ClosureScratch {
    /// Grow the visited tables to cover `type_slots` / `link_slots` arena
    /// slots. Call this whenever the graph may have grown — and, on the
    /// zero-allocation hot path, call it *before* entering the measured
    /// span, so the span interior never grows a table.
    pub fn ensure_slots(&mut self, type_slots: usize, link_slots: usize) {
        if self.type_mark.len() < type_slots {
            self.type_mark.resize(type_slots, 0);
        }
        if self.link_mark.len() < link_slots {
            self.link_mark.resize(link_slots, 0);
        }
        let cap = type_slots.max(16);
        if self.queue.capacity() < cap {
            self.queue.reserve(cap - self.queue.capacity());
        }
    }

    fn begin(&mut self) {
        self.epoch += 1;
        self.queue.clear();
        self.head = 0;
    }

    fn mark_type(&mut self, t: TypeId) -> bool {
        let m = &mut self.type_mark[t.index()];
        if *m == self.epoch {
            false
        } else {
            *m = self.epoch;
            true
        }
    }

    /// Queue the parents of `t` in the `kind` hierarchy, in insertion order.
    fn push_hier_parents(&mut self, g: &SchemaGraph, kind: HierKind, t: TypeId) {
        for &l in &g.ty(t).child_links {
            let link = g.link(l);
            if link.kind == kind {
                self.queue.push(link.parent);
            }
        }
    }

    /// Strict ancestors of `t` via supertype edges, BFS order, into `out`.
    /// Mirrors the eager query exactly, including the cycle convention that
    /// a type on a supertype cycle is its own ancestor.
    pub fn ancestors_into(&mut self, g: &SchemaGraph, t: TypeId, out: &mut Vec<TypeId>) {
        out.clear();
        self.begin();
        self.queue.extend_from_slice(&g.ty(t).supertypes);
        while self.head < self.queue.len() {
            let cur = self.queue[self.head];
            self.head += 1;
            if !self.mark_type(cur) {
                continue;
            }
            out.push(cur);
            self.queue.extend_from_slice(&g.ty(cur).supertypes);
        }
    }

    /// Strict descendants of `t` via subtype edges, BFS order, into `out`.
    pub fn descendants_into(&mut self, g: &SchemaGraph, t: TypeId, out: &mut Vec<TypeId>) {
        out.clear();
        self.begin();
        self.queue.extend_from_slice(&g.ty(t).subtypes);
        while self.head < self.queue.len() {
            let cur = self.queue[self.head];
            self.head += 1;
            if !self.mark_type(cur) {
                continue;
            }
            out.push(cur);
            self.queue.extend_from_slice(&g.ty(cur).subtypes);
        }
    }

    /// Downward closure of the `kind` hierarchy from `root` (inclusive),
    /// BFS order; traversed links (first sighting) into `out_links`.
    pub fn hier_closure_into(
        &mut self,
        g: &SchemaGraph,
        kind: HierKind,
        root: TypeId,
        out_types: &mut Vec<TypeId>,
        out_links: &mut Vec<LinkId>,
    ) {
        out_types.clear();
        out_links.clear();
        self.begin();
        self.queue.push(root);
        while self.head < self.queue.len() {
            let t = self.queue[self.head];
            self.head += 1;
            if !self.mark_type(t) {
                continue;
            }
            out_types.push(t);
            for &l in &g.ty(t).parent_links {
                let link = g.link(l);
                if link.kind != kind {
                    continue;
                }
                if self.link_mark[l.index()] != self.epoch {
                    self.link_mark[l.index()] = self.epoch;
                    out_links.push(l);
                }
                self.queue.push(link.child);
            }
        }
    }

    /// True if `start` reaches itself via supertype edges (a generalization
    /// cycle through `start`).
    pub fn has_gen_cycle(&mut self, g: &SchemaGraph, start: TypeId) -> bool {
        self.begin();
        self.queue.extend_from_slice(&g.ty(start).supertypes);
        while let Some(t) = self.queue.pop() {
            if t == start {
                return true;
            }
            if self.mark_type(t) {
                self.queue.extend_from_slice(&g.ty(t).supertypes);
            }
        }
        false
    }

    /// True if `start` reaches itself walking upward (child → parent) in
    /// the `kind` hierarchy.
    pub fn has_hier_cycle(&mut self, g: &SchemaGraph, kind: HierKind, start: TypeId) -> bool {
        self.begin();
        self.push_hier_parents(g, kind, start);
        while let Some(t) = self.queue.pop() {
            if t == start {
                return true;
            }
            if self.mark_type(t) {
                self.push_hier_parents(g, kind, t);
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query;
    use sws_odl::CollectionKind;

    fn diamond() -> (SchemaGraph, Vec<TypeId>) {
        let mut g = SchemaGraph::new("t");
        let a = g.add_type("A").unwrap();
        let b = g.add_type("B").unwrap();
        let c = g.add_type("C").unwrap();
        let d = g.add_type("D").unwrap();
        g.add_supertype(b, a).unwrap();
        g.add_supertype(c, a).unwrap();
        g.add_supertype(d, b).unwrap();
        g.add_supertype(d, c).unwrap();
        (g, vec![a, b, c, d])
    }

    #[test]
    fn index_traversals_match_eager_queries() {
        let (mut g, t) = diamond();
        g.add_link(
            HierKind::PartOf,
            t[0],
            "parts",
            CollectionKind::Set,
            vec![],
            t[3],
            "whole",
        )
        .unwrap();
        // Tombstone a slot so dead-slot handling is exercised.
        let dead = g.add_type("Doomed").unwrap();
        g.remove_type(dead, Default::default()).unwrap();

        let mut scratch = ClosureScratch::default();
        scratch.ensure_slots(g.type_slots(), g.link_slots());
        let mut out = Vec::new();
        for (id, _) in g.types() {
            scratch.ancestors_into(&g, id, &mut out);
            assert_eq!(out, query::ancestors(&g, id), "ancestors of {id}");
            scratch.descendants_into(&g, id, &mut out);
            assert_eq!(out, query::descendants(&g, id), "descendants of {id}");
            for kind in [HierKind::PartOf, HierKind::InstanceOf] {
                let (types, links) = query::hier_closure(&g, kind, id);
                let (mut it, mut il) = (Vec::new(), Vec::new());
                scratch.hier_closure_into(&g, kind, id, &mut it, &mut il);
                assert_eq!(it, types);
                assert_eq!(il, links);
            }
        }
    }

    #[test]
    fn cycle_probes_terminate_and_agree() {
        let mut g = SchemaGraph::new("cyclic");
        let a = g.add_type("A").unwrap();
        let b = g.add_type("B").unwrap();
        g.add_supertype(a, b).unwrap();
        g.force_supertype_edge(b, a);
        let mut scratch = ClosureScratch::default();
        scratch.ensure_slots(g.type_slots(), g.link_slots());
        let mut out = Vec::new();
        for t in [a, b] {
            assert!(scratch.has_gen_cycle(&g, t));
            // On a cycle a type is its own ancestor, as in the eager query.
            scratch.ancestors_into(&g, t, &mut out);
            assert_eq!(out, query::ancestors(&g, t), "ancestors of {t}");
            assert!(query::is_ancestor(&g, t, t));
        }
        assert!(!scratch.has_hier_cycle(&g, HierKind::PartOf, a));
    }
}
