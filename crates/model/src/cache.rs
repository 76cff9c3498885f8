//! Generation-stamped memoization of the hot [`crate::query`] traversals.
//!
//! A [`QueryCache`] memoizes `ancestors`, `descendants`, `hier_closure`,
//! `generalization_components`, and `visible_members` keyed by their
//! arguments, stamped with the graph's [`SchemaGraph::generation`]. Every
//! mutating method on the graph bumps the generation, so the cache
//! invalidates *wholesale* on the first lookup after any mutation — there is
//! no fine-grained dependency tracking to get wrong, and a cache can never
//! serve stale results for the graph it is paired with.
//!
//! The cache uses interior mutability (`Cell`/`RefCell`) so read-only code
//! paths (precondition constraints, advice, interop) can share one
//! `&QueryCache` without threading `&mut` everywhere. It is intentionally
//! **not `Sync`** (and the compiler enforces it — see the compile-fail
//! doctest on [`QueryCache`]): the unsynchronized `Cell`/`RefCell`
//! interior means a cache shared across scoped worker threads would race
//! on the generation stamp and could serve an entry from a previous
//! generation. It *is* `Send` (memo entries are `Arc`, so a whole
//! `Workspace` can move between threads or live inside a `Mutex` — the
//! design service serializes on exactly that), but a `&QueryCache` never
//! crosses a thread boundary. The consistency checker does not use
//! `QueryCache`: it walks the graph directly with one persistent
//! [`WfScratch`](crate::WfScratch), which stays allocation-free without a
//! memo.
//!
//! **Pair one cache with one graph.** A cloned graph starts at its parent's
//! generation but diverges independently, so a cache shared across two
//! graphs could confuse their states. (`Workspace` in `sws-core` keeps one
//! cache for the working schema and one for the shrink wrap schema.)
//!
//! Hits and misses are exposed both as local counters ([`QueryCache::hits`]
//! / [`QueryCache::misses`]) and as sws-trace counters
//! (`model.query_cache.hits`, `model.query_cache.misses`,
//! `model.query_cache.invalidations`).

use crate::graph::SchemaGraph;
use crate::ids::{LinkId, TypeId};
use crate::intern::Symbol;
use crate::query;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;
use sws_odl::HierKind;

/// One memo table: key → shared, immutable result.
type Memo<K, V> = RefCell<HashMap<K, Arc<V>>>;

/// Memoizes hot hierarchy traversals for one [`SchemaGraph`]. See the
/// module docs.
///
/// A `QueryCache` may *move* between threads (`Send`) but can never be
/// *shared* across them — `Sync` is denied by its interior, and the
/// compiler enforces it:
///
/// ```
/// fn require_send<T: Send>() {}
/// require_send::<sws_model::QueryCache>(); // Arc memo entries: Send
/// ```
///
/// ```compile_fail,E0277
/// fn require_sync<T: Sync>() {}
/// require_sync::<sws_model::QueryCache>(); // Cell/RefCell interior: not Sync
/// ```
#[derive(Debug, Clone, Default)]
pub struct QueryCache {
    generation: Cell<u64>,
    ancestors: Memo<TypeId, Vec<TypeId>>,
    descendants: Memo<TypeId, Vec<TypeId>>,
    hier_closures: Memo<(HierKind, TypeId), (Vec<TypeId>, Vec<LinkId>)>,
    components: RefCell<Option<Arc<Vec<Vec<TypeId>>>>>,
    visible: Memo<TypeId, Vec<(Symbol, TypeId)>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl QueryCache {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        QueryCache::default()
    }

    /// Drop every entry whose generation stamp no longer matches `g`.
    fn sync(&self, g: &SchemaGraph) {
        if self.generation.get() != g.generation() {
            self.generation.set(g.generation());
            self.ancestors.borrow_mut().clear();
            self.descendants.borrow_mut().clear();
            self.hier_closures.borrow_mut().clear();
            *self.components.borrow_mut() = None;
            self.visible.borrow_mut().clear();
            sws_trace::counter("model.query_cache.invalidations", 1);
        }
    }

    fn hit(&self) {
        self.hits.set(self.hits.get() + 1);
        sws_trace::counter("model.query_cache.hits", 1);
    }

    fn miss(&self) {
        self.misses.set(self.misses.get() + 1);
        sws_trace::counter("model.query_cache.misses", 1);
    }

    /// Cached [`query::ancestors`].
    pub fn ancestors(&self, g: &SchemaGraph, t: TypeId) -> Arc<Vec<TypeId>> {
        self.sync(g);
        if let Some(v) = self.ancestors.borrow().get(&t) {
            self.hit();
            return Arc::clone(v);
        }
        self.miss();
        let v = Arc::new(query::ancestors(g, t));
        self.ancestors.borrow_mut().insert(t, Arc::clone(&v));
        v
    }

    /// Cached [`query::descendants`].
    pub fn descendants(&self, g: &SchemaGraph, t: TypeId) -> Arc<Vec<TypeId>> {
        self.sync(g);
        if let Some(v) = self.descendants.borrow().get(&t) {
            self.hit();
            return Arc::clone(v);
        }
        self.miss();
        let v = Arc::new(query::descendants(g, t));
        self.descendants.borrow_mut().insert(t, Arc::clone(&v));
        v
    }

    /// Cached [`query::hier_closure`].
    pub fn hier_closure(
        &self,
        g: &SchemaGraph,
        kind: HierKind,
        root: TypeId,
    ) -> Arc<(Vec<TypeId>, Vec<LinkId>)> {
        self.sync(g);
        if let Some(v) = self.hier_closures.borrow().get(&(kind, root)) {
            self.hit();
            return Arc::clone(v);
        }
        self.miss();
        let v = Arc::new(query::hier_closure(g, kind, root));
        self.hier_closures
            .borrow_mut()
            .insert((kind, root), Arc::clone(&v));
        v
    }

    /// Cached [`query::generalization_components`].
    pub fn generalization_components(&self, g: &SchemaGraph) -> Arc<Vec<Vec<TypeId>>> {
        self.sync(g);
        if let Some(v) = self.components.borrow().as_ref() {
            self.hit();
            return Arc::clone(v);
        }
        self.miss();
        let v = Arc::new(query::generalization_components(g));
        *self.components.borrow_mut() = Some(Arc::clone(&v));
        v
    }

    /// Cached [`query::visible_members`].
    pub fn visible_members(&self, g: &SchemaGraph, t: TypeId) -> Arc<Vec<(Symbol, TypeId)>> {
        self.sync(g);
        if let Some(v) = self.visible.borrow().get(&t) {
            self.hit();
            return Arc::clone(v);
        }
        self.miss();
        let v = Arc::new(query::visible_members(g, t));
        self.visible.borrow_mut().insert(t, Arc::clone(&v));
        v
    }

    /// [`query::is_ancestor`] answered from the cached ancestor set.
    pub fn is_ancestor(&self, g: &SchemaGraph, a: TypeId, b: TypeId) -> bool {
        self.ancestors(g, b).contains(&a)
    }

    /// [`query::on_same_generalization_path`] answered from cached ancestor
    /// sets.
    pub fn on_same_generalization_path(&self, g: &SchemaGraph, a: TypeId, b: TypeId) -> bool {
        a == b || self.is_ancestor(g, a, b) || self.is_ancestor(g, b, a)
    }

    /// The graph generation the cached entries are stamped with. After any
    /// lookup this equals the paired graph's
    /// [`generation`](SchemaGraph::generation); the stale-generation
    /// regression tests assert it.
    pub fn generation(&self) -> u64 {
        self.generation.get()
    }

    /// Lifetime hit count (monotonic, survives invalidation).
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lifetime miss count (monotonic, survives invalidation).
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> (SchemaGraph, TypeId, TypeId, TypeId) {
        let mut g = SchemaGraph::new("t");
        let a = g.add_type("A").unwrap();
        let b = g.add_type("B").unwrap();
        let c = g.add_type("C").unwrap();
        g.add_supertype(b, a).unwrap();
        g.add_supertype(c, b).unwrap();
        (g, a, b, c)
    }

    #[test]
    fn repeated_lookups_hit() {
        let (g, a, _, c) = chain();
        let qc = QueryCache::new();
        assert_eq!(*qc.ancestors(&g, c), query::ancestors(&g, c));
        assert_eq!(qc.misses(), 1);
        assert_eq!(*qc.ancestors(&g, c), query::ancestors(&g, c));
        assert_eq!(qc.hits(), 1);
        assert!(qc.is_ancestor(&g, a, c));
        assert_eq!(qc.hits(), 2);
    }

    #[test]
    fn mutation_invalidates_wholesale() {
        let (mut g, a, b, c) = chain();
        let qc = QueryCache::new();
        assert_eq!(qc.ancestors(&g, c).len(), 2);
        g.remove_supertype(c, b).unwrap();
        // Same cache, new generation: the stale entry must not be served.
        assert_eq!(qc.ancestors(&g, c).len(), 0);
        assert_eq!(*qc.descendants(&g, a), query::descendants(&g, a));
        assert_eq!(qc.hits(), 0);
    }

    #[test]
    fn concurrent_readers_never_observe_stale_generation() {
        // A shared read view's pattern: the graph is shared read-only
        // across threads, each thread builds its own cache. Mutate the
        // graph between rounds; every thread's cache must stamp itself
        // with the *current* generation on first lookup and serve results
        // identical to an uncached traversal.
        let (mut g, a, b, c) = chain();
        for round in 0..3u64 {
            if round == 1 {
                g.remove_supertype(c, b).unwrap();
            } else if round == 2 {
                g.add_supertype(c, b).unwrap();
            }
            let generation = g.generation();
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..4)
                    .map(|_| {
                        let g = &g;
                        scope.spawn(move || {
                            let qc = QueryCache::new();
                            let anc = qc.ancestors(g, c).as_ref().clone();
                            let desc = qc.descendants(g, a).as_ref().clone();
                            // Repeat lookups: hits must serve the same
                            // generation's entries.
                            assert_eq!(*qc.ancestors(g, c), anc);
                            assert!(qc.hits() >= 1);
                            (qc.generation(), anc, desc)
                        })
                    })
                    .collect();
                for h in handles {
                    let (gen_seen, anc, desc) = h.join().unwrap();
                    assert_eq!(gen_seen, generation, "stale generation stamp");
                    assert_eq!(anc, query::ancestors(&g, c));
                    assert_eq!(desc, query::descendants(&g, a));
                }
            });
        }
    }

    #[test]
    fn all_traversals_match_uncached() {
        let (mut g, a, _, c) = chain();
        let d = g.add_type("D").unwrap();
        g.add_link(
            sws_odl::HierKind::PartOf,
            a,
            "ds",
            sws_odl::CollectionKind::Set,
            vec![],
            d,
            "a_of",
        )
        .unwrap();
        g.add_attribute(a, "x", sws_odl::DomainType::Long, None)
            .unwrap();
        let qc = QueryCache::new();
        assert_eq!(*qc.descendants(&g, a), query::descendants(&g, a));
        assert_eq!(
            *qc.hier_closure(&g, HierKind::PartOf, a),
            query::hier_closure(&g, HierKind::PartOf, a)
        );
        assert_eq!(
            *qc.generalization_components(&g),
            query::generalization_components(&g)
        );
        assert_eq!(*qc.visible_members(&g, c), query::visible_members(&g, c));
        assert_eq!(
            qc.on_same_generalization_path(&g, a, c),
            query::on_same_generalization_path(&g, a, c)
        );
    }
}
