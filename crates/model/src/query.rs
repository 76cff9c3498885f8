//! Hierarchy queries over a [`SchemaGraph`]: generalization ancestry,
//! part-of / instance-of structure, roots, components, and the
//! *semantic-stability* predicate the paper's move operations require.

use crate::graph::{SchemaGraph, TypeNode};
use crate::ids::{LinkId, TypeId};
use crate::intern::Symbol;
use std::collections::{BTreeSet, VecDeque};
use sws_odl::HierKind;

/// All strict ancestors of `t` via supertype edges, in BFS order. Every
/// query is computed fresh: there is no memo to invalidate.
pub fn ancestors(g: &SchemaGraph, t: TypeId) -> Vec<TypeId> {
    bfs(g, t, |n| &n.supertypes)
}

/// All strict descendants of `t` via subtype edges, in BFS order.
pub fn descendants(g: &SchemaGraph, t: TypeId) -> Vec<TypeId> {
    bfs(g, t, |n| &n.subtypes)
}

/// Breadth-first walk from `t`'s `next` neighbours, `t` itself excluded
/// unless a cycle reaches it.
fn bfs(g: &SchemaGraph, t: TypeId, next: impl Fn(&TypeNode) -> &[TypeId]) -> Vec<TypeId> {
    let mut out = Vec::new();
    let mut seen = BTreeSet::new();
    let mut queue: VecDeque<TypeId> = next(g.ty(t)).iter().copied().collect();
    while let Some(current) = queue.pop_front() {
        if !seen.insert(current) {
            continue;
        }
        out.push(current);
        queue.extend(next(g.ty(current)).iter().copied());
    }
    out
}

/// True if `a` is a strict ancestor of `b`.
pub fn is_ancestor(g: &SchemaGraph, a: TypeId, b: TypeId) -> bool {
    ancestors(g, b).contains(&a)
}

/// The paper's *semantic stability* predicate (§3.2): information may move
/// between `a` and `b` only if they lie on one generalization path — i.e.
/// one is an ancestor of the other (or they are the same type).
pub fn on_same_generalization_path(g: &SchemaGraph, a: TypeId, b: TypeId) -> bool {
    a == b || is_ancestor(g, a, b) || is_ancestor(g, b, a)
}

/// Types with at least one subtype and no supertype: the roots of
/// generalization hierarchies.
pub fn generalization_roots(g: &SchemaGraph) -> Vec<TypeId> {
    g.types()
        .filter(|(_, n)| n.supertypes.is_empty() && !n.subtypes.is_empty())
        .map(|(id, _)| id)
        .collect()
}

/// Connected components of the generalization (ISA) edge graph, each as a
/// sorted set of member types. Components with a single type (no edges) are
/// omitted.
pub fn generalization_components(g: &SchemaGraph) -> Vec<Vec<TypeId>> {
    let mut seen = BTreeSet::new();
    let mut components = Vec::new();
    for (start, node) in g.types() {
        if seen.contains(&start) || (node.supertypes.is_empty() && node.subtypes.is_empty()) {
            continue;
        }
        let mut component = Vec::new();
        let mut queue = VecDeque::from([start]);
        while let Some(t) = queue.pop_front() {
            if !seen.insert(t) {
                continue;
            }
            component.push(t);
            let n = g.ty(t);
            queue.extend(n.supertypes.iter().copied());
            queue.extend(n.subtypes.iter().copied());
        }
        component.sort();
        components.push(component);
    }
    components
}

/// Roots of one generalization component: members with no supertype.
pub fn component_roots(g: &SchemaGraph, component: &[TypeId]) -> Vec<TypeId> {
    component
        .iter()
        .copied()
        .filter(|&t| g.ty(t).supertypes.is_empty())
        .collect()
}

/// Direct hierarchy parents of `t` in the `kind` hierarchy, with the links.
pub fn hier_parents(g: &SchemaGraph, kind: HierKind, t: TypeId) -> Vec<(LinkId, TypeId)> {
    g.ty(t)
        .child_links
        .iter()
        .filter_map(|&l| {
            let link = g.link(l);
            (link.kind == kind).then_some((l, link.parent))
        })
        .collect()
}

/// Direct hierarchy children of `t` in the `kind` hierarchy, with the links.
pub fn hier_children(g: &SchemaGraph, kind: HierKind, t: TypeId) -> Vec<(LinkId, TypeId)> {
    g.ty(t)
        .parent_links
        .iter()
        .filter_map(|&l| {
            let link = g.link(l);
            (link.kind == kind).then_some((l, link.child))
        })
        .collect()
}

/// Roots of the `kind` hierarchy: types that are a parent in some link of
/// that kind but a child in none.
pub fn hier_roots(g: &SchemaGraph, kind: HierKind) -> Vec<TypeId> {
    g.types()
        .filter(|(id, _)| {
            !hier_children(g, kind, *id).is_empty() && hier_parents(g, kind, *id).is_empty()
        })
        .map(|(id, _)| id)
        .collect()
}

/// All types reachable downward from `root` in the `kind` hierarchy
/// (including `root`), with the links traversed, in BFS order.
pub fn hier_closure(g: &SchemaGraph, kind: HierKind, root: TypeId) -> (Vec<TypeId>, Vec<LinkId>) {
    let mut types = Vec::new();
    let mut links = Vec::new();
    let mut seen = BTreeSet::new();
    let mut seen_links = BTreeSet::new();
    let mut queue = VecDeque::from([root]);
    while let Some(t) = queue.pop_front() {
        if !seen.insert(t) {
            continue;
        }
        types.push(t);
        for (l, child) in hier_children(g, kind, t) {
            if seen_links.insert(l) {
                links.push(l);
            }
            queue.push_back(child);
        }
    }
    (types, links)
}

/// The member (attribute / relationship-path / operation / link-path) names
/// visible on `t`, i.e. its own members plus everything inherited from
/// ancestors. Returns `(name, defining type)` pairs; for overridden
/// operations only the nearest definition is kept.
pub fn visible_members(g: &SchemaGraph, t: TypeId) -> Vec<(Symbol, TypeId)> {
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
            let node = g.ty(current);
            let mut push = |name: Symbol| {
                if have.insert(name) {
                    out.push((name, current));
                }
            };
            for &a in &node.attrs {
                push(g.attr(a).name);
            }
            for &(r, e) in &node.rel_ends {
                push(g.rel(r).end(e).path);
            }
            for &o in &node.ops {
                push(g.op(o).name);
            }
            for &l in &node.parent_links {
                push(g.link(l).parent_path);
            }
            for &l in &node.child_links {
                push(g.link(l).child_path);
            }
            next.extend(node.supertypes.iter().copied());
        }
        layer = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SchemaGraph;
    use sws_odl::{Cardinality, CollectionKind, DomainType};

    /// Student hierarchy from Fig. 4 of the paper.
    fn student_graph() -> (SchemaGraph, Vec<TypeId>) {
        let mut g = SchemaGraph::new("uni");
        let student = g.add_type("Student").unwrap();
        let undergrad = g.add_type("Undergraduate").unwrap();
        let grad = g.add_type("Graduate").unwrap();
        let masters = g.add_type("Masters").unwrap();
        let phd = g.add_type("PhD").unwrap();
        let non_thesis = g.add_type("NonThesisMasters").unwrap();
        g.add_supertype(undergrad, student).unwrap();
        g.add_supertype(grad, student).unwrap();
        g.add_supertype(masters, grad).unwrap();
        g.add_supertype(phd, grad).unwrap();
        g.add_supertype(non_thesis, masters).unwrap();
        (g, vec![student, undergrad, grad, masters, phd, non_thesis])
    }

    #[test]
    fn ancestors_and_descendants() {
        let (g, t) = student_graph();
        let [student, _undergrad, grad, masters, _phd, non_thesis] =
            [t[0], t[1], t[2], t[3], t[4], t[5]];
        assert_eq!(ancestors(&g, non_thesis), vec![masters, grad, student]);
        assert!(descendants(&g, student).len() == 5);
        assert!(is_ancestor(&g, student, non_thesis));
        assert!(!is_ancestor(&g, non_thesis, student));
    }

    #[test]
    fn semantic_stability_predicate() {
        let (g, t) = student_graph();
        let [_, undergrad, grad, masters, ..] = [t[0], t[1], t[2], t[3], t[4], t[5]];
        assert!(on_same_generalization_path(&g, grad, masters));
        assert!(on_same_generalization_path(&g, masters, grad));
        assert!(on_same_generalization_path(&g, grad, grad));
        // Siblings are NOT on one path.
        assert!(!on_same_generalization_path(&g, undergrad, grad));
    }

    #[test]
    fn roots_and_components() {
        let (mut g, t) = student_graph();
        let student = t[0];
        // A second, separate hierarchy plus an isolated type.
        let a = g.add_type("A").unwrap();
        let b = g.add_type("B").unwrap();
        g.add_supertype(b, a).unwrap();
        g.add_type("Loner").unwrap();
        let roots = generalization_roots(&g);
        assert!(roots.contains(&student) && roots.contains(&a));
        assert_eq!(roots.len(), 2);
        let components = generalization_components(&g);
        assert_eq!(components.len(), 2);
        assert!(components.iter().any(|c| c.len() == 6));
        assert!(components.iter().any(|c| c.len() == 2));
        for c in &components {
            assert_eq!(component_roots(&g, c).len(), 1);
        }
    }

    #[test]
    fn hierarchy_queries() {
        let mut g = SchemaGraph::new("house");
        let house = g.add_type("House").unwrap();
        let roof = g.add_type("Roof").unwrap();
        let shingle = g.add_type("Shingle").unwrap();
        let l1 = g
            .add_link(
                HierKind::PartOf,
                house,
                "roofs",
                CollectionKind::Set,
                vec![],
                roof,
                "house",
            )
            .unwrap();
        let l2 = g
            .add_link(
                HierKind::PartOf,
                roof,
                "shingles",
                CollectionKind::Set,
                vec![],
                shingle,
                "roof",
            )
            .unwrap();
        assert_eq!(hier_parents(&g, HierKind::PartOf, roof), vec![(l1, house)]);
        assert_eq!(
            hier_children(&g, HierKind::PartOf, roof),
            vec![(l2, shingle)]
        );
        assert_eq!(hier_roots(&g, HierKind::PartOf), vec![house]);
        let (types, links) = hier_closure(&g, HierKind::PartOf, house);
        assert_eq!(types, vec![house, roof, shingle]);
        assert_eq!(links, vec![l1, l2]);
        assert!(hier_roots(&g, HierKind::InstanceOf).is_empty());
    }

    #[test]
    fn visible_members_inherit_and_override() {
        let (mut g, t) = student_graph();
        let [student, _, grad, ..] = [t[0], t[1], t[2], t[3], t[4], t[5]];
        g.add_attribute(student, "name", DomainType::String, None)
            .unwrap();
        g.add_operation(
            student,
            sws_odl::Operation::nullary("enroll", DomainType::Void),
        )
        .unwrap();
        g.add_operation(
            grad,
            sws_odl::Operation::nullary("enroll", DomainType::Long),
        )
        .unwrap();
        let members = visible_members(&g, grad);
        // `enroll` resolves to the grad override; `name` is inherited.
        assert!(members.contains(&(Symbol::intern("enroll"), grad)));
        assert!(members.contains(&(Symbol::intern("name"), student)));
        assert_eq!(members.iter().filter(|(n, _)| n == "enroll").count(), 1);
    }

    /// A deliberately malformed graph: A → B → C → A generalization cycle
    /// (forced past the mutators' cycle check). Mid-edit states can be
    /// arbitrarily ill-formed, so every traversal must terminate on it.
    fn cyclic_gen_graph() -> (SchemaGraph, TypeId, TypeId, TypeId) {
        let mut g = SchemaGraph::new("cyclic");
        let a = g.add_type("A").unwrap();
        let b = g.add_type("B").unwrap();
        let c = g.add_type("C").unwrap();
        g.add_supertype(a, b).unwrap();
        g.add_supertype(b, c).unwrap();
        g.force_supertype_edge(c, a); // closes the cycle
        (g, a, b, c)
    }

    #[test]
    fn ancestors_terminate_on_generalization_cycle() {
        let (g, a, b, c) = cyclic_gen_graph();
        // Every member of the cycle is an ancestor of every member,
        // including itself; the visited set must stop the walk.
        for t in [a, b, c] {
            let anc = ancestors(&g, t);
            assert_eq!(anc.len(), 3, "each cycle member visited exactly once");
            assert!(anc.contains(&t), "cycle makes a type its own ancestor");
        }
        assert!(is_ancestor(&g, a, a));
    }

    #[test]
    fn descendants_terminate_on_generalization_cycle() {
        let (g, a, b, c) = cyclic_gen_graph();
        for t in [a, b, c] {
            let desc = descendants(&g, t);
            assert_eq!(desc.len(), 3);
            assert!(desc.contains(&t));
        }
    }

    #[test]
    fn components_and_visible_members_terminate_on_cycle() {
        let (mut g, a, _, _) = cyclic_gen_graph();
        g.add_attribute(a, "x", DomainType::Long, None).unwrap();
        let components = generalization_components(&g);
        assert_eq!(components.len(), 1);
        assert_eq!(components[0].len(), 3);
        // `x` is found exactly once even though every type "inherits" from
        // every other around the cycle.
        let members = visible_members(&g, a);
        assert_eq!(members.iter().filter(|(n, _)| n == "x").count(), 1);
    }

    #[test]
    fn hier_closure_terminates_on_link_cycle() {
        let mut g = SchemaGraph::new("cyclic");
        let a = g.add_type("A").unwrap();
        let b = g.add_type("B").unwrap();
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
        let back = g.force_link(HierKind::PartOf, b, "as_", a, "b_of");
        let (types, links) = hier_closure(&g, HierKind::PartOf, a);
        assert_eq!(types, vec![a, b]);
        assert_eq!(links.len(), 2);
        assert!(links.contains(&back));
        // Parent walks terminate too (wf's cycle detection relies on this).
        assert_eq!(hier_parents(&g, HierKind::PartOf, a), vec![(back, b)]);
    }

    #[test]
    fn visible_members_include_paths() {
        let mut g = SchemaGraph::new("t");
        let a = g.add_type("A").unwrap();
        let b = g.add_type("B").unwrap();
        g.add_relationship(
            a,
            "r",
            Cardinality::One,
            vec![],
            b,
            "inv",
            Cardinality::One,
            vec![],
        )
        .unwrap();
        let members = visible_members(&g, a);
        assert!(members.contains(&(Symbol::intern("r"), a)));
    }
}
