//! Reference oracle for the executor's edge discovery.
//!
//! `SchemaGraph::remove_type` and the attribute pruning behind
//! `remove_attribute` / `move_attribute` find a type's incident
//! relationships and links through its adjacency lists (`rel_ends`,
//! `parent_links`, `child_links`). The reference here finds them by
//! scanning the whole relationship and link arenas in id order, and
//! leaves the rest of the work to the public mutators. Both routes must
//! give equal cascade reports and equal graphs — after every step of the
//! corpus and synthetic edit streams, and on a hand-built graph whose
//! adjacency lists are out of id order and hold a self-loop twice.

use sws_bench::edit_scripts::{churn_stream, edit_stream};
use sws_core::ops::apply::apply_op;
use sws_core::{ConceptKind, ModOp};
use sws_corpus::synthetic::SyntheticSpec;
use sws_model::{
    diff_graphs, AttrId, CascadeReport, LinkId, ModelError, RelId, RemoveTypeMode, SchemaGraph,
    Symbol, TypeId,
};
use sws_odl::{Cardinality, CollectionKind, DomainType, HierKind};

type Outcome = Result<CascadeReport, ModelError>;

/// `remove_type` with incident edges found by scanning the arenas; the
/// real `remove_type` then sees an edge-free type.
fn reference_remove_type(g: &mut SchemaGraph, id: TypeId) -> Outcome {
    let mut report = CascadeReport::default();
    let rels: Vec<RelId> = g
        .rels()
        .filter(|(_, r)| r.ends[0].owner == id || r.ends[1].owner == id)
        .map(|(rid, _)| rid)
        .collect();
    for rid in rels {
        report.merge(g.remove_relationship(rid)?);
    }
    let links: Vec<LinkId> = g
        .links()
        .filter(|(_, l)| l.parent == id || l.child == id)
        .map(|(lid, _)| lid)
        .collect();
    for lid in links {
        report.merge(g.remove_link(lid)?);
    }
    report.merge(g.remove_type(id, RemoveTypeMode::RewireSubtypes)?);
    Ok(report)
}

/// Prune `owner`'s attribute `name` from the order-by lists of relationship
/// ends that target `owner` and of links whose child is `owner`, found by
/// arena scans in id order.
fn reference_prune_order_by(g: &mut SchemaGraph, owner: TypeId, name: Symbol) -> CascadeReport {
    let mut report = CascadeReport::default();
    let without = |list: &[Symbol]| -> Vec<String> {
        list.iter()
            .filter(|&&a| a != name)
            .map(|a| a.to_string())
            .collect()
    };
    let rels: Vec<_> = g.rels().map(|(rid, r)| (rid, r.ends.clone())).collect();
    for (rid, ends) in rels {
        for e in 0..2 {
            if ends[1 - e].owner == owner && ends[e].order_by.contains(&name) {
                g.set_rel_order_by(rid, e as u8, without(&ends[e].order_by))
                    .expect("live relationship");
                report
                    .order_by_pruned
                    .push((g.ty(ends[e].owner).name, ends[e].path, name));
            }
        }
    }
    let links: Vec<_> = g
        .links()
        .filter(|(_, l)| l.child == owner && l.order_by.contains(&name))
        .map(|(lid, l)| (lid, l.clone()))
        .collect();
    for (lid, l) in links {
        g.set_link_order_by(lid, without(&l.order_by))
            .expect("live link");
        report
            .order_by_pruned
            .push((g.ty(l.parent).name, l.parent_path, name));
    }
    report
}

fn reference_remove_attribute(g: &mut SchemaGraph, id: AttrId) -> Outcome {
    let (owner, name) = (g.attr(id).owner, g.attr(id).name);
    let mut report = reference_prune_order_by(g, owner, name);
    report.merge(g.remove_attribute(id)?);
    Ok(report)
}

fn reference_move_attribute(g: &mut SchemaGraph, id: AttrId, to: TypeId) -> Outcome {
    let (owner, name) = (g.attr(id).owner, g.attr(id).name);
    let mut report = CascadeReport::default();
    if owner != to && !g.member_exists(to, name.as_str()) {
        report = reference_prune_order_by(g, owner, name);
    }
    report.merge(g.move_attribute(id, to)?);
    Ok(report)
}

/// What the comparisons exercised, so a stream that never reaches an
/// edge or an order-by list cannot pass vacuously.
#[derive(Default)]
struct Seen {
    removed_rels: usize,
    removed_links: usize,
    order_by_pruned: usize,
}

/// Run `real` and `reference` on two clones of `g` and demand equal
/// outcomes and equal graphs.
fn agree(
    label: &str,
    g: &SchemaGraph,
    seen: &mut Seen,
    real: impl FnOnce(&mut SchemaGraph) -> Outcome,
    reference: impl FnOnce(&mut SchemaGraph) -> Outcome,
) {
    let (mut a, mut b) = (g.clone(), g.clone());
    let got = real(&mut a);
    let want = reference(&mut b);
    assert_eq!(got, want, "{label}: cascade reports differ");
    // Equal live nodes (ids and list order included) imply an empty
    // `diff_graphs`, which names the difference when they are not.
    let same = a.types().eq(b.types())
        && a.attrs().eq(b.attrs())
        && a.rels().eq(b.rels())
        && a.ops().eq(b.ops())
        && a.links().eq(b.links());
    assert!(same, "{label}: graphs differ: {:?}", diff_graphs(&a, &b));
    if let Ok(r) = got {
        seen.removed_rels += r.removed_rels.len();
        seen.removed_links += r.removed_links.len();
        seen.order_by_pruned += r.order_by_pruned.len();
    }
}

/// Compare all three mutators on every `stride`-th live type and attribute
/// (starting at `offset`).
fn check_graph(label: &str, g: &SchemaGraph, stride: usize, offset: usize, seen: &mut Seen) {
    let types: Vec<TypeId> = g.types().map(|(id, _)| id).collect();
    for &t in types.iter().skip(offset % stride).step_by(stride) {
        agree(
            &format!("{label}: remove_type {}", g.type_name(t)),
            g,
            seen,
            |g| g.remove_type(t, RemoveTypeMode::RewireSubtypes),
            |g| reference_remove_type(g, t),
        );
    }
    let attrs: Vec<(AttrId, TypeId)> = g.attrs().map(|(id, a)| (id, a.owner)).collect();
    for &(a, owner) in attrs.iter().skip(offset % stride).step_by(stride) {
        let name = format!("{}::{}", g.type_name(owner), g.attr(a).name);
        agree(
            &format!("{label}: remove_attribute {name}"),
            g,
            seen,
            |g| g.remove_attribute(a),
            |g| reference_remove_attribute(g, a),
        );
        // Move to the next live type in id order (wrapping around).
        let at = types.iter().position(|&t| t == owner).expect("live owner");
        let to = types[(at + 1) % types.len()];
        agree(
            &format!("{label}: move_attribute {name} -> {}", g.type_name(to)),
            g,
            seen,
            |g| g.move_attribute(a, to),
            |g| reference_move_attribute(g, a, to),
        );
    }
}

fn check_stream(
    label: &str,
    g: &SchemaGraph,
    script: &[(ConceptKind, ModOp)],
    stride: usize,
    seen: &mut Seen,
) {
    let mut g = g.clone();
    check_graph(&format!("{label}@0"), &g, stride, 0, seen);
    for (step, (_, op)) in script.iter().enumerate() {
        apply_op(&mut g, op).expect("stream applies");
        check_graph(&format!("{label}@{}", step + 1), &g, stride, step + 1, seen);
    }
}

#[test]
fn adjacency_discovery_matches_the_arena_scan_on_the_corpus() {
    let mut seen = Seen::default();
    for (name, g) in sws_corpus::all_named() {
        for seed in 0..2 {
            check_stream(
                &format!("{name}/edit/{seed}"),
                &g,
                &edit_stream(&g, 12, seed),
                1,
                &mut seen,
            );
            check_stream(
                &format!("{name}/churn/{seed}"),
                &g,
                &churn_stream(&g, 12, seed),
                1,
                &mut seen,
            );
        }
    }
    assert!(seen.removed_rels > 0 && seen.removed_links > 0);
    assert!(seen.order_by_pruned > 0, "no order-by list was pruned");
}

#[test]
fn adjacency_discovery_matches_the_arena_scan_on_a_200_type_schema() {
    let g = SyntheticSpec::sized(200, 5).generate();
    let mut seen = Seen::default();
    check_stream("synth200/edit", &g, &edit_stream(&g, 12, 5), 17, &mut seen);
    check_stream(
        "synth200/churn",
        &g,
        &churn_stream(&g, 12, 5),
        17,
        &mut seen,
    );
    assert!(seen.removed_rels > 0 && seen.removed_links > 0);
}

/// Retargets leave `A`'s adjacency lists out of id order, and a self-loop
/// sits on `A` twice: discovery must still report edges in id order, and
/// each edge once.
#[test]
fn out_of_order_adjacency_and_self_loops_report_in_id_order() {
    let mut g = SchemaGraph::new("adjacency");
    let [a, b, c, d] = ["A", "B", "C", "D"].map(|n| g.add_type(n).expect("fresh type"));
    g.add_attribute(a, "x", DomainType::Long, None)
        .expect("fresh attribute");
    let x = g.find_attr(a, "x").expect("x");
    let set = Cardinality::Many(CollectionKind::Set);
    let rel = |g: &mut SchemaGraph, from: TypeId, p: &str, to: TypeId, q: &str| {
        g.add_relationship(
            from,
            p,
            Cardinality::One,
            vec![],
            to,
            q,
            set,
            vec!["x".into()],
        )
        .expect("fresh relationship")
    };
    // r0 starts on B and is retargeted onto A after r1 was registered
    // there; the set ends on C and D order by A's `x`.
    let r0 = rel(&mut g, b, "r0_out", c, "r0_in");
    let r1 = rel(&mut g, a, "r1_out", d, "r1_in");
    g.retarget_rel_end(r0, 0, a).expect("retarget");
    let selfloop = rel(&mut g, a, "self_out", a, "self_in");
    let link = |g: &mut SchemaGraph, kind, parent, pp: &str, child, cp: &str| {
        g.add_link(
            kind,
            parent,
            pp,
            CollectionKind::Set,
            vec!["x".into()],
            child,
            cp,
        )
        .expect("fresh link")
    };
    // Part-of: l0 B→C has its parent moved to A after l1 A→D.
    let l0 = link(&mut g, HierKind::PartOf, b, "l0_parts", c, "l0_whole");
    let l1 = link(&mut g, HierKind::PartOf, a, "l1_parts", d, "l1_whole");
    g.retarget_link_end(l0, sws_model::LinkSide::Parent, a)
        .expect("retarget");
    // Instance-of: l2 B→C has its child moved to A after l3 D→A; both
    // parents order their instances of A by `x`.
    let l2 = link(&mut g, HierKind::InstanceOf, b, "l2_members", c, "l2_of");
    let l3 = link(&mut g, HierKind::InstanceOf, d, "l3_members", a, "l3_of");
    g.retarget_link_end(l2, sws_model::LinkSide::Child, a)
        .expect("retarget");

    // The precondition: A's lists are out of id order, the loop is there twice.
    let node = g.ty(a);
    let rel_ids: Vec<RelId> = node.rel_ends.iter().map(|&(r, _)| r).collect();
    assert_eq!(rel_ids, vec![r1, r0, selfloop, selfloop]);
    assert_eq!(node.parent_links, vec![l1, l0]);
    assert_eq!(node.child_links, vec![l3, l2]);

    let mut seen = Seen::default();
    agree(
        "hand-built: remove_type A",
        &g,
        &mut seen,
        |g| g.remove_type(a, RemoveTypeMode::RewireSubtypes),
        |g| reference_remove_type(g, a),
    );
    assert_eq!((seen.removed_rels, seen.removed_links), (3, 4));
    agree(
        "hand-built: remove_attribute A::x",
        &g,
        &mut seen,
        |g| g.remove_attribute(x),
        |g| reference_remove_attribute(g, x),
    );
    agree(
        "hand-built: move_attribute A::x -> B",
        &g,
        &mut seen,
        |g| g.move_attribute(x, b),
        |g| reference_move_attribute(g, x, b),
    );
    // The set ends of r0, r1 and the self-loop order by `x`, as do l2 and
    // l3: five prunes for the remove, five for the move.
    assert_eq!(seen.order_by_pruned, 10);
}
