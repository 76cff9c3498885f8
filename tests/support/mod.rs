//! From-scratch references shared by the differential suites.

use shrink_wrap_schemas::model::{SchemaGraph, Symbol, TypeNode};
use std::collections::{BTreeMap, BTreeSet};

/// Visit every name an attribute domain or operation signature of `node`
/// mentions.
fn for_each_reference(g: &SchemaGraph, node: &TypeNode, f: &mut impl FnMut(&str)) {
    for &a in &node.attrs {
        g.attr(a).ty.for_each_named_ref(f);
    }
    for &o in &node.ops {
        let op = &g.op(o).op;
        op.return_type.for_each_named_ref(f);
        for p in &op.args {
            p.ty.for_each_named_ref(f);
        }
    }
}

/// Does any attribute domain or operation signature of `node` mention one
/// of `names`? The arena scan the consistency resync's existence step ran
/// over every live type before the reverse reference index replaced it.
pub fn type_references_any(g: &SchemaGraph, node: &TypeNode, names: &BTreeSet<Symbol>) -> bool {
    let mut hit = false;
    for_each_reference(g, node, &mut |r| {
        hit = hit || Symbol::try_lookup(r).is_some_and(|s| names.contains(&s));
    });
    hit
}

/// The reverse reference index from scratch, in the shape
/// `Workspace::reference_index` returns: every name a live type mentions,
/// with the live types [`type_references_any`] finds for it, both in name
/// order.
pub fn reference_scan(g: &SchemaGraph) -> BTreeMap<Symbol, Vec<Symbol>> {
    let mut mentioned = BTreeSet::new();
    for (_, node) in g.types() {
        for_each_reference(g, node, &mut |r| {
            mentioned.insert(Symbol::intern(r));
        });
    }
    mentioned
        .into_iter()
        .map(|name| {
            let probe = BTreeSet::from([name]);
            let mut types: Vec<Symbol> = g
                .types()
                .filter(|(_, node)| type_references_any(g, node, &probe))
                .map(|(_, node)| node.name)
                .collect();
            types.sort();
            (name, types)
        })
        .collect()
}
