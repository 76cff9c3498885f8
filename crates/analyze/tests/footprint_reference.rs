//! The packed `Footprint` against the set-based form it replaced. The
//! reference below keeps each footprint as two `BTreeSet<String>` and
//! compares them pairwise; the packed form must hold the same tokens and
//! give the same `commutes` verdict on every ordered pair of ops drawn
//! from the bench streams and from hand-written ops that cover every
//! `ModOp` kind and every wildcard token. Ops built directly, with names
//! the parser never yields (`*`, `:`, `::`, a trailing `*`, the empty
//! name) and more distinct names than a footprint mask has bits, check
//! that the masks' shortcut never changes a verdict.

use std::collections::BTreeSet;

use sws_analyze::{commutes, footprint};
use sws_bench::edit_scripts::{churn_stream, edit_stream, faulty_stream};
use sws_core::oplang::parse_statement;
use sws_core::{ModOp, OpKind};
use sws_corpus::{synthetic::SyntheticSpec, university};

mod reference {
    use std::collections::BTreeSet;
    use sws_core::ModOp;
    use sws_odl::DomainType;

    /// The read/write sets of one operation.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct Footprint {
        pub reads: BTreeSet<String>,
        pub writes: BTreeSet<String>,
    }

    fn token_match(a: &str, b: &str) -> bool {
        if a == "*" || b == "*" {
            return true;
        }
        if let Some(prefix) = a.strip_suffix('*') {
            if b.starts_with(prefix) {
                return true;
            }
        }
        if let Some(prefix) = b.strip_suffix('*') {
            if a.starts_with(prefix) {
                return true;
            }
        }
        a == b
    }

    fn sets_conflict(xs: &BTreeSet<String>, ys: &BTreeSet<String>) -> bool {
        xs.iter().any(|x| ys.iter().any(|y| token_match(x, y)))
    }

    pub fn commutes(a: &Footprint, b: &Footprint) -> bool {
        !sets_conflict(&a.writes, &b.writes)
            && !sets_conflict(&a.writes, &b.reads)
            && !sets_conflict(&b.writes, &a.reads)
    }

    fn ty(name: &str) -> String {
        format!("ty:{name}")
    }

    fn mem(owner: &str, name: &str) -> String {
        format!("mem:{owner}::{name}")
    }

    fn hier(name: &str) -> String {
        format!("hier:{name}")
    }

    fn attref(name: &str) -> String {
        format!("attref:{name}")
    }

    fn domain_reads(domain: &DomainType, reads: &mut BTreeSet<String>) {
        let mut refs = Vec::new();
        domain.referenced_types(&mut refs);
        for r in refs {
            reads.insert(ty(r));
        }
    }

    pub fn footprint(op: &ModOp) -> Footprint {
        let mut f = Footprint::default();
        match op {
            ModOp::AddTypeDefinition { ty: t } => {
                f.writes.insert(ty(t));
            }
            ModOp::DeleteTypeDefinition { .. } => {
                // Cascades may remove relationships, links, and prune lists
                // anywhere in the schema: unbounded syntactically.
                f.writes.insert("*".into());
            }
            ModOp::AddSupertype { ty: t, supertype } => {
                supertype_footprint(&mut f, t, std::slice::from_ref(supertype), &[]);
            }
            ModOp::DeleteSupertype { ty: t, supertype } => {
                supertype_footprint(&mut f, t, &[], std::slice::from_ref(supertype));
            }
            ModOp::ModifySupertype { ty: t, old, new } => {
                supertype_footprint(&mut f, t, new, old);
            }
            ModOp::AddExtentName { ty: t, extent }
            | ModOp::ModifyExtentName {
                ty: t, new: extent, ..
            } => {
                f.reads.insert(ty(t));
                // Extent names are unique across the schema.
                f.writes.insert(format!("extname:{extent}"));
                f.writes.insert(format!("extent:{t}"));
            }
            ModOp::DeleteExtentName { ty: t, extent } => {
                f.reads.insert(ty(t));
                f.writes.insert(format!("extname:{extent}"));
                f.writes.insert(format!("extent:{t}"));
            }
            ModOp::AddKeyList { ty: t, keys } | ModOp::DeleteKeyList { ty: t, keys } => {
                f.reads.insert(ty(t));
                f.writes.insert(format!("keys:{t}"));
                for key in keys {
                    for part in &key.0 {
                        f.reads.insert(attref(part));
                        f.reads.insert(hier(t));
                    }
                }
            }
            ModOp::ModifyKeyList { ty: t, old, new } => {
                f.reads.insert(ty(t));
                f.writes.insert(format!("keys:{t}"));
                for key in old.iter().chain(new) {
                    for part in &key.0 {
                        f.reads.insert(attref(part));
                        f.reads.insert(hier(t));
                    }
                }
            }
            ModOp::AddAttribute {
                ty: t,
                domain,
                name,
                ..
            } => {
                member_add_footprint(&mut f, t, name);
                domain_reads(domain, &mut f.reads);
            }
            ModOp::DeleteAttribute { ty: t, name } => {
                f.reads.insert(ty(t));
                f.writes.insert(mem(t, name));
                f.writes.insert(format!("keys:{t}"));
                // Pruning removes by-name references from order-by lists of
                // relationships and links targeting the owner.
                f.writes.insert(attref(name));
            }
            ModOp::ModifyAttribute {
                ty: t,
                name,
                new_ty,
            } => {
                f.reads.insert(ty(t));
                f.reads.insert(ty(new_ty));
                f.reads.insert(hier(t));
                f.reads.insert(hier(new_ty));
                f.writes.insert(mem(t, name));
                f.writes.insert(mem(new_ty, name));
                f.writes.insert(format!("keys:{t}"));
                f.writes.insert(attref(name));
            }
            ModOp::ModifyAttributeType {
                ty: t, name, new, ..
            } => {
                f.reads.insert(ty(t));
                f.writes.insert(mem(t, name));
                domain_reads(new, &mut f.reads);
            }
            ModOp::ModifyAttributeSize { ty: t, name, .. } => {
                f.reads.insert(ty(t));
                f.writes.insert(mem(t, name));
            }
            ModOp::AddRelationship {
                ty: t,
                target,
                path,
                inverse_path,
                order_by,
                ..
            } => {
                member_add_footprint(&mut f, t, path);
                member_add_footprint(&mut f, target, inverse_path);
                for a in order_by {
                    f.reads.insert(attref(a));
                }
            }
            ModOp::DeleteRelationship { ty: t, path } => {
                // The inverse end's owner is not in the statement: the delete
                // may clear a member slot on any type.
                f.reads.insert(ty(t));
                f.writes.insert(mem(t, path));
                f.writes.insert("mem:*".into());
            }
            ModOp::ModifyRelationshipTargetType {
                ty: t,
                path,
                old_target,
                new_target,
            } => {
                f.reads.insert(ty(t));
                f.reads.insert(ty(old_target));
                f.reads.insert(ty(new_target));
                f.reads.insert(hier(old_target));
                f.reads.insert(hier(new_target));
                f.writes.insert(mem(t, path));
                f.writes.insert(format!("mem:{old_target}::*"));
                f.writes.insert(format!("mem:{new_target}::*"));
            }
            ModOp::ModifyRelationshipCardinality { ty: t, path, .. } => {
                f.reads.insert(ty(t));
                f.writes.insert(mem(t, path));
            }
            ModOp::ModifyRelationshipOrderBy {
                ty: t, path, new, ..
            } => {
                f.reads.insert(ty(t));
                f.writes.insert(mem(t, path));
                for a in new {
                    f.reads.insert(attref(a));
                }
            }
            ModOp::AddOperation {
                ty: t,
                return_type,
                name,
                args,
                ..
            } => {
                member_add_footprint(&mut f, t, name);
                domain_reads(return_type, &mut f.reads);
                for p in args {
                    domain_reads(&p.ty, &mut f.reads);
                }
            }
            ModOp::DeleteOperation { ty: t, name } => {
                f.reads.insert(ty(t));
                f.writes.insert(mem(t, name));
            }
            ModOp::ModifyOperation {
                ty: t,
                name,
                new_ty,
            } => {
                f.reads.insert(ty(t));
                f.reads.insert(ty(new_ty));
                f.reads.insert(hier(t));
                f.reads.insert(hier(new_ty));
                f.writes.insert(mem(t, name));
                f.writes.insert(mem(new_ty, name));
            }
            ModOp::ModifyOperationReturnType {
                ty: t, name, new, ..
            } => {
                f.reads.insert(ty(t));
                f.writes.insert(mem(t, name));
                domain_reads(new, &mut f.reads);
            }
            ModOp::ModifyOperationArgList {
                ty: t, name, new, ..
            } => {
                f.reads.insert(ty(t));
                f.writes.insert(mem(t, name));
                for p in new {
                    domain_reads(&p.ty, &mut f.reads);
                }
            }
            ModOp::ModifyOperationExceptionsRaised { ty: t, name, .. } => {
                f.reads.insert(ty(t));
                f.writes.insert(mem(t, name));
            }
            ModOp::AddPartOfRelationship {
                ty: t,
                target,
                path,
                inverse_path,
                order_by,
                ..
            }
            | ModOp::AddInstanceOfRelationship {
                ty: t,
                target,
                path,
                inverse_path,
                order_by,
                ..
            } => {
                member_add_footprint(&mut f, t, path);
                member_add_footprint(&mut f, target, inverse_path);
                f.writes.insert(hier(t));
                f.writes.insert(hier(target));
                for a in order_by {
                    f.reads.insert(attref(a));
                }
            }
            ModOp::DeletePartOfRelationship { ty: t, path }
            | ModOp::DeleteInstanceOfRelationship { ty: t, path } => {
                f.reads.insert(ty(t));
                f.writes.insert(mem(t, path));
                f.writes.insert(hier(t));
                f.writes.insert("mem:*".into());
                f.writes.insert("hier:*".into());
            }
            ModOp::ModifyPartOfTargetType {
                ty: t,
                path,
                old_target,
                new_target,
            }
            | ModOp::ModifyInstanceOfTargetType {
                ty: t,
                path,
                old_target,
                new_target,
            } => {
                f.reads.insert(ty(t));
                f.reads.insert(ty(old_target));
                f.reads.insert(ty(new_target));
                f.writes.insert(mem(t, path));
                f.writes.insert(format!("mem:{old_target}::*"));
                f.writes.insert(format!("mem:{new_target}::*"));
                f.writes.insert(hier(t));
                f.writes.insert(hier(old_target));
                f.writes.insert(hier(new_target));
            }
            ModOp::ModifyPartOfCardinality { ty: t, path, .. }
            | ModOp::ModifyInstanceOfCardinality { ty: t, path, .. } => {
                f.reads.insert(ty(t));
                f.writes.insert(mem(t, path));
            }
            ModOp::ModifyPartOfOrderBy {
                ty: t, path, new, ..
            }
            | ModOp::ModifyInstanceOfOrderBy {
                ty: t, path, new, ..
            } => {
                f.reads.insert(ty(t));
                f.writes.insert(mem(t, path));
                for a in new {
                    f.reads.insert(attref(a));
                }
            }
        }
        f
    }

    /// Adding a member to `owner` reads the owner's existence and inheritance
    /// neighbourhood (member-free and conflict checks walk it) and writes the
    /// member slot.
    fn member_add_footprint(f: &mut Footprint, owner: &str, name: &str) {
        f.reads.insert(ty(owner));
        f.reads.insert(hier(owner));
        f.writes.insert(mem(owner, name));
    }

    /// Supertype rewiring re-judges inheritance conflicts across the whole
    /// region below the subtype, so it reads every member slot.
    fn supertype_footprint(f: &mut Footprint, sub: &str, added: &[String], removed: &[String]) {
        f.reads.insert(ty(sub));
        f.reads.insert("mem:*".into());
        f.writes.insert(hier(sub));
        for s in added.iter().chain(removed) {
            f.reads.insert(ty(s));
            f.writes.insert(hier(s));
        }
    }
}

/// One statement per `ModOp` kind, plus variants that reach every
/// wildcard token (`*`, `mem:*`, `hier:*`, `mem:<ty>::*`), named domains
/// inside collections, and keys and order-by lists that share names.
const HAND_WRITTEN: &[&str] = &[
    "add_type_definition(A)",
    "add_type_definition(B)",
    "delete_type_definition(A)",
    "add_supertype(A, B)",
    "delete_supertype(A, B)",
    "modify_supertype(A, (B), (C, D))",
    "modify_supertype(A, (), ())",
    "add_extent_name(A, as)",
    "delete_extent_name(A, as)",
    "modify_extent_name(A, as, bs)",
    "add_key_list(A, (k, (x, y)))",
    "add_key_list(B, (x))",
    "delete_key_list(A, (k))",
    "modify_key_list(A, (k), ((x, y), z))",
    "add_attribute(A, string(32), x)",
    "add_attribute(A, set<B>, bs)",
    "add_attribute(B, list<array<C, 4>>, cs)",
    "add_attribute(C, long, x)",
    "delete_attribute(A, x)",
    "delete_attribute(B, k)",
    "modify_attribute(A, x, B)",
    "modify_attribute_type(A, x, long, set<C>)",
    "modify_attribute_size(A, x, 32, none)",
    "add_relationship(A, set<B>, bs, B::a)",
    "add_relationship(A, B, b, B::as, (x, y))",
    "delete_relationship(A, bs)",
    "modify_relationship_target_type(A, bs, B, C)",
    "modify_relationship_cardinality(A, bs, one, set)",
    "modify_relationship_order_by(A, bs, (x), (y, z))",
    "add_operation(A, float, gpa, (in unsigned_long term, out B n), (NoGrades))",
    "add_operation(B, C, refresh)",
    "delete_operation(A, gpa)",
    "modify_operation(A, gpa, B)",
    "modify_operation_return_type(A, gpa, float, C)",
    "modify_operation_arg_list(A, gpa, (in long a), (in B b, inout set<C> c))",
    "modify_operation_exceptions_raised(A, gpa, (), (E))",
    "add_part_of_relationship(A, set<B>, parts, B::whole, (x))",
    "add_part_of_relationship(B, A, whole, A::parts)",
    "delete_part_of_relationship(A, parts)",
    "modify_part_of_target_type(A, parts, B, C)",
    "modify_part_of_cardinality(A, parts, set, list)",
    "modify_part_of_order_by(A, parts, (x), (z))",
    "add_instance_of_relationship(A, set<B>, instances, B::generic)",
    "add_instance_of_relationship(B, A, generic, A::instances, (y))",
    "delete_instance_of_relationship(A, instances)",
    "modify_instance_of_target_type(A, instances, B, C)",
    "modify_instance_of_cardinality(A, instances, set, bag)",
    "modify_instance_of_order_by(A, instances, (y), (x))",
];

fn hand_written() -> Vec<ModOp> {
    HAND_WRITTEN
        .iter()
        .map(|stmt| parse_statement(stmt).unwrap_or_else(|e| panic!("`{stmt}`: {e}")))
        .collect()
}

fn stream_ops() -> Vec<ModOp> {
    let mut ops = Vec::new();
    for g in [university::graph(), SyntheticSpec::sized(60, 7).generate()] {
        for seed in 1..=2 {
            for stream in [
                edit_stream(&g, 40, seed),
                churn_stream(&g, 20, seed),
                faulty_stream(&g, 60, seed),
            ] {
                ops.extend(stream.into_iter().map(|(_, op)| op));
            }
        }
    }
    ops
}

#[test]
fn hand_written_ops_cover_every_kind_and_wildcard() {
    let ops = hand_written();
    let kinds: BTreeSet<_> = ops.iter().map(|op| op.kind().name()).collect();
    let missing: Vec<_> = OpKind::ALL
        .iter()
        .filter(|k| !kinds.contains(k.name()))
        .collect();
    assert!(missing.is_empty(), "no hand-written op of kind {missing:?}");
    let tokens: BTreeSet<String> = ops
        .iter()
        .map(reference::footprint)
        .flat_map(|f| f.reads.into_iter().chain(f.writes))
        .collect();
    for wildcard in ["*", "mem:*", "hier:*", "mem:B::*", "mem:C::*"] {
        assert!(tokens.contains(wildcard), "no op reaches `{wildcard}`");
    }
}

#[test]
fn packed_footprints_hold_the_reference_tokens() {
    for op in hand_written().iter().chain(&stream_ops()) {
        let packed = footprint(op);
        let reference = reference::footprint(op);
        let writes: Vec<_> = reference.writes.iter().map(String::as_str).collect();
        let reads: Vec<_> = reference.reads.iter().map(String::as_str).collect();
        assert_eq!(packed.writes().collect::<Vec<_>>(), writes, "{op:?}");
        assert_eq!(packed.reads().collect::<Vec<_>>(), reads, "{op:?}");
    }
}

#[test]
fn packed_commutes_agrees_with_the_reference_on_every_ordered_pair() {
    let ops: Vec<ModOp> = hand_written().into_iter().chain(stream_ops()).collect();
    let packed: Vec<_> = ops.iter().map(footprint).collect();
    let reference: Vec<_> = ops.iter().map(reference::footprint).collect();
    let mut commuting = 0usize;
    for i in 0..ops.len() {
        for j in 0..ops.len() {
            let want = reference::commutes(&reference[i], &reference[j]);
            assert_eq!(
                commutes(&packed[i], &packed[j]),
                want,
                "`{:?}` then `{:?}`",
                ops[i],
                ops[j]
            );
            commuting += usize::from(want);
        }
    }
    // Both verdicts must be common for the agreement to mean anything.
    let pairs = ops.len() * ops.len();
    assert!(
        commuting > pairs / 10 && commuting < pairs * 9 / 10,
        "{commuting} of {pairs} pairs commute"
    );
}

/// Names no statement parses to: wildcard characters inside and at the
/// end, the token separators `:` and `::`, the empty name, and names that
/// spell a token prefix. Each pairs with each in a handful of op shapes.
const HOSTILE: &[&str] = &[
    "*", "A*", "a*b", ":", "::", "A::x", "", "ty:", "mem:", "hier", "A",
];

fn hostile_ops() -> Vec<ModOp> {
    let mut ops = Vec::new();
    for &a in HOSTILE {
        ops.push(ModOp::AddTypeDefinition { ty: a.into() });
        for &b in HOSTILE {
            ops.push(ModOp::AddAttribute {
                ty: a.into(),
                domain: sws_odl::DomainType::Named(b.into()),
                size: None,
                name: b.into(),
            });
            ops.push(ModOp::DeleteAttribute {
                ty: a.into(),
                name: b.into(),
            });
            ops.push(ModOp::ModifyRelationshipTargetType {
                ty: a.into(),
                path: b.into(),
                old_target: b.into(),
                new_target: a.into(),
            });
            ops.push(ModOp::ModifyRelationshipOrderBy {
                ty: a.into(),
                path: "p".into(),
                old: vec![],
                new: vec![b.into()],
            });
        }
    }
    // 96 distinct type names give 96 distinct `ty:` write tokens, more
    // than the 64 bits of a mask, so some of them share a bit.
    for i in 0..96 {
        ops.push(ModOp::AddTypeDefinition {
            ty: format!("Hostile{i}"),
        });
        ops.push(ModOp::ModifyAttributeSize {
            ty: format!("Hostile{i}"),
            name: "n".into(),
            old: None,
            new: Some(8),
        });
    }
    ops
}

#[test]
fn hostile_names_get_the_reference_verdict_on_every_ordered_pair() {
    let ops = hostile_ops();
    let packed: Vec<_> = ops.iter().map(footprint).collect();
    let reference: Vec<_> = ops.iter().map(reference::footprint).collect();
    let mut commuting = 0usize;
    for i in 0..ops.len() {
        let writes: Vec<_> = reference[i].writes.iter().map(String::as_str).collect();
        assert_eq!(
            packed[i].writes().collect::<Vec<_>>(),
            writes,
            "{:?}",
            ops[i]
        );
        for j in 0..ops.len() {
            let want = reference::commutes(&reference[i], &reference[j]);
            assert_eq!(
                commutes(&packed[i], &packed[j]),
                want,
                "`{:?}` then `{:?}`",
                ops[i],
                ops[j]
            );
            commuting += usize::from(want);
        }
    }
    let pairs = ops.len() * ops.len();
    assert!(
        commuting > pairs / 10 && commuting < pairs * 9 / 10,
        "{commuting} of {pairs} pairs commute"
    );
}
