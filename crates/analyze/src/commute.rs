//! Commutation analysis: which adjacent operation pairs are independent.
//!
//! Each operation gets a syntactic *footprint* — the set of schema
//! resources it reads and writes, as string tokens:
//!
//! * `ty:<name>` — existence of a type,
//! * `mem:<ty>::<name>` — one member slot (`mem:<ty>::*` = any member of
//!   the type),
//! * `hier:<name>` — the generalization / aggregation / instance-of
//!   neighbourhood of a type,
//! * `extent:<ty>` / `extname:<name>` / `keys:<ty>` — extent and key state,
//! * `attref:<name>` — by-name references to an attribute from key lists
//!   and order-by lists (pruning is by name, across owners),
//! * `mem:*`, `*` — wildcards for operations whose effect cannot be
//!   bounded syntactically (supertype rewiring re-judges inheritance
//!   everywhere; type deletion cascades arbitrarily).
//!
//! Two operations **commute** when neither's writes intersect the other's
//! reads or writes. The analysis is deliberately *conservative*: a pair
//! marked commuting is claimed safe to reorder; an unmarked pair is merely
//! unproven. Everything here is O(1) per operation — footprints never
//! traverse the graph, which keeps `analyze` O(script).
//!
//! A footprint also keeps two 64-bit masks, one hash bit per write token
//! and one per read token, and a flag set when any token ends in `*`.
//! Without a wildcard on either side two tokens match only when they are
//! equal, and equal tokens set equal bits, so disjoint masks prove the
//! pair commutes in three word operations. Every other pair — a wildcard
//! on either side, or two distinct tokens sharing a bit — takes the token
//! walk, so the masks never change a verdict.

use std::fmt;

use sws_core::ModOp;
use sws_odl::DomainType;

/// Ends every token in the packed form. Names from the op language and
/// ODL are identifiers and never contain it; an op whose names do gets
/// the all-conflicting footprint.
const SEP: char = '\0';

/// The read/write sets of one operation, packed into one allocation: the
/// sorted, deduplicated write tokens, then the read tokens, each ended by
/// a NUL. The service keeps one per accepted op beside its log record,
/// so a footprint is built once and compared many times.
#[derive(Clone, PartialEq, Eq)]
pub struct Footprint {
    tokens: Box<str>,
    /// [`token_bit`] of every write token, OR-ed.
    write_mask: u64,
    /// [`token_bit`] of every read token, OR-ed.
    read_mask: u64,
    /// Byte offset where the writes end and the reads begin.
    writes_end: u32,
    /// Some token ends in `*`, so the masks cannot decide a pair.
    wildcard: bool,
}

impl Footprint {
    /// Resources the op changes, in byte order.
    pub fn writes(&self) -> impl Iterator<Item = &str> + Clone {
        self.tokens[..self.writes_end as usize].split_terminator(SEP)
    }

    /// Resources whose state the op's preconditions or effect depend on,
    /// in byte order.
    pub fn reads(&self) -> impl Iterator<Item = &str> + Clone {
        self.tokens[self.writes_end as usize..].split_terminator(SEP)
    }

    /// Writes and reads.
    fn all(&self) -> impl Iterator<Item = &str> + Clone {
        self.tokens.split_terminator(SEP)
    }
}

impl fmt::Debug for Footprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Footprint")
            .field("writes", &self.writes().collect::<Vec<_>>())
            .field("reads", &self.reads().collect::<Vec<_>>())
            .finish()
    }
}

/// One bit for `token`: FNV-1a over its bytes, with the top six bits of
/// a Fibonacci multiply choosing the bit.
fn token_bit(token: &str) -> u64 {
    let hash = token.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    1 << (hash.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 58)
}

/// The word-compare verdict: true when neither footprint has a wildcard
/// and no write bit of either meets a bit of the other's writes or reads.
/// False means only that the token walk must decide.
fn masks_commute(a: &Footprint, b: &Footprint) -> bool {
    !(a.wildcard || b.wildcard)
        && a.write_mask & (b.write_mask | b.read_mask) == 0
        && b.write_mask & a.read_mask == 0
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

/// Does any token of `xs` match any token of `ys`?
fn overlap<'a>(
    xs: impl Iterator<Item = &'a str>,
    ys: impl Iterator<Item = &'a str> + Clone,
) -> bool {
    xs.into_iter()
        .any(|x| ys.clone().any(|y| token_match(x, y)))
}

/// True when reordering the two operations provably cannot change the
/// outcome: neither's writes touch the other's reads or writes.
pub fn commutes(a: &Footprint, b: &Footprint) -> bool {
    masks_commute(a, b) || (!overlap(a.writes(), b.all()) && !overlap(b.writes(), a.reads()))
}

/// The token sets while one footprint is built: every token's bytes back
/// to back in `text`, and each token as a byte range into it, tagged
/// read (`true`) or write (`false`), so sorting puts the writes first.
struct Sets {
    text: String,
    tokens: Vec<(bool, usize, usize)>,
    /// A name held [`SEP`], so the tokens cannot be packed faithfully.
    unpackable: bool,
}

impl Sets {
    fn new() -> Sets {
        Sets {
            text: String::with_capacity(128),
            tokens: Vec::with_capacity(8),
            unpackable: false,
        }
    }

    fn push(&mut self, read: bool, parts: &[&str]) {
        let start = self.text.len();
        for part in parts {
            self.unpackable |= part.contains(SEP);
            self.text.push_str(part);
        }
        self.tokens.push((read, start, self.text.len()));
    }

    fn write(&mut self, parts: &[&str]) {
        self.push(false, parts);
    }

    fn read(&mut self, parts: &[&str]) {
        self.push(true, parts);
    }

    fn read_domain(&mut self, domain: &DomainType) {
        domain.for_each_named_ref(&mut |name| self.read(&["ty:", name]));
    }

    fn pack(self) -> Footprint {
        let Sets {
            text,
            mut tokens,
            unpackable,
        } = self;
        if unpackable {
            return Footprint {
                tokens: "*\0".into(),
                write_mask: token_bit("*"),
                read_mask: 0,
                writes_end: 2,
                wildcard: true,
            };
        }
        let key = |&(read, start, end): &(bool, usize, usize)| (read, &text[start..end]);
        tokens.sort_unstable_by(|a, b| key(a).cmp(&key(b)));
        tokens.dedup_by(|a, b| key(a) == key(b));
        let mut packed = String::with_capacity(text.len() + tokens.len());
        let (mut write_mask, mut read_mask) = (0, 0);
        let mut writes_end = 0;
        let mut wildcard = false;
        for t in &tokens {
            let (read, token) = key(t);
            packed.push_str(token);
            packed.push(SEP);
            wildcard |= token.ends_with('*');
            if read {
                read_mask |= token_bit(token);
            } else {
                write_mask |= token_bit(token);
                writes_end = packed.len();
            }
        }
        Footprint {
            tokens: packed.into_boxed_str(),
            write_mask,
            read_mask,
            writes_end: u32::try_from(writes_end).expect("a footprint's writes fit in 4 GiB"),
            wildcard,
        }
    }
}

/// Compute the footprint of one operation. Purely syntactic — see the
/// module docs for the conservatism contract.
pub fn footprint(op: &ModOp) -> Footprint {
    let mut f = Sets::new();
    match op {
        ModOp::AddTypeDefinition { ty: t } => {
            f.write(&["ty:", t]);
        }
        ModOp::DeleteTypeDefinition { .. } => {
            // Cascades may remove relationships, links, and prune lists
            // anywhere in the schema: unbounded syntactically.
            f.write(&["*"]);
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
            f.read(&["ty:", t]);
            // Extent names are unique across the schema.
            f.write(&["extname:", extent]);
            f.write(&["extent:", t]);
        }
        ModOp::DeleteExtentName { ty: t, extent } => {
            f.read(&["ty:", t]);
            f.write(&["extname:", extent]);
            f.write(&["extent:", t]);
        }
        ModOp::AddKeyList { ty: t, keys } | ModOp::DeleteKeyList { ty: t, keys } => {
            f.read(&["ty:", t]);
            f.write(&["keys:", t]);
            for key in keys {
                for part in &key.0 {
                    f.read(&["attref:", part]);
                    f.read(&["hier:", t]);
                }
            }
        }
        ModOp::ModifyKeyList { ty: t, old, new } => {
            f.read(&["ty:", t]);
            f.write(&["keys:", t]);
            for key in old.iter().chain(new) {
                for part in &key.0 {
                    f.read(&["attref:", part]);
                    f.read(&["hier:", t]);
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
            f.read_domain(domain);
        }
        ModOp::DeleteAttribute { ty: t, name } => {
            f.read(&["ty:", t]);
            f.write(&["mem:", t, "::", name]);
            f.write(&["keys:", t]);
            // Pruning removes by-name references from order-by lists of
            // relationships and links targeting the owner.
            f.write(&["attref:", name]);
        }
        ModOp::ModifyAttribute {
            ty: t,
            name,
            new_ty,
        } => {
            f.read(&["ty:", t]);
            f.read(&["ty:", new_ty]);
            f.read(&["hier:", t]);
            f.read(&["hier:", new_ty]);
            f.write(&["mem:", t, "::", name]);
            f.write(&["mem:", new_ty, "::", name]);
            f.write(&["keys:", t]);
            f.write(&["attref:", name]);
        }
        ModOp::ModifyAttributeType {
            ty: t, name, new, ..
        } => {
            f.read(&["ty:", t]);
            f.write(&["mem:", t, "::", name]);
            f.read_domain(new);
        }
        ModOp::ModifyAttributeSize { ty: t, name, .. } => {
            f.read(&["ty:", t]);
            f.write(&["mem:", t, "::", name]);
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
                f.read(&["attref:", a]);
            }
        }
        ModOp::DeleteRelationship { ty: t, path } => {
            // The inverse end's owner is not in the statement: the delete
            // may clear a member slot on any type.
            f.read(&["ty:", t]);
            f.write(&["mem:", t, "::", path]);
            f.write(&["mem:*"]);
        }
        ModOp::ModifyRelationshipTargetType {
            ty: t,
            path,
            old_target,
            new_target,
        } => {
            f.read(&["ty:", t]);
            f.read(&["ty:", old_target]);
            f.read(&["ty:", new_target]);
            f.read(&["hier:", old_target]);
            f.read(&["hier:", new_target]);
            f.write(&["mem:", t, "::", path]);
            f.write(&["mem:", old_target, "::*"]);
            f.write(&["mem:", new_target, "::*"]);
        }
        ModOp::ModifyRelationshipCardinality { ty: t, path, .. } => {
            f.read(&["ty:", t]);
            f.write(&["mem:", t, "::", path]);
        }
        ModOp::ModifyRelationshipOrderBy {
            ty: t, path, new, ..
        } => {
            f.read(&["ty:", t]);
            f.write(&["mem:", t, "::", path]);
            for a in new {
                f.read(&["attref:", a]);
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
            f.read_domain(return_type);
            for p in args {
                f.read_domain(&p.ty);
            }
        }
        ModOp::DeleteOperation { ty: t, name } => {
            f.read(&["ty:", t]);
            f.write(&["mem:", t, "::", name]);
        }
        ModOp::ModifyOperation {
            ty: t,
            name,
            new_ty,
        } => {
            f.read(&["ty:", t]);
            f.read(&["ty:", new_ty]);
            f.read(&["hier:", t]);
            f.read(&["hier:", new_ty]);
            f.write(&["mem:", t, "::", name]);
            f.write(&["mem:", new_ty, "::", name]);
        }
        ModOp::ModifyOperationReturnType {
            ty: t, name, new, ..
        } => {
            f.read(&["ty:", t]);
            f.write(&["mem:", t, "::", name]);
            f.read_domain(new);
        }
        ModOp::ModifyOperationArgList {
            ty: t, name, new, ..
        } => {
            f.read(&["ty:", t]);
            f.write(&["mem:", t, "::", name]);
            for p in new {
                f.read_domain(&p.ty);
            }
        }
        ModOp::ModifyOperationExceptionsRaised { ty: t, name, .. } => {
            f.read(&["ty:", t]);
            f.write(&["mem:", t, "::", name]);
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
            f.write(&["hier:", t]);
            f.write(&["hier:", target]);
            for a in order_by {
                f.read(&["attref:", a]);
            }
        }
        ModOp::DeletePartOfRelationship { ty: t, path }
        | ModOp::DeleteInstanceOfRelationship { ty: t, path } => {
            f.read(&["ty:", t]);
            f.write(&["mem:", t, "::", path]);
            f.write(&["hier:", t]);
            f.write(&["mem:*"]);
            f.write(&["hier:*"]);
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
            f.read(&["ty:", t]);
            f.read(&["ty:", old_target]);
            f.read(&["ty:", new_target]);
            f.write(&["mem:", t, "::", path]);
            f.write(&["mem:", old_target, "::*"]);
            f.write(&["mem:", new_target, "::*"]);
            f.write(&["hier:", t]);
            f.write(&["hier:", old_target]);
            f.write(&["hier:", new_target]);
        }
        ModOp::ModifyPartOfCardinality { ty: t, path, .. }
        | ModOp::ModifyInstanceOfCardinality { ty: t, path, .. } => {
            f.read(&["ty:", t]);
            f.write(&["mem:", t, "::", path]);
        }
        ModOp::ModifyPartOfOrderBy {
            ty: t, path, new, ..
        }
        | ModOp::ModifyInstanceOfOrderBy {
            ty: t, path, new, ..
        } => {
            f.read(&["ty:", t]);
            f.write(&["mem:", t, "::", path]);
            for a in new {
                f.read(&["attref:", a]);
            }
        }
    }
    f.pack()
}

/// Adding a member to `owner` reads the owner's existence and inheritance
/// neighbourhood (member-free and conflict checks walk it) and writes the
/// member slot.
fn member_add_footprint(f: &mut Sets, owner: &str, name: &str) {
    f.read(&["ty:", owner]);
    f.read(&["hier:", owner]);
    f.write(&["mem:", owner, "::", name]);
}

/// Supertype rewiring re-judges inheritance conflicts across the whole
/// region below the subtype, so it reads every member slot.
fn supertype_footprint(f: &mut Sets, sub: &str, added: &[String], removed: &[String]) {
    f.read(&["ty:", sub]);
    f.read(&["mem:*"]);
    f.write(&["hier:", sub]);
    for s in added.iter().chain(removed) {
        f.read(&["ty:", s]);
        f.write(&["hier:", s]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_adds_commute() {
        let a = footprint(&ModOp::AddTypeDefinition { ty: "A".into() });
        let b = footprint(&ModOp::AddTypeDefinition { ty: "B".into() });
        assert!(commutes(&a, &b));
        let c = footprint(&ModOp::AddTypeDefinition { ty: "A".into() });
        assert!(!commutes(&a, &c));
    }

    #[test]
    fn type_delete_conflicts_with_everything() {
        let del = footprint(&ModOp::DeleteTypeDefinition { ty: "A".into() });
        let other = footprint(&ModOp::AddTypeDefinition { ty: "B".into() });
        assert!(!commutes(&del, &other));
    }

    #[test]
    fn attr_delete_conflicts_with_order_by_naming_it() {
        // delete_attribute prunes by-name references; an order-by list that
        // names the attribute must not be reordered across the delete.
        let del = footprint(&ModOp::DeleteAttribute {
            ty: "T".into(),
            name: "a".into(),
        });
        let set = footprint(&ModOp::ModifyRelationshipOrderBy {
            ty: "S".into(),
            path: "p".into(),
            old: vec![],
            new: vec!["a".into()],
        });
        assert!(!commutes(&del, &set));
    }

    #[test]
    fn supertype_rewire_conflicts_with_member_adds() {
        let sup = footprint(&ModOp::AddSupertype {
            ty: "Sub".into(),
            supertype: "Sup".into(),
        });
        let add = footprint(&ModOp::AddAttribute {
            ty: "Other".into(),
            domain: sws_odl::DomainType::Long,
            size: None,
            name: "n".into(),
        });
        assert!(!commutes(&sup, &add));
    }

    #[test]
    fn unrelated_member_ops_commute() {
        let a = footprint(&ModOp::ModifyAttributeSize {
            ty: "A".into(),
            name: "x".into(),
            old: None,
            new: Some(16),
        });
        let b = footprint(&ModOp::DeleteOperation {
            ty: "B".into(),
            name: "f".into(),
        });
        assert!(commutes(&a, &b));
    }

    #[test]
    fn token_sets_are_sorted_and_deduplicated() {
        let f = footprint(&ModOp::ModifyKeyList {
            ty: "T".into(),
            old: vec![sws_odl::Key(vec!["b".into(), "a".into()])],
            new: vec![sws_odl::Key(vec!["a".into()])],
        });
        assert_eq!(f.writes().collect::<Vec<_>>(), ["keys:T"]);
        assert_eq!(
            f.reads().collect::<Vec<_>>(),
            ["attref:a", "attref:b", "hier:T", "ty:T"]
        );
    }

    #[test]
    fn the_masks_decide_most_commuting_stream_pairs() {
        use sws_bench::edit_scripts::{churn_stream, edit_stream};
        use sws_corpus::{synthetic::SyntheticSpec, university};

        let mut ops = Vec::new();
        for g in [university::graph(), SyntheticSpec::sized(200, 7).generate()] {
            ops.extend(edit_stream(&g, 100, 1).into_iter().map(|(_, op)| op));
            ops.extend(churn_stream(&g, 100, 1).into_iter().map(|(_, op)| op));
        }
        let fps: Vec<Footprint> = ops.iter().map(footprint).collect();
        let (mut commuting, mut by_masks) = (0usize, 0usize);
        for a in &fps {
            for b in &fps {
                if commutes(a, b) {
                    commuting += 1;
                    by_masks += usize::from(masks_commute(a, b));
                }
            }
        }
        eprintln!("{by_masks} of {commuting} commuting pairs decided by the masks");
        assert!(
            commuting > fps.len() * fps.len() / 4,
            "{commuting} commuting pairs"
        );
        assert!(
            by_masks * 4 > commuting * 3,
            "only {by_masks} of {commuting} commuting pairs were decided by the masks"
        );
    }

    #[test]
    fn the_masks_add_at_most_sixteen_bytes() {
        // A `Box<str>` and a `u32` took 24 bytes before the masks.
        assert!(std::mem::size_of::<Footprint>() <= 24 + 16);
    }

    #[test]
    fn names_holding_the_separator_conflict_with_everything() {
        let odd = footprint(&ModOp::AddTypeDefinition { ty: "A\0B".into() });
        assert_eq!(odd.writes().collect::<Vec<_>>(), ["*"]);
        assert_eq!(odd.reads().count(), 0);
        let other = footprint(&ModOp::AddTypeDefinition { ty: "C".into() });
        assert!(!commutes(&odd, &other));
        assert!(!commutes(&other, &odd));
    }
}
