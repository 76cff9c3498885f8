//! Global string interner: [`Symbol`] is a `u32` handle to a deduplicated,
//! process-lifetime string.
//!
//! Every name the schema graph stores — type names, attribute/operation
//! names, relationship and hierarchy-link paths, key components, `order_by`
//! entries, extents — is interned once and carried as a `Symbol`. Name
//! equality on the hot paths (well-formedness, consistency, diff closure
//! expansion) is then a single integer compare, and nodes that used to own
//! heap `String`s become `Copy`-cheap.
//!
//! Design constraints, in order:
//!
//! * **Append-only, never shrinks.** A `Symbol` minted once stays valid for
//!   the life of the process, so undo-log replay and `Workspace::reset` can
//!   restore before-images by value without re-interning. The backing
//!   strings are leaked (`Box::leak`); the interner is a bounded leak by
//!   construction — one entry per distinct name ever seen.
//! * **`Eq`/`Hash` by id, `Ord` by string.** Equality of interned strings
//!   coincides with id equality, so the fast compare is sound. Ordering
//!   delegates to the string so name-sorted output (canonical ODL, reports,
//!   `BTreeSet` iteration) is unchanged by interning order.
//! * **Lock-light.** Lookups take a read lock; only the first sighting of a
//!   name takes the write lock. `as_str` returns `&'static str`, so
//!   resolved names can outlive any lock scope.

use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::sync::{OnceLock, RwLock};

/// An interned string handle. See the module docs for the invariants.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

struct Interner {
    map: HashMap<&'static str, u32>,
    strings: Vec<&'static str>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            map: HashMap::new(),
            strings: Vec::new(),
        })
    })
}

impl Symbol {
    /// Intern `s`, returning the existing handle if it was seen before.
    pub fn intern(s: &str) -> Symbol {
        let lock = interner();
        if let Some(&id) = lock.read().expect("interner lock poisoned").map.get(s) {
            return Symbol(id);
        }
        let mut w = lock.write().expect("interner lock poisoned");
        // Double-checked: another thread may have interned it between locks.
        if let Some(&id) = w.map.get(s) {
            return Symbol(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = u32::try_from(w.strings.len()).expect("interner overflow");
        w.strings.push(leaked);
        w.map.insert(leaked, id);
        Symbol(id)
    }

    /// The handle for `s` if it was ever interned, without inserting.
    /// A name that was never interned cannot name any graph construct, so
    /// `None` doubles as a fast negative existence answer.
    pub fn try_lookup(s: &str) -> Option<Symbol> {
        interner()
            .read()
            .expect("interner lock poisoned")
            .map
            .get(s)
            .map(|&id| Symbol(id))
    }

    /// The interned string. `&'static` because the interner never frees.
    pub fn as_str(self) -> &'static str {
        interner().read().expect("interner lock poisoned").strings[self.0 as usize]
    }

    /// The raw handle value (stable for the process lifetime).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Number of distinct strings interned so far. Monotonic; the
    /// symbol-stability property tests assert it never decreases across
    /// undo/reset replay.
    pub fn interner_len() -> usize {
        interner()
            .read()
            .expect("interner lock poisoned")
            .strings
            .len()
    }
}

impl Deref for Symbol {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

// Ordering by string keeps every name-sorted surface (canonical ODL,
// BTreeSet iteration) independent of interning order. Consistent with
// `Eq`-by-id because the interner deduplicates.
impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Symbol {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Symbol> for str {
    fn eq(&self, other: &Symbol) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Symbol> for &str {
    fn eq(&self, other: &Symbol) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<Symbol> for String {
    fn eq(&self, other: &Symbol) -> bool {
        self.as_str() == other.as_str()
    }
}

/// A key with interned attribute names: the graph-side form of
/// [`sws_odl::Key`]. Prints identically to `Key` (single-attribute keys
/// bare, compound keys as `(a, b)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymKey(pub Vec<Symbol>);

impl SymKey {
    /// Intern an AST key.
    pub fn from_key(key: &sws_odl::Key) -> SymKey {
        SymKey(key.0.iter().map(|a| Symbol::intern(a)).collect())
    }

    /// Resolve back to the AST form.
    pub fn to_key(&self) -> sws_odl::Key {
        sws_odl::Key(self.0.iter().map(|s| s.as_str().to_string()).collect())
    }
}

impl fmt::Display for SymKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.len() == 1 {
            f.write_str(self.0[0].as_str())
        } else {
            write!(f, "(")?;
            for (i, s) in self.0.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                f.write_str(s.as_str())?;
            }
            write!(f, ")")
        }
    }
}

impl PartialEq<sws_odl::Key> for SymKey {
    fn eq(&self, other: &sws_odl::Key) -> bool {
        self.0.len() == other.0.len() && self.0.iter().zip(&other.0).all(|(s, o)| s == o)
    }
}

impl From<&sws_odl::Key> for SymKey {
    fn from(key: &sws_odl::Key) -> SymKey {
        SymKey::from_key(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_deduplicates() {
        let a = Symbol::intern("intern-test-dedup");
        let b = Symbol::intern("intern-test-dedup");
        assert_eq!(a, b);
        assert_eq!(a.index(), b.index());
        assert_eq!(a.as_str(), "intern-test-dedup");
    }

    #[test]
    fn distinct_strings_distinct_handles() {
        let a = Symbol::intern("intern-test-a");
        let b = Symbol::intern("intern-test-b");
        assert_ne!(a, b);
        assert_ne!(a.index(), b.index());
    }

    #[test]
    fn ordering_is_by_string_not_by_handle() {
        // Intern in reverse lexicographic order: handle order disagrees
        // with name order, Ord must follow the names.
        let z = Symbol::intern("intern-test-zzz");
        let a = Symbol::intern("intern-test-aaa");
        assert!(a < z);
        let mut v = vec![z, a];
        v.sort();
        assert_eq!(v, vec![a, z]);
    }

    #[test]
    fn try_lookup_does_not_insert() {
        // Other tests intern concurrently, so the global count proves
        // nothing; a second lookup still missing the name does.
        assert_eq!(Symbol::try_lookup("intern-test-never-inserted-xyzzy"), None);
        assert_eq!(Symbol::try_lookup("intern-test-never-inserted-xyzzy"), None);
        let s = Symbol::intern("intern-test-lookup-hit");
        assert_eq!(Symbol::try_lookup("intern-test-lookup-hit"), Some(s));
    }

    #[test]
    fn str_comparisons_and_deref() {
        let s = Symbol::intern("intern-test-deref");
        assert_eq!(s, "intern-test-deref");
        assert_eq!("intern-test-deref", s);
        assert_eq!(s, "intern-test-deref".to_string());
        assert_eq!(s.len(), "intern-test-deref".len());
        assert_eq!(s.to_string(), "intern-test-deref");
        assert_eq!(format!("{s}"), "intern-test-deref");
        assert_eq!(format!("{s:?}"), "\"intern-test-deref\"");
    }

    #[test]
    fn concurrent_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    (0..64)
                        .map(|j| Symbol::intern(&format!("intern-race-{}", (i + j) % 16)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let all: Vec<Vec<Symbol>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for row in &all {
            for s in row {
                assert_eq!(*s, Symbol::intern(s.as_str()));
            }
        }
    }

    #[test]
    fn sym_key_round_trips_and_displays_like_key() {
        let single = sws_odl::Key::single("name");
        let compound = sws_odl::Key::compound(["a", "b"]);
        let s1 = SymKey::from_key(&single);
        let s2 = SymKey::from_key(&compound);
        assert_eq!(s1.to_string(), single.to_string());
        assert_eq!(s2.to_string(), compound.to_string());
        assert_eq!(s1.to_key(), single);
        assert_eq!(s2.to_key(), compound);
        assert_eq!(s1, single);
        assert_eq!(s2, compound);
        assert!(s2 != single);
    }
}
