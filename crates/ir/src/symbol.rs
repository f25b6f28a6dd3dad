//! Interned atom / functor names.
//!
//! Prolog programs mention the same small set of atoms over and over
//! (`[]`, `'.'`, predicate names, ...). [`Symbol`] interns those strings in a
//! process-wide, append-only table so that atoms compare and hash as a single
//! `u32` and terms stay `Copy`-light.
//!
//! The table has two halves:
//!
//! * **names by id** — buckets of doubling size (64, 128, 256, ... names),
//!   each a `OnceLock` allocated when its first id is handed out, of one
//!   `OnceLock<&'static str>` per id. A name is written before its id
//!   leaves [`Symbol::intern`] and never changes, so [`Symbol::as_str`]
//!   (every printed atom, every normalised `load`, every name comparison)
//!   is three acquire loads and no lock;
//! * **ids by name** — one `Mutex` over a [`FastMap`], taken once per
//!   [`Symbol::intern`]. A poisoned lock is recovered: what it guards is
//!   changed by a counter bump, one slot write and one insert, in that
//!   order, so an unwind can leave an unused id behind but never a name
//!   with two ids.
//!
//! Ids are dense and handed out in order of first interning. The reader
//! asks for each distinct spelling of a text once (its lexer keeps a map
//! of the spellings it has seen), so reading a fact file costs one lock per
//! distinct atom, not one per token.
//!
//! The table is append-only and never freed: the set of distinct atoms in a
//! compilation session is tiny compared to the terms built from them, so the
//! leak is bounded and intentional (the same strategy used by most compilers'
//! string interners). [`Symbol::count`] and [`Symbol::bytes`] say how large
//! it has grown.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// A fast, non-cryptographic hasher for small fixed-size keys (symbols,
/// predicate ids, index keys) on hot paths.
///
/// The standard library's default SipHash is DoS-resistant but costs tens of
/// nanoseconds per probe; engine dispatch tables and clause-index buckets are
/// probed once per goal, so they use this Fibonacci-multiply / xor-shift
/// hasher instead. Most keys are interner indices and small integers; the
/// symbol table's names and the reader's spellings are strings from program
/// text, and since this hasher has no seed, text crafted to collide in it
/// can lengthen their probes.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PHI);
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.0 = (self.0 ^ u64::from(v)).wrapping_mul(PHI);
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = (self.0 ^ u64::from(v)).wrapping_mul(PHI);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(PHI);
    }

    fn write_usize(&mut self, v: usize) {
        self.0 = (self.0 ^ v as u64).wrapping_mul(PHI);
    }

    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        // One final avalanche so high bits (used by hashbrown's control
        // bytes) depend on every input.
        let h = self.0;
        (h ^ (h >> 29)).wrapping_mul(PHI)
    }
}

/// `HashMap` keyed by small interned values, using [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// An interned string naming an atom, functor or predicate.
///
/// Two `Symbol`s are equal if and only if the strings they intern are equal.
/// Symbols are cheap to copy, compare and hash.
///
/// # Example
///
/// ```
/// use granlog_ir::Symbol;
/// let a = Symbol::intern("append");
/// let b = Symbol::intern("append");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "append");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

/// The length of the first bucket of names; bucket `k` holds
/// `FIRST_BUCKET << k` of them.
const FIRST_BUCKET: usize = 64;

/// Enough buckets for every `u32` id.
const BUCKETS: usize = 32 - FIRST_BUCKET.trailing_zeros() as usize + 1;

/// One bucket of names, indexed by id minus the bucket's first id.
type Bucket = Box<[OnceLock<&'static str>]>;

struct Table {
    /// Names by id, read without a lock.
    names: [OnceLock<Bucket>; BUCKETS],
    /// Ids by name, and how many of each there are.
    index: Mutex<Index>,
}

struct Index {
    ids: FastMap<&'static str, u32>,
    /// Ids handed out so far: the next id.
    len: u32,
    /// Total length of the names, in bytes.
    bytes: usize,
}

fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| Table {
        names: std::array::from_fn(|_| OnceLock::new()),
        index: Mutex::new(Index {
            ids: FastMap::default(),
            len: 0,
            bytes: 0,
        }),
    })
}

/// The index, recovered from a poisoned lock: see the module docs for why
/// it stays consistent across an unwind.
fn index(table: &Table) -> MutexGuard<'_, Index> {
    table.index.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Where the name of `id` lives: its bucket and its place in it.
fn slot(id: u32) -> (usize, usize) {
    let shifted = u64::from(id) + FIRST_BUCKET as u64;
    let bucket = (shifted.ilog2() - FIRST_BUCKET.ilog2()) as usize;
    (
        bucket,
        (shifted - ((FIRST_BUCKET as u64) << bucket)) as usize,
    )
}

impl Symbol {
    /// Interns `s` and returns its symbol.
    ///
    /// Interning the same string twice returns the same symbol.
    pub fn intern(s: &str) -> Symbol {
        let table = table();
        let mut index = index(table);
        if let Some(&id) = index.ids.get(s) {
            return Symbol(id);
        }
        let id = index.len;
        index.len = id.checked_add(1).expect("more symbols than a u32 numbers");
        let name: &'static str = Box::leak(s.into());
        let (bucket, at) = slot(id);
        let names = table.names[bucket].get_or_init(|| {
            (0..FIRST_BUCKET << bucket)
                .map(|_| OnceLock::new())
                .collect()
        });
        assert!(
            names[at].set(name).is_ok(),
            "symbol id {id} handed out twice"
        );
        index.ids.insert(name, id);
        index.bytes += name.len();
        Symbol(id)
    }

    /// Returns the interned string.
    pub fn as_str(self) -> &'static str {
        let (bucket, at) = slot(self.0);
        table().names[bucket]
            .get()
            .and_then(|names| names[at].get().copied())
            .expect("a symbol's name is written before its id is handed out")
    }

    /// Returns the raw interner index. Only useful for debugging or dense maps.
    pub fn index(self) -> u32 {
        self.0
    }

    /// How many distinct names the process has interned.
    pub fn count() -> usize {
        index(table()).len as usize
    }

    /// The total length of those names, in bytes.
    pub fn bytes() -> usize {
        index(table()).bytes
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Self {
        Symbol::intern(&s)
    }
}

impl serde::Serialize for Symbol {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self.as_str())
    }
}

impl<'de> serde::Deserialize<'de> for Symbol {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        Ok(Symbol::intern(&s))
    }
}

/// Well-known symbols used throughout the system.
///
/// The individual accessors (`nil()`, `cons()`, ...) are backed by a table
/// interned exactly once per process ([`well_known::get`]), so calling them in
/// hot paths costs a relaxed `OnceLock` load rather than an interner-mutex
/// round trip. Engine inner loops should fetch the whole
/// [`WellKnownSymbols`](well_known::WellKnownSymbols) table once and compare
/// against its fields directly.
pub mod well_known {
    use super::Symbol;
    use std::sync::OnceLock;

    /// Every well-known symbol, interned once and cached for the process.
    #[derive(Debug, Clone, Copy)]
    pub struct WellKnownSymbols {
        /// The empty-list atom `[]`.
        pub nil: Symbol,
        /// The list constructor `'.'`.
        pub cons: Symbol,
        /// The atom `true`.
        pub true_: Symbol,
        /// The atom `fail`.
        pub fail: Symbol,
        /// The atom `false` (synonym of `fail` in goal position).
        pub false_: Symbol,
        /// The cut atom `!`.
        pub cut: Symbol,
        /// The conjunction functor `','`.
        pub comma: Symbol,
        /// The disjunction functor `';'`.
        pub semicolon: Symbol,
        /// The if-then functor `'->'`.
        pub arrow: Symbol,
        /// The parallel-conjunction functor `'&'`.
        pub par_and: Symbol,
        /// The clause-neck functor `':-'`.
        pub neck: Symbol,
        /// The negation-as-failure functor `'\+'`.
        pub not: Symbol,
    }

    /// The process-wide well-known symbol table.
    pub fn get() -> &'static WellKnownSymbols {
        static TABLE: OnceLock<WellKnownSymbols> = OnceLock::new();
        TABLE.get_or_init(|| WellKnownSymbols {
            nil: Symbol::intern("[]"),
            cons: Symbol::intern("."),
            true_: Symbol::intern("true"),
            fail: Symbol::intern("fail"),
            false_: Symbol::intern("false"),
            cut: Symbol::intern("!"),
            comma: Symbol::intern(","),
            semicolon: Symbol::intern(";"),
            arrow: Symbol::intern("->"),
            par_and: Symbol::intern("&"),
            neck: Symbol::intern(":-"),
            not: Symbol::intern("\\+"),
        })
    }

    /// The empty-list atom `[]`.
    pub fn nil() -> Symbol {
        get().nil
    }

    /// The list constructor `'.'`.
    pub fn cons() -> Symbol {
        get().cons
    }

    /// The atom `true`.
    pub fn true_() -> Symbol {
        get().true_
    }

    /// The atom `fail`.
    pub fn fail() -> Symbol {
        get().fail
    }

    /// The conjunction functor `','`.
    pub fn comma() -> Symbol {
        get().comma
    }

    /// The disjunction functor `';'`.
    pub fn semicolon() -> Symbol {
        get().semicolon
    }

    /// The if-then functor `'->'`.
    pub fn arrow() -> Symbol {
        get().arrow
    }

    /// The parallel-conjunction functor `'&'`.
    pub fn par_and() -> Symbol {
        get().par_and
    }

    /// The clause-neck functor `':-'`.
    pub fn neck() -> Symbol {
        get().neck
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let a = Symbol::intern("foo");
        let b = Symbol::intern("foo");
        assert_eq!(a, b);
        assert_eq!(a.index(), b.index());
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let a = Symbol::intern("foo_distinct_1");
        let b = Symbol::intern("foo_distinct_2");
        assert_ne!(a, b);
    }

    #[test]
    fn as_str_round_trips() {
        let s = "a_rather_unusual_atom_name";
        assert_eq!(Symbol::intern(s).as_str(), s);
    }

    #[test]
    fn display_and_debug() {
        let s = Symbol::intern("hello");
        assert_eq!(s.to_string(), "hello");
        assert!(format!("{s:?}").contains("hello"));
    }

    #[test]
    fn from_impls() {
        let a: Symbol = "xyz".into();
        let b: Symbol = String::from("xyz").into();
        assert_eq!(a, b);
    }

    #[test]
    fn well_known_symbols() {
        assert_eq!(well_known::nil().as_str(), "[]");
        assert_eq!(well_known::cons().as_str(), ".");
        assert_eq!(well_known::comma().as_str(), ",");
        assert_eq!(well_known::par_and().as_str(), "&");
    }

    #[test]
    fn well_known_table_matches_interner() {
        let wk = well_known::get();
        assert_eq!(wk.nil, Symbol::intern("[]"));
        assert_eq!(wk.cons, Symbol::intern("."));
        assert_eq!(wk.cut, Symbol::intern("!"));
        assert_eq!(wk.false_, Symbol::intern("false"));
        assert_eq!(wk.not, Symbol::intern("\\+"));
        // The table is interned once: repeated calls return identical symbols.
        assert_eq!(well_known::get().neck, wk.neck);
    }

    #[test]
    fn symbols_are_ordered_consistently() {
        let a = Symbol::intern("aaa_order");
        let b = Symbol::intern("bbb_order");
        // Ordering is by interner index, not lexicographic; it just needs to be
        // a total order usable in BTreeMap keys.
        assert!(a < b || b < a);
    }

    #[test]
    fn empty_string_is_internable() {
        let e = Symbol::intern("");
        assert_eq!(e.as_str(), "");
    }

    #[test]
    fn unicode_atoms() {
        let s = Symbol::intern("átomo_π");
        assert_eq!(s.as_str(), "átomo_π");
    }

    #[test]
    fn ids_fill_every_bucket_from_its_first_place() {
        let places: Vec<(usize, usize)> = [0, 63, 64, 191, 192, u32::MAX]
            .into_iter()
            .map(slot)
            .collect();
        assert_eq!(
            places,
            [(0, 0), (0, 63), (1, 0), (1, 127), (2, 0), (BUCKETS - 1, 63)]
        );
    }

    /// Four threads intern overlapping spellings — plain, quoted with
    /// escapes, beyond ASCII, 1 000 bytes long — each in its own order,
    /// enough of them to open several buckets: every thread gets one id per
    /// spelling, the fresh ids are dense, and every name reads back.
    #[test]
    fn threads_interning_overlapping_spellings_agree_on_every_id() {
        let long = "l".repeat(1_000);
        let spellings: Vec<String> = (0..600)
            .map(|i| match i % 4 {
                0 => format!("concurrent_plain_{i}"),
                1 => format!("concurrent 'quoted'\\n\t{i}"),
                2 => format!("concurrent_π_ü_{i}"),
                _ => format!("{long}{i}"),
            })
            .collect();
        let before = Symbol::count();
        let ids: Vec<Vec<u32>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|t| {
                    let spellings = &spellings;
                    scope.spawn(move || {
                        // Thread t starts a quarter further in and wraps.
                        let mut ids = vec![0; spellings.len()];
                        for k in 0..spellings.len() {
                            let at = (k + t * spellings.len() / 4) % spellings.len();
                            let symbol = Symbol::intern(&spellings[at]);
                            assert_eq!(symbol.as_str(), spellings[at]);
                            ids[at] = symbol.index();
                        }
                        ids
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(ids.iter().all(|mine| *mine == ids[0]));
        let mut fresh = ids[0].clone();
        fresh.sort_unstable();
        fresh.dedup();
        assert_eq!(fresh.len(), spellings.len(), "one id per spelling");
        // Other tests intern concurrently, so the spellings' ids are dense
        // only within everything interned meanwhile.
        assert!(fresh[0] as usize >= before);
        assert!((*fresh.last().unwrap() as usize) < Symbol::count());
        for (spelling, &id) in spellings.iter().zip(&ids[0]) {
            assert_eq!(Symbol(id).as_str(), spelling);
            assert_eq!(Symbol::intern(spelling).index(), id);
        }
    }
}
