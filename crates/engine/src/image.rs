//! The compiled image of a program: everything a [`Machine`] reads while it
//! runs.
//!
//! An [`Image`] is built once from a [`Program`] and never changes: the
//! clause templates, the `(functor, arity)` call-target table and the
//! first-argument index, plus the two facts about a clause's head that the
//! reference clause selection and the profiler ask for. Machines share it
//! through an `Arc` and borrow nothing, so a machine — or a pool of them, or
//! a thread that runs one — may outlive the [`Program`] it was compiled
//! from.
//!
//! The index is flat: every predicate's candidate lists sit back to back in
//! one array, and a list is a [`Seq`] of it. The list for a key holds the
//! clauses whose head's first argument has that principal functor **and**
//! the clauses whose head's first argument is a variable, in source order —
//! the sequence a linear scan with a key filter visits, which
//! [`ClauseSelection::LinearScan`] runs as the reference.
//!
//! [`Machine`]: crate::Machine
//! [`ClauseSelection::LinearScan`]: crate::ClauseSelection::LinearScan

use crate::template::{compile_program, ClauseTemplate, Seq};
use granlog_ir::builtins::{self, Builtin};
use granlog_ir::{ClauseId, FastMap, IndexKey, PredId, Program, Symbol};
use std::sync::Arc;

/// What a non-control goal resolves to.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CallTarget {
    Builtin(Builtin),
    /// A predicate of the program, by its place in [`Program::predicates`]
    /// order — the numbering a compiled [`crate::Step::Call`] uses too.
    User(u32),
}

/// One predicate's candidate lists, as ranges of [`Image::cands`].
#[derive(Debug)]
struct PredIndex {
    /// Every clause, in source order: the candidates of a call whose first
    /// argument is unbound or absent.
    all: Seq,
    /// The clauses whose head's first argument is a variable or absent: the
    /// candidates of a call whose key no clause head has.
    any: Seq,
    /// The keys of the clause heads, sorted, each with the clauses that
    /// have it merged with `any`, in source order. Empty when every head's
    /// first argument is a variable or absent.
    keyed: Box<[(IndexKey, Seq)]>,
}

/// A compiled program. See the [module documentation](self).
#[derive(Debug)]
pub struct Image {
    /// The clause templates, indexed by [`ClauseId`].
    templates: Arc<[ClauseTemplate]>,
    /// `(functor, arity)` → call target, so the solve loop identifies a goal
    /// it only meets at run time with one fast-hash probe. Builtins shadow
    /// user predicates of the same name and arity, as they always have.
    table: FastMap<(Symbol, usize), CallTarget>,
    /// The predicates' index entries, by predicate number.
    preds: Vec<PredIndex>,
    /// The candidate lists of every predicate, back to back.
    cands: Vec<ClauseId>,
    /// Each clause's head predicate and first-argument key.
    heads: Vec<(PredId, Option<IndexKey>)>,
}

impl Image {
    /// Compiles `program`.
    pub fn new(program: &Program) -> Arc<Image> {
        Image::with_templates(program, compile_program(program).into())
    }

    /// Builds the image of `program` around its already compiled templates
    /// ([`compile_program`]).
    ///
    /// # Panics
    ///
    /// Panics if the template array's length does not match the program's
    /// clause count.
    pub fn with_templates(program: &Program, templates: Arc<[ClauseTemplate]>) -> Arc<Image> {
        assert_eq!(
            templates.len(),
            program.clauses().len(),
            "template array does not match the program"
        );
        let heads: Vec<(PredId, Option<IndexKey>)> = program
            .clauses()
            .iter()
            .map(|clause| {
                let pred = clause
                    .head_pred()
                    .expect("a program's clauses are callable");
                (pred, IndexKey::of_clause_head(clause))
            })
            .collect();
        let mut table: FastMap<(Symbol, usize), CallTarget> = FastMap::default();
        let mut preds = Vec::new();
        let mut cands = Vec::with_capacity(heads.len());
        for (number, predicate) in program.predicates().enumerate() {
            let (name, arity) = (predicate.id.name, predicate.id.arity);
            table.insert((name, arity), CallTarget::User(number as u32));
            preds.push(index_predicate(&predicate.clause_ids, &heads, &mut cands));
        }
        for row in builtins::rows() {
            table.insert((row.name, row.arity()), CallTarget::Builtin(row.id));
        }
        Arc::new(Image {
            templates,
            table,
            preds,
            cands,
            heads,
        })
    }

    /// The clause templates, indexed by [`ClauseId`].
    pub(crate) fn templates(&self) -> &[ClauseTemplate] {
        &self.templates
    }

    pub(crate) fn target(&self, name: Symbol, arity: usize) -> Option<CallTarget> {
        self.table.get(&(name, arity)).copied()
    }

    /// The candidate list of a call to predicate number `pred` whose first
    /// argument's key `key` gives: a binary search of the predicate's keys,
    /// no allocation, no scan. A predicate with no keyed clause has one list
    /// whatever the key, so `key` is not asked.
    #[inline]
    pub(crate) fn select(&self, pred: u32, key: impl FnOnce() -> Option<IndexKey>) -> Seq {
        let index = &self.preds[pred as usize];
        if index.keyed.is_empty() {
            return index.all;
        }
        match key() {
            None => index.all,
            Some(key) => match index.keyed.binary_search_by(|(k, _)| k.cmp(&key)) {
                Ok(at) => index.keyed[at].1,
                Err(_) => index.any,
            },
        }
    }

    /// The reference for [`Image::select`]: the predicate's clauses scanned
    /// in source order, keeping those whose head key is absent or equal to
    /// the call's.
    pub(crate) fn scan(&self, pred: u32, key: Option<&IndexKey>) -> Box<[ClauseId]> {
        let all = self.clauses(self.preds[pred as usize].all).iter();
        all.copied()
            .filter(|&id| match (key, &self.heads[id].1) {
                (Some(goal), Some(head)) => goal == head,
                _ => true,
            })
            .collect()
    }

    #[inline]
    pub(crate) fn clauses(&self, list: Seq) -> &[ClauseId] {
        &self.cands[list.range()]
    }

    /// The predicate a clause belongs to.
    pub(crate) fn head_pred(&self, clause: ClauseId) -> PredId {
        self.heads[clause].0
    }
}

/// Appends one predicate's candidate lists to `cands`: every clause, the
/// variable-headed clauses, and one merged list per key.
fn index_predicate(
    ids: &[ClauseId],
    heads: &[(PredId, Option<IndexKey>)],
    cands: &mut Vec<ClauseId>,
) -> PredIndex {
    let all = Seq::since(cands.len(), cands.len() + ids.len());
    cands.extend_from_slice(ids);
    // First the keys, sorted, with the size of each list (`len` counts the
    // key's own clauses)...
    let mut keys: Vec<IndexKey> = ids.iter().filter_map(|&id| heads[id].1).collect();
    let unkeyed = ids.len() - keys.len();
    keys.sort_unstable();
    let mut keyed: Vec<(IndexKey, Seq)> = Vec::new();
    for key in keys {
        match keyed.last_mut() {
            Some((last, list)) if *last == key => list.len += 1,
            _ => keyed.push((key, Seq::since(0, 1))),
        }
    }
    // ... then its place (`len` restarts at 0 as the fill cursor) ...
    let mut any = Seq::since(cands.len(), cands.len());
    let mut end = cands.len() + unkeyed;
    for (_, list) in &mut keyed {
        let own = list.len as usize;
        *list = Seq::since(end, end);
        end += own + unkeyed;
    }
    // A variable-headed clause is in every list, so the total is quadratic
    // in the worst case: refuse what a `Seq` cannot address before paying
    // for it.
    assert!(
        u32::try_from(end).is_ok(),
        "candidate lists past u32 positions"
    );
    cands.resize(end, 0);
    // ... then the clauses, in source order: a keyed clause joins its key's
    // list, a variable-headed one joins them all.
    let mut put = |list: &mut Seq, id: ClauseId| {
        cands[(list.start + list.len) as usize] = id;
        list.len += 1;
    };
    for &id in ids {
        match heads[id].1 {
            Some(key) => {
                let at = keyed
                    .binary_search_by(|(k, _)| k.cmp(&key))
                    .expect("counted above");
                put(&mut keyed[at].1, id);
            }
            None => {
                put(&mut any, id);
                keyed.iter_mut().for_each(|(_, list)| put(list, id));
            }
        }
    }
    PredIndex {
        all,
        any,
        keyed: keyed.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use granlog_ir::parser::{parse_program, parse_term};
    use granlog_ir::Term;

    /// `p`'s number in an image of a program that defines only `p`.
    const P: u32 = 0;

    fn probe(image: &Image, key: Option<IndexKey>) -> &[ClauseId] {
        probe_pred(image, P, key)
    }

    /// The candidate list of a call to predicate number `pred`.
    fn probe_pred(image: &Image, pred: u32, key: Option<IndexKey>) -> &[ClauseId] {
        image.clauses(image.select(pred, || key))
    }

    #[test]
    fn first_arg_index_buckets_match_a_filtered_scan() {
        let p =
            parse_program("p(a, 1). p(b, 2). p(X, 3). p(a, 4). p(f(Y), 5). p(7, 6). p(f(g), 7).")
                .unwrap();
        let image = Image::new(&p);
        for key in [
            None,
            IndexKey::of_term(&Term::atom("a")),
            IndexKey::of_term(&Term::atom("b")),
            IndexKey::of_term(&Term::atom("zzz")),
            IndexKey::of_term(&Term::int(7)),
            IndexKey::of_term(&Term::int(99)),
            IndexKey::of_term(&Term::compound("f", vec![Term::var(0)])),
            IndexKey::of_term(&Term::compound("f", vec![Term::var(0), Term::var(1)])),
        ] {
            assert_eq!(
                probe(&image, key),
                &*image.scan(P, key.as_ref()),
                "key {key:?}"
            );
        }
        let a = IndexKey::of_term(&Term::atom("a"));
        assert_eq!(probe(&image, a), &[0, 2, 3]);
        assert!(image.target(Symbol::intern("q"), 2).is_none());
    }

    #[test]
    fn index_buckets_match_reference_scan() {
        // First-argument shapes covering atoms, ints, structs and variables,
        // and call-site probes: keys no clause has, and an unbound variable.
        const FIRST_ARGS: [&str; 9] = ["a", "b", "c", "7", "13", "f(k)", "f(W)", "g(1, 2)", "V"];
        const PROBES: [&str; 11] = [
            "a", "b", "c", "7", "13", "f(k)", "f(z)", "g(1, 2)", "zzz", "99", "Q",
        ];
        let keys: Vec<Option<IndexKey>> = PROBES
            .iter()
            .map(|probe| IndexKey::of_term(&parse_term(probe).unwrap().0))
            .collect();
        // Every sequence of up to three first arguments, then 512 longer
        // ones (four to eleven clauses) read off a multiplicative stride.
        let short = (1..=3u32).flat_map(|len| (0..9usize.pow(len)).map(move |n| (n, len as usize)));
        let long =
            (0..512usize).map(|i| (i.wrapping_mul(2_654_435_761) % 9usize.pow(11), 4 + i % 8));
        for (mut digits, len) in short.chain(long) {
            let mut src = String::new();
            for i in 0..len {
                src.push_str(&format!("p({}, {i}).\n", FIRST_ARGS[digits % 9]));
                digits /= 9;
            }
            let image = Image::new(&parse_program(&src).unwrap());
            for &key in &keys {
                assert_eq!(
                    probe(&image, key),
                    &*image.scan(P, key.as_ref()),
                    "key {key:?} in\n{src}"
                );
            }
        }
    }

    #[test]
    fn unseen_key_falls_back_to_var_headed_clauses() {
        let image = Image::new(&parse_program("p(a). p(X). p(b).").unwrap());
        let key = IndexKey::of_term(&Term::atom("unseen"));
        assert_eq!(probe(&image, key), &[1]);
        // An unbound first argument matches everything, in source order.
        assert_eq!(probe(&image, None), &[0, 1, 2]);
    }

    #[test]
    fn zero_arity_predicates_index_everything_under_no_key() {
        let image = Image::new(&parse_program("p. p.").unwrap());
        assert_eq!(probe(&image, None), &[0, 1]);
    }

    #[test]
    fn lists_of_interleaved_predicates_hold_their_own_clauses_only() {
        let p = parse_program("p(a). q(a). p(X). q(b). p(b). q(X).").unwrap();
        let image = Image::new(&p);
        let (a, b) = (
            IndexKey::of_term(&Term::atom("a")),
            IndexKey::of_term(&Term::atom("b")),
        );
        // `p` is predicate 0 and `q` predicate 1, in order of appearance.
        let (p, q) = (0, 1);
        assert_eq!(probe_pred(&image, p, a), &[0, 2]);
        assert_eq!(probe_pred(&image, p, b), &[2, 4]);
        assert_eq!(probe_pred(&image, q, a), &[1, 5]);
        assert_eq!(probe_pred(&image, q, b), &[3, 5]);
        assert_eq!(probe_pred(&image, q, None), &[1, 3, 5]);
        assert_eq!(image.head_pred(3), PredId::parse("q", 1));
    }

    #[test]
    #[should_panic(expected = "does not match the program")]
    fn templates_of_another_program_are_refused() {
        let other = parse_program("q(1). q(2).").unwrap();
        Image::with_templates(
            &parse_program("p(1).").unwrap(),
            compile_program(&other).into(),
        );
    }
}
