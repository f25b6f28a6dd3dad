//! Semi-naive fixpoint evaluation and query answering.
//!
//! Strata run in dependency order. Within a stratum a seeding round runs
//! every rule's source-order plan against the current totals; every later
//! round runs, for each recursive body position whose relation grew in the
//! previous round, that position's *delta-first* plan (`compile.rs`,
//! `PlannedRule::variants`): the delta literal leads and
//! scans exactly the previous round's insertions, and the other literals
//! are probed through hash indexes on the columns bound by then. Which
//! tuples a literal may read is fixed by its *source* position, not by
//! where the plan runs it — before the delta position the whole relation,
//! after it only tuples older than the previous round's insertions — so
//! every new combination is derived by exactly one variant, and `rounds`,
//! `derived_facts` and `join_batches` do not depend on the join order. A
//! round therefore costs what its delta costs: on a chain topology the
//! fixpoint is O(n) rounds of O(1) probes, which the `tuples_tried` counter
//! shows without a clock.
//!
//! A `Relation` stores each tuple once, in a flat arena strided by arity.
//! Its dedup set and its indexes are open-addressed tables of `u32` tuple
//! ids that hash and compare *through* the arena; an index chains the
//! tuples sharing a key oldest-first through one `u32` per tuple, so
//! inserting, probing and deriving allocate nothing per tuple. Before a
//! batch goes in — a program's ground facts, or one join batch's
//! derivations — the relation makes room for all of it
//! (`Relation::room_for`), so each table grows at most once per batch
//! instead of doubling its way to size. Rounds buffer their derivations and
//! insert them when the round ends; the order of tuples — and hence of
//! query answers — *within* a round is unspecified.
//!
//! A query's answers are stored the same way: [`Rows`] keeps every answer
//! back to back in one vector of constant ids, one id per goal variable, so
//! a query allocates per query, not per answer. The ids resolve to terms
//! through the constant table the database shares with its program, and
//! only when a row is read.
//!
//! Failpoint seams: `datalog.join` (one check per join batch, query probes
//! included) and `datalog.fixpoint.round` (one check per round). Without
//! `--features failpoints` both compile to const no-ops.

use crate::compile::{
    plan_probes, slots, Access, ArgPat, ColOp, CompiledDatalog, ConstId, ConstResolver, ConstTable,
    Literal, LowerCtx, PlannedLiteral, Range,
};
use crate::error::DatalogError;
use granlog_ir::{AsTerm, FastHasher, FastMap, PredId, Symbol, Term};
use std::collections::BTreeSet;
use std::fmt;
use std::hash::Hasher;
use std::sync::Arc;

/// Counters of one fixpoint evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FixpointStats {
    /// Fixpoint rounds across all strata (seeding rounds included).
    pub rounds: u64,
    /// Facts derived by rules (EDB facts and duplicates excluded).
    pub derived_facts: u64,
    /// Ground facts loaded from the program.
    pub edb_facts: u64,
    /// Join batches executed (one per rule/delta-variant/round).
    pub join_batches: u64,
    /// Join work: tuples matched against a literal plus membership probes.
    /// Deterministic, so scaling can be tested without a wall clock.
    pub tuples_tried: u64,
}

/// Table-slot sentinel: no tuple id.
const EMPTY: u32 = u32::MAX;

/// Hash of a key given by its column values. [`FastHasher`] avalanches
/// into the high bits, which is where [`IdTable`] indexes.
fn hash_key(vals: impl Iterator<Item = ConstId>) -> u64 {
    let mut hasher = FastHasher::default();
    vals.for_each(|v| hasher.write_u32(v));
    hasher.finish()
}

/// An open-addressed (linear probing) table of tuple ids. The keys live in
/// the relation's arena, so callers supply hashing and equality per call.
#[derive(Debug, Default)]
struct IdTable {
    /// A power of two long (empty until the first insert), at most half full.
    slots: Vec<u32>,
    used: usize,
}

impl IdTable {
    /// The slot holding an id `eq` accepts, or else the empty slot ending
    /// the probe sequence. The slot array must not be empty.
    fn probe(&self, hash: u64, eq: impl Fn(u32) -> bool) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = (hash >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            let id = self.slots[at];
            if id == EMPTY || eq(id) {
                return at;
            }
            at = (at + 1) & mask;
        }
    }

    fn find(&self, hash: u64, eq: impl Fn(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let id = self.slots[self.probe(hash, eq)];
        (id != EMPTY).then_some(id)
    }

    /// Makes room for `extra` more ids, re-placing the present ones by
    /// `hash_of` when the array grows: to the least power of two that keeps
    /// it at most half full, so room for many ids is one allocation.
    fn room_for(&mut self, extra: usize, hash_of: impl Fn(u32) -> u64) {
        let want = (self.used + extra) * 2;
        if want <= self.slots.len() {
            return;
        }
        let grown = vec![EMPTY; want.next_power_of_two().max(8)];
        for id in std::mem::replace(&mut self.slots, grown) {
            if id != EMPTY {
                let at = self.probe(hash_of(id), |_| false);
                self.slots[at] = id;
            }
        }
    }

    /// Writes `id` to a slot [`IdTable::probe`] returned.
    fn put(&mut self, at: usize, id: u32) {
        self.used += usize::from(self.slots[at] == EMPTY);
        self.slots[at] = id;
    }
}

/// One hash index over a relation. The table holds, per distinct key, the
/// newest tuple with that key; `next` links the tuples sharing a key into a
/// ring, so the newest's successor is the oldest and a probe walks the
/// posting list in ascending id order.
#[derive(Debug)]
struct Index {
    cols: Vec<u32>,
    newest: IdTable,
    next: Vec<u32>,
}

/// A fact relation: insertion-ordered tuples in one flat arena, a
/// dedup/membership table, and the registered indexes.
#[derive(Debug)]
struct Relation {
    arity: usize,
    len: u32,
    /// Tuple `id` is `data[id * arity..][..arity]`.
    data: Vec<ConstId>,
    set: IdTable,
    indexes: Vec<Index>,
}

fn row(data: &[ConstId], arity: usize, id: u32) -> &[ConstId] {
    &data[id as usize * arity..][..arity]
}

impl Relation {
    fn new(arity: usize, index_specs: &[Vec<u32>]) -> Self {
        Relation {
            arity,
            len: 0,
            data: Vec::new(),
            set: IdTable::default(),
            indexes: index_specs
                .iter()
                .map(|cols| Index {
                    cols: cols.clone(),
                    newest: IdTable::default(),
                    next: Vec::new(),
                })
                .collect(),
        }
    }

    /// Makes room for `extra` more tuples in the arena, the dedup set and
    /// every index, so inserting that many allocates nothing.
    fn room_for(&mut self, extra: usize) {
        let Relation {
            arity,
            data,
            set,
            indexes,
            ..
        } = self;
        let arity = *arity;
        data.reserve(extra * arity);
        let data = data.as_slice();
        set.room_for(extra, |i| hash_key(row(data, arity, i).iter().copied()));
        for Index { cols, newest, next } in indexes {
            let cols = cols.as_slice();
            newest.room_for(extra, |i| {
                hash_key(cols.iter().map(|&c| row(data, arity, i)[c as usize]))
            });
            next.reserve(extra);
        }
    }

    fn tuple(&self, id: u32) -> &[ConstId] {
        row(&self.data, self.arity, id)
    }

    fn insert(&mut self, tuple: &[ConstId]) -> bool {
        let Relation {
            arity,
            len,
            data,
            set,
            indexes,
        } = self;
        let arity = *arity;
        // One probe both finds a duplicate and the slot a new tuple takes.
        set.room_for(1, |i| hash_key(row(data, arity, i).iter().copied()));
        let at = set.probe(hash_key(tuple.iter().copied()), |id| {
            row(data, arity, id) == tuple
        });
        if set.slots[at] != EMPTY {
            return false;
        }
        let id = *len;
        assert!(id != EMPTY, "relation outgrew its u32 tuple ids");
        *len += 1;
        data.extend_from_slice(tuple);
        set.put(at, id);
        let data = data.as_slice();
        for ix in indexes {
            let Index { cols, newest, next } = ix;
            let cols = cols.as_slice();
            let key = |i: u32| cols.iter().map(move |&c| row(data, arity, i)[c as usize]);
            newest.room_for(1, |i| hash_key(key(i)));
            let at = newest.probe(hash_key(key(id)), |i| key(i).eq(key(id)));
            match newest.slots[at] {
                EMPTY => next.push(id),
                prev => {
                    next.push(next[prev as usize]);
                    next[prev as usize] = id;
                }
            }
            newest.put(at, id);
        }
        true
    }
}

/// The materialized result of a fixpoint evaluation, ready to answer
/// queries. Immutable once built — safe to cache and share across sessions.
#[derive(Debug)]
pub struct Database {
    consts: Arc<ConstTable>,
    rels: Vec<Relation>,
    preds: Vec<(PredId, usize)>,
    pred_ix: FastMap<PredId, usize>,
    stats: FixpointStats,
}

/// All answers to a query: the query's variables (first-occurrence order)
/// and one ground row per answer.
///
/// Rows hold constant ids into the database's shared constant table and
/// resolve them to source-level [`Term`]s — the shape of an SLD
/// [`granlog_engine::QueryOutcome`]'s bindings, so the two engines' answer
/// sets are directly comparable — only when read.
#[derive(Debug, Clone)]
pub struct QueryAnswers {
    /// The query's variables, in first-occurrence order.
    pub vars: Vec<Symbol>,
    /// One ground row per answer, each as wide as `vars`.
    pub rows: Rows,
    /// Join work the query cost, counted like
    /// [`FixpointStats::tuples_tried`].
    pub tuples_tried: u64,
}

impl QueryAnswers {
    /// Did at least one answer exist?
    pub fn succeeded(&self) -> bool {
        !self.rows.is_empty()
    }

    /// Row `i` as SLD-shaped name/term bindings.
    pub fn bindings(&self, i: usize) -> Vec<(Symbol, Term)> {
        self.vars
            .iter()
            .copied()
            .zip(self.rows.row(i).cloned())
            .collect()
    }
}

/// A query's answer rows, back to back in one vector of constant ids: row
/// `i` is `ids[i * width..][..width]`. The row count is kept beside them,
/// because a goal with no variables has rows of width 0. Ids become terms
/// through the shared constant table only when a row is read.
#[derive(Clone)]
pub struct Rows {
    consts: Arc<ConstTable>,
    width: usize,
    len: usize,
    ids: Vec<ConstId>,
}

impl Rows {
    fn new(consts: &Arc<ConstTable>, width: usize) -> Self {
        Rows {
            consts: Arc::clone(consts),
            width,
            len: 0,
            ids: Vec::new(),
        }
    }

    fn push(&mut self, row: &[ConstId]) {
        debug_assert_eq!(row.len(), self.width);
        self.ids.extend_from_slice(row);
        self.len += 1;
    }

    /// The number of answers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// No answer at all?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i`, one term per query variable, borrowed from the constant
    /// table.
    ///
    /// # Panics
    ///
    /// When `i` is not below [`Rows::len`].
    pub fn row(&self, i: usize) -> impl ExactSizeIterator<Item = &Term> + Clone + '_ {
        assert!(i < self.len, "row {i} of {} rows", self.len);
        self.ids[i * self.width..][..self.width]
            .iter()
            .map(|&c| self.consts.term(c))
    }
}

/// The rows as terms; the constant table behind them is not printed.
impl fmt::Debug for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries((0..self.len).map(|i| self.row(i).collect::<Vec<_>>()))
            .finish()
    }
}

/// Nested-loop join over a plan's probes. `bounds[pos]` is the tuple-id
/// range `lo..hi` probe `pos` may read — the semi-naive delta/total/old
/// split is expressed purely through these ranges.
struct Join<'a, F: FnMut(&[ConstId])> {
    rels: &'a [Relation],
    lits: &'a [PlannedLiteral],
    bounds: &'a [(u32, u32)],
    /// The binding frame, one value per rule slot. Slots are written by
    /// [`ColOp::Bind`] before any probe reads them.
    bind: &'a mut [ConstId],
    /// See [`FixpointStats::tuples_tried`].
    tried: u64,
    emit: F,
}

impl<F: FnMut(&[ConstId])> Join<'_, F> {
    /// Runs the batch; returns its `tried` count.
    fn run(mut self) -> Result<u64, DatalogError> {
        granlog_fault::fail_or("datalog.join", || DatalogError::Fault("datalog.join"))?;
        self.step(0);
        Ok(self.tried)
    }

    fn step(&mut self, pos: usize) {
        let (rels, lits) = (self.rels, self.lits);
        let Some(lit) = lits.get(pos) else {
            (self.emit)(self.bind);
            return;
        };
        let rel = &rels[lit.rel];
        let (lo, hi) = self.bounds[pos];
        let bind = &*self.bind;
        // The value a bound column must have.
        let want = |op: &ColOp| match *op {
            ColOp::Const(c) => c,
            ColOp::Check(s) | ColOp::Bind(s) => bind[s as usize],
        };
        match lit.access {
            Access::Member => {
                // Negated literals land here: range restriction binds all
                // their columns, and their relation is from a lower
                // stratum, hence complete.
                self.tried += 1;
                let found = rel
                    .set
                    .find(hash_key(lit.ops.iter().map(want)), |id| {
                        rel.tuple(id).iter().copied().eq(lit.ops.iter().map(want))
                    })
                    .is_some_and(|id| lo <= id && id < hi);
                if found != lit.negated {
                    self.step(pos + 1);
                }
            }
            Access::Index(slot) => {
                let ix = &rel.indexes[slot];
                let key = || ix.cols.iter().map(|&c| want(&lit.ops[c as usize]));
                let Some(newest) = ix.newest.find(hash_key(key()), |id| {
                    let tuple = rel.tuple(id);
                    ix.cols.iter().map(|&c| tuple[c as usize]).eq(key())
                }) else {
                    return;
                };
                let mut id = ix.next[newest as usize];
                while id < hi {
                    if id >= lo {
                        self.try_tuple(pos, id);
                    }
                    if id == newest {
                        break;
                    }
                    id = ix.next[id as usize];
                }
            }
            Access::Scan => {
                for id in lo..hi {
                    self.try_tuple(pos, id);
                }
            }
        }
    }

    fn try_tuple(&mut self, pos: usize, id: u32) {
        self.tried += 1;
        let (rels, lits) = (self.rels, self.lits);
        let lit = &lits[pos];
        for (&v, op) in rels[lit.rel].tuple(id).iter().zip(&lit.ops) {
            match *op {
                ColOp::Const(c) if c != v => return,
                ColOp::Check(s) if self.bind[s as usize] != v => return,
                ColOp::Bind(s) => self.bind[s as usize] = v,
                ColOp::Const(_) | ColOp::Check(_) => {}
            }
        }
        self.step(pos + 1);
    }
}

/// Join scratch, allocated once per [`CompiledDatalog::evaluate`] and
/// reused by every batch.
struct Scratch {
    /// Wide enough for the widest rule.
    bind: Vec<ConstId>,
    bounds: Vec<(u32, u32)>,
    /// The round's derived head tuples back to back, and per join batch
    /// the head relation and how many tuples it emitted.
    out: Vec<ConstId>,
    batches: Vec<(usize, u32)>,
}

impl CompiledDatalog {
    /// Runs the stratified semi-naive fixpoint to completion.
    ///
    /// Each call loads the program's ground facts into fresh relations,
    /// sized for them up front, and the [`Database`] it returns shares the
    /// program's constant table rather than copying it.
    ///
    /// Deterministic for a given program; fails only through injected
    /// faults (`--features failpoints`).
    pub fn evaluate(&self) -> Result<Database, DatalogError> {
        self.evaluate_traced(None)
    }

    /// [`CompiledDatalog::evaluate`] with structured trace emission: one
    /// `datalog_stratum` event per non-empty stratum and one
    /// `datalog_round` event per seeding/semi-naive round, carrying the
    /// running round number, that round's insertion count and its
    /// `tuples_tried`. With `tracer` absent (or disabled) evaluation is
    /// byte-for-byte the plain path — the fixpoint itself never consults
    /// the tracer.
    pub fn evaluate_traced(
        &self,
        tracer: Option<&granlog_obs::Tracer>,
    ) -> Result<Database, DatalogError> {
        let mut stats = FixpointStats::default();
        let mut rels: Vec<Relation> = self
            .preds
            .iter()
            .zip(&self.rel_indexes)
            .map(|(pred, specs)| Relation::new(pred.arity, specs))
            .collect();
        // Sized for their facts up front, the tables are allocated once
        // each instead of doubling their way there.
        let mut facts_of = vec![0; rels.len()];
        for &rel in &self.facts {
            facts_of[rel] += 1;
        }
        for (rel, n) in rels.iter_mut().zip(facts_of) {
            rel.room_for(n);
        }

        let mut args = self.fact_args.as_slice();
        for &rel in &self.facts {
            let (tuple, rest) = args.split_at(rels[rel].arity);
            args = rest;
            stats.edb_facts += u64::from(rels[rel].insert(tuple));
        }

        let mut scratch = Scratch {
            bind: vec![0; self.rules.iter().map(|r| r.num_slots).max().unwrap_or(0)],
            bounds: Vec::new(),
            out: Vec::new(),
            batches: Vec::new(),
        };
        // Per relation, its length before the previous round's insertions:
        // the delta is `old[r]..len`, and it is empty for every relation
        // the running stratum does not write.
        let mut old: Vec<u32> = rels.iter().map(|r| r.len).collect();

        for (stratum_ix, stratum) in self.strata.iter().enumerate() {
            if stratum.rules.is_empty() {
                continue;
            }
            if let Some(t) = tracer {
                t.emit(
                    "datalog_stratum",
                    vec![
                        ("stratum", stratum_ix.into()),
                        ("rules", stratum.rules.len().into()),
                    ],
                );
            }
            // The seeding round runs every rule once against the current
            // totals (lower strata plus this stratum's ground facts); each
            // later round joins the previous round's insertions.
            let mut seeding = true;
            loop {
                granlog_fault::fail_or("datalog.fixpoint.round", || {
                    DatalogError::Fault("datalog.fixpoint.round")
                })?;
                stats.rounds += 1;
                let tried_before = stats.tuples_tried;
                for &r in &stratum.rules {
                    let rule = &self.rules[r];
                    if seeding {
                        run_plan(rule, &rule.seed, &rels, &old, &mut scratch, &mut stats)?;
                        continue;
                    }
                    for plan in &rule.variants {
                        let delta = &rels[plan[0].rel];
                        if old[plan[0].rel] < delta.len {
                            run_plan(rule, plan, &rels, &old, &mut scratch, &mut stats)?;
                        }
                    }
                }
                seeding = false;

                for &r in &stratum.rels {
                    old[r] = rels[r].len;
                }
                let mut inserted = 0u64;
                let mut tuples = scratch.out.as_slice();
                for (rel, emitted) in scratch.batches.drain(..) {
                    rels[rel].room_for(emitted as usize);
                    for _ in 0..emitted {
                        let (tuple, rest) = tuples.split_at(rels[rel].arity);
                        tuples = rest;
                        inserted += u64::from(rels[rel].insert(tuple));
                    }
                }
                scratch.out.clear();
                stats.derived_facts += inserted;
                if let Some(t) = tracer {
                    t.emit(
                        "datalog_round",
                        vec![
                            ("stratum", stratum_ix.into()),
                            ("round", stats.rounds.into()),
                            ("inserted", inserted.into()),
                            ("tuples_tried", (stats.tuples_tried - tried_before).into()),
                        ],
                    );
                }
                if inserted == 0 {
                    break;
                }
            }
        }

        Ok(Database {
            consts: Arc::clone(&self.consts),
            rels,
            preds: self.preds.iter().map(|p| (p.pred, p.arity)).collect(),
            pred_ix: self.pred_ix.clone(),
            stats,
        })
    }
}

/// Executes one plan of `rule` (one join batch), buffering the derived head
/// tuples in `scratch`.
fn run_plan(
    rule: &crate::compile::PlannedRule,
    plan: &[PlannedLiteral],
    rels: &[Relation],
    old: &[u32],
    scratch: &mut Scratch,
    stats: &mut FixpointStats,
) -> Result<(), DatalogError> {
    stats.join_batches += 1;
    let Scratch {
        bind,
        bounds,
        out,
        batches,
    } = scratch;
    bounds.clear();
    bounds.extend(plan.iter().map(|l| match l.range {
        Range::Total => (0, rels[l.rel].len),
        Range::Delta => (old[l.rel], rels[l.rel].len),
        Range::Old => (0, old[l.rel]),
    }));
    let mut emitted = 0u32;
    let join = Join {
        rels,
        lits: plan,
        bounds,
        bind,
        tried: 0,
        emit: |bind: &[ConstId]| {
            emitted += 1;
            out.extend(rule.head_args.iter().map(|a| match *a {
                ArgPat::Const(c) => c,
                ArgPat::Var(s) => bind[s as usize],
            }));
        },
    };
    stats.tuples_tried += join.run()?;
    batches.push((rule.rel, emitted));
    Ok(())
}

impl Database {
    /// Evaluation counters.
    pub fn stats(&self) -> &FixpointStats {
        &self.stats
    }

    /// Total tuples across every relation (EDB plus derived).
    pub fn total_facts(&self) -> u64 {
        self.rels.iter().map(|r| u64::from(r.len)).sum()
    }

    /// Tuples in one relation (0 for unknown predicates — legal Datalog,
    /// an empty relation).
    pub fn relation_size(&self, pred: PredId) -> usize {
        self.pred_ix
            .get(&pred)
            .map_or(0, |&i| self.rels[i].len as usize)
    }

    /// Every predicate in the database with its relation size, in
    /// deterministic order.
    pub fn predicates(&self) -> impl Iterator<Item = (PredId, usize)> + '_ {
        self.preds
            .iter()
            .zip(&self.rels)
            .map(|(&(pred, _), rel)| (pred, rel.len as usize))
    }

    /// Answers a query goal against the materialized database.
    ///
    /// The goal is a conjunction of literals in the same Datalog subset as
    /// program bodies (negation allowed, range-restricted over the goal's
    /// positive literals); `var_names` maps the goal's
    /// [`granlog_ir::VarId`]s to source names, exactly as
    /// [`granlog_ir::parser::parse_term`] returns them. One row comes back
    /// per distinct variable assignment; a probe whose bound columns match
    /// an index the program's rules registered uses it, any other scans.
    pub fn query(&self, goal: &Term, var_names: &[Symbol]) -> Result<QueryAnswers, DatalogError> {
        let shown = granlog_ir::pretty::TermWithNames::new(goal, var_names);
        let mut ctx = LowerCtx::new(&shown, var_names);
        let mut resolver = ConstResolver::Lookup(&self.consts);
        let mut lowered = Vec::new();
        ctx.lower_body(goal.term_ref(), &mut resolver, &mut lowered)?;

        // The answer columns: every goal variable, first-occurrence order.
        let vars: Vec<Symbol> = ctx.slot_names.clone();

        // Order probes like a seeding plan: positives first (source order),
        // then negations. A literal that cannot match — an unknown constant
        // or a predicate the program never mentions (an empty relation) —
        // empties the answer set when positive and is trivially true, so
        // dropped, when negated.
        let mut body: Vec<Literal> = Vec::new();
        let mut negated = Vec::new();
        let mut impossible = false;
        for l in lowered {
            let matchable = !l.impossible && self.pred_ix.contains_key(&l.lit.pred);
            if !l.lit.negated {
                impossible |= !matchable;
                body.push(l.lit);
            } else if matchable {
                negated.push(l.lit);
            }
        }
        // Range restriction over the goal itself.
        let positive_slots: BTreeSet<u32> = body.iter().flat_map(slots).collect();
        if let Some(s) = (0..vars.len() as u32).find(|s| !positive_slots.contains(s)) {
            return Err(DatalogError::UnsafeClause {
                clause: ctx.shown(),
                var: ctx.slot_name(s).to_string(),
            });
        }
        let mut rows = Rows::new(&self.consts, vars.len());
        if impossible {
            return Ok(QueryAnswers {
                vars,
                rows,
                tuples_tried: 0,
            });
        }
        body.append(&mut negated);

        let order: Vec<usize> = (0..body.len()).collect();
        let lits = plan_probes(&body, &order, None, &self.pred_ix, |rel, cols| {
            self.rels[rel].indexes.iter().position(|ix| ix.cols == cols)
        });

        let bounds: Vec<(u32, u32)> = lits.iter().map(|l| (0, self.rels[l.rel].len)).collect();
        // The frame is one slot per goal variable, so it is the row.
        let tuples_tried = Join {
            rels: &self.rels,
            lits: &lits,
            bounds: &bounds,
            bind: &mut vec![0; vars.len()],
            tried: 0,
            emit: |bind: &[ConstId]| rows.push(bind),
        }
        .run()?;
        Ok(QueryAnswers {
            vars,
            rows,
            tuples_tried,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use granlog_ir::parser::parse_program;

    #[test]
    fn a_relation_with_room_fills_without_growing_a_table() {
        let mut rel = Relation::new(2, &[vec![0], vec![1]]);
        rel.room_for(100);
        let tables = |r: &Relation| {
            let mut lens = vec![r.data.capacity(), r.set.slots.len()];
            lens.extend(r.indexes.iter().map(|ix| ix.newest.slots.len()));
            lens
        };
        let sized = tables(&rel);
        for i in 0..100 {
            assert!(rel.insert(&[i % 10, i]));
        }
        assert!(!rel.insert(&[3, 13]), "a duplicate is not inserted");
        assert_eq!(tables(&rel), sized, "no table grew");
        let half_full = |t: &IdTable| t.used * 2 <= t.slots.len();
        assert!(half_full(&rel.set) && rel.indexes.iter().all(|ix| half_full(&ix.newest)));
        assert_eq!(rel.len, 100);
        // The first index still chains a key's tuples oldest-first.
        let ix = &rel.indexes[0];
        let newest = ix
            .newest
            .find(hash_key([3].into_iter()), |id| rel.tuple(id)[0] == 3);
        let mut chain = vec![ix.next[newest.expect("key 3 is present") as usize]];
        while chain.len() < 10 {
            chain.push(ix.next[*chain.last().unwrap() as usize]);
        }
        assert_eq!(chain, (0..10).map(|k| k * 10 + 3).collect::<Vec<_>>());
    }

    #[test]
    fn databases_share_their_programs_constant_table() {
        let program = parse_program("edge(a, b). reach(a). reach(T) :- edge(S, T), reach(S).")
            .expect("program parses");
        let compiled = CompiledDatalog::compile(&program).expect("compiles");
        let db = compiled.evaluate().expect("evaluates");
        assert!(Arc::ptr_eq(&db.consts, &compiled.consts));
    }

    #[test]
    fn answers_print_their_rows_and_not_the_constant_table() {
        let program =
            parse_program("edge(a, b). edge(b, c). secret(zzz).").expect("program parses");
        let db = CompiledDatalog::compile(&program)
            .expect("compiles")
            .evaluate()
            .expect("evaluates");
        let (goal, names) = granlog_ir::parser::parse_term("edge(X, Y)").unwrap();
        let answers = db.query(&goal, &names).expect("query runs");
        assert!(Arc::ptr_eq(&answers.rows.consts, &db.consts));
        assert_eq!(answers.rows.ids.len(), 4, "two rows of two ids");
        let shown = format!("{:?}", answers.rows);
        assert_eq!(shown, "[[a, b], [b, c]]");
        assert!(!format!("{answers:?}").contains("zzz"));
    }
}
