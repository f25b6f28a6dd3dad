//! Front end of the bottom-up engine: Datalog-subset validation,
//! stratification, and compilation of rules to flat join plans.
//!
//! A program is lowered clause by clause. Ground facts become tuples over an
//! interned constant table ([`ConstTable`] — atoms and functors reuse the
//! template machinery's global [`Symbol`] interner, and the table extends
//! that interning to whole ground terms so tuples are fixed-width `u32`
//! rows). Rules become [`PlannedRule`]s: a seeding plan in source order plus
//! one delta-first plan per recursive body position, each a flat sequence of
//! literal probes whose bound columns map to a registered hash-index key
//! spec on the probed relation. Everything outside the subset —
//! cut, disjunction, if-then-else, arithmetic, builtins, metacalls,
//! non-ground compound arguments — is rejected with a typed
//! [`DatalogError`] naming the offending clause before any evaluation
//! starts.

use crate::error::DatalogError;
use granlog_ir::pretty::TermWithNames;
use granlog_ir::symbol::well_known;
use granlog_ir::term::Args;
use granlog_ir::{builtins, AsTerm, Clause, FastMap, PredId, Program, Symbol, Term, TermRef, View};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Identifier of an interned ground term in a [`ConstTable`].
pub(crate) type ConstId = u32;

/// Interning table for ground terms.
///
/// Tuples in the evaluator are fixed-width [`ConstId`] rows; equality and
/// hashing are word comparisons, never term walks. A term is looked up by
/// its cells, so a constant that is a subterm of a clause is never copied to
/// be found. Atoms are already interned
/// [`Symbol`]s, so for the common atom-constant case this adds one
/// indirection over the global symbol table rather than a second string
/// table.
#[derive(Debug, Default)]
pub(crate) struct ConstTable {
    terms: Vec<Term>,
    ids: FastMap<Term, ConstId>,
}

impl ConstTable {
    /// Interns a ground term, returning its id.
    pub(crate) fn intern(&mut self, t: TermRef<'_>) -> ConstId {
        if let Some(id) = self.lookup(t) {
            return id;
        }
        let id = self.terms.len() as ConstId;
        self.terms.push(t.to_term());
        self.ids.insert(t.to_term(), id);
        id
    }

    /// Looks a ground term up without interning (query-side: an unknown
    /// constant cannot match any existing tuple).
    pub(crate) fn lookup(&self, t: TermRef<'_>) -> Option<ConstId> {
        self.ids.get(t.cells()).copied()
    }

    /// The term behind an id.
    pub(crate) fn term(&self, id: ConstId) -> &Term {
        &self.terms[id as usize]
    }
}

/// One argument position of a literal or head: a rule-frame slot or an
/// interned constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ArgPat {
    /// A variable, as a slot in the rule's binding frame.
    Var(u32),
    /// An interned ground constant.
    Const(ConstId),
}

/// A validated body literal (pre-planning).
#[derive(Debug, Clone)]
pub(crate) struct Literal {
    pub(crate) pred: PredId,
    pub(crate) negated: bool,
    pub(crate) args: Vec<ArgPat>,
}

/// A validated rule (pre-planning).
#[derive(Debug, Clone)]
pub(crate) struct Rule {
    pub(crate) pred: PredId,
    pub(crate) head_args: Vec<ArgPat>,
    pub(crate) body: Vec<Literal>,
    pub(crate) num_slots: usize,
    pub(crate) display: String,
}

/// How constants are resolved while lowering: the program side interns new
/// ones, the query side only looks existing ones up.
pub(crate) enum ConstResolver<'a> {
    Intern(&'a mut ConstTable),
    Lookup(&'a ConstTable),
}

impl ConstResolver<'_> {
    fn resolve(&mut self, t: TermRef<'_>) -> Option<ConstId> {
        match self {
            ConstResolver::Intern(table) => Some(table.intern(t)),
            ConstResolver::Lookup(table) => table.lookup(t),
        }
    }
}

/// A lowered literal whose constants may be outside the database's domain
/// (query side only; `impossible` is always `false` when interning).
pub(crate) struct LoweredLiteral {
    pub(crate) lit: Literal,
    /// A positive literal with an unknown constant can never match; a
    /// negated one is trivially true.
    pub(crate) impossible: bool,
}

/// Clause-lowering state: the slot map from source [`granlog_ir::VarId`]s to
/// dense rule-frame slots, in first-occurrence order.
pub(crate) struct LowerCtx<'a> {
    /// The clause (or goal) being lowered, printed only for a rejection or
    /// for a rule that is kept — never for a fact that lowers.
    display: &'a dyn fmt::Display,
    var_names: &'a [Symbol],
    slots: FastMap<usize, u32>,
    pub(crate) slot_names: Vec<Symbol>,
}

impl<'a> LowerCtx<'a> {
    pub(crate) fn new(display: &'a dyn fmt::Display, var_names: &'a [Symbol]) -> Self {
        LowerCtx {
            display,
            var_names,
            slots: FastMap::default(),
            slot_names: Vec::new(),
        }
    }

    fn slot(&mut self, var: usize) -> u32 {
        if let Some(&s) = self.slots.get(&var) {
            return s;
        }
        let s = self.slot_names.len() as u32;
        self.slots.insert(var, s);
        self.slot_names.push(
            self.var_names
                .get(var)
                .copied()
                .unwrap_or_else(|| Symbol::intern(&format!("_{var}"))),
        );
        s
    }

    /// The clause (or goal) rendered with its source variable names.
    pub(crate) fn shown(&self) -> String {
        self.display.to_string()
    }

    fn not_datalog(&self, construct: impl Into<String>) -> DatalogError {
        DatalogError::NotDatalog {
            clause: self.shown(),
            construct: construct.into(),
        }
    }

    fn lower_args(
        &mut self,
        args: Args<'_>,
        consts: &mut ConstResolver<'_>,
    ) -> Result<(Vec<ArgPat>, bool), DatalogError> {
        let mut out = Vec::with_capacity(args.len());
        let mut impossible = false;
        for arg in args {
            match arg.view() {
                View::Var(v) => out.push(ArgPat::Var(self.slot(v))),
                _ if arg.is_ground() => match consts.resolve(arg) {
                    Some(id) => out.push(ArgPat::Const(id)),
                    None => {
                        // Unknown constant (query side): keep the shape but
                        // mark the literal unmatchable. The placeholder id
                        // is never compared because `impossible` wins first.
                        out.push(ArgPat::Const(ConstId::MAX));
                        impossible = true;
                    }
                },
                _ => {
                    return Err(self.not_datalog(format!(
                        "non-ground compound argument `{}`",
                        TermWithNames::new(arg, self.var_names)
                    )))
                }
            }
        }
        Ok((out, impossible))
    }

    fn lower_literal(
        &mut self,
        goal: TermRef<'_>,
        negated: bool,
        consts: &mut ConstResolver<'_>,
        out: &mut Vec<LoweredLiteral>,
    ) -> Result<(), DatalogError> {
        if goal.is_var() {
            return Err(self.not_datalog("metacall (variable goal)"));
        }
        let Some((name, arity)) = goal.functor() else {
            return Err(self.not_datalog(format!(
                "non-callable goal `{}`",
                TermWithNames::new(goal, self.var_names)
            )));
        };
        let name_str = name.as_str();
        // Everything the SLD engine resolves as a builtin is outside the
        // Datalog subset: rejected with a diagnostic rather than silently
        // treated as an empty relation (which would be a *wrong answer*
        // relative to SLD, not a rejection).
        if builtins::lookup(PredId::new(name, arity)).is_some() {
            return Err(self.not_datalog(format!("builtin `{name_str}/{arity}`")));
        }
        if name_str == "call" {
            return Err(self.not_datalog(format!("metacall `call/{arity}`")));
        }
        if arity == 0 && (name == well_known::get().fail || name == well_known::get().false_) {
            return Err(self.not_datalog(format!("control atom `{name_str}`")));
        }
        let (args, impossible) = self.lower_args(goal.args(), consts)?;
        out.push(LoweredLiteral {
            lit: Literal {
                pred: PredId::new(name, arity),
                negated,
                args,
            },
            impossible,
        });
        Ok(())
    }

    /// Flattens a body (or query goal) into literals, rejecting everything
    /// outside the subset.
    pub(crate) fn lower_body(
        &mut self,
        body: TermRef<'_>,
        consts: &mut ConstResolver<'_>,
        out: &mut Vec<LoweredLiteral>,
    ) -> Result<(), DatalogError> {
        let wk = well_known::get();
        // The conjuncts still to lower, leftmost last.
        let mut todo = vec![body];
        while let Some(goal) = todo.pop() {
            let args = goal.args();
            match goal.functor() {
                Some((s, 0)) if s == wk.true_ => {}
                Some((s, 0)) if s == wk.cut => return Err(self.not_datalog("cut `!`")),
                Some((s, 2)) if s == wk.comma || s == wk.par_and => {
                    todo.extend([args.at(1), args.at(0)]);
                }
                Some((s, 2)) if s == wk.semicolon => {
                    return Err(self.not_datalog(match args.at(0).functor() {
                        Some((a, 2)) if a == wk.arrow => "if-then-else `->;`",
                        _ => "disjunction `;`",
                    }));
                }
                Some((s, 2)) if s == wk.arrow => return Err(self.not_datalog("if-then `->`")),
                Some((s, 1)) if s == wk.not => {
                    let inner = args.at(0);
                    if matches!(inner.functor(), Some((f, 2))
                        if f == wk.comma || f == wk.par_and || f == wk.semicolon || f == wk.arrow)
                        || inner.functor() == Some((wk.not, 1))
                    {
                        return Err(self.not_datalog("non-literal under `\\+`"));
                    }
                    self.lower_literal(inner, true, consts, out)?;
                }
                _ => self.lower_literal(goal, false, consts, out)?,
            }
        }
        Ok(())
    }

    /// The source name of a slot.
    pub(crate) fn slot_name(&self, slot: u32) -> Symbol {
        self.slot_names[slot as usize]
    }
}

/// Lowers one clause. A fact's constants are appended to `fact_args`.
fn lower_clause(
    clause: &Clause,
    consts: &mut ConstTable,
    fact_args: &mut Vec<ConstId>,
) -> Result<LoweredClause, DatalogError> {
    // A ground fact needs no rule frame: its arguments are its constants.
    // Anything else, a fact with a variable included, takes the rule path,
    // which accepts or rejects it.
    if clause.is_fact() && clause.head.is_ground() {
        if let Some((name, arity)) = clause.head.functor() {
            fact_args.extend(clause.head.args().map(|arg| consts.intern(arg)));
            return Ok(LoweredClause::Fact(PredId::new(name, arity)));
        }
    }
    let shown = clause.display();
    let mut ctx = LowerCtx::new(&shown, &clause.var_names);
    let Some((name, arity)) = clause.head.functor() else {
        return Err(ctx.not_datalog("non-callable clause head"));
    };
    let pred = PredId::new(name, arity);
    let mut resolver = ConstResolver::Intern(consts);
    let (head_args, _) = ctx.lower_args(clause.head.args(), &mut resolver)?;
    let mut body = Vec::new();
    ctx.lower_body(clause.body.term_ref(), &mut resolver, &mut body)?;
    let body: Vec<Literal> = body.into_iter().map(|l| l.lit).collect();

    // Range restriction: every head variable and every variable of a negated
    // literal must occur in a positive body literal.
    let positive: BTreeSet<u32> = body.iter().filter(|l| !l.negated).flat_map(slots).collect();
    let check = |args: &[ArgPat]| -> Result<(), DatalogError> {
        for a in args {
            if let ArgPat::Var(s) = a {
                if !positive.contains(s) {
                    return Err(DatalogError::UnsafeClause {
                        clause: ctx.shown(),
                        var: ctx.slot_name(*s).to_string(),
                    });
                }
            }
        }
        Ok(())
    };
    check(&head_args)?;
    for lit in body.iter().filter(|l| l.negated) {
        check(&lit.args)?;
    }

    if body.is_empty() {
        // All-const head (a variable would have failed the check above).
        fact_args.extend(head_args.iter().map(|a| match a {
            ArgPat::Const(c) => *c,
            ArgPat::Var(_) => unreachable!("unsafe fact passed the range check"),
        }));
        return Ok(LoweredClause::Fact(pred));
    }
    Ok(LoweredClause::Rule(Rule {
        pred,
        head_args,
        body,
        num_slots: ctx.slot_names.len(),
        display: ctx.shown(),
    }))
}

enum LoweredClause {
    Fact(PredId),
    Rule(Rule),
}

/// Assigns a stratum to every predicate by iterative relaxation: a positive
/// dependency forces `stratum(head) >= stratum(body)`, a negative one
/// forces strict inequality. A value exceeding the predicate count proves a
/// negative cycle, i.e. the program is not stratifiable.
fn stratify(
    rules: &[Rule],
    pred_ix: &FastMap<PredId, usize>,
    num_preds: usize,
) -> Result<Vec<usize>, DatalogError> {
    let mut stratum = vec![0usize; num_preds];
    loop {
        let mut changed = false;
        for rule in rules {
            let h = pred_ix[&rule.pred];
            for lit in &rule.body {
                let b = pred_ix[&lit.pred];
                let need = stratum[b] + usize::from(lit.negated);
                if stratum[h] < need {
                    if need > num_preds {
                        return Err(DatalogError::NotStratified {
                            pred: rule.pred.to_string(),
                            clause: rule.display.clone(),
                        });
                    }
                    stratum[h] = need;
                    changed = true;
                }
            }
        }
        if !changed {
            return Ok(stratum);
        }
    }
}

/// One column of a planned probe: what the join does with the tuple's
/// value there. Which slots are bound when a probe runs is fixed by the
/// plan, so a variable's first occurrence writes its slot and every later
/// one compares — no unbound sentinel, nothing to undo on backtrack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ColOp {
    /// Must equal this constant.
    Const(ConstId),
    /// Must equal the slot, written by an earlier probe or an earlier
    /// column of this one.
    Check(u32),
    /// First occurrence: writes the slot.
    Bind(u32),
}

/// Which tuples of its relation a probe reads in a semi-naive round. Fixed
/// by the literal's *source* position relative to the plan's delta literal,
/// not by where the plan executes it: before the delta position reads
/// everything, after it only what predates the last round, so each new
/// combination of tuples is joined by exactly one variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Range {
    /// Every tuple (seeding plans, queries, literals before the delta).
    Total,
    /// The previous round's insertions.
    Delta,
    /// Tuples older than the previous round's insertions.
    Old,
}

/// How a probe finds its candidate tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Access {
    /// Every tuple in range.
    Scan,
    /// The posting list of this registered index on the relation.
    Index(usize),
    /// Every column is bound: one set-membership test.
    Member,
}

/// A literal compiled to a probe.
#[derive(Debug, Clone)]
pub(crate) struct PlannedLiteral {
    /// Relation (predicate) index in [`CompiledDatalog::preds`].
    pub(crate) rel: usize,
    /// Anti-join: passes when the (fully bound) tuple is absent.
    pub(crate) negated: bool,
    pub(crate) ops: Vec<ColOp>,
    pub(crate) range: Range,
    pub(crate) access: Access,
}

/// A rule compiled to flat join plans.
#[derive(Debug, Clone)]
pub(crate) struct PlannedRule {
    /// Head relation index.
    pub(crate) rel: usize,
    pub(crate) head_args: Vec<ArgPat>,
    pub(crate) num_slots: usize,
    /// The seeding round's plan: positive literals in source order (the
    /// author's join-order hint), then the negated ones.
    pub(crate) seed: Vec<PlannedLiteral>,
    /// One plan per positive literal over a same-stratum IDB relation, led
    /// by that literal reading the delta.
    pub(crate) variants: Vec<Vec<PlannedLiteral>>,
    pub(crate) stratum: usize,
}

/// Per-predicate compile-time info.
#[derive(Debug, Clone)]
pub(crate) struct PredInfo {
    pub(crate) pred: PredId,
    pub(crate) arity: usize,
    pub(crate) stratum: usize,
    /// Head of at least one rule (IDB).
    pub(crate) has_rules: bool,
}

/// The rules and delta-tracked relations of one stratum.
#[derive(Debug, Clone)]
pub(crate) struct StratumPlan {
    pub(crate) rules: Vec<usize>,
    /// Relations written by this stratum's rules (delta bookkeeping).
    pub(crate) rels: Vec<usize>,
}

/// A Datalog program compiled for bottom-up evaluation: validated subset,
/// stratified, rules flattened to join plans, hash-index key specs
/// registered per relation. Immutable and cheap to share.
#[derive(Debug, Clone)]
pub struct CompiledDatalog {
    pub(crate) rules: Vec<PlannedRule>,
    /// The relation of every ground fact, in program order; their
    /// constants lie back to back in `fact_args`, each as wide as its
    /// relation's arity.
    pub(crate) facts: Vec<usize>,
    pub(crate) fact_args: Vec<ConstId>,
    /// Shared with every database evaluated from this program.
    pub(crate) consts: Arc<ConstTable>,
    pub(crate) preds: Vec<PredInfo>,
    pub(crate) pred_ix: FastMap<PredId, usize>,
    pub(crate) strata: Vec<StratumPlan>,
    /// Registered index key specs (sorted column lists) per relation.
    pub(crate) rel_indexes: Vec<Vec<Vec<u32>>>,
}

impl CompiledDatalog {
    /// Validates `program` against the Datalog subset and compiles it.
    ///
    /// Rejections are typed and name the offending clause; see
    /// [`DatalogError`].
    pub fn compile(program: &Program) -> Result<CompiledDatalog, DatalogError> {
        let mut consts = ConstTable::default();
        let mut rules = Vec::new();
        // The facts in program order, as runs of one predicate: the
        // predicate and how many facts in a row are its.
        let mut fact_runs: Vec<(PredId, usize)> = Vec::new();
        let mut fact_args = Vec::new();
        for clause in program.clauses() {
            match lower_clause(clause, &mut consts, &mut fact_args)? {
                LoweredClause::Fact(pred) => match fact_runs.last_mut() {
                    Some((last, facts)) if *last == pred => *facts += 1,
                    _ => fact_runs.push((pred, 1)),
                },
                LoweredClause::Rule(rule) => rules.push(rule),
            }
        }

        // Predicate universe in a deterministic order: heads, fact
        // predicates and body references alike (body-only predicates are
        // legal Datalog — empty relations).
        let universe: BTreeSet<PredId> = rules
            .iter()
            .flat_map(|r| std::iter::once(r.pred).chain(r.body.iter().map(|l| l.pred)))
            .chain(fact_runs.iter().map(|&(pred, _)| pred))
            .collect();
        let preds_ordered: Vec<PredId> = universe.into_iter().collect();
        let pred_ix: FastMap<PredId, usize> = preds_ordered
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i))
            .collect();

        let strata_of = stratify(&rules, &pred_ix, preds_ordered.len())?;
        let mut preds: Vec<PredInfo> = preds_ordered
            .iter()
            .enumerate()
            .map(|(i, &pred)| PredInfo {
                pred,
                arity: pred.arity,
                stratum: strata_of[i],
                has_rules: false,
            })
            .collect();
        for rule in &rules {
            preds[pred_ix[&rule.pred]].has_rules = true;
        }

        // Plan every rule and register its index key specs.
        let mut rel_indexes: Vec<Vec<Vec<u32>>> = vec![Vec::new(); preds.len()];
        let planned: Vec<PlannedRule> = rules
            .iter()
            .map(|rule| plan_rule(rule, &preds, &pred_ix, &mut rel_indexes))
            .collect();

        let num_strata = preds.iter().map(|p| p.stratum).max().unwrap_or(0) + 1;
        let mut strata: Vec<StratumPlan> = (0..num_strata)
            .map(|_| StratumPlan {
                rules: Vec::new(),
                rels: Vec::new(),
            })
            .collect();
        for (i, rule) in planned.iter().enumerate() {
            strata[rule.stratum].rules.push(i);
            if !strata[rule.stratum].rels.contains(&rule.rel) {
                strata[rule.stratum].rels.push(rule.rel);
            }
        }

        let facts = fact_runs
            .iter()
            .flat_map(|&(pred, facts)| std::iter::repeat_n(pred_ix[&pred], facts))
            .collect();

        Ok(CompiledDatalog {
            rules: planned,
            facts,
            fact_args,
            consts: Arc::new(consts),
            preds,
            pred_ix,
            strata,
            rel_indexes,
        })
    }

    /// The predicates defined by rules (the IDB), in deterministic order.
    pub fn idb_predicates(&self) -> Vec<PredId> {
        self.preds
            .iter()
            .filter(|p| p.has_rules)
            .map(|p| p.pred)
            .collect()
    }

    /// Number of strata in the schedule (1 for negation-free programs).
    pub fn num_strata(&self) -> usize {
        self.strata.len()
    }

    /// Number of compiled rules (facts excluded).
    pub fn num_rules(&self) -> usize {
        self.rules.len()
    }
}

/// The slots a literal's arguments mention.
pub(crate) fn slots(lit: &Literal) -> impl Iterator<Item = u32> + '_ {
    lit.args.iter().filter_map(|a| match a {
        ArgPat::Var(s) => Some(*s),
        ArgPat::Const(_) => None,
    })
}

/// Is this argument's value known once the slots in `bound` are?
fn is_bound(arg: &ArgPat, bound: &BTreeSet<u32>) -> bool {
    match arg {
        ArgPat::Const(_) => true,
        ArgPat::Var(s) => bound.contains(s),
    }
}

/// Lowers the `body` literals named by `order` to probes, in that execution
/// order. `delta` is the body position reading the delta (none for seeding
/// plans and queries); `index_for` names the relation's index over a set of
/// bound columns, if the caller has or wants one.
pub(crate) fn plan_probes(
    body: &[Literal],
    order: &[usize],
    delta: Option<usize>,
    pred_ix: &FastMap<PredId, usize>,
    mut index_for: impl FnMut(usize, &[u32]) -> Option<usize>,
) -> Vec<PlannedLiteral> {
    let mut bound: BTreeSet<u32> = BTreeSet::new();
    order
        .iter()
        .map(|&at| {
            let lit = &body[at];
            let rel = pred_ix[&lit.pred];
            let bound_cols: Vec<u32> = (0u32..)
                .zip(&lit.args)
                .filter(|(_, a)| is_bound(a, &bound))
                .map(|(col, _)| col)
                .collect();
            let access = if bound_cols.len() == lit.args.len() {
                Access::Member
            } else if bound_cols.is_empty() || delta == Some(at) {
                // The delta range is already the selective access path.
                Access::Scan
            } else {
                index_for(rel, &bound_cols).map_or(Access::Scan, Access::Index)
            };
            let ops = lit
                .args
                .iter()
                .map(|a| match *a {
                    ArgPat::Const(c) => ColOp::Const(c),
                    ArgPat::Var(s) if bound.insert(s) => ColOp::Bind(s),
                    ArgPat::Var(s) => ColOp::Check(s),
                })
                .collect();
            let range = match delta {
                Some(d) if at == d => Range::Delta,
                Some(d) if at > d => Range::Old,
                _ => Range::Total,
            };
            PlannedLiteral {
                rel,
                negated: lit.negated,
                ops,
                range,
                access,
            }
        })
        .collect()
}

/// Execution order of a delta variant: the delta literal leads, the other
/// positive literals follow greedily by how many of their columns are bound
/// by then (ties: source order), the negated ones run last, when range
/// restriction guarantees their variables are bound.
fn delta_first_order(body: &[Literal], lead: usize) -> Vec<usize> {
    let mut order = vec![lead];
    let mut bound: BTreeSet<u32> = slots(&body[lead]).collect();
    let mut rest: Vec<usize> = (0..body.len())
        .filter(|&i| i != lead && !body[i].negated)
        .collect();
    while !rest.is_empty() {
        let bound_cols = |i: usize| body[i].args.iter().filter(|a| is_bound(a, &bound)).count();
        let best = (0..rest.len())
            .max_by_key(|&k| (bound_cols(rest[k]), std::cmp::Reverse(k)))
            .expect("rest is non-empty");
        let next = rest.remove(best);
        bound.extend(slots(&body[next]));
        order.push(next);
    }
    order.extend((0..body.len()).filter(|&i| body[i].negated));
    order
}

/// Plans one rule: the seeding plan, a delta-first variant per recursive
/// position, and the index key specs every probe of either needs.
fn plan_rule(
    rule: &Rule,
    preds: &[PredInfo],
    pred_ix: &FastMap<PredId, usize>,
    rel_indexes: &mut [Vec<Vec<u32>>],
) -> PlannedRule {
    let head_stratum = preds[pred_ix[&rule.pred]].stratum;
    let mut register = |rel: usize, cols: &[u32]| {
        let specs = &mut rel_indexes[rel];
        Some(specs.iter().position(|s| s == cols).unwrap_or_else(|| {
            specs.push(cols.to_vec());
            specs.len() - 1
        }))
    };
    let body = &rule.body;
    let (negatives, positives): (Vec<usize>, Vec<usize>) =
        (0..body.len()).partition(|&i| body[i].negated);
    let seed_order: Vec<usize> = positives.iter().chain(&negatives).copied().collect();
    let seed = plan_probes(body, &seed_order, None, pred_ix, &mut register);
    let variants = positives
        .iter()
        .filter(|&&i| {
            let info = &preds[pred_ix[&body[i].pred]];
            info.stratum == head_stratum && info.has_rules
        })
        .map(|&d| {
            let order = delta_first_order(body, d);
            plan_probes(body, &order, Some(d), pred_ix, &mut register)
        })
        .collect();

    PlannedRule {
        rel: pred_ix[&rule.pred],
        head_args: rule.head_args.clone(),
        num_slots: rule.num_slots,
        seed,
        variants,
        stratum: head_stratum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use granlog_ir::parser::parse_program;

    /// Every delta variant leads with its delta literal (a range scan of
    /// the delta, never an index probe), gives every other literal the
    /// range its *source* position dictates, and has registered the index
    /// its second probe uses over exactly the columns the lead binds.
    #[test]
    fn variants_lead_with_their_delta_and_index_the_second_probe() {
        let program = parse_program(
            "edge(a, b). vuln(b). owned(a).
             tc(X, Y) :- edge(X, Y).
             tc(X, Z) :- tc(X, Y), tc(Y, Z).
             owned(T) :- edge(S, T), \\+ patched(T), vuln(T), owned(S).
             mid(X, Z) :- edge(X, Y), mid(Y, W), edge(W, Z).
             lone(X) :- vuln(X), \\+ owned(X).",
        )
        .expect("program parses");
        let compiled = CompiledDatalog::compile(&program).expect("program is Datalog");
        // Recursive positions per rule, in clause order.
        let variants: Vec<usize> = compiled.rules.iter().map(|r| r.variants.len()).collect();
        assert_eq!(variants, [0, 2, 1, 1, 0]);

        for rule in &compiled.rules {
            assert!(rule.seed.iter().all(|l| l.range == Range::Total));
            for plan in &rule.variants {
                let lead = &plan[0];
                assert_eq!(lead.range, Range::Delta);
                assert_eq!(lead.access, Access::Scan);
                assert_eq!(compiled.preds[lead.rel].stratum, rule.stratum);
                assert!(plan[1..].iter().all(|l| l.range != Range::Delta));
                // Negations run last.
                assert!(plan.iter().skip_while(|l| !l.negated).all(|l| l.negated));

                let second = &plan[1];
                let Access::Index(slot) = second.access else {
                    panic!("second probe is not indexed: {second:?}");
                };
                let bound_by_lead: Vec<u32> = (0u32..)
                    .zip(&second.ops)
                    .filter(|(_, op)| matches!(op, ColOp::Check(_) | ColOp::Const(_)))
                    .map(|(col, _)| col)
                    .collect();
                assert_eq!(compiled.rel_indexes[second.rel][slot], bound_by_lead);
            }
        }

        // The non-linear rule: both orders, bounds by source position.
        let tc = &compiled.rules[1];
        assert_eq!(
            tc.variants[0][1].range,
            Range::Old,
            "tc(Y,Z) follows the delta"
        );
        assert_eq!(tc.variants[1][1].range, Range::Total, "tc(X,Y) precedes it");
        // The delta in the middle of three literals: greedy order probes
        // both edge literals through an index, one per bound column.
        let mid = &compiled.rules[3].variants[0];
        let edge = compiled.pred_ix[&PredId::parse("edge", 2)];
        assert_eq!((mid[1].rel, mid[1].range), (edge, Range::Total));
        assert_eq!((mid[2].rel, mid[2].range), (edge, Range::Old));
        assert_ne!(mid[1].access, mid[2].access);
    }
}
