//! Argument size relations and their normalization (Section 3).
//!
//! For each clause, this module derives, from the data dependency graph and
//! the `size`/`diff` functions of [`crate::measure`]:
//!
//! * the size of every body-literal *input* argument position, expressed in
//!   terms of the sizes of the head's input argument positions (the paper's
//!   inter-literal relations, already normalized);
//! * the size of every body-literal *output* argument position, by applying
//!   the callee's output-size function Ψ (the intra-literal relations) — kept
//!   symbolic for recursive literals;
//! * the size of every head *output* argument position, which for recursive
//!   clauses yields a difference equation in Ψ of the head predicate.
//!
//! The paper presents this as a fixpoint normalization over a set of
//! equations; because clause bodies execute left to right the same result is
//! obtained by a single forward pass that substitutes eagerly, which is what
//! [`analyze_clause`] does. The individual relations can still be listed
//! with [`ClauseSizeAnalysis::relations`] so that examples and reports can
//! show the normalization steps of the Appendix.

use crate::ddg::{ArgPos, Ddg, NodeId};
use crate::expr::{Expr, FnRef};
use crate::measure::{Measure, MeasureVec, SizeFunctions};
use crate::pipeline::ProgramAnalysis;
use granlog_ir::arith::{
    self,
    ArithOp::{Binary, Unary},
    BinOp, UnOp,
};
use granlog_ir::builtins::{self, Builtin};
use granlog_ir::{AsTerm, PredId, Symbol, TermRef, VarId, View};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

/// The canonical size-parameter symbol for a head input position.
///
/// Predicates with a single input argument use `n`; predicates with several
/// use `n1`, `n2`, ... (numbered by 1-based argument position).
pub fn param_symbol(input_positions: &[usize], pos: usize) -> Symbol {
    // Interned once; positions past the eighth are interned as they come.
    static PARAMS: OnceLock<[Symbol; 9]> = OnceLock::new();
    let params = PARAMS
        .get_or_init(|| ["n", "n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8"].map(Symbol::intern));
    match (input_positions.len(), params.get(pos + 1)) {
        (1, _) => params[0],
        (_, Some(param)) => *param,
        _ => Symbol::intern(&format!("n{}", pos + 1)),
    }
}

/// One argument size relation (for reports and the worked examples).
#[derive(Debug, Clone, PartialEq)]
pub struct SizeRelation {
    /// The argument position whose size the relation defines (rendered by
    /// [`ClauseSizeAnalysis::lhs_text`]).
    pub lhs: ArgPos,
    /// The size expression, in terms of head input size parameters.
    pub rhs: Expr,
}

/// The result of size analysis on a single clause.
#[derive(Debug, Clone)]
pub struct ClauseSizeAnalysis {
    /// The head predicate, if the head is callable.
    pub head_pred: Option<PredId>,
    /// Parameter symbol per head input position.
    pub params: BTreeMap<usize, Symbol>,
    /// Ordered declared input positions of the head predicate.
    pub input_positions: Vec<usize>,
    /// For each body literal, the size of each of its input positions.
    pub literal_input_sizes: Vec<BTreeMap<usize, Expr>>,
    /// For each body literal, the size of each of its output positions.
    pub literal_output_sizes: Vec<BTreeMap<usize, Expr>>,
    /// Size of each head output position (the clause's contribution to Ψ of
    /// the head predicate). For recursive clauses this contains symbolic
    /// `Call(OutputSize(p, k), ...)` applications: a difference equation.
    pub head_output_sizes: BTreeMap<usize, Expr>,
    /// The constant size of each head *input* position's term, when defined
    /// (used to recognise base cases such as `nrev([], [])` handling size 0).
    pub head_input_constants: BTreeMap<usize, Option<i64>>,
}

impl ClauseSizeAnalysis {
    /// The input-size expressions of body literal `j`, ordered by the callee's
    /// declared input positions `callee_inputs`. Positions that were not
    /// classified as inputs at this call site yield `Expr::Undefined`.
    pub fn literal_input_args(&self, j: usize, callee_inputs: &[usize]) -> Vec<Expr> {
        let sizes = self.literal_input_sizes.get(j);
        input_args(sizes, callee_inputs)
    }

    /// The normalized relations in derivation order (per body literal its
    /// input then its output positions, then the head outputs), put
    /// together for a report: the analysis itself only keeps the sizes.
    pub fn relations(&self) -> Vec<SizeRelation> {
        let literals = self
            .literal_input_sizes
            .iter()
            .zip(&self.literal_output_sizes)
            .enumerate();
        let body = literals.flat_map(|(j, (inputs, outputs))| {
            let sizes = inputs.iter().chain(outputs);
            sizes.map(move |(&i, rhs)| (ArgPos::new(NodeId::Body(j), i), rhs))
        });
        let head = self.head_output_sizes.iter();
        let head = head.map(|(&i, rhs)| (ArgPos::new(NodeId::End, i), rhs));
        body.chain(head)
            .map(|(lhs, rhs)| SizeRelation {
                lhs,
                rhs: rhs.clone(),
            })
            .collect()
    }

    /// A human-readable left-hand side for the relation defining `lhs`
    /// (e.g. `body2[1]` or `psi_nrev[2](n)`).
    pub fn lhs_text(&self, lhs: ArgPos) -> String {
        match (lhs.node, self.head_pred) {
            (NodeId::End, Some(p)) => {
                let params: Vec<String> = self
                    .input_positions
                    .iter()
                    .map(|k| self.params[k].to_string())
                    .collect();
                format!("{}({})", FnRef::OutputSize(p, lhs.pos), params.join(", "))
            }
            _ => lhs.to_string(),
        }
    }
}

/// The sizes of a callee's declared input positions at one call site.
fn input_args(sizes: Option<&BTreeMap<usize, Expr>>, callee_inputs: &[usize]) -> Vec<Expr> {
    let size = |i| sizes.and_then(|m| m.get(i)).cloned();
    callee_inputs
        .iter()
        .map(|i| size(i).unwrap_or(Expr::Undefined))
        .collect()
}

/// Analyses the argument size relations of one clause. A callee's Ψ is read
/// from its record in `analysis`; a call to a member of `scc`, the SCC being
/// solved, stays symbolic.
pub fn analyze_clause(
    ddg: &Ddg,
    analysis: &ProgramAnalysis,
    scc: &BTreeSet<PredId>,
) -> ClauseSizeAnalysis {
    let head_pred = ddg.head_pred();
    let input_positions = ddg.output(NodeId::Start).to_vec();
    let params: BTreeMap<usize, Symbol> = input_positions
        .iter()
        .map(|&i| (i, param_symbol(&input_positions, i)))
        .collect();
    // Sizes of bare variables under a given measure (used for arithmetic
    // builtins and unification).
    let mut var_sizes: BTreeMap<(VarId, Measure), Expr> = BTreeMap::new();

    // The measure of argument `i` of a predicate: as assigned, else guessed
    // from the term in that position.
    let measure_in = |measures: Option<&MeasureVec>, i: usize, term: TermRef<'_>| {
        let assigned = measures.and_then(|ms| ms.get(i)).copied();
        assigned.unwrap_or_else(|| Measure::default_for_term(term))
    };
    let head_measures = head_pred
        .and_then(|p| analysis.pred(p))
        .map(|r| &r.measures);

    let mut head_input_constants = BTreeMap::new();
    for &i in &input_positions {
        let term = ddg.term_at(ArgPos::new(NodeId::Start, i));
        let measure = measure_in(head_measures, i, term);
        record_var_size(term, measure, &Expr::Var(params[&i]), &mut var_sizes);
        head_input_constants.insert(i, measure.size(term));
    }

    let mut literal_input_sizes: Vec<BTreeMap<usize, Expr>> = Vec::new();
    let mut literal_output_sizes: Vec<BTreeMap<usize, Expr>> = Vec::new();

    for (j, &literal) in ddg.literals().iter().enumerate() {
        let node = NodeId::Body(j);
        let callee = PredId::of_term(literal);
        let callee_measures = callee.and_then(|p| analysis.pred(p)).map(|r| &r.measures);
        let measure_at = |i: usize| measure_in(callee_measures, i, literal.args().at(i));

        // --- input positions ---------------------------------------------
        let mut inputs = BTreeMap::new();
        for &i in ddg.input(node) {
            let pos = ArgPos::new(node, i);
            let produced = (&params, literal_output_sizes.as_slice());
            let expr = derive_consumed_size(ddg, pos, measure_at(i), produced, &var_sizes);
            record_var_size(ddg.term_at(pos), measure_at(i), &expr, &mut var_sizes);
            inputs.insert(i, expr);
        }

        // --- output positions --------------------------------------------
        let mut outputs = BTreeMap::new();
        let output_positions = ddg.output(node);
        if !output_positions.is_empty() {
            let out_exprs = literal_output_exprs(
                literal,
                output_positions,
                &inputs,
                &measure_at,
                &var_sizes,
                analysis,
                scc,
            );
            for (&i, expr) in output_positions.iter().zip(out_exprs) {
                let term = ddg.term_at(ArgPos::new(node, i));
                record_var_size(term, measure_at(i), &expr, &mut var_sizes);
                outputs.insert(i, expr);
            }
        }

        literal_input_sizes.push(inputs);
        literal_output_sizes.push(outputs);
    }

    // --- head output positions --------------------------------------------
    let produced = (&params, literal_output_sizes.as_slice());
    let head_output_sizes = ddg
        .input(NodeId::End)
        .iter()
        .map(|&i| {
            let pos = ArgPos::new(NodeId::End, i);
            let measure = measure_in(head_measures, i, ddg.term_at(pos));
            (
                i,
                derive_consumed_size(ddg, pos, measure, produced, &var_sizes),
            )
        })
        .collect();

    ClauseSizeAnalysis {
        head_pred,
        params,
        input_positions,
        literal_input_sizes,
        literal_output_sizes,
        head_output_sizes,
        head_input_constants,
    }
}

/// Derives the size of a "consuming" position (body input or head output):
/// either directly via `size`, or from a predecessor position via `diff`
/// (the paper's inter-literal relations), or from a recorded bare-variable
/// size. Returns ⊥ when no relation applies.
///
/// `produced` holds the sizes a source position can have: the parameters of
/// the head's input positions and the output sizes of the literals so far.
fn derive_consumed_size(
    ddg: &Ddg,
    pos: ArgPos,
    measure: Measure,
    produced: (&BTreeMap<usize, Symbol>, &[BTreeMap<usize, Expr>]),
    var_sizes: &BTreeMap<(VarId, Measure), Expr>,
) -> Expr {
    let term = ddg.term_at(pos);
    if let Some(n) = measure.size(term) {
        return Expr::Num(n as f64);
    }
    // A bare variable whose size was recorded (e.g. bound by `is/2`).
    if let View::Var(v) = term.view() {
        if let Some(e) = var_sizes.get(&(v, measure)) {
            return e.clone();
        }
    }
    for src in ddg.sources_of(pos) {
        let param;
        let src_size = match src.node {
            NodeId::Start => {
                param = produced.0.get(&src.pos).map(|p| Expr::Var(*p));
                param.as_ref()
            }
            NodeId::Body(j) => produced.1.get(j).and_then(|m| m.get(&src.pos)),
            NodeId::End => None,
        };
        let Some(src_size) = src_size.filter(|size| !size.is_undefined()) else {
            continue;
        };
        if let Some(d) = measure.diff(ddg.term_at(*src), term) {
            return Expr::add(src_size.clone(), Expr::Num(d as f64)).simplify();
        }
    }
    // Last resort: the term is built from variables whose sizes are known
    // under this measure (e.g. the list [X|Xs] where |Xs| is known).
    if let Some(e) = size_from_parts(term, measure, var_sizes) {
        return e;
    }
    Expr::Undefined
}

/// Computes the size of a structured term from the recorded sizes of its
/// variable parts, when the measure decomposes over the structure
/// (currently: list length of partial lists whose tail size is known).
fn size_from_parts(
    term: TermRef<'_>,
    measure: Measure,
    var_sizes: &BTreeMap<(VarId, Measure), Expr>,
) -> Option<Expr> {
    match measure {
        Measure::ListLength => {
            let (count, end) = term.spine();
            match end.view() {
                _ if end.is_nil() => Some(Expr::Num(count as f64)),
                View::Var(v) => {
                    let tail = var_sizes.get(&(v, Measure::ListLength))?;
                    Some(Expr::add(tail.clone(), Expr::Num(count as f64)).simplify())
                }
                _ => None,
            }
        }
        Measure::IntValue => match term.view() {
            View::Var(v) => var_sizes.get(&(v, Measure::IntValue)).cloned(),
            View::Int(n) => Some(Expr::Num(n.max(0) as f64)),
            _ => None,
        },
        _ => None,
    }
}

/// Records the size of a bare-variable term under a measure.
fn record_var_size(
    term: TermRef<'_>,
    measure: Measure,
    expr: &Expr,
    var_sizes: &mut BTreeMap<(VarId, Measure), Expr>,
) {
    if let View::Var(v) = term.view() {
        if !expr.is_undefined() {
            var_sizes
                .entry((v, measure))
                .or_insert_with(|| expr.clone());
        }
    }
}

/// Computes the output-size expressions of a body literal, in the order of
/// `output_positions`. `measure_at(i)` is the measure of its argument `i`.
fn literal_output_exprs(
    literal: TermRef<'_>,
    output_positions: &[usize],
    input_sizes: &BTreeMap<usize, Expr>,
    measure_at: &impl Fn(usize) -> Measure,
    var_sizes: &BTreeMap<(VarId, Measure), Expr>,
    analysis: &ProgramAnalysis,
    scc: &BTreeSet<PredId>,
) -> Vec<Expr> {
    let Some(callee) = PredId::of_term(literal) else {
        return vec![Expr::Undefined; output_positions.len()];
    };
    let size_of_input = |i: usize| input_sizes.get(&i).cloned().unwrap_or(Expr::Undefined);
    // The one output of a builtin that has a size; ⊥ for the others.
    let only = |pos: usize, size: Expr| -> Vec<Expr> {
        let size_at = |&i: &usize| {
            if i == pos {
                size.clone()
            } else {
                Expr::Undefined
            }
        };
        output_positions.iter().map(size_at).collect()
    };

    // --- builtins -----------------------------------------------------------
    if let Some(builtin) = builtins::lookup(callee.name, callee.arity) {
        return match builtin.id {
            // X is Expr: the output's integer value is the arithmetic
            // expression over the sizes of its variables.
            Builtin::Is => only(0, translate_arith(literal.args().at(1), var_sizes)),
            // Unification: the output side gets the size of the input side
            // (under the output side's measure).
            Builtin::Unify => output_positions
                .iter()
                .map(|&i| {
                    let other = literal.args().at(1 - i);
                    let measure = measure_at(i);
                    if let Some(n) = measure.size(other) {
                        Expr::Num(n as f64)
                    } else if let Some(e) = size_from_parts(other, measure, var_sizes) {
                        e
                    } else {
                        size_of_input(1 - i)
                    }
                })
                .collect(),
            Builtin::Length => only(1, size_of_input(0)),
            // No other builtin produces an output whose size is known.
            _ => vec![Expr::Undefined; output_positions.len()],
        };
    }

    // --- user predicates -----------------------------------------------------
    let decl = granlog_ir::modes::mode_or_default(&analysis.modes, callee);
    let args = input_args(Some(input_sizes), &decl.input_positions());

    let solved = analysis.pred(callee);
    output_positions
        .iter()
        .map(|&i| {
            if !decl
                .mode(i.min(decl.modes.len().saturating_sub(1)))
                .is_output()
                && decl.modes.len() > i
            {
                // The call site treats this argument as an output but the
                // callee's declared mode says input: no size information.
                return Expr::Undefined;
            }
            match solved {
                _ if scc.contains(&callee) => {
                    Expr::Call(FnRef::OutputSize(callee, i), args.clone())
                }
                Some(p) if p.output_sizes.contains_key(&i) => {
                    p.output_sizes[&i].apply(&p.params, &args)
                }
                _ => Expr::Undefined,
            }
        })
        .collect()
}

/// Translates an arithmetic term (`M - 1`, `N1 + N2`, ...) into a size
/// expression over recorded variable sizes. It recurses only through the
/// arithmetic functors it knows, so no deeper than the reader nests a term
/// ([`granlog_ir::parser::MAX_TERM_DEPTH`]).
fn translate_arith(term: TermRef<'_>, var_sizes: &BTreeMap<(VarId, Measure), Expr>) -> Expr {
    match term.view() {
        View::Int(n) => Expr::Num(n as f64),
        View::Float(x) => Expr::Num(x),
        View::Var(v) => var_sizes
            .get(&(v, Measure::IntValue))
            .cloned()
            .unwrap_or(Expr::Undefined),
        View::Struct(f, args) => {
            let arg = |i: usize| translate_arith(args.at(i), var_sizes);
            match arith::lookup(f, args.len()) {
                Some(Binary(BinOp::Add)) => Expr::add(arg(0), arg(1)),
                Some(Binary(BinOp::Sub)) => Expr::sub(arg(0), arg(1)),
                Some(Binary(BinOp::Mul)) => Expr::mul(arg(0), arg(1)),
                Some(Binary(BinOp::Div | BinOp::IntDiv)) => Expr::div(arg(0), arg(1)),
                Some(Unary(UnOp::Neg)) => Expr::neg(arg(0)),
                Some(Unary(UnOp::Plus | UnOp::Abs)) => arg(0),
                Some(Binary(BinOp::Min)) => Expr::min(arg(0), arg(1)),
                Some(Binary(BinOp::Max)) => Expr::max(arg(0), arg(1)),
                // 0 <= a mod b < b: bounded above by the divisor minus one.
                Some(Binary(BinOp::Mod | BinOp::Rem)) => Expr::sub(arg(1), Expr::Num(1.0)),
                Some(Binary(BinOp::Shr)) => Expr::div(arg(0), Expr::pow(Expr::Num(2.0), arg(1))),
                Some(Binary(BinOp::Shl)) => Expr::mul(arg(0), Expr::pow(Expr::Num(2.0), arg(1))),
                _ => Expr::Undefined,
            }
        }
        View::Atom(_) => Expr::Undefined,
    }
    .simplify()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{analyze_program, AnalysisOptions};
    use granlog_ir::parser::parse_program;

    /// The size analysis of clause `idx` of `pred` in `src`, as the pipeline
    /// runs it on the SCC `scc`: callees are read from `analyze_program` on
    /// the same source, and calls to `scc` stay symbolic.
    fn clause_analysis(src: &str, scc: &[PredId], pred: PredId, idx: usize) -> ClauseSizeAnalysis {
        let program = parse_program(src).unwrap();
        let analysis = analyze_program(&program, &AnalysisOptions::default());
        let ddg = Ddg::build(program.clauses_of(pred)[idx], &analysis.modes[&pred]);
        analyze_clause(&ddg, &analysis, &scc.iter().copied().collect())
    }

    const NREV: &str = r#"
        :- mode nrev(+, -).
        :- mode append(+, +, -).
        nrev([], []).
        nrev([H|L], R) :- nrev(L, R1), append(R1, [H], R).
        append([], L, L).
        append([H|L1], L2, [H|L3]) :- append(L1, L2, L3).
    "#;

    #[test]
    fn append_recursive_clause_relations() {
        let append = PredId::parse("append", 3);
        let a = clause_analysis(NREV, &[append], append, 1);
        // body1[1] = n1 - 1, body1[2] = n2 (the paper's Appendix).
        assert_eq!(a.literal_input_sizes[0][&0].to_string(), "n1 - 1");
        assert_eq!(a.literal_input_sizes[0][&1].to_string(), "n2");
        // Head output: psi_append(n1, n2) = psi_append(n1 - 1, n2) + 1.
        let head_out = &a.head_output_sizes[&2];
        assert!(head_out.contains_call(FnRef::OutputSize(append, 2)));
        assert_eq!(head_out.to_string(), "psi_append[3](n1 - 1, n2) + 1");
    }

    #[test]
    fn append_base_clause_gives_boundary_condition() {
        let append = PredId::parse("append", 3);
        let a = clause_analysis(NREV, &[append], append, 0);
        // append([], L, L): head input 1 has constant size 0, output = n2.
        assert_eq!(a.head_input_constants[&0], Some(0));
        assert_eq!(a.head_input_constants[&1], None);
        assert_eq!(a.head_output_sizes[&2].to_string(), "n2");
    }

    #[test]
    fn nrev_recursive_clause_with_solved_append() {
        let nrev = PredId::parse("nrev", 2);
        // append/3's record is solved (Ψ_append(x, y) = x + y); nrev/2 is
        // the SCC being solved.
        let a = clause_analysis(NREV, &[nrev], nrev, 1);
        // body1[1] = n - 1 (Example 3.2 / 3.3).
        assert_eq!(a.literal_input_sizes[0][&0].to_string(), "n - 1");
        // body2[1] = Ψ_nrev(n - 1) — still symbolic (recursive literal).
        let b21 = &a.literal_input_sizes[1][&0];
        assert!(b21.contains_call(FnRef::OutputSize(nrev, 1)));
        // body2[2] = 1.
        assert_eq!(a.literal_input_sizes[1][&1], Expr::Num(1.0));
        // Head output: Ψ_nrev(n) = Ψ_nrev(n-1) + 1 after Ψ_append is substituted
        // (Example 3.3's normalized equation).
        let head_out = &a.head_output_sizes[&1];
        assert_eq!(head_out.to_string(), "psi_nrev[2](n - 1) + 1");
    }

    #[test]
    fn pred_sizes_apply_substitutes_params() {
        // A callee's output size is its record's Ψ applied at the call's
        // input sizes: Ψ_append(n1, n2) = n1 + n2. An input position has no
        // Ψ, and the wrong number of sizes makes it Undefined.
        let program = parse_program(NREV).unwrap();
        let analysis = analyze_program(&program, &AnalysisOptions::default());
        let record = analysis.pred(PredId::parse("append", 3)).unwrap();
        let psi = &record.output_sizes[&2];
        let out = psi.apply(&record.params, &[Expr::var("a"), Expr::Num(1.0)]);
        assert_eq!(out.to_string(), "a + 1");
        assert!(!record.output_sizes.contains_key(&0));
        assert!(psi.apply(&record.params, &[Expr::var("a")]).is_undefined());
        // With no SCC open, nrev's recursive clause applies both records:
        // Ψ_append(Ψ_nrev(n - 1), 1) = (n - 1) + 1.
        let nrev = PredId::parse("nrev", 2);
        let a = clause_analysis(NREV, &[], nrev, 1);
        assert_eq!(a.head_output_sizes[&1].eval_with(&[("n", 7.0)]), Some(7.0));
    }

    #[test]
    fn nrev_base_clause() {
        let nrev = PredId::parse("nrev", 2);
        let a = clause_analysis(NREV, &[nrev], nrev, 0);
        assert_eq!(a.head_input_constants[&0], Some(0));
        assert_eq!(a.head_output_sizes[&1], Expr::Num(0.0));
    }

    #[test]
    fn arithmetic_recursion_sizes() {
        let src = r#"
            :- mode fib(+, -).
            fib(0, 0).
            fib(1, 1).
            fib(M, N) :- M > 1, M1 is M - 1, M2 is M - 2,
                         fib(M1, N1), fib(M2, N2), N is N1 + N2.
        "#;
        let fib = PredId::parse("fib", 2);
        let a = clause_analysis(src, &[fib], fib, 2);
        // The recursive calls receive sizes n-1 and n-2.
        assert_eq!(a.literal_input_sizes[3][&0].to_string(), "n - 1");
        assert_eq!(a.literal_input_sizes[4][&0].to_string(), "n - 2");
        // Base clauses handle sizes 0 and 1.
        let a0 = clause_analysis(src, &[fib], fib, 0);
        assert_eq!(a0.head_input_constants[&0], Some(0));
        let a1 = clause_analysis(src, &[fib], fib, 1);
        assert_eq!(a1.head_input_constants[&0], Some(1));
    }

    #[test]
    fn halving_recursion_sizes() {
        let src = r#"
            :- mode halves(+, -).
            halves(0, 0).
            halves(N, R) :- N > 0, N1 is N // 2, halves(N1, R1), R is R1 + 1.
        "#;
        let pred = PredId::parse("halves", 2);
        let a = clause_analysis(src, &[pred], pred, 1);
        assert_eq!(a.literal_input_sizes[2][&0].to_string(), "0.5*n");
    }

    #[test]
    fn partial_list_construction_size() {
        // The head output [H|T1] where |T1| is an output of the body.
        let src = r#"
            :- mode copylist(+, -).
            copylist([], []).
            copylist([H|T], [H|T1]) :- copylist(T, T1).
        "#;
        let pred = PredId::parse("copylist", 2);
        let a = clause_analysis(src, &[pred], pred, 1);
        let out = &a.head_output_sizes[&1];
        assert_eq!(out.to_string(), "psi_copylist[2](n - 1) + 1");
    }

    #[test]
    fn unification_builtin_transfers_size() {
        let src = r#"
            :- mode dup(+, -).
            dup(L, R) :- R = L.
        "#;
        let pred = PredId::parse("dup", 2);
        let a = clause_analysis(src, &[], pred, 0);
        assert_eq!(a.head_output_sizes[&1].to_string(), "n");
    }

    #[test]
    fn unknown_callee_output_is_undefined() {
        let src = r#"
            :- mode p(+, -).
            p(X, Y) :- mystery(X, Y).
        "#;
        let pred = PredId::parse("p", 2);
        let a = clause_analysis(src, &[], pred, 0);
        assert!(a.head_output_sizes[&1].is_undefined());
    }

    #[test]
    fn ground_output_has_constant_size() {
        let src = r#"
            :- mode k(+, -).
            k(_, [a, b, c]).
        "#;
        let pred = PredId::parse("k", 2);
        let a = clause_analysis(src, &[], pred, 0);
        assert_eq!(a.head_output_sizes[&1], Expr::Num(3.0));
    }

    #[test]
    fn relations_are_recorded_in_derivation_order() {
        let nrev = PredId::parse("nrev", 2);
        let a = clause_analysis(NREV, &[nrev], nrev, 1);
        let texts: Vec<String> = a.relations().iter().map(|r| a.lhs_text(r.lhs)).collect();
        assert_eq!(
            texts,
            vec![
                "body1[1]",
                "body1[2]",
                "body2[1]",
                "body2[2]",
                "body2[3]",
                "psi_nrev[2](n)"
            ]
        );
    }

    #[test]
    fn param_symbols_single_vs_multiple_inputs() {
        assert_eq!(param_symbol(&[0], 0).as_str(), "n");
        assert_eq!(param_symbol(&[0, 1], 0).as_str(), "n1");
        assert_eq!(param_symbol(&[0, 1], 1).as_str(), "n2");
        assert_eq!(param_symbol(&[0, 2], 2).as_str(), "n3");
    }

    #[test]
    fn translate_arith_operations() {
        let mut vs = BTreeMap::new();
        vs.insert((0usize, Measure::IntValue), Expr::var("n"));
        let t = granlog_ir::parser::parse_term("_X").unwrap();
        let _ = t;
        let (term, _) = granlog_ir::parser::parse_term("3 * 4 + 1").unwrap();
        assert_eq!(translate_arith(term.term_ref(), &vs), Expr::Num(13.0));
        // A variable with unknown size is undefined.
        let (term, _) = granlog_ir::parser::parse_term("Y + 1").unwrap();
        // Y gets var id 0 in this standalone term, which maps to "n".
        assert_eq!(translate_arith(term.term_ref(), &vs).to_string(), "n + 1");
    }
}
