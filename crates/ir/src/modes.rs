//! Argument modes (input/output) and a simple mode-propagation inference.
//!
//! The paper assumes the input/output character of argument positions is
//! either inferred by a prior dataflow analysis or supplied by the user
//! (Section 3). We accept user declarations (`:- mode p(+, -).`) and provide a
//! lightweight groundness-propagation inference that derives modes for callees
//! reachable from declared predicates under the usual left-to-right execution
//! order. Predicates that remain unreached fall back to "all input", the
//! conservative choice for an upper-bound cost analysis.

use crate::program::{PredId, Program};
use crate::{builtins, AsTerm};

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// The mode of a single argument position.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum ArgMode {
    /// The argument is bound (an input) at call time.
    In,
    /// The argument is free (an output) at call time and bound on success.
    Out,
}

impl ArgMode {
    /// Parses a mode indicator: `+`/`i`/`in`/`ground` are input, `-`/`o`/`out`
    /// are output, `?` is treated as input (conservative).
    pub fn from_indicator(s: &str) -> Option<ArgMode> {
        match s {
            "+" | "i" | "in" | "ground" | "?" => Some(ArgMode::In),
            "-" | "o" | "out" | "free" => Some(ArgMode::Out),
            _ => None,
        }
    }

    /// Returns `true` for input positions.
    pub fn is_input(self) -> bool {
        matches!(self, ArgMode::In)
    }

    /// Returns `true` for output positions.
    pub fn is_output(self) -> bool {
        matches!(self, ArgMode::Out)
    }
}

impl fmt::Display for ArgMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgMode::In => write!(f, "+"),
            ArgMode::Out => write!(f, "-"),
        }
    }
}

/// The declared or inferred modes of a predicate's argument positions.
///
/// # Example
///
/// ```
/// use granlog_ir::{ArgMode, ModeDecl, PredId};
/// let decl = ModeDecl::new(PredId::parse("append", 3),
///                          vec![ArgMode::In, ArgMode::In, ArgMode::Out]);
/// assert_eq!(decl.input_positions(), vec![0, 1]);
/// assert_eq!(decl.output_positions(), vec![2]);
/// assert_eq!(decl.to_string(), "append(+,+,-)");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ModeDecl {
    /// The predicate the declaration applies to.
    pub pred: PredId,
    /// One mode per argument position.
    pub modes: Vec<ArgMode>,
}

impl ModeDecl {
    /// Creates a mode declaration.
    ///
    /// # Panics
    ///
    /// Panics if the number of modes differs from the predicate's arity.
    pub fn new(pred: PredId, modes: Vec<ArgMode>) -> Self {
        assert_eq!(
            pred.arity,
            modes.len(),
            "mode declaration for {pred} must have {} modes",
            pred.arity
        );
        ModeDecl { pred, modes }
    }

    /// Declares every argument position as input.
    fn all_input(pred: PredId) -> Self {
        ModeDecl {
            pred,
            modes: vec![ArgMode::In; pred.arity],
        }
    }

    /// Zero-based indices of the input argument positions.
    pub fn input_positions(&self) -> Vec<usize> {
        self.modes
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.is_input().then_some(i))
            .collect()
    }

    /// Zero-based indices of the output argument positions.
    pub fn output_positions(&self) -> Vec<usize> {
        self.modes
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.is_output().then_some(i))
            .collect()
    }

    /// The mode of argument position `i` (zero-based).
    pub fn mode(&self, i: usize) -> ArgMode {
        self.modes[i]
    }
}

impl fmt::Display for ModeDecl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred.name)?;
        for (i, m) in self.modes.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{m}")?;
        }
        write!(f, ")")
    }
}

/// Infers modes for every predicate of `program`.
///
/// Declared modes are kept verbatim. Starting from predicates with declared
/// modes (and declared `:- entry` points), a groundness analysis is propagated
/// along the left-to-right execution order of clause bodies: variables
/// occurring in input head arguments are ground at clause entry; for each body
/// goal, an argument whose variables are all ground is an input, otherwise an
/// output, and after the goal succeeds all variables of the goal become
/// ground — unless the goal is a builtin test ([`builtins::Row::is_test`]),
/// which binds nothing. The join over different call sites is "input only if
/// input at every site" (i.e. output wins), which is the conservative
/// direction for size analysis. Predicates never reached default to all-input.
pub fn infer_modes(program: &Program) -> BTreeMap<PredId, ModeDecl> {
    let mut result: BTreeMap<PredId, ModeDecl> = program.modes().clone();
    let mut worklist: VecDeque<PredId> = result.keys().copied().collect();
    let mut visited: BTreeSet<PredId> = BTreeSet::new();

    while let Some(pred) = worklist.pop_front() {
        if !visited.insert(pred) {
            continue;
        }
        let Some(decl) = result.get(&pred).cloned() else {
            continue;
        };
        if !program.defines(pred) {
            continue;
        }
        for clause in program.clauses_of(pred) {
            let mut ground: BTreeSet<usize> = BTreeSet::new();
            for (pos, arg) in clause.head.args().enumerate() {
                if decl.mode(pos).is_input() {
                    arg.collect_variables(&mut ground);
                }
            }
            for goal in clause.called_goals() {
                let Some(goal_pred) = PredId::of_term(goal) else {
                    continue;
                };
                let inferred: Vec<ArgMode> = goal
                    .args()
                    .map(|arg| {
                        let vars = arg.variables();
                        if vars.iter().all(|v| ground.contains(v)) {
                            ArgMode::In
                        } else {
                            ArgMode::Out
                        }
                    })
                    .collect();
                // Builtins have fixed modes; user predicates join call patterns.
                let builtin = builtins::lookup(goal_pred);
                if builtin.is_none() && program.defines(goal_pred) {
                    let entry = result
                        .entry(goal_pred)
                        .or_insert_with(|| ModeDecl::new(goal_pred, inferred.clone()));
                    let mut changed = false;
                    for (slot, new_mode) in entry.modes.iter_mut().zip(&inferred) {
                        if slot.is_input() && new_mode.is_output() {
                            *slot = ArgMode::Out;
                            changed = true;
                        }
                    }
                    if changed {
                        visited.remove(&goal_pred);
                    }
                    worklist.push_back(goal_pred);
                }
                // After success, every variable of the goal is bound, unless
                // the goal only tests its arguments.
                if !builtin.is_some_and(builtins::Row::is_test) {
                    for arg in goal.args() {
                        arg.collect_variables(&mut ground);
                    }
                }
            }
        }
    }

    // Fallback: anything still missing is all-input.
    for predicate in program.predicates() {
        result
            .entry(predicate.id)
            .or_insert_with(|| ModeDecl::all_input(predicate.id));
    }
    result
}

/// Convenience: looks a predicate up in a mode table, falling back to the
/// builtin table's modes and then to all-input.
pub fn mode_or_default<'a>(
    modes: &'a BTreeMap<PredId, ModeDecl>,
    pred: PredId,
) -> std::borrow::Cow<'a, ModeDecl> {
    match modes.get(&pred) {
        Some(m) => std::borrow::Cow::Borrowed(m),
        None => std::borrow::Cow::Owned(
            builtins::lookup(pred)
                .map(|row| ModeDecl::new(pred, row.modes.to_vec()))
                .unwrap_or_else(|| ModeDecl::all_input(pred)),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn indicator_parsing() {
        assert_eq!(ArgMode::from_indicator("+"), Some(ArgMode::In));
        assert_eq!(ArgMode::from_indicator("-"), Some(ArgMode::Out));
        assert_eq!(ArgMode::from_indicator("i"), Some(ArgMode::In));
        assert_eq!(ArgMode::from_indicator("o"), Some(ArgMode::Out));
        assert_eq!(ArgMode::from_indicator("?"), Some(ArgMode::In));
        assert_eq!(ArgMode::from_indicator("zzz"), None);
    }

    #[test]
    #[should_panic(expected = "must have")]
    fn mode_decl_arity_mismatch_panics() {
        ModeDecl::new(PredId::parse("p", 2), vec![ArgMode::In]);
    }

    #[test]
    fn positions() {
        let decl = ModeDecl::new(
            PredId::parse("f", 3),
            vec![ArgMode::In, ArgMode::Out, ArgMode::In],
        );
        assert_eq!(decl.input_positions(), vec![0, 2]);
        assert_eq!(decl.output_positions(), vec![1]);
        assert_eq!(decl.mode(1), ArgMode::Out);
    }

    #[test]
    fn declared_modes_are_kept() {
        let p = parse_program(":- mode nrev(+, -). nrev([], []).").unwrap();
        let modes = infer_modes(&p);
        let decl = &modes[&PredId::parse("nrev", 2)];
        assert_eq!(decl.modes, vec![ArgMode::In, ArgMode::Out]);
    }

    #[test]
    fn modes_propagate_to_callees() {
        let src = r#"
            :- mode nrev(+, -).
            nrev([], []).
            nrev([H|L], R) :- nrev(L, R1), append(R1, [H], R).
            append([], L, L).
            append([H|T], L, [H|R]) :- append(T, L, R).
        "#;
        let p = parse_program(src).unwrap();
        let modes = infer_modes(&p);
        let append = &modes[&PredId::parse("append", 3)];
        assert_eq!(append.modes, vec![ArgMode::In, ArgMode::In, ArgMode::Out]);
    }

    #[test]
    fn unreached_predicates_default_to_all_input() {
        let p = parse_program("orphan(a, b).").unwrap();
        let modes = infer_modes(&p);
        let decl = &modes[&PredId::parse("orphan", 2)];
        assert_eq!(decl.modes, vec![ArgMode::In, ArgMode::In]);
    }

    #[test]
    fn output_wins_when_call_patterns_conflict() {
        let src = r#"
            :- mode main(+).
            main(X) :- helper(X, Y), use(Y), helper(Z, X), use(Z).
            helper(A, A).
            use(_).
        "#;
        let p = parse_program(src).unwrap();
        let modes = infer_modes(&p);
        let helper = &modes[&PredId::parse("helper", 2)];
        // First call: helper(in, out); second call: helper(out, in); join = (out, out).
        assert_eq!(helper.modes, vec![ArgMode::Out, ArgMode::Out]);
    }

    #[test]
    fn builtin_modes_known() {
        let map = BTreeMap::new();
        let d = mode_or_default(&map, PredId::parse("is", 2));
        assert_eq!(d.modes, vec![ArgMode::Out, ArgMode::In]);
        let d = mode_or_default(&map, PredId::parse("=..", 2));
        assert_eq!(d.modes, vec![ArgMode::In, ArgMode::Out]);
    }

    #[test]
    fn mode_or_default_falls_back() {
        let map = BTreeMap::new();
        let d = mode_or_default(&map, PredId::parse(">", 2));
        assert_eq!(d.modes, vec![ArgMode::In, ArgMode::In]);
        let d = mode_or_default(&map, PredId::parse("mystery", 2));
        assert_eq!(d.modes, vec![ArgMode::In, ArgMode::In]);
    }

    #[test]
    fn display() {
        let decl = ModeDecl::new(PredId::parse("f", 2), vec![ArgMode::In, ArgMode::Out]);
        assert_eq!(decl.to_string(), "f(+,-)");
    }
}
