//! Clauses and structured views of clause bodies.

use crate::program::PredId;
use crate::symbol::{well_known, Symbol};
use crate::term::{AsTerm, Term, TermRef, View};
use std::fmt;

/// Index of a clause within a [`crate::Program`].
pub type ClauseId = usize;

/// A program clause `Head :- Body.` (facts have body `true`).
///
/// Variables inside `head` and `body` are clause-local indices into
/// [`Clause::var_names`].
///
/// # Example
///
/// ```
/// use granlog_ir::parser::parse_program;
/// let p = parse_program("app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).").unwrap();
/// let c = &p.clauses()[1];
/// assert_eq!(c.head_pred().unwrap().to_string(), "app/3");
/// assert_eq!(c.body_literals().len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clause {
    /// The clause head (an atom or compound term).
    pub head: Term,
    /// The clause body; the atom `true` for facts.
    pub body: Term,
    /// Source names of the clause's variables, indexed by [`crate::VarId`].
    pub var_names: Vec<Symbol>,
}

impl Clause {
    /// Creates a clause from a head, body and variable-name table.
    pub fn new(head: Term, body: Term, var_names: Vec<Symbol>) -> Self {
        Clause {
            head,
            body,
            var_names,
        }
    }

    /// Creates a fact (a clause whose body is `true`).
    pub fn fact(head: Term, var_names: Vec<Symbol>) -> Self {
        Clause {
            head,
            body: Term::from(well_known::true_()),
            var_names,
        }
    }

    /// Returns `true` if the clause is a fact (body is the atom `true`).
    pub fn is_fact(&self) -> bool {
        matches!(self.body.view(), View::Atom(s) if s == well_known::true_())
    }

    /// The predicate defined by this clause, if the head is callable.
    pub fn head_pred(&self) -> Option<PredId> {
        self.head
            .functor()
            .map(|(name, arity)| PredId::new(name, arity))
    }

    /// Number of distinct variables in the clause.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// Flattens the body into a left-to-right list of literals.
    ///
    /// Conjunctions (`,`) and parallel conjunctions (`&`) are flattened;
    /// control structures (`;`, `->`, `\+`) are kept as single literals, as is
    /// each ordinary goal. The atom `true` yields an empty list.
    pub fn body_literals(&self) -> Vec<TermRef<'_>> {
        let wk = well_known::get();
        self.leaves(
            |name, arity| arity == 2 && (name == wk.comma || name == wk.par_and),
            &[wk.true_],
        )
    }

    /// Returns the goal terms called by this clause, descending into control
    /// structures (`;`, `->`, `\+`, `&`, `,`). Used for call-graph
    /// construction. Control atoms (`true`, `!`) are not calls and are
    /// skipped.
    ///
    /// Metacalls are reported as a conservative over-approximation of their
    /// runtime targets: `call(G)` is transparent (the result names `G`'s own
    /// target, so `call(q(X))` reports `q/1`, not `call/1`), and a variable
    /// goal — bare (`p :- X.`) or behind `call/1` (`p :- call(X).`) — is
    /// kept as the variable leaf itself, the "may call any predicate"
    /// marker. Callers that map goals to [`PredId`]s must treat `Var` leaves
    /// conservatively (see [`crate::callgraph::CallGraph::build`], which
    /// over-approximates them as edges to every defined predicate) rather
    /// than silently dropping them.
    pub fn called_goals(&self) -> Vec<TermRef<'_>> {
        let wk = well_known::get();
        let control = [wk.comma, wk.par_and, wk.semicolon, wk.arrow];
        // `call/1` is transparent: the called goal is its argument. A
        // variable argument is then the variable leaf, so `p :- call(X).` and
        // `p :- X.` report the same unknown-target marker instead of the
        // former naming a phantom `call/1` predicate.
        let opens = |name: Symbol, arity| match arity {
            2 => control.contains(&name),
            _ => name == wk.not || name.as_str() == "call",
        };
        self.leaves(opens, &[wk.true_, wk.cut])
    }

    /// The body's leaves, left to right, by a loop: the body is opened at
    /// every compound whose name and arity `opens` accepts, and the atoms in
    /// `skip` are dropped.
    fn leaves(&self, opens: impl Fn(Symbol, usize) -> bool, skip: &[Symbol]) -> Vec<TermRef<'_>> {
        let mut out = Vec::new();
        let mut todo = vec![self.body.term_ref()];
        while let Some(goal) = todo.pop() {
            match goal.functor() {
                Some((name, 0)) if skip.contains(&name) => {}
                Some((name, arity @ 1..=2)) if opens(name, arity) => {
                    let args = goal.args();
                    todo.extend((0..arity).rev().map(|i| args.at(i)));
                }
                _ => out.push(goal),
            }
        }
        out
    }

    /// Renders the clause with its source variable names.
    pub fn display(&self) -> ClauseDisplay<'_> {
        ClauseDisplay(self)
    }
}

/// Display adapter rendering a clause with its variable names.
#[derive(Debug, Clone, Copy)]
pub struct ClauseDisplay<'a>(&'a Clause);

impl fmt::Display for ClauseDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::pretty::fmt_clause(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn fact_detection() {
        let p = parse_program("p(a). q(X) :- p(X).").unwrap();
        assert!(p.clauses()[0].is_fact());
        assert!(!p.clauses()[1].is_fact());
        assert!(p.clauses()[0].body_literals().is_empty());
    }

    #[test]
    fn body_literals_flatten_conjunctions() {
        let p = parse_program("p(X) :- a(X), b(X), c(X).").unwrap();
        let lits = p.clauses()[0].body_literals();
        assert_eq!(lits.len(), 3);
        assert_eq!(lits[0].functor().unwrap().0.as_str(), "a");
        assert_eq!(lits[2].functor().unwrap().0.as_str(), "c");
    }

    #[test]
    fn body_literals_flatten_parallel_conjunctions() {
        let p = parse_program("p(X) :- a(X) & b(X), c(X).").unwrap();
        let lits = p.clauses()[0].body_literals();
        assert_eq!(lits.len(), 3);
    }

    #[test]
    fn called_goals_descend_into_control() {
        let p = parse_program("p(X) :- ( a(X) -> b(X) ; c(X), d(X) ).").unwrap();
        let goals = p.clauses()[0].called_goals();
        let names: Vec<&str> = goals
            .iter()
            .map(|g| g.functor().unwrap().0.as_str())
            .collect();
        assert_eq!(names, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn called_goals_see_through_call_1() {
        let p = parse_program("p(X) :- q(X), call(r(X, 1)).").unwrap();
        let goals = p.clauses()[0].called_goals();
        let names: Vec<&str> = goals
            .iter()
            .map(|g| g.functor().unwrap().0.as_str())
            .collect();
        // `call(r(X, 1))` reports `r/2`, not a phantom `call/1`.
        assert_eq!(names, vec!["q", "r"]);
        assert_eq!(goals[1].functor().unwrap().1, 2);
    }

    #[test]
    fn variable_goals_report_a_consistent_unknown_marker() {
        // Bare variable body and `call(X)` are the same metacall; both must
        // surface as the `Var` leaf (the "may call anything" marker).
        let bare = parse_program("p(X) :- X.").unwrap();
        let wrapped = parse_program("p(X) :- call(X).").unwrap();
        let in_control = parse_program("p(X) :- ( X ; q(X) ).").unwrap();
        for prog in [&bare, &wrapped] {
            let goals = prog.clauses()[0].called_goals();
            assert_eq!(goals.len(), 1);
            assert!(goals[0].is_var(), "expected Var leaf, got {:?}", goals[0]);
        }
        let goals = in_control.clauses()[0].called_goals();
        assert_eq!(goals.len(), 2);
        assert!(goals[0].is_var());
        assert_eq!(goals[1].functor().unwrap().0.as_str(), "q");
    }

    #[test]
    fn call_with_extra_args_is_an_ordinary_goal() {
        // The engine has no `call/N` builtin for N > 1; such a goal really
        // is a call of the `call/N` predicate, so it is reported as-is.
        let p = parse_program("p(X) :- call(q, X).").unwrap();
        let goals = p.clauses()[0].called_goals();
        assert_eq!(goals.len(), 1);
        assert_eq!(goals[0].functor().unwrap(), (Symbol::intern("call"), 2));
    }

    #[test]
    fn clause_display_uses_source_names() {
        let p = parse_program("nrev([H|L], R) :- nrev(L, R1), append(R1, [H], R).").unwrap();
        let shown = p.clauses()[0].display().to_string();
        assert!(shown.contains("nrev([H|L],R)"), "got: {shown}");
        assert!(shown.contains("R1"));
        assert!(shown.ends_with('.'));
    }

    #[test]
    fn cut_is_classified_as_control() {
        let p = parse_program("m(X, [X|_]) :- !. m(X, [_|T]) :- m(X, T).").unwrap();
        // `!` is control, not a call: call graphs must not see it.
        assert!(p.clauses()[0].called_goals().is_empty());
    }

    #[test]
    fn head_pred() {
        let p = parse_program("foo(a, b, c).").unwrap();
        let id = p.clauses()[0].head_pred().unwrap();
        assert_eq!(id.name.as_str(), "foo");
        assert_eq!(id.arity, 3);
    }
}
