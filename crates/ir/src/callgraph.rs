//! Predicate call graphs, strongly-connected components and the recursion
//! classification used by the granularity analysis.
//!
//! Section 3 of the paper distinguishes *nonrecursive*, *simple recursive* and
//! *mutually recursive* clauses, and processes the call graph in topological
//! order so that callees are analysed before callers. This module provides
//! exactly those notions: [`CallGraph::sccs`] (Tarjan), the bottom-up
//! [`CallGraph::topological_sccs`] order, and
//! [`CallGraph::classify_predicate`].

use crate::{AsTerm, PredId, Program};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// How a clause (or predicate) recurses, following the paper's terminology.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum RecursionClass {
    /// No body literal is part of a call-graph cycle through the head.
    NonRecursive,
    /// Recursive literals exist and all of them call the head's own predicate.
    SimpleRecursive,
    /// Recursive literals exist that call other predicates in the head's SCC.
    MutuallyRecursive,
}

impl fmt::Display for RecursionClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecursionClass::NonRecursive => write!(f, "nonrecursive"),
            RecursionClass::SimpleRecursive => write!(f, "simple recursive"),
            RecursionClass::MutuallyRecursive => write!(f, "mutually recursive"),
        }
    }
}

/// A strongly-connected component of the call graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scc {
    /// The predicates in the component.
    pub members: Vec<PredId>,
    /// `true` if the component contains a cycle (more than one member, or a
    /// single member that calls itself).
    pub recursive: bool,
}

impl Scc {
    /// Returns `true` if `pred` belongs to this component.
    pub fn contains(&self, pred: PredId) -> bool {
        self.members.contains(&pred)
    }
}

/// The call graph of a program, restricted to predicates the program defines.
///
/// Calls to builtins and to undefined predicates are not graph nodes.
#[derive(Debug, Clone)]
pub struct CallGraph {
    nodes: Vec<PredId>,
    index_of: BTreeMap<PredId, usize>,
    edges: Vec<BTreeSet<usize>>,
    sccs: Vec<Scc>,
    scc_of: BTreeMap<PredId, usize>,
    topo: Vec<usize>,
}

impl CallGraph {
    /// Builds the call graph of `program`.
    pub fn build(program: &Program) -> Self {
        let nodes: Vec<PredId> = program.predicates().map(|p| p.id).collect();
        let index_of: BTreeMap<PredId, usize> =
            nodes.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        let mut edges: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); nodes.len()];

        for (caller_idx, &caller) in nodes.iter().enumerate() {
            for clause in program.clauses_of(caller) {
                for goal in clause.called_goals() {
                    match PredId::of_term(goal) {
                        Some(callee) => {
                            if let Some(&callee_idx) = index_of.get(&callee) {
                                edges[caller_idx].insert(callee_idx);
                            }
                        }
                        // An unknown-target metacall (a `Var` leaf from
                        // `called_goals`) may call any predicate at run
                        // time; over-approximate it as an edge to every
                        // defined predicate so SCC-based analyses stay
                        // sound instead of silently dropping the call.
                        None if goal.is_var() => {
                            for callee_idx in 0..nodes.len() {
                                edges[caller_idx].insert(callee_idx);
                            }
                        }
                        None => {}
                    }
                }
            }
        }

        let mut graph = CallGraph {
            nodes,
            index_of,
            edges,
            sccs: Vec::new(),
            scc_of: BTreeMap::new(),
            topo: Vec::new(),
        };
        graph.compute_sccs();
        graph
    }

    /// The predicates that are nodes of the graph.
    pub fn nodes(&self) -> &[PredId] {
        &self.nodes
    }

    /// Direct callees of `pred` (only defined predicates).
    pub fn callees(&self, pred: PredId) -> Vec<PredId> {
        match self.index_of.get(&pred) {
            Some(&i) => self.edges[i].iter().map(|&j| self.nodes[j]).collect(),
            None => Vec::new(),
        }
    }

    /// Returns `true` if `caller` has a direct edge to `callee`.
    pub fn calls(&self, caller: PredId, callee: PredId) -> bool {
        match (self.index_of.get(&caller), self.index_of.get(&callee)) {
            (Some(&i), Some(&j)) => self.edges[i].contains(&j),
            _ => false,
        }
    }

    /// The strongly-connected components, in no particular order.
    pub fn sccs(&self) -> &[Scc] {
        &self.sccs
    }

    /// The SCC containing `pred`, if it is a node.
    pub fn scc_of(&self, pred: PredId) -> Option<&Scc> {
        self.scc_of.get(&pred).map(|&i| &self.sccs[i])
    }

    /// SCCs in bottom-up (callee-first) topological order — the order in which
    /// the paper processes the call graph.
    pub fn topological_sccs(&self) -> Vec<&Scc> {
        self.topo.iter().map(|&i| &self.sccs[i]).collect()
    }

    /// Returns `true` if `pred` is recursive (its SCC contains a cycle).
    pub fn is_recursive(&self, pred: PredId) -> bool {
        self.scc_of(pred).map(|s| s.recursive).unwrap_or(false)
    }

    /// Classifies a predicate: mutually recursive if its SCC has several
    /// members, simple recursive if it only calls itself, nonrecursive
    /// otherwise.
    pub fn classify_predicate(&self, pred: PredId) -> RecursionClass {
        match self.scc_of(pred) {
            Some(scc) if scc.recursive && scc.members.len() > 1 => {
                RecursionClass::MutuallyRecursive
            }
            Some(scc) if scc.recursive => RecursionClass::SimpleRecursive,
            _ => RecursionClass::NonRecursive,
        }
    }

    fn compute_sccs(&mut self) {
        // Iterative Tarjan to avoid recursion-depth limits on deep programs.
        let n = self.nodes.len();
        let mut index = vec![usize::MAX; n];
        let mut lowlink = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut sccs: Vec<Vec<usize>> = Vec::new();

        #[derive(Clone)]
        struct Frame {
            node: usize,
            succs: Vec<usize>,
            next_succ: usize,
        }

        for start in 0..n {
            if index[start] != usize::MAX {
                continue;
            }
            let mut call_stack = vec![Frame {
                node: start,
                succs: self.edges[start].iter().copied().collect(),
                next_succ: 0,
            }];
            index[start] = next_index;
            lowlink[start] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack[start] = true;

            while let Some(frame) = call_stack.last_mut() {
                let v = frame.node;
                if frame.next_succ < frame.succs.len() {
                    let w = frame.succs[frame.next_succ];
                    frame.next_succ += 1;
                    if index[w] == usize::MAX {
                        index[w] = next_index;
                        lowlink[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        call_stack.push(Frame {
                            node: w,
                            succs: self.edges[w].iter().copied().collect(),
                            next_succ: 0,
                        });
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                } else {
                    // All successors processed.
                    if lowlink[v] == index[v] {
                        let mut component = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w] = false;
                            component.push(w);
                            if w == v {
                                break;
                            }
                        }
                        sccs.push(component);
                    }
                    call_stack.pop();
                    if let Some(parent) = call_stack.last() {
                        let p = parent.node;
                        lowlink[p] = lowlink[p].min(lowlink[v]);
                    }
                }
            }
        }

        // Tarjan emits SCCs in reverse topological order of the condensation
        // (callees before callers when edges point caller -> callee ... in fact
        // Tarjan emits a component only after all components it can reach have
        // been emitted), which is exactly the bottom-up order we need.
        self.sccs = sccs
            .iter()
            .map(|component| {
                let members: Vec<PredId> = component.iter().map(|&i| self.nodes[i]).collect();
                let recursive = members.len() > 1
                    || component
                        .first()
                        .map(|&i| self.edges[i].contains(&i))
                        .unwrap_or(false);
                Scc { members, recursive }
            })
            .collect();
        self.scc_of = self
            .sccs
            .iter()
            .enumerate()
            .flat_map(|(i, scc)| scc.members.iter().map(move |&p| (p, i)))
            .collect();
        self.topo = (0..self.sccs.len()).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn pid(name: &str, arity: usize) -> PredId {
        PredId::parse(name, arity)
    }

    /// Predicates in bottom-up topological order (members of the same SCC
    /// are adjacent).
    fn topological_predicates(g: &CallGraph) -> Vec<PredId> {
        let sccs = g.topological_sccs().into_iter();
        sccs.flat_map(|scc| scc.members.iter().copied()).collect()
    }

    const NREV: &str = r#"
        nrev([], []).
        nrev([H|L], R) :- nrev(L, R1), append(R1, [H], R).
        append([], L, L).
        append([H|T], L, [H|R]) :- append(T, L, R).
    "#;

    #[test]
    fn edges_and_external_calls() {
        let p = parse_program("p(X) :- q(X), r(X), X > 1. q(X) :- p(X). r(_).").unwrap();
        let g = CallGraph::build(&p);
        assert!(g.calls(pid("p", 1), pid("q", 1)));
        assert!(g.calls(pid("q", 1), pid("p", 1)));
        assert!(g.calls(pid("p", 1), pid("r", 1)));
        assert!(!g.calls(pid("r", 1), pid("p", 1)));
        // A builtin is called, but it is no node.
        assert!(!g.nodes().contains(&pid(">", 2)));
        assert!(!g.calls(pid("p", 1), pid(">", 2)));
    }

    #[test]
    fn nrev_sccs_and_topological_order() {
        let p = parse_program(NREV).unwrap();
        let g = CallGraph::build(&p);
        assert_eq!(g.sccs().len(), 2);
        let order = topological_predicates(&g);
        let pos_append = order.iter().position(|&x| x == pid("append", 3)).unwrap();
        let pos_nrev = order.iter().position(|&x| x == pid("nrev", 2)).unwrap();
        assert!(
            pos_append < pos_nrev,
            "append must be processed before nrev"
        );
    }

    #[test]
    fn recursion_classification_simple() {
        let p = parse_program(NREV).unwrap();
        let g = CallGraph::build(&p);
        assert_eq!(
            g.classify_predicate(pid("nrev", 2)),
            RecursionClass::SimpleRecursive
        );
        assert_eq!(
            g.classify_predicate(pid("append", 3)),
            RecursionClass::SimpleRecursive
        );
    }

    #[test]
    fn recursion_classification_mutual() {
        let src = r#"
            even(0).
            even(s(X)) :- odd(X).
            odd(s(X)) :- even(X).
        "#;
        let p = parse_program(src).unwrap();
        let g = CallGraph::build(&p);
        assert_eq!(
            g.classify_predicate(pid("even", 1)),
            RecursionClass::MutuallyRecursive
        );
        assert_eq!(
            g.classify_predicate(pid("odd", 1)),
            RecursionClass::MutuallyRecursive
        );
        assert!(g.scc_of(pid("even", 1)).unwrap().contains(pid("odd", 1)));
    }

    #[test]
    fn nonrecursive_predicate() {
        let p = parse_program("top(X) :- mid(X). mid(X) :- leaf(X). leaf(_).").unwrap();
        let g = CallGraph::build(&p);
        for name in ["top", "mid", "leaf"] {
            assert_eq!(
                g.classify_predicate(pid(name, 1)),
                RecursionClass::NonRecursive
            );
            assert!(!g.is_recursive(pid(name, 1)));
        }
        let order = topological_predicates(&g);
        assert_eq!(order, vec![pid("leaf", 1), pid("mid", 1), pid("top", 1)]);
    }

    #[test]
    fn self_loop_is_recursive_even_as_singleton_scc() {
        let p = parse_program("loop(X) :- loop(X). lone(_).").unwrap();
        let g = CallGraph::build(&p);
        assert!(g.is_recursive(pid("loop", 1)));
        assert!(!g.is_recursive(pid("lone", 1)));
    }

    #[test]
    fn calls_inside_control_structures_are_edges() {
        let p = parse_program("p(X) :- ( q(X) -> r(X) ; s(X) ). q(_). r(_). s(_).").unwrap();
        let g = CallGraph::build(&p);
        for callee in ["q", "r", "s"] {
            assert!(
                g.calls(pid("p", 1), pid(callee, 1)),
                "missing edge to {callee}"
            );
        }
    }

    #[test]
    fn callees_listing() {
        let p = parse_program(NREV).unwrap();
        let g = CallGraph::build(&p);
        let callees = g.callees(pid("nrev", 2));
        assert!(callees.contains(&pid("nrev", 2)));
        assert!(callees.contains(&pid("append", 3)));
        assert_eq!(g.callees(pid("missing", 9)), Vec::<PredId>::new());
    }

    #[test]
    fn variable_goal_over_approximates_as_edges_to_everything() {
        // `p :- X.` may call any predicate at run time; the graph must show
        // p → {every defined predicate}, which also pulls p into a cycle
        // with itself (it may call itself through the metacall).
        let p = parse_program("p(X) :- q(X), X. q(_). r(_).").unwrap();
        let g = CallGraph::build(&p);
        for callee in [("p", 1), ("q", 1), ("r", 1)] {
            assert!(
                g.calls(pid("p", 1), pid(callee.0, callee.1)),
                "missing conservative edge to {}/{}",
                callee.0,
                callee.1
            );
        }
        // `call(q(X))` is transparent: a precise edge to `q/1`.
        let p = parse_program("p(X) :- call(q(X)). q(_).").unwrap();
        let g = CallGraph::build(&p);
        assert!(g.calls(pid("p", 1), pid("q", 1)));
        assert_eq!(g.callees(pid("p", 1)), vec![pid("q", 1)]);
    }

    #[test]
    fn long_chain_does_not_overflow_stack() {
        // 2000-deep call chain exercises the iterative Tarjan implementation.
        let mut src = String::new();
        for i in 0..2000 {
            src.push_str(&format!("p{}(X) :- p{}(X).\n", i, i + 1));
        }
        src.push_str("p2000(done).\n");
        let p = parse_program(&src).unwrap();
        let g = CallGraph::build(&p);
        assert_eq!(g.sccs().len(), 2001);
        let order = topological_predicates(&g);
        assert_eq!(order.first().copied(), Some(pid("p2000", 1)));
        assert_eq!(order.last().copied(), Some(pid("p0", 1)));
    }
}
