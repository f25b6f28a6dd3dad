//! Data dependency graphs (Section 3, Figure 1).
//!
//! A data dependency graph abstracts a clause: the head is split into a
//! *start* node (its input argument positions) and an *end* node (its output
//! argument positions); every body literal is a node labelled by its argument
//! positions; and there is an edge from node `n1` to node `n2` whenever a
//! variable binding generated by `n1` is used as an input by `n2`.
//!
//! The input/output character of body-literal argument positions is derived
//! from the left-to-right execution order: an argument all of whose variables
//! are already bound is an input, anything else is an output (after the
//! literal succeeds, all of its variables become bound). Head modes come from
//! the program's mode table.

use granlog_ir::{AsTerm, Clause, ModeDecl, PredId, TermRef, VarId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A node of the data dependency graph.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum NodeId {
    /// The head's input argument positions (no predecessors).
    Start,
    /// The `i`-th body literal (0-based, in textual order).
    Body(usize),
    /// The head's output argument positions (no successors).
    End,
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Start => write!(f, "start"),
            NodeId::Body(i) => write!(f, "body{}", i + 1),
            NodeId::End => write!(f, "end"),
        }
    }
}

/// An argument position within a node of the graph (0-based).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct ArgPos {
    /// The node the position belongs to.
    pub node: NodeId,
    /// Zero-based argument index.
    pub pos: usize,
}

impl ArgPos {
    /// Creates an argument position.
    pub fn new(node: NodeId, pos: usize) -> Self {
        ArgPos { node, pos }
    }
}

impl fmt::Display for ArgPos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node {
            NodeId::Start | NodeId::End => write!(f, "head[{}]", self.pos + 1),
            NodeId::Body(i) => write!(f, "body{}[{}]", i + 1, self.pos + 1),
        }
    }
}

/// The data dependency graph of a single clause, borrowing the clause's
/// terms.
#[derive(Debug, Clone)]
pub struct Ddg<'a> {
    head: TermRef<'a>,
    head_pred: Option<PredId>,
    /// The head's input and output positions under its mode declaration.
    head_inputs: Vec<usize>,
    head_outputs: Vec<usize>,
    literals: Vec<TermRef<'a>>,
    /// Input positions per body literal (0-based indices).
    literal_inputs: Vec<Vec<usize>>,
    /// Output positions per body literal.
    literal_outputs: Vec<Vec<usize>>,
    edges: BTreeSet<(NodeId, NodeId)>,
    /// For every "consuming" position (body-literal inputs and head outputs),
    /// the candidate source positions sharing at least one variable with it,
    /// most recent first.
    sources: BTreeMap<ArgPos, Vec<ArgPos>>,
}

impl<'a> Ddg<'a> {
    /// Builds the data dependency graph of `clause`, whose head modes are
    /// given by `head_modes`.
    ///
    /// # Panics
    ///
    /// Panics if `head_modes` does not match the head's arity.
    pub fn build(clause: &'a Clause, head_modes: &ModeDecl) -> Ddg<'a> {
        assert_eq!(
            head_modes.modes.len(),
            clause.head.args().len(),
            "mode declaration does not match head arity"
        );
        let literals = clause.body_literals();
        let head = clause.head.term_ref();
        let head_inputs = head_modes.input_positions();
        let head_outputs = head_modes.output_positions();

        // Per clause variable, the positions that produced it (most recent
        // producer last); a variable is bound once it is in the table.
        let mut producers: BTreeMap<VarId, Vec<ArgPos>> = BTreeMap::new();
        // The variables of the argument at hand.
        let mut vars: BTreeSet<VarId> = BTreeSet::new();

        for &pos in &head_inputs {
            variables_of(head.args().at(pos), &mut vars);
            for &v in &vars {
                let produced = producers.entry(v).or_default();
                produced.push(ArgPos::new(NodeId::Start, pos));
            }
        }

        let mut edges = BTreeSet::new();
        let mut sources: BTreeMap<ArgPos, Vec<ArgPos>> = BTreeMap::new();
        let mut literal_inputs = Vec::with_capacity(literals.len());
        let mut literal_outputs = Vec::with_capacity(literals.len());

        for (j, lit) in literals.iter().enumerate() {
            let node = NodeId::Body(j);
            let mut inputs = Vec::new();
            let mut outputs = Vec::new();
            for (i, arg) in lit.args().enumerate() {
                variables_of(arg, &mut vars);
                if vars.iter().all(|v| producers.contains_key(v)) {
                    inputs.push(i);
                    // Most recent producer first.
                    let srcs = source_positions(&vars, &producers);
                    edges.extend(srcs.iter().map(|s| (s.node, node)));
                    sources.insert(ArgPos::new(node, i), srcs);
                } else {
                    outputs.push(i);
                }
            }
            // For literals with no arguments (e.g. `!`), nothing to record.
            // After success, every variable of the literal becomes bound and
            // its output positions become producers.
            for &i in &outputs {
                variables_of(lit.args().at(i), &mut vars);
                for &v in &vars {
                    producers.entry(v).or_default().push(ArgPos::new(node, i));
                }
            }
            literal_inputs.push(inputs);
            literal_outputs.push(outputs);
        }

        // Head output positions (the end node).
        for &pos in &head_outputs {
            variables_of(head.args().at(pos), &mut vars);
            let srcs = source_positions(&vars, &producers);
            edges.extend(srcs.iter().map(|s| (s.node, NodeId::End)));
            sources.insert(ArgPos::new(NodeId::End, pos), srcs);
        }

        Ddg {
            head_pred: clause.head_pred(),
            head,
            head_inputs,
            head_outputs,
            literals,
            literal_inputs,
            literal_outputs,
            edges,
            sources,
        }
    }

    /// The clause head term.
    pub fn head(&self) -> TermRef<'a> {
        self.head
    }

    /// The head predicate.
    pub fn head_pred(&self) -> Option<PredId> {
        self.head_pred
    }

    /// The body literals, in textual order.
    pub fn literals(&self) -> &[TermRef<'a>] {
        &self.literals
    }

    /// All nodes of the graph in execution order: start, body literals, end.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut out = vec![NodeId::Start];
        out.extend((0..self.literals.len()).map(NodeId::Body));
        out.push(NodeId::End);
        out
    }

    /// The paper's `input(G, n)`: input argument positions of a node.
    /// For the start node these are the head's input positions; the end node
    /// has none of its own: its "inputs" are the head outputs it consumes.
    pub fn input(&self, node: NodeId) -> &[usize] {
        match node {
            NodeId::Start => &[],
            NodeId::Body(j) => self.literal_inputs.get(j).map_or(&[], Vec::as_slice),
            NodeId::End => &self.head_outputs,
        }
    }

    /// The paper's `output(G, n)`: output argument positions of a node.
    pub fn output(&self, node: NodeId) -> &[usize] {
        match node {
            NodeId::Start => &self.head_inputs,
            NodeId::Body(j) => self.literal_outputs.get(j).map_or(&[], Vec::as_slice),
            NodeId::End => &[],
        }
    }

    /// The term occupying an argument position.
    pub fn term_at(&self, pos: ArgPos) -> TermRef<'a> {
        match pos.node {
            NodeId::Start | NodeId::End => self.head.args().at(pos.pos),
            NodeId::Body(j) => self.literals[j].args().at(pos.pos),
        }
    }

    /// The candidate source positions for a consuming position, most recent
    /// producer first.
    pub fn sources_of(&self, pos: ArgPos) -> &[ArgPos] {
        self.sources.get(&pos).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// The edges of the graph.
    pub fn edges(&self) -> &BTreeSet<(NodeId, NodeId)> {
        &self.edges
    }

    /// Whether the graph contains an edge.
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.edges.contains(&(from, to))
    }

    /// Successor nodes of a node.
    pub fn successors(&self, node: NodeId) -> Vec<NodeId> {
        self.edges
            .iter()
            .filter(|(from, _)| *from == node)
            .map(|(_, to)| *to)
            .collect()
    }

    /// Renders the graph in Graphviz DOT format (useful for inspecting
    /// Figure-1-style graphs).
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph ddg {\n  rankdir=TB;\n");
        for node in self.nodes() {
            let label = self.node_label(node);
            out.push_str(&format!(
                "  \"{node}\" [label=\"{label}\", shape=ellipse];\n"
            ));
        }
        for (from, to) in &self.edges {
            out.push_str(&format!("  \"{from}\" -> \"{to}\";\n"));
        }
        out.push_str("}\n");
        out
    }

    /// Renders the graph as indented ASCII, one node per line with its
    /// successors — the form the `fig1_ddg` artefact prints.
    pub fn to_ascii(&self) -> String {
        let mut out = String::new();
        for node in self.nodes() {
            let succs: Vec<String> = self
                .successors(node)
                .iter()
                .map(|s| s.to_string())
                .collect();
            out.push_str(&format!(
                "{:<8} {:<28} -> [{}]\n",
                node.to_string(),
                self.node_label(node),
                succs.join(", ")
            ));
        }
        out
    }

    /// The label of a node: the set of argument positions it carries, in the
    /// paper's `{head_1}` / `{body1_1, body1_2}` notation.
    pub fn node_label(&self, node: NodeId) -> String {
        let head = |positions: &[usize]| -> Vec<String> {
            let label = |i: &usize| format!("head_{}", i + 1);
            positions.iter().map(label).collect()
        };
        let positions = match node {
            NodeId::Start => head(&self.head_inputs),
            NodeId::End => head(&self.head_outputs),
            NodeId::Body(j) => (0..self.literals[j].args().len())
                .map(|i| format!("body{}_{}", j + 1, i + 1))
                .collect(),
        };
        format!("{{{}}}", positions.join(", "))
    }
}

/// The positions that produced any of `vars`, most recent producer first.
fn source_positions(
    vars: &BTreeSet<VarId>,
    producers: &BTreeMap<VarId, Vec<ArgPos>>,
) -> Vec<ArgPos> {
    let mut out: Vec<ArgPos> = Vec::new();
    for p in vars.iter().filter_map(|v| producers.get(v)).flatten() {
        if !out.contains(p) {
            out.push(*p);
        }
    }
    out.reverse();
    out
}

/// Leaves the variables of `term` in `out`.
fn variables_of(term: TermRef<'_>, out: &mut BTreeSet<VarId>) {
    out.clear();
    term.collect_variables(out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use granlog_ir::modes::ArgMode;
    use granlog_ir::parser::parse_program;
    use granlog_ir::Program;

    fn nrev_program() -> Program {
        parse_program(
            r#"
            :- mode nrev(+, -).
            :- mode append(+, +, -).
            nrev([], []).
            nrev([H|L], R) :- nrev(L, R1), append(R1, [H], R).
            append([], L, L).
            append([H|L1], L2, [H|L3]) :- append(L1, L2, L3).
            "#,
        )
        .unwrap()
    }

    fn ddg_of<'p>(program: &'p Program, pred: &str, arity: usize, clause_idx: usize) -> Ddg<'p> {
        let pid = PredId::parse(pred, arity);
        Ddg::build(
            program.clauses_of(pid)[clause_idx],
            program.mode_of(pid).unwrap(),
        )
    }

    #[test]
    fn figure1_clause1_structure() {
        // nrev([], []): start = {head_1}, end = {head_2}, no body nodes.
        let p = nrev_program();
        let g = ddg_of(&p, "nrev", 2, 0);
        assert_eq!(g.nodes(), vec![NodeId::Start, NodeId::End]);
        assert_eq!(g.output(NodeId::Start), vec![0]);
        assert_eq!(g.input(NodeId::End), vec![1]);
        // [] has no variables, so the end node needs no producer edge.
        assert!(g.edges().is_empty());
        assert_eq!(g.node_label(NodeId::Start), "{head_1}");
        assert_eq!(g.node_label(NodeId::End), "{head_2}");
    }

    #[test]
    fn figure1_clause2_structure() {
        // nrev([H|L], R) :- nrev(L, R1), append(R1, [H], R).
        let p = nrev_program();
        let g = ddg_of(&p, "nrev", 2, 1);
        assert_eq!(
            g.nodes(),
            vec![NodeId::Start, NodeId::Body(0), NodeId::Body(1), NodeId::End]
        );
        // Edges: start -> body1 (L), start -> body2 (H), body1 -> body2 (R1),
        // body2 -> end (R).
        assert!(g.has_edge(NodeId::Start, NodeId::Body(0)));
        assert!(g.has_edge(NodeId::Start, NodeId::Body(1)));
        assert!(g.has_edge(NodeId::Body(0), NodeId::Body(1)));
        assert!(g.has_edge(NodeId::Body(1), NodeId::End));
        assert_eq!(g.edges().len(), 4);
    }

    #[test]
    fn figure1_clause2_modes_of_literals() {
        let p = nrev_program();
        let g = ddg_of(&p, "nrev", 2, 1);
        // nrev(L, R1): L input, R1 output — the paper's nrev^(i,o).
        assert_eq!(g.input(NodeId::Body(0)), vec![0]);
        assert_eq!(g.output(NodeId::Body(0)), vec![1]);
        // append(R1, [H], R): first two input, last output — append^(i,i,o).
        assert_eq!(g.input(NodeId::Body(1)), vec![0, 1]);
        assert_eq!(g.output(NodeId::Body(1)), vec![2]);
    }

    #[test]
    fn append_recursive_clause_structure() {
        let p = nrev_program();
        let g = ddg_of(&p, "append", 3, 1);
        // append([H|L1], L2, [H|L3]) :- append(L1, L2, L3).
        assert_eq!(g.input(NodeId::Body(0)), vec![0, 1]);
        assert_eq!(g.output(NodeId::Body(0)), vec![2]);
        assert!(g.has_edge(NodeId::Start, NodeId::Body(0)));
        // Head output [H|L3] needs both H (from start) and L3 (from body1).
        assert!(g.has_edge(NodeId::Body(0), NodeId::End));
        assert!(g.has_edge(NodeId::Start, NodeId::End));
    }

    #[test]
    fn sources_identify_producing_positions() {
        let p = nrev_program();
        let g = ddg_of(&p, "nrev", 2, 1);
        // body1[1] (the L of nrev(L, R1)) is produced by head[1].
        let srcs = g.sources_of(ArgPos::new(NodeId::Body(0), 0));
        assert_eq!(srcs, &[ArgPos::new(NodeId::Start, 0)]);
        // body2[1] (R1) is produced by body1[2].
        let srcs = g.sources_of(ArgPos::new(NodeId::Body(1), 0));
        assert_eq!(srcs, &[ArgPos::new(NodeId::Body(0), 1)]);
        // head[2] (R) is produced by body2[3].
        let srcs = g.sources_of(ArgPos::new(NodeId::End, 1));
        assert_eq!(srcs, &[ArgPos::new(NodeId::Body(1), 2)]);
    }

    #[test]
    fn consumed_and_produced_sets() {
        let p = nrev_program();
        let g = ddg_of(&p, "nrev", 2, 1);
        let at = |node: NodeId, positions: &[usize]| -> Vec<ArgPos> {
            positions.iter().map(|&i| ArgPos::new(node, i)).collect()
        };
        // D = body inputs ∪ head outputs.
        let consumed: Vec<ArgPos> = g
            .nodes()
            .into_iter()
            .flat_map(|node| at(node, g.input(node)))
            .collect();
        assert!(consumed.contains(&ArgPos::new(NodeId::Body(0), 0)));
        assert!(consumed.contains(&ArgPos::new(NodeId::Body(1), 0)));
        assert!(consumed.contains(&ArgPos::new(NodeId::Body(1), 1)));
        assert!(consumed.contains(&ArgPos::new(NodeId::End, 1)));
        // I = body outputs.
        let produced: Vec<ArgPos> = (0..2)
            .map(NodeId::Body)
            .flat_map(|node| at(node, g.output(node)))
            .collect();
        assert_eq!(
            produced,
            vec![
                ArgPos::new(NodeId::Body(0), 1),
                ArgPos::new(NodeId::Body(1), 2)
            ]
        );
    }

    #[test]
    fn ground_body_argument_is_input_with_no_sources() {
        let p = parse_program(":- mode p(+). p(X) :- q(X, [a, b]), r(X).").unwrap();
        let pid = PredId::parse("p", 1);
        let clause = p.clauses_of(pid)[0].clone();
        let g = Ddg::build(&clause, p.mode_of(pid).unwrap());
        // q's second argument [a,b] is ground: an input with no producers.
        assert_eq!(g.input(NodeId::Body(0)), vec![0, 1]);
        assert!(g.sources_of(ArgPos::new(NodeId::Body(0), 1)).is_empty());
    }

    #[test]
    fn later_literal_sees_most_recent_producer_first() {
        let src = r#"
            :- mode p(+, -).
            p(X, Z) :- q(X, Y), r(Y, W), s(Y, W, Z).
        "#;
        let p = parse_program(src).unwrap();
        let pid = PredId::parse("p", 2);
        let g = Ddg::build(p.clauses_of(pid)[0], p.mode_of(pid).unwrap());
        // s's first argument Y was produced by q (body1[2]) only.
        let srcs = g.sources_of(ArgPos::new(NodeId::Body(2), 0));
        assert_eq!(srcs, &[ArgPos::new(NodeId::Body(0), 1)]);
        // s's second argument W was produced by r (body2[2]).
        let srcs = g.sources_of(ArgPos::new(NodeId::Body(2), 1));
        assert_eq!(srcs, &[ArgPos::new(NodeId::Body(1), 1)]);
    }

    #[test]
    fn term_at_reads_an_argument_position() {
        let p = nrev_program();
        let g = ddg_of(&p, "nrev", 2, 1);
        assert_eq!(
            g.term_at(ArgPos::new(NodeId::Body(1), 1)).list_length(),
            Some(1)
        );
    }

    #[test]
    fn renderings_mention_all_nodes() {
        let p = nrev_program();
        let g = ddg_of(&p, "nrev", 2, 1);
        let dot = g.to_dot();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("\"start\" -> \"body1\""));
        assert!(dot.contains("\"body2\" -> \"end\""));
        let ascii = g.to_ascii();
        assert!(ascii.contains("start"));
        assert!(ascii.contains("{body2_1, body2_2, body2_3}"));
    }

    #[test]
    #[should_panic(expected = "mode declaration does not match")]
    fn arity_mismatch_panics() {
        let p = nrev_program();
        let clause = p.clauses_of(PredId::parse("nrev", 2))[0].clone();
        let bad = ModeDecl::new(PredId::parse("nrev", 3), vec![ArgMode::In; 3]);
        Ddg::build(&clause, &bad);
    }

    #[test]
    fn builtin_arithmetic_literal_classification() {
        // In fib's recursive clause, `M1 is M - 1` has M1 as output and the
        // expression as input; the comparison `M > 1` is all-input.
        let src = r#"
            :- mode fib(+, -).
            fib(M, N) :- M > 1, M1 is M - 1, M2 is M - 2,
                         fib(M1, N1), fib(M2, N2), N is N1 + N2.
        "#;
        let p = parse_program(src).unwrap();
        let pid = PredId::parse("fib", 2);
        let g = Ddg::build(p.clauses_of(pid)[0], p.mode_of(pid).unwrap());
        // body1 = M > 1 : both inputs.
        assert_eq!(g.input(NodeId::Body(0)), vec![0, 1]);
        // body2 = M1 is M - 1 : first output, second input.
        assert_eq!(g.input(NodeId::Body(1)), vec![1]);
        assert_eq!(g.output(NodeId::Body(1)), vec![0]);
        // body4 = fib(M1, N1): first input (M1 now bound), second output.
        assert_eq!(g.input(NodeId::Body(3)), vec![0]);
        assert_eq!(g.output(NodeId::Body(3)), vec![1]);
        // Edge from the `is` literal to the recursive call.
        assert!(g.has_edge(NodeId::Body(1), NodeId::Body(3)));
    }
}
