//! Deterministic workload generators.
//!
//! Every generator is a pure function of its parameters (a small linear
//! congruential generator provides "random" data), so experiment runs are
//! exactly reproducible.

/// A tiny deterministic pseudo-random sequence (LCG, Numerical Recipes
/// constants). Good enough for generating benchmark inputs; not for
/// statistics.
#[derive(Debug, Clone)]
pub struct Lcg {
    state: u64,
}

impl Lcg {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Lcg {
            state: seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407),
        }
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.state >> 11
    }

    /// Next value in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

/// A list of `n` pseudo-random integers in `0..bound`, rendered as Prolog
/// list syntax.
pub fn int_list(n: usize, bound: u64, seed: u64) -> String {
    let mut rng = Lcg::new(seed);
    let items: Vec<String> = (0..n).map(|_| rng.below(bound).to_string()).collect();
    format!("[{}]", items.join(","))
}

/// A list of `n` pseudo-random integers in `1..=bound` (strictly positive —
/// for workloads like Collatz trajectories that are undefined at zero),
/// rendered as Prolog list syntax.
pub fn pos_int_list(n: usize, bound: u64, seed: u64) -> String {
    let mut rng = Lcg::new(seed);
    let items: Vec<String> = (0..n)
        .map(|_| (rng.below(bound.max(1)) + 1).to_string())
        .collect();
    format!("[{}]", items.join(","))
}

/// A list of `chunks` lists whose lengths sum to `total` (as even as
/// possible), each containing pseudo-random integers.
pub fn list_of_lists(total: usize, chunks: usize, bound: u64, seed: u64) -> String {
    let chunks = chunks.max(1);
    let mut rng = Lcg::new(seed);
    let base = total / chunks;
    let extra = total % chunks;
    let mut out = Vec::with_capacity(chunks);
    for i in 0..chunks {
        let len = base + usize::from(i < extra);
        let items: Vec<String> = (0..len).map(|_| rng.below(bound).to_string()).collect();
        out.push(format!("[{}]", items.join(",")));
    }
    format!("[{}]", out.join(","))
}

/// An `n × n` matrix of small integers in Prolog list-of-rows syntax.
pub fn matrix(n: usize, seed: u64) -> String {
    let mut rng = Lcg::new(seed);
    let rows: Vec<String> = (0..n)
        .map(|_| {
            let row: Vec<String> = (0..n).map(|_| rng.below(10).to_string()).collect();
            format!("[{}]", row.join(","))
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// A complete binary tree of the given depth with integer leaves, as a
/// `node/2` / `leaf/1` term.
pub fn full_tree(depth: usize, seed: u64) -> String {
    fn go(depth: usize, rng: &mut Lcg) -> String {
        if depth == 0 {
            format!("leaf({})", rng.below(100))
        } else {
            let left = go(depth - 1, rng);
            let right = go(depth - 1, rng);
            format!("node({left},{right})")
        }
    }
    let mut rng = Lcg::new(seed);
    go(depth, &mut rng)
}

/// A list of `n` complex points `c(Re, 0.0)` with pseudo-random real parts.
pub fn complex_points(n: usize, seed: u64) -> String {
    let mut rng = Lcg::new(seed);
    let items: Vec<String> = (0..n)
        .map(|_| format!("c({}.0,0.0)", rng.below(16)))
        .collect();
    format!("[{}]", items.join(","))
}

/// A convex-ish polygon with `vertices` vertices as a list of `v(X, Y)` terms
/// (a scaled dodecagon-like ring; exact geometry is irrelevant, the benchmark
/// only needs a fixed edge list).
pub fn polygon(vertices: usize, radius: i64) -> String {
    let v: Vec<String> = (0..vertices.max(3))
        .map(|i| {
            let angle = i as f64 / vertices.max(3) as f64 * std::f64::consts::TAU;
            let x = (angle.cos() * radius as f64).round() as i64;
            let y = (angle.sin() * radius as f64).round() as i64;
            format!("v({x},{y})")
        })
        .collect();
    format!("[{}]", v.join(","))
}

/// A list of `n` query points `p(X, Y)` scattered over a square of the given
/// half-width.
pub fn points(n: usize, half_width: u64, seed: u64) -> String {
    let mut rng = Lcg::new(seed);
    let items: Vec<String> = (0..n)
        .map(|_| {
            let x = rng.below(2 * half_width) as i64 - half_width as i64;
            let y = rng.below(2 * half_width) as i64 - half_width as i64;
            format!("p({x},{y})")
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// A list of `sets` item sets (lists of small integers) for the LR(1)-set
/// benchmark.
pub fn item_sets(sets: usize, items_per_set: usize, seed: u64) -> String {
    let mut rng = Lcg::new(seed);
    let out: Vec<String> = (0..sets)
        .map(|_| {
            let items: Vec<String> = (0..items_per_set)
                .map(|_| rng.below(97).to_string())
                .collect();
            format!("[{}]", items.join(","))
        })
        .collect();
    format!("[{}]", out.join(","))
}

/// Shared scaffolding for the attack-graph topologies: `host/1` facts for
/// `n` hosts, seeded `vuln/1` facts with the given density (out of 8), and
/// an `entry(h0)` foothold.
fn attack_preamble(n: usize, vuln_in_8: u64, rng: &mut Lcg, out: &mut String) {
    use std::fmt::Write;
    for i in 0..n {
        let _ = writeln!(out, "host(h{i}).");
    }
    for i in 0..n {
        if rng.below(8) < vuln_in_8 {
            let _ = writeln!(out, "vuln(h{i}).");
        }
    }
    out.push_str("entry(h0).\n");
}

/// Star attack-graph topology: hub `h0` links to every spoke, except that
/// roughly one spoke in eight is left off-network (no incoming link), so
/// `safe/1` has answers. Facts only — combine with `attack_graph.pl`.
pub fn attack_star(n: usize, seed: u64) -> String {
    use std::fmt::Write;
    let n = n.max(2);
    let mut rng = Lcg::new(seed);
    let mut out = String::new();
    attack_preamble(n, 4, &mut rng, &mut out);
    for i in 1..n {
        if rng.below(8) != 0 {
            let _ = writeln!(out, "link(h0, h{i}).");
        }
    }
    out
}

/// Chain attack-graph topology: `h0 -> h1 -> ... -> h(n-1)`. Ownership
/// propagates until the first non-vulnerable host breaks the chain, which
/// exercises the deepest fixpoints (one semi-naive round per hop). Facts
/// only — combine with `attack_graph.pl`.
pub fn attack_chain(n: usize, seed: u64) -> String {
    use std::fmt::Write;
    let n = n.max(2);
    let mut rng = Lcg::new(seed);
    let mut out = String::new();
    attack_preamble(n, 6, &mut rng, &mut out);
    for i in 1..n {
        let _ = writeln!(out, "link(h{}, h{i}).", i - 1);
    }
    out
}

/// Random-cut attack-graph topology: two random DAG clusters (left half,
/// right half) joined by a handful of cut edges from the left into the
/// right. Every edge goes from a lower to a higher host index, so the
/// graph is acyclic by construction (which keeps ground SLD queries over
/// the ruleset terminating). Roughly one host in eight gets no incoming
/// link at all, so the `safe/1` stratum has work to do. Facts only —
/// combine with `attack_graph.pl`.
pub fn attack_cut(n: usize, seed: u64) -> String {
    use std::fmt::Write;
    let n = n.max(4);
    let mut rng = Lcg::new(seed);
    let mut out = String::new();
    attack_preamble(n, 4, &mut rng, &mut out);
    let mid = n / 2;
    // Intra-cluster DAG edges: each host (past its cluster's root) picks
    // one or two predecessors among the earlier hosts of its own cluster.
    for (lo, hi) in [(0, mid), (mid, n)] {
        for i in (lo + 1)..hi {
            if rng.below(8) == 0 {
                continue; // isolated host — a `safe/1` candidate
            }
            for _ in 0..=rng.below(2) {
                let pred = lo + rng.below((i - lo) as u64) as usize;
                let _ = writeln!(out, "link(h{pred}, h{i}).");
            }
        }
    }
    // The cut: a few left-to-right edges.
    for _ in 0..(n / 32).max(1) {
        let from = rng.below(mid as u64) as usize;
        let to = mid + rng.below((n - mid) as u64) as usize;
        let _ = writeln!(out, "link(h{from}, h{to}).");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use granlog_ir::parser::parse_term;
    use granlog_ir::AsTerm;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(int_list(5, 100, 42), int_list(5, 100, 42));
        assert_ne!(int_list(5, 100, 42), int_list(5, 100, 43));
        assert_eq!(matrix(3, 7), matrix(3, 7));
    }

    #[test]
    fn generated_terms_parse() {
        for src in [
            int_list(10, 100, 1),
            list_of_lists(20, 4, 50, 2),
            matrix(4, 3),
            full_tree(3, 4),
            complex_points(4, 5),
            polygon(12, 100),
            points(5, 50, 6),
            item_sets(3, 4, 7),
        ] {
            let parsed = parse_term(&src);
            assert!(parsed.is_ok(), "failed to parse generated term: {src}");
        }
    }

    #[test]
    fn int_list_has_requested_length() {
        let (t, _) = parse_term(&int_list(17, 10, 9)).unwrap();
        assert_eq!(t.list_length(), Some(17));
        let (t, _) = parse_term(&int_list(0, 10, 9)).unwrap();
        assert_eq!(t.list_length(), Some(0));
    }

    #[test]
    fn list_of_lists_totals_match() {
        let (t, _) = parse_term(&list_of_lists(37, 5, 10, 1)).unwrap();
        let outer = t.as_list().unwrap();
        assert_eq!(outer.len(), 5);
        let total: usize = outer.iter().map(|l| l.list_length().unwrap()).sum();
        assert_eq!(total, 37);
    }

    #[test]
    fn tree_depth_matches() {
        let (t, _) = parse_term(&full_tree(4, 1)).unwrap();
        assert_eq!(t.term_depth(), 4 + 1); // leaf(V) adds one level
    }

    #[test]
    fn polygon_has_requested_vertices() {
        let (t, _) = parse_term(&polygon(30, 100)).unwrap();
        assert_eq!(t.list_length(), Some(30));
    }

    #[test]
    fn lcg_below_respects_bound() {
        let mut rng = Lcg::new(123);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
        assert_eq!(Lcg::new(1).below(0), 0);
    }

    #[test]
    fn attack_topologies_are_deterministic_facts() {
        for (gen, name) in [
            (attack_star as fn(usize, u64) -> String, "star"),
            (attack_chain, "chain"),
            (attack_cut, "cut"),
        ] {
            assert_eq!(gen(50, 7), gen(50, 7), "{name} not deterministic");
            let program = granlog_ir::parser::parse_program(&gen(50, 7))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            // Facts only: every clause has an empty body.
            assert!(program.clauses().iter().all(|c| c.is_fact()), "{name}");
            assert!(gen(50, 7).contains("entry(h0)."), "{name}");
            assert_eq!(gen(50, 7).matches("host(").count(), 50, "{name}");
        }
    }

    #[test]
    fn attack_chain_links_every_hop() {
        let facts = attack_chain(40, 11);
        assert_eq!(facts.matches("link(").count(), 39);
        assert!(facts.contains("link(h38, h39)."));
    }

    #[test]
    fn attack_cut_is_acyclic() {
        // Every link goes from a lower to a higher host index.
        for line in attack_cut(96, 5).lines() {
            if let Some(rest) = line.strip_prefix("link(h") {
                let (from, rest) = rest.split_once(", h").unwrap();
                let to = rest.strip_suffix(").").unwrap();
                assert!(
                    from.parse::<usize>().unwrap() < to.parse::<usize>().unwrap(),
                    "backward edge: {line}"
                );
            }
        }
    }
}
