//! The benchmark registry: the twelve programs of the paper's Tables 1 and 2,
//! plus the Appendix's `nrev` example.

use crate::generate;
use granlog_ir::{parser::parse_program, ParseError, Program};

/// A benchmark: a Prolog program (annotated with `&` parallel conjunctions)
/// plus a query generator parameterised by a single "size".
#[derive(Debug, Clone, Copy)]
pub struct Benchmark {
    /// Short name (matches the paper's tables, e.g. `"fib"`).
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// The Prolog source text.
    pub source: &'static str,
    /// The size used in the paper's tables (e.g. 15 for `fib(15)`).
    pub default_size: usize,
    /// Builds the query string for a given size.
    query: fn(usize) -> String,
    /// Smaller size suitable for unit/integration tests.
    pub test_size: usize,
}

impl Benchmark {
    /// Parses the benchmark's program.
    ///
    /// # Errors
    ///
    /// Returns the parse error if the embedded source is malformed (a bug).
    pub fn program(&self) -> Result<Program, ParseError> {
        parse_program(self.source)
    }

    /// The query string for the given input size.
    pub fn query(&self, size: usize) -> String {
        (self.query)(size)
    }

    /// The query string at the paper's default size.
    pub fn default_query(&self) -> String {
        self.query(self.default_size)
    }

    /// The paper's label for this entry, e.g. `fib(15)`.
    pub fn label(&self) -> String {
        format!("{}({})", self.name, self.default_size)
    }
}

fn fib_query(n: usize) -> String {
    format!("fib({n}, Result)")
}

fn hanoi_query(n: usize) -> String {
    format!("hanoi({n}, a, b, c, Moves)")
}

fn quick_sort_query(n: usize) -> String {
    format!("qsort({}, Sorted)", generate::int_list(n, 1000, 7))
}

fn merge_sort_query(n: usize) -> String {
    format!("msort({}, Sorted)", generate::int_list(n, 1000, 11))
}

fn double_sum_query(total: usize) -> String {
    let chunks = (total / 32).max(1);
    format!(
        "double_sum({}, Sum)",
        generate::list_of_lists(total, chunks, 100, 13)
    )
}

fn matrix_query(n: usize) -> String {
    format!(
        "mmult({}, {}, Product)",
        generate::matrix(n, 17),
        generate::matrix(n, 19)
    )
}

fn tree_query(depth: usize) -> String {
    format!("tsum({}, Sum)", generate::full_tree(depth, 23))
}

fn flatten_query(total: usize) -> String {
    let chunks = (total / 4).max(1);
    format!(
        "flat({}, Flat)",
        generate::list_of_lists(total, chunks, 100, 29)
    )
}

fn consistency_query(n: usize) -> String {
    format!("consistent({})", generate::int_list(n, 1000, 31))
}

fn fft_query(n: usize) -> String {
    format!("fft({}, Spectrum)", generate::complex_points(n, 37))
}

fn poly_query(vertices: usize) -> String {
    format!(
        "poly_inclusion({}, {}, Results)",
        generate::points(40, 120, 41),
        generate::polygon(vertices, 100)
    )
}

fn lr1_query(rounds: usize) -> String {
    format!(
        "lr_sets({rounds}, {}, Sets)",
        generate::item_sets(12, 6, 43)
    )
}

fn nrev_query(n: usize) -> String {
    format!("nrev({}, Reversed)", generate::int_list(n, 100, 47))
}

fn cut_search_query(n: usize) -> String {
    // A small value range forces many duplicates, so memb/2's cut commits
    // (and prunes) on most elements.
    format!("dedup({}, Unique)", generate::int_list(n, 25, 53))
}

fn ite_dispatch_query(n: usize) -> String {
    format!(
        "collatz_lens({}, Lens)",
        generate::pos_int_list(n, 5000, 59)
    )
}

/// All benchmarks of the paper's Table 1, in the paper's order.
pub fn all_benchmarks() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "consistency",
            description: "independent consistency checks over a constraint list",
            source: include_str!("../programs/consistency.pl"),
            default_size: 500,
            query: consistency_query,
            test_size: 40,
        },
        Benchmark {
            name: "fib",
            description: "doubly recursive Fibonacci",
            source: include_str!("../programs/fib.pl"),
            default_size: 15,
            query: fib_query,
            test_size: 10,
        },
        Benchmark {
            name: "hanoi",
            description: "towers of Hanoi producing the move list",
            source: include_str!("../programs/hanoi.pl"),
            default_size: 6,
            query: hanoi_query,
            test_size: 4,
        },
        Benchmark {
            name: "quick_sort",
            description: "quicksort with parallel recursive calls",
            source: include_str!("../programs/quick_sort.pl"),
            default_size: 75,
            query: quick_sort_query,
            test_size: 20,
        },
        Benchmark {
            name: "lr1_set",
            description: "LR(1)-style item-set closure rounds",
            source: include_str!("../programs/lr1_set.pl"),
            default_size: 3,
            query: lr1_query,
            test_size: 1,
        },
        Benchmark {
            name: "double_sum",
            description: "sum of the sums of a list of lists",
            source: include_str!("../programs/double_sum.pl"),
            default_size: 2048,
            query: double_sum_query,
            test_size: 64,
        },
        Benchmark {
            name: "fft",
            description: "radix-2 FFT over complex points",
            source: include_str!("../programs/fft.pl"),
            default_size: 256,
            query: fft_query,
            test_size: 16,
        },
        Benchmark {
            name: "flatten",
            description: "concatenation of many short lists",
            source: include_str!("../programs/flatten.pl"),
            default_size: 536,
            query: flatten_query,
            test_size: 40,
        },
        Benchmark {
            name: "matrix_mult",
            description: "matrix multiplication with row-level parallelism",
            source: include_str!("../programs/matrix_mult.pl"),
            default_size: 8,
            query: matrix_query,
            test_size: 4,
        },
        Benchmark {
            name: "merge_sort",
            description: "merge sort with parallel recursive calls",
            source: include_str!("../programs/merge_sort.pl"),
            default_size: 128,
            query: merge_sort_query,
            test_size: 24,
        },
        Benchmark {
            name: "poly_inclusion",
            description: "point-in-polygon classification",
            source: include_str!("../programs/poly_inclusion.pl"),
            default_size: 30,
            query: poly_query,
            test_size: 8,
        },
        Benchmark {
            name: "tree_traversal",
            description: "binary tree traversal summing the leaves",
            source: include_str!("../programs/tree_traversal.pl"),
            default_size: 8,
            query: tree_query,
            test_size: 4,
        },
    ]
}

/// The `nrev` program of the paper's Appendix A (not part of the tables).
pub fn nrev_benchmark() -> Benchmark {
    Benchmark {
        name: "nrev",
        description: "naive reverse (the Appendix A worked example)",
        source: include_str!("../programs/nrev.pl"),
        default_size: 30,
        query: nrev_query,
        test_size: 10,
    }
}

/// Control-construct benchmarks (not part of the paper's tables): programs
/// dominated by cut-driven pruning and if-then-else dispatch, so the
/// engine's compiled-control path is in every corpus-wide suite.
pub fn control_benchmarks() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "cut_search",
            description: "list deduplication with cut-committed membership search",
            source: include_str!("../programs/cut_search.pl"),
            default_size: 400,
            query: cut_search_query,
            test_size: 30,
        },
        Benchmark {
            name: "ite_dispatch",
            description: "Collatz trajectory lengths via if-then-else dispatch",
            source: include_str!("../programs/ite_dispatch.pl"),
            default_size: 40,
            query: ite_dispatch_query,
            test_size: 6,
        },
    ]
}

/// The shared attack-graph ruleset (`owned/1`, `reach/1`, `safe/1`,
/// `frontier/1`, `exposed/1` over `host/1`, `link/2`, `vuln/1`, `entry/1`).
///
/// Pure stratified Datalog: the same source runs under SLD resolution and
/// under the bottom-up engine, which is what makes the family a
/// differential oracle. See `programs/attack_graph.pl`.
pub const ATTACK_RULES: &str = include_str!("../programs/attack_graph.pl");

/// A Datalog benchmark: the attack-graph ruleset over a generated topology
/// parameterised by host count.
///
/// Unlike [`Benchmark`], the *program* (not the query) scales with size —
/// bottom-up evaluation is set-at-a-time, so the workload is the fact base.
/// The interesting queries are the fixed open goals of [`Self::queries`].
#[derive(Debug, Clone, Copy)]
pub struct DatalogBenchmark {
    /// Short name (`attack_star`, `attack_chain`, `attack_cut`).
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Generates the topology's facts for a given host count.
    topology: fn(usize, u64) -> String,
    /// Seed for the topology generator (fixed per family).
    pub seed: u64,
    /// Host count the counter oracle pins (thousands of hosts).
    pub default_size: usize,
    /// Smaller host count suitable for the differential test suite.
    pub test_size: usize,
}

impl DatalogBenchmark {
    /// The full program source at the given host count: the shared ruleset
    /// followed by the generated topology facts.
    pub fn source(&self, size: usize) -> String {
        format!("{ATTACK_RULES}\n{}", (self.topology)(size, self.seed))
    }

    /// Parses the benchmark's program at the given host count.
    ///
    /// # Errors
    ///
    /// Returns the parse error if the generated source is malformed (a bug).
    pub fn program(&self, size: usize) -> Result<Program, ParseError> {
        parse_program(&self.source(size))
    }

    /// The open queries every instance answers — one per IDB predicate.
    pub fn queries() -> &'static [&'static str] {
        &[
            "owned(X)",
            "reach(X)",
            "safe(X)",
            "frontier(X)",
            "exposed(X)",
        ]
    }

    /// The label at the default size, e.g. `attack_chain(2000)`.
    pub fn label(&self) -> String {
        format!("{}({})", self.name, self.default_size)
    }
}

/// The attack-graph benchmark family (kept separate from
/// [`all_benchmarks`], which is pinned to the paper's twelve programs).
pub fn datalog_benchmarks() -> Vec<DatalogBenchmark> {
    vec![
        DatalogBenchmark {
            name: "attack_star",
            description: "hub-and-spoke topology: wide single-round joins",
            topology: generate::attack_star,
            seed: 61,
            default_size: 4000,
            test_size: 48,
        },
        DatalogBenchmark {
            name: "attack_chain",
            description: "line topology: one semi-naive round per hop",
            topology: generate::attack_chain,
            seed: 67,
            default_size: 2000,
            test_size: 48,
        },
        DatalogBenchmark {
            name: "attack_cut",
            description: "two random DAG clusters joined by a sparse cut",
            topology: generate::attack_cut,
            seed: 71,
            default_size: 3000,
            test_size: 64,
        },
    ]
}

/// Looks a Datalog benchmark up by name.
pub fn datalog_benchmark(name: &str) -> Option<DatalogBenchmark> {
    datalog_benchmarks().into_iter().find(|b| b.name == name)
}

/// The small static attack-graph instances shipped next to the ruleset,
/// as `(name, full source)` pairs — handy as fixed CLI/serve examples and
/// as hand-checkable oracle inputs.
pub fn attack_instances() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "attack_star",
            concat!(
                include_str!("../programs/attack_graph.pl"),
                "\n",
                include_str!("../programs/attack_star.pl")
            ),
        ),
        (
            "attack_chain",
            concat!(
                include_str!("../programs/attack_graph.pl"),
                "\n",
                include_str!("../programs/attack_chain.pl")
            ),
        ),
        (
            "attack_cut",
            concat!(
                include_str!("../programs/attack_graph.pl"),
                "\n",
                include_str!("../programs/attack_cut.pl")
            ),
        ),
    ]
}

/// The subset of benchmarks used for the paper's Table 2 (&-Prolog).
pub fn table2_benchmarks() -> Vec<Benchmark> {
    all_benchmarks()
        .into_iter()
        .filter(|b| matches!(b.name, "consistency" | "fib" | "hanoi" | "quick_sort"))
        .collect()
}

/// Looks a benchmark up by name (paper tables, `nrev`, and the
/// control-construct extras).
pub fn benchmark(name: &str) -> Option<Benchmark> {
    all_benchmarks()
        .into_iter()
        .chain(std::iter::once(nrev_benchmark()))
        .chain(control_benchmarks())
        .find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_the_paper() {
        let all = all_benchmarks();
        assert_eq!(all.len(), 12);
        let labels: Vec<String> = all.iter().map(Benchmark::label).collect();
        for expected in [
            "consistency(500)",
            "fib(15)",
            "hanoi(6)",
            "quick_sort(75)",
            "lr1_set(3)",
            "double_sum(2048)",
            "fft(256)",
            "flatten(536)",
            "matrix_mult(8)",
            "merge_sort(128)",
            "poly_inclusion(30)",
            "tree_traversal(8)",
        ] {
            assert!(labels.contains(&expected.to_string()), "missing {expected}");
        }
        assert_eq!(table2_benchmarks().len(), 4);
    }

    #[test]
    fn every_program_parses() {
        for b in all_benchmarks()
            .iter()
            .chain(std::iter::once(&nrev_benchmark()))
            .chain(control_benchmarks().iter())
        {
            let program = b.program().unwrap_or_else(|e| panic!("{}: {e}", b.name));
            assert!(!program.is_empty(), "{} has no clauses", b.name);
        }
    }

    #[test]
    fn control_benchmarks_use_real_control() {
        let extras = control_benchmarks();
        assert_eq!(extras.len(), 2);
        let cut = benchmark("cut_search").unwrap();
        assert!(cut.source.contains('!'), "cut_search must contain cuts");
        let ite = benchmark("ite_dispatch").unwrap();
        assert!(ite.source.contains("->"), "ite_dispatch must use ->");
        for b in &extras {
            assert!(granlog_ir::parser::parse_term(&b.query(b.test_size)).is_ok());
        }
    }

    #[test]
    fn every_query_parses() {
        for b in all_benchmarks() {
            let q = b.query(b.test_size);
            assert!(
                granlog_ir::parser::parse_term(&q).is_ok(),
                "{}: query does not parse: {q}",
                b.name
            );
        }
    }

    #[test]
    fn every_table1_program_contains_parallelism() {
        for b in all_benchmarks() {
            assert!(
                b.source.contains('&'),
                "{} has no parallel conjunction",
                b.name
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(benchmark("fib").is_some());
        assert!(benchmark("nrev").is_some());
        assert!(benchmark("does_not_exist").is_none());
    }

    #[test]
    fn datalog_family_generates_parsing_programs() {
        let family = datalog_benchmarks();
        assert_eq!(family.len(), 3);
        for b in &family {
            let program = b
                .program(b.test_size)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            assert!(!program.is_empty(), "{}", b.name);
            // The source is the shared ruleset plus facts: all five IDB
            // predicates are defined.
            for pred in ["owned", "reach", "safe", "frontier", "exposed"] {
                assert!(
                    program
                        .clauses_of(granlog_ir::PredId::parse(pred, 1))
                        .iter()
                        .any(|c| !c.is_fact()),
                    "{}: missing rule for {pred}/1",
                    b.name
                );
            }
            assert!(b.default_size >= 2000, "{}: family must scale", b.name);
            assert!(datalog_benchmark(b.name).is_some());
        }
        for q in DatalogBenchmark::queries() {
            assert!(granlog_ir::parser::parse_term(q).is_ok(), "{q}");
        }
    }

    #[test]
    fn datalog_generators_are_deterministic() {
        let b = datalog_benchmark("attack_cut").unwrap();
        assert_eq!(b.source(100), b.source(100));
        assert_eq!(b.label(), "attack_cut(3000)");
    }

    #[test]
    fn static_attack_instances_parse_and_embed_the_ruleset() {
        let instances = attack_instances();
        assert_eq!(instances.len(), 3);
        for (name, source) in instances {
            assert!(source.starts_with(ATTACK_RULES), "{name}");
            let program = parse_program(source).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!program.is_empty(), "{name}");
            assert!(source.contains("entry(h0)."), "{name}");
        }
    }
}
