//! The fifteen suite programs as operation classes: where their source comes
//! from and how a seeded goal of a given size is written. Inputs come from the
//! suite's public `generate::*` functions; the program under test only ever
//! sees the resulting text, and so does the reference ([`crate::reference`]).

use crate::rng::Rng;
use granlog_benchmarks::generate;

/// The 12 Table-1 programs, the Appendix's `nrev`, and the two
/// control-construct extras, in the suite's order.
pub const SUITE: [&str; 15] = [
    "consistency",
    "fib",
    "hanoi",
    "quick_sort",
    "lr1_set",
    "double_sum",
    "fft",
    "flatten",
    "matrix_mult",
    "merge_sort",
    "poly_inclusion",
    "tree_traversal",
    "nrev",
    "cut_search",
    "ite_dispatch",
];

/// Inputs per class and round. A class's cost depends on its input's values
/// (pivot luck, duplicate density, Collatz lengths), so each class cycles
/// through a few seeded inputs instead of betting the round on one. The count
/// is odd so that the class's median latency is the middle input's latency,
/// not a coin toss between two inputs either side of the middle.
pub const VARIANTS: usize = 5;

fn entry(name: &str) -> granlog_benchmarks::Benchmark {
    granlog_benchmarks::benchmark(name).unwrap_or_else(|| panic!("no suite program `{name}`"))
}

pub fn source(name: &str) -> &'static str {
    entry(name).source
}

/// The size the paper's tables use (`fib(15)`, `hanoi(6)`, ...).
pub fn paper_size(name: &str) -> usize {
    entry(name).default_size
}

/// The suite's small size, used for served queries and `--smoke`.
pub fn test_size(name: &str) -> usize {
    entry(name).test_size
}

/// A goal of `program` at `size` whose list/matrix/tree inputs are drawn from
/// `seed`. Shapes (value ranges, chunking) follow the suite's own queries;
/// output variables carry the names [`crate::reference::expect`] reports.
pub fn goal(program: &str, size: usize, seed: u64) -> String {
    let n = size;
    match program {
        "consistency" => format!("consistent({})", generate::int_list(n, 1000, seed)),
        "fib" => format!("fib({n}, Result)"),
        "hanoi" => format!("hanoi({n}, a, b, c, Moves)"),
        "quick_sort" => format!("qsort({}, Sorted)", generate::int_list(n, 1000, seed)),
        "merge_sort" => format!("msort({}, Sorted)", generate::int_list(n, 1000, seed)),
        "lr1_set" => format!("lr_sets({n}, {}, Sets)", generate::item_sets(12, 6, seed)),
        "double_sum" => format!(
            "double_sum({}, Sum)",
            generate::list_of_lists(n, (n / 32).max(1), 100, seed)
        ),
        "fft" => format!("fft({}, Spectrum)", generate::complex_points(n, seed)),
        "flatten" => format!(
            "flat({}, Flat)",
            generate::list_of_lists(n, (n / 4).max(1), 100, seed)
        ),
        "matrix_mult" => format!(
            "mmult({}, {}, Product)",
            generate::matrix(n, seed),
            generate::matrix(n, seed ^ 0x5bd1_e995)
        ),
        "poly_inclusion" => format!(
            "poly_inclusion({}, {}, Results)",
            generate::points(40, 120, seed),
            generate::polygon(n, 100)
        ),
        "tree_traversal" => format!("tsum({}, Sum)", generate::full_tree(n, seed)),
        "nrev" => format!("nrev({}, Reversed)", generate::int_list(n, 100, seed)),
        "cut_search" => format!("dedup({}, Unique)", generate::int_list(n, 25, seed)),
        "ite_dispatch" => format!(
            "collatz_lens({}, Lens)",
            generate::pos_int_list(n, 5000, seed)
        ),
        other => panic!("no goal writer for program `{other}`"),
    }
}

/// The [`VARIANTS`] goals of one class for a round.
pub fn goals(program: &str, size: usize, rng: &Rng) -> Vec<String> {
    let class = SUITE
        .iter()
        .position(|p| *p == program)
        .expect("suite program") as u64;
    let mut seeds = rng.fork(0x60a1 + class);
    (0..VARIANTS)
        .map(|_| goal(program, size, seeds.next_u64()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{expect, Expect};

    #[test]
    fn every_suite_program_has_a_source_a_goal_and_a_reference() {
        let rng = Rng::new(1);
        for name in SUITE {
            assert!(!source(name).is_empty(), "{name}");
            assert!(test_size(name) <= paper_size(name), "{name}");
            let goals = goals(name, test_size(name), &rng);
            assert_eq!(goals.len(), VARIANTS, "{name}");
            for goal in &goals {
                match expect(name, goal) {
                    Expect::Bindings(b) => assert!(b.len() <= 1, "{name}"),
                    Expect::Spectrum(s) => assert_eq!(s.len(), test_size(name), "{name}"),
                }
            }
        }
    }

    #[test]
    fn goals_are_a_function_of_the_seed() {
        let a = goals("quick_sort", 20, &Rng::new(5));
        assert_eq!(a, goals("quick_sort", 20, &Rng::new(5)));
        assert_ne!(a, goals("quick_sort", 20, &Rng::new(6)));
        assert_ne!(a[0], a[1], "variants of one class differ");
        // Classes draw from independent streams.
        assert_ne!(
            crate::reference::ints(&a[0]),
            crate::reference::ints(&goals("merge_sort", 20, &Rng::new(5))[0])
        );
    }
}
