//! Reference answers computed in plain Rust, independent of every crate under
//! test: they read the same generated *text* the program receives (the goal,
//! or the attack-graph facts) and never call the parser, the engines or the
//! analysis. A wrong answer from the system can therefore not also be the
//! expected answer.

use std::collections::BTreeSet;

/// What a correct reply to a goal looks like.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// The goal succeeds with exactly these `(variable, rendered term)`
    /// bindings, in this order.
    Bindings(Vec<(&'static str, String)>),
    /// The goal succeeds binding `Spectrum` to a list of `c(Re, Im)` within
    /// [`SPECTRUM_TOLERANCE`] of these values (floating point: the program
    /// and the reference sum in different orders).
    Spectrum(Vec<(f64, f64)>),
}

const SPECTRUM_TOLERANCE: f64 = 1e-6;

impl Expect {
    /// Does a reply (`succeeded` plus rendered bindings) match?
    pub fn matches<'a>(
        &self,
        succeeded: bool,
        bindings: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> bool {
        if !succeeded {
            return false;
        }
        let got: Vec<(&str, &str)> = bindings.into_iter().collect();
        match self {
            Expect::Bindings(want) => {
                got.len() == want.len()
                    && got
                        .iter()
                        .zip(want)
                        .all(|((gn, gv), (wn, wv))| gn == wn && gv == wv)
            }
            Expect::Spectrum(want) => {
                let [("Spectrum", text)] = got[..] else {
                    return false;
                };
                let flat = floats(text);
                flat.len() == 2 * want.len()
                    && text.matches("c(").count() == want.len()
                    && flat.chunks(2).zip(want).all(|(g, (re, im))| {
                        let near =
                            |a: f64, b: f64| (a - b).abs() <= SPECTRUM_TOLERANCE * b.abs().max(1.0);
                        near(g[0], *re) && near(g[1], *im)
                    })
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reading numbers back out of generated text.

/// Every number in `text`, in order. Identifiers never contain digits in the
/// generated goals, so a digit (or a `-` directly before one) starts a number.
fn floats(text: &str) -> Vec<f64> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let negative = bytes[i] == b'-' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit);
        if bytes[i].is_ascii_digit() || negative {
            let start = i;
            i += 1;
            while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
                i += 1;
            }
            out.push(text[start..i].parse().unwrap_or(f64::NAN));
        } else {
            i += 1;
        }
    }
    out
}

/// Every integer in `text`, in order.
pub fn ints(text: &str) -> Vec<i64> {
    floats(text).into_iter().map(|x| x as i64).collect()
}

/// The innermost integer lists of `text`, in order: `[[1,2],[3]]` gives
/// `[[1,2],[3]]`, and two matrices side by side give all their rows.
pub fn int_rows(text: &str) -> Vec<Vec<i64>> {
    let mut rows = Vec::new();
    let mut start = None;
    for (i, ch) in text.char_indices() {
        match ch {
            '[' => start = Some(i + 1),
            ']' => {
                if let Some(s) = start.take() {
                    rows.push(ints(&text[s..i]));
                }
            }
            _ => {}
        }
    }
    rows
}

/// The text of the goal's `n`-th top-level argument (0-based).
fn argument(goal: &str, n: usize) -> &str {
    let open = goal.find('(').map_or(0, |i| i + 1);
    let body = &goal[open..goal.rfind(')').unwrap_or(goal.len())];
    let mut depth = 0usize;
    let mut start = 0;
    let mut index = 0;
    for (i, ch) in body.char_indices() {
        match ch {
            '[' | '(' => depth += 1,
            ']' | ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                if index == n {
                    return body[start..i].trim();
                }
                index += 1;
                start = i + 1;
            }
            _ => {}
        }
    }
    if index == n {
        body[start..].trim()
    } else {
        ""
    }
}

fn render_list<T: std::fmt::Display>(items: &[T]) -> String {
    let parts: Vec<String> = items.iter().map(T::to_string).collect();
    format!("[{}]", parts.join(","))
}

fn render_rows(rows: &[Vec<i64>]) -> String {
    let parts: Vec<String> = rows.iter().map(|r| render_list(r)).collect();
    format!("[{}]", parts.join(","))
}

// ---------------------------------------------------------------------------
// The closed forms.

pub fn fib(n: u64) -> u64 {
    let (mut a, mut b) = (0u64, 1u64);
    for _ in 0..n {
        (a, b) = (b, a + b);
    }
    a
}

/// The `2^n - 1` moves of `hanoi(n, From, To, Via, Moves)`, rendered.
pub fn hanoi_moves(n: u32, from: &str, to: &str, via: &str, out: &mut Vec<String>) {
    if n == 0 {
        return;
    }
    hanoi_moves(n - 1, from, via, to, out);
    out.push(format!("mv({from},{to})"));
    hanoi_moves(n - 1, via, to, from, out);
}

/// Steps for `n >= 1` to reach 1 under `n -> n/2 | 3n+1`.
pub fn collatz_len(mut n: i64) -> i64 {
    let mut steps = 0;
    while n != 1 {
        n = if n % 2 == 0 { n / 2 } else { 3 * n + 1 };
        steps += 1;
    }
    steps
}

/// First occurrences, in order.
pub fn dedup_first(items: &[i64]) -> Vec<i64> {
    let mut seen = BTreeSet::new();
    items.iter().copied().filter(|x| seen.insert(*x)).collect()
}

/// `C[i][j] = A[i] . Bt[j]`: the second matrix arrives as a list of columns.
pub fn matrix_product(a: &[Vec<i64>], bt: &[Vec<i64>]) -> Vec<Vec<i64>> {
    a.iter()
        .map(|row| {
            bt.iter()
                .map(|col| row.iter().zip(col).map(|(x, y)| x * y).sum())
                .collect()
        })
        .collect()
}

/// `rounds` applications of the item automaton `i -> (31 i + 17) mod 97`.
pub fn lr_closure(rounds: u32, sets: &[Vec<i64>]) -> Vec<Vec<i64>> {
    sets.iter()
        .map(|set| {
            set.iter()
                .map(|&item| (0..rounds).fold(item, |i, _| (i * 31 + 17) % 97))
                .collect()
        })
        .collect()
}

/// Crossing-number parity of a rightward ray from each point against the
/// polygon's edge list as given (consecutive vertices; the ring is not
/// closed, exactly as `edge_count/4` walks it).
pub fn points_inside(points: &[(i64, i64)], polygon: &[(i64, i64)]) -> Vec<bool> {
    points
        .iter()
        .map(|&(x, y)| {
            let crossings = polygon
                .windows(2)
                .filter(|edge| {
                    let ((x1, y1), (x2, y2)) = (edge[0], edge[1]);
                    let spans = (y1 <= y && y2 > y) || (y2 <= y && y1 > y);
                    spans && x1 + x2 > 2 * x
                })
                .count();
            crossings % 2 == 1
        })
        .collect()
}

/// The discrete Fourier transform `X[k] = sum_n x[n] e^{-2 pi i k n / N}`,
/// by the definition (quadratic, and obviously right).
pub fn dft(points: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let n = points.len();
    (0..n)
        .map(|k| {
            points
                .iter()
                .enumerate()
                .fold((0.0, 0.0), |(re, im), (j, &(xr, xi))| {
                    let angle = -std::f64::consts::TAU * ((k * j) % n) as f64 / n as f64;
                    let (s, c) = angle.sin_cos();
                    (re + xr * c - xi * s, im + xr * s + xi * c)
                })
        })
        .collect()
}

fn pairs(values: &[i64]) -> Vec<(i64, i64)> {
    values.chunks_exact(2).map(|c| (c[0], c[1])).collect()
}

/// The expected reply to `goal`, a goal of the suite program `program`. The
/// output variable names are the ones [`crate::cases::goal`] writes.
pub fn expect(program: &str, goal: &str) -> Expect {
    let one = |name: &'static str, value: String| Expect::Bindings(vec![(name, value)]);
    match program {
        "consistency" => Expect::Bindings(Vec::new()),
        "fib" => one("Result", fib(ints(goal)[0] as u64).to_string()),
        "hanoi" => {
            let mut moves = Vec::new();
            hanoi_moves(ints(goal)[0] as u32, "a", "b", "c", &mut moves);
            one("Moves", render_list(&moves))
        }
        "quick_sort" | "merge_sort" => {
            let mut items = ints(argument(goal, 0));
            items.sort_unstable();
            one("Sorted", render_list(&items))
        }
        "lr1_set" => {
            let rounds = ints(argument(goal, 0))[0] as u32;
            one(
                "Sets",
                render_rows(&lr_closure(rounds, &int_rows(argument(goal, 1)))),
            )
        }
        "double_sum" => one(
            "Sum",
            ints(argument(goal, 0)).iter().sum::<i64>().to_string(),
        ),
        "tree_traversal" => one(
            "Sum",
            ints(argument(goal, 0)).iter().sum::<i64>().to_string(),
        ),
        "fft" => {
            let flat = floats(argument(goal, 0));
            let points: Vec<(f64, f64)> = flat.chunks_exact(2).map(|c| (c[0], c[1])).collect();
            Expect::Spectrum(dft(&points))
        }
        "flatten" => one("Flat", render_list(&ints(argument(goal, 0)))),
        "matrix_mult" => {
            let (a, bt) = (int_rows(argument(goal, 0)), int_rows(argument(goal, 1)));
            one("Product", render_rows(&matrix_product(&a, &bt)))
        }
        "poly_inclusion" => {
            let points = pairs(&ints(argument(goal, 0)));
            let polygon = pairs(&ints(argument(goal, 1)));
            let verdicts: Vec<&str> = points_inside(&points, &polygon)
                .into_iter()
                .map(|inside| if inside { "inside" } else { "outside" })
                .collect();
            one("Results", render_list(&verdicts))
        }
        "nrev" => {
            let mut items = ints(argument(goal, 0));
            items.reverse();
            one("Reversed", render_list(&items))
        }
        "cut_search" => one(
            "Unique",
            render_list(&dedup_first(&ints(argument(goal, 0)))),
        ),
        "ite_dispatch" => {
            let lens: Vec<i64> = ints(argument(goal, 0))
                .into_iter()
                .map(collatz_len)
                .collect();
            one("Lens", render_list(&lens))
        }
        other => panic!("no reference for program `{other}`"),
    }
}

// ---------------------------------------------------------------------------
// Attack graphs: breadth-first search over the generated facts.

/// The five derived relations of `attack_graph.pl`, as sorted host indices.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackAnswers {
    pub owned: Vec<u32>,
    pub reach: Vec<u32>,
    pub safe: Vec<u32>,
    pub frontier: Vec<u32>,
    pub exposed: Vec<u32>,
}

impl AttackAnswers {
    /// The relation a query goal such as `reach(X)` asks for.
    pub fn of_goal(&self, goal: &str) -> &[u32] {
        match goal.split('(').next().unwrap_or("") {
            "owned" => &self.owned,
            "reach" => &self.reach,
            "safe" => &self.safe,
            "frontier" => &self.frontier,
            "exposed" => &self.exposed,
            other => panic!("no reference for relation `{other}`"),
        }
    }
}

/// Host index of a constant such as `h17`.
pub fn host_index(name: &str) -> Option<u32> {
    name.trim().strip_prefix('h')?.parse().ok()
}

/// Reads `host/1`, `vuln/1`, `entry/1` and `link/2` facts (one per line, as
/// the topology generators write them) and derives the five relations.
pub fn attack_answers(facts: &str) -> AttackAnswers {
    let (mut hosts, mut vuln, mut entry) = (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
    let mut links: Vec<(u32, u32)> = Vec::new();
    for line in facts.lines() {
        let Some((functor, rest)) = line.trim().split_once('(') else {
            continue;
        };
        let Some(args) = rest.strip_suffix(").") else {
            continue;
        };
        let ids: Vec<u32> = args.split(',').filter_map(host_index).collect();
        match (functor, ids.as_slice()) {
            ("host", [h]) => {
                hosts.insert(*h);
            }
            ("vuln", [h]) => {
                vuln.insert(*h);
            }
            ("entry", [h]) => {
                entry.insert(*h);
            }
            ("link", [s, t]) => links.push((*s, *t)),
            _ => {}
        }
    }
    let size = hosts
        .iter()
        .chain(links.iter().flat_map(|(s, t)| [s, t]))
        .max()
        .map_or(0, |m| *m as usize + 1);
    let mut successors = vec![Vec::new(); size];
    for &(s, t) in &links {
        successors[s as usize].push(t);
    }
    // Breadth-first closure from the entry points along links whose target
    // passes `admit`.
    let closure = |admit: &dyn Fn(u32) -> bool| {
        let mut seen: BTreeSet<u32> = entry.clone();
        let mut queue: std::collections::VecDeque<u32> = entry.iter().copied().collect();
        while let Some(s) = queue.pop_front() {
            for &t in &successors[s as usize] {
                if admit(t) && seen.insert(t) {
                    queue.push_back(t);
                }
            }
        }
        seen
    };
    let reach = closure(&|_| true);
    let owned = closure(&|t| vuln.contains(&t));
    let frontier: BTreeSet<u32> = links
        .iter()
        .filter(|(s, t)| owned.contains(s) && !owned.contains(t))
        .map(|&(_, t)| t)
        .collect();
    let list = |set: &mut dyn Iterator<Item = u32>| set.collect::<Vec<u32>>();
    AttackAnswers {
        safe: list(&mut hosts.iter().copied().filter(|h| !reach.contains(h))),
        exposed: list(
            &mut reach
                .iter()
                .copied()
                .filter(|h| vuln.contains(h) && !owned.contains(h)),
        ),
        frontier: list(&mut frontier.iter().copied()),
        owned: list(&mut owned.iter().copied()),
        reach: list(&mut reach.iter().copied()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bindings(expect: &Expect) -> Vec<(&'static str, String)> {
        match expect {
            Expect::Bindings(b) => b.clone(),
            Expect::Spectrum(_) => panic!("not a bindings expectation"),
        }
    }

    fn only(expect: &Expect) -> String {
        bindings(expect).pop().expect("one binding").1
    }

    #[test]
    fn text_readers() {
        assert_eq!(ints("qsort([3,-1,20], Sorted)"), vec![3, -1, 20]);
        assert_eq!(int_rows("[[1,2],[3]]"), vec![vec![1, 2], vec![3]]);
        assert_eq!(int_rows("mmult([[1,2],[3,4]], [[5,6],[7,8]], P)").len(), 4);
        assert_eq!(argument("lr_sets(3, [[1,2],[3]], Sets)", 1), "[[1,2],[3]]");
        assert_eq!(argument("lr_sets(3, [[1,2],[3]], Sets)", 0), "3");
        assert_eq!(
            argument("tsum(node(leaf(1),leaf(2)), Sum)", 0),
            "node(leaf(1),leaf(2))"
        );
        assert_eq!(argument("f(a)", 3), "");
        assert_eq!(floats("c(5.0,0.0),c(-1.5,2)"), vec![5.0, 0.0, -1.5, 2.0]);
    }

    #[test]
    fn arithmetic_closed_forms() {
        assert_eq!(
            [fib(0), fib(1), fib(2), fib(10), fib(15)],
            [0, 1, 1, 55, 610]
        );
        assert_eq!(only(&expect("fib", "fib(10, Result)")), "55");
        assert_eq!(
            [
                collatz_len(1),
                collatz_len(2),
                collatz_len(6),
                collatz_len(27)
            ],
            [0, 1, 8, 111]
        );
        assert_eq!(
            only(&expect("ite_dispatch", "collatz_lens([1,6,27], Lens)")),
            "[0,8,111]"
        );
        assert_eq!(
            only(&expect("double_sum", "double_sum([[1,2],[3],[]], Sum)")),
            "6"
        );
        assert_eq!(
            only(&expect(
                "tree_traversal",
                "tsum(node(leaf(4),node(leaf(5),leaf(6))), Sum)"
            )),
            "15"
        );
    }

    #[test]
    fn hanoi_two_discs() {
        assert_eq!(
            only(&expect("hanoi", "hanoi(2, a, b, c, Moves)")),
            "[mv(a,c),mv(a,b),mv(c,b)]"
        );
        let mut moves = Vec::new();
        hanoi_moves(10, "a", "b", "c", &mut moves);
        assert_eq!(moves.len(), 1023);
    }

    #[test]
    fn list_closed_forms() {
        assert_eq!(
            only(&expect("quick_sort", "qsort([3,1,2,1], Sorted)")),
            "[1,1,2,3]"
        );
        assert_eq!(only(&expect("merge_sort", "msort([9,8], Sorted)")), "[8,9]");
        assert_eq!(only(&expect("nrev", "nrev([1,2,3], Reversed)")), "[3,2,1]");
        assert_eq!(only(&expect("nrev", "nrev([], Reversed)")), "[]");
        assert_eq!(
            only(&expect("cut_search", "dedup([1,2,1,3,2], Unique)")),
            "[1,2,3]"
        );
        assert_eq!(
            only(&expect("flatten", "flat([[1,2],[],[3]], Flat)")),
            "[1,2,3]"
        );
        assert!(bindings(&expect("consistency", "consistent([1,2,3])")).is_empty());
    }

    #[test]
    fn matrix_product_takes_the_second_operand_as_columns() {
        // [[1,2],[3,4]] x [[5,6],[7,8]] with the right operand given as its
        // columns [5,7] and [6,8].
        let got = only(&expect(
            "matrix_mult",
            "mmult([[1,2],[3,4]], [[5,7],[6,8]], Product)",
        ));
        assert_eq!(got, "[[19,22],[43,50]]");
    }

    #[test]
    fn lr_closure_applies_the_automaton_per_round() {
        // 1 -> 48 -> (48*31+17) mod 97 = 1505 mod 97 = 50
        assert_eq!(
            only(&expect("lr1_set", "lr_sets(2, [[1],[0,96]], Sets)")),
            "[[50],[59,68]]"
        );
        assert_eq!(only(&expect("lr1_set", "lr_sets(0, [[1]], Sets)")), "[[1]]");
    }

    #[test]
    fn point_in_polygon_walks_the_open_edge_list() {
        // A square given as four vertices: edges (0,0)-(10,0), (10,0)-(10,10),
        // (10,10)-(0,10); the closing edge is not walked. A ray from (5,5)
        // crosses only the right edge: inside. From (20,5): none: outside.
        let goal =
            "poly_inclusion([p(5,5),p(20,5),p(5,20)], [v(0,0),v(10,0),v(10,10),v(0,10)], Results)";
        assert_eq!(
            only(&expect("poly_inclusion", goal)),
            "[inside,outside,outside]"
        );
    }

    #[test]
    fn dft_of_an_impulse_and_a_constant() {
        let flat = dft(&[(1.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)]);
        assert!(flat
            .iter()
            .all(|&(re, im)| (re - 1.0).abs() < 1e-12 && im.abs() < 1e-12));
        let spike = dft(&[(2.0, 0.0); 4]);
        assert!((spike[0].0 - 8.0).abs() < 1e-12);
        assert!(spike[1..]
            .iter()
            .all(|&(re, im)| re.abs() < 1e-12 && im.abs() < 1e-12));
        let want = expect("fft", "fft([c(1.0,0.0),c(0.0,0.0)], Spectrum)");
        assert!(want.matches(true, [("Spectrum", "[c(1,0),c(1.0000000001,-0)]")]));
        assert!(!want.matches(true, [("Spectrum", "[c(1,0),c(1.1,0)]")]));
        assert!(!want.matches(true, [("Spectrum", "[c(1,0)]")]));
        assert!(!want.matches(true, [("Other", "[c(1,0),c(1,0)]")]));
    }

    #[test]
    fn matching_is_exact_and_ordered() {
        let want = expect("fib", "fib(10, Result)");
        assert!(want.matches(true, [("Result", "55")]));
        assert!(!want.matches(false, [("Result", "55")]));
        assert!(!want.matches(true, [("Result", "56")]));
        assert!(!want.matches(true, [("Other", "55")]));
        assert!(!want.matches(true, []));
        assert!(expect("consistency", "consistent([1])").matches(true, []));
    }

    #[test]
    fn attack_graph_relations_on_the_six_host_chain() {
        // The static chain instance shipped with the suite: h3 is not
        // vulnerable, so ownership stops there.
        let facts = "host(h0).\nhost(h1).\nhost(h2).\nhost(h3).\nhost(h4).\nhost(h5).\nhost(h6).\n\
                     link(h0, h1).\nlink(h1, h2).\nlink(h2, h3).\nlink(h3, h4).\nlink(h4, h5).\n\
                     vuln(h1).\nvuln(h2).\nvuln(h4).\nentry(h0).\n";
        let got = attack_answers(facts);
        assert_eq!(got.owned, vec![0, 1, 2]);
        assert_eq!(got.reach, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(got.safe, vec![6]);
        assert_eq!(got.frontier, vec![3]);
        assert_eq!(got.exposed, vec![4]);
        assert_eq!(got.of_goal("frontier(X)"), &[3]);
        assert_eq!(host_index("h42"), Some(42));
        assert_eq!(host_index("x1"), None);
    }
}
