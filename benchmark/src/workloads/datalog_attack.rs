//! `datalog_attack`: the bottom-up engine on three seeded attack-graph
//! topologies. An operation is one `evaluate()` plus the five canned queries.
//! `chain` is ~2 000 one-tuple rounds and `star` is five wide ones, so a
//! per-round fix must move the `chain` row and leave `star` alone; folding
//! classes with a geometric mean keeps `chain` from hiding the other two.

use super::since_start;
use crate::reference::{attack_answers, host_index, AttackAnswers};
use crate::rng::Rng;
use crate::round::{peak_rss_mb, RoundCtx, RoundReport};
use crate::spans::Recorder;
use granlog_benchmarks::{generate, DatalogBenchmark, ATTACK_RULES};
use granlog_datalog::{CompiledDatalog, Database, FixpointStats};
use granlog_ir::parser::{parse_program, parse_term};
use granlog_ir::{Symbol, Term};

pub struct Topology {
    pub name: &'static str,
    facts: fn(usize, u64) -> String,
    hosts: usize,
    smoke_hosts: usize,
    /// Operations per pass: cheap topologies run more often, so every class
    /// has samples without `chain` owning the round.
    per_pass: usize,
}

pub const TOPOLOGIES: [Topology; 3] = [
    Topology {
        name: "attack_star",
        facts: generate::attack_star,
        hosts: 4000,
        smoke_hosts: 48,
        per_pass: 8,
    },
    Topology {
        name: "attack_chain",
        facts: generate::attack_chain,
        hosts: 2000,
        smoke_hosts: 48,
        per_pass: 1,
    },
    Topology {
        name: "attack_cut",
        facts: generate::attack_cut,
        hosts: 3000,
        smoke_hosts: 64,
        per_pass: 4,
    },
];

/// Seeded fact files per topology (odd, for the reason
/// [`crate::cases::VARIANTS`] is): how much of a random graph the entry point
/// reaches differs from seed to seed, so each class cycles through three.
const GRAPHS: usize = 3;

/// One pass = 8 star, 1 chain and 4 cut operations, in seeded order.
pub const PASS_MS: f64 = 250.0;

impl Topology {
    /// The seeded facts of this topology's `graph`-th fact file (no rules).
    pub fn facts(&self, smoke: bool, rng: &Rng, graph: usize) -> String {
        let hosts = if smoke { self.smoke_hosts } else { self.hosts };
        let label = self
            .name
            .bytes()
            .fold(graph as u64, |h, b| h * 31 + u64::from(b));
        (self.facts)(hosts, rng.fork(label).next_u64())
    }
}

/// The ruleset followed by a topology's facts: what the program under test
/// receives.
pub fn source(facts: &str) -> String {
    format!("{ATTACK_RULES}\n{facts}")
}

type Goal = (&'static str, Term, Vec<Symbol>);

fn canned_goals(rec: &mut Recorder) -> Vec<Goal> {
    DatalogBenchmark::queries()
        .iter()
        .map(|text| {
            let (goal, vars) = rec
                .span("ir.parse_term", || parse_term(text))
                .unwrap_or_else(|e| panic!("{text} does not parse: {e}"));
            (*text, goal, vars)
        })
        .collect()
}

/// One operation: the fixpoint, then every canned query against it.
fn operate(
    rec: &mut Recorder,
    compiled: &CompiledDatalog,
    goals: &[Goal],
) -> Result<(Database, Vec<granlog_datalog::QueryAnswers>), granlog_datalog::DatalogError> {
    let db = rec.span("datalog.evaluate", || compiled.evaluate())?;
    let answers = rec.span("datalog.query", || {
        goals
            .iter()
            .map(|(_, goal, vars)| db.query(goal, vars))
            .collect::<Result<Vec<_>, _>>()
    })?;
    Ok((db, answers))
}

/// `None` when all five answer sets equal the breadth-first reference.
fn problem(
    name: &str,
    goals: &[Goal],
    want: &AttackAnswers,
    answers: &[granlog_datalog::QueryAnswers],
) -> Option<String> {
    for ((text, _, _), got) in goals.iter().zip(answers) {
        let mut hosts: Vec<Option<u32>> = (0..got.rows.len())
            .map(|i| {
                got.bindings(i)
                    .first()
                    .and_then(|(_, term)| host_index(&term.to_string()))
            })
            .collect();
        hosts.sort_unstable();
        let expected = want.of_goal(text);
        if hosts.len() != expected.len() || hosts.iter().zip(expected).any(|(g, w)| *g != Some(*w))
        {
            return Some(format!(
                "{name}: {text} has {} answers, the reference {} (or they differ)",
                hosts.len(),
                expected.len()
            ));
        }
    }
    None
}

pub fn run(ctx: &RoundCtx) -> RoundReport {
    let mut report = RoundReport::default();
    let mut rec = Recorder::new(ctx.traced(), ctx.started, 0);
    let rng = Rng::new(ctx.seed);

    // Set-up: generate and parse the fact files, plan the joins, parse the
    // canned goals, run every graph once. Graph `g` of topology `t` is entry
    // `t * GRAPHS + g` of the vectors below.
    let graph_of = |entry: usize| (entry / GRAPHS, entry % GRAPHS);
    let facts: Vec<String> = (0..TOPOLOGIES.len() * GRAPHS)
        .map(|entry| {
            let (topology, graph) = graph_of(entry);
            TOPOLOGIES[topology].facts(ctx.smoke, &rng, graph)
        })
        .collect();
    let compiled: Vec<CompiledDatalog> = facts
        .iter()
        .enumerate()
        .map(|(entry, facts)| {
            let name = TOPOLOGIES[graph_of(entry).0].name;
            let text = source(facts);
            let program = rec
                .span("ir.parse_program", || parse_program(&text))
                .unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
            rec.span("datalog.compile", || CompiledDatalog::compile(&program))
                .unwrap_or_else(|e| panic!("{name} is not Datalog: {e}"))
        })
        .collect();
    let goals = canned_goals(&mut rec);
    let warm: Vec<_> = compiled
        .iter()
        .map(|c| operate(&mut rec, c, &goals))
        .collect();
    report.setup_s = since_start(ctx);

    let wants: Vec<AttackAnswers> = facts.iter().map(|f| attack_answers(f)).collect();
    let mut stats: Vec<FixpointStats> = Vec::new();
    for (entry, out) in warm.iter().enumerate() {
        let name = TOPOLOGIES[graph_of(entry).0].name;
        match out {
            Ok((db, answers)) => {
                stats.push(*db.stats());
                if let Some(why) = problem(name, &goals, &wants[entry], answers) {
                    report.attempt(Some(format!("warm-up {why}")));
                }
            }
            Err(e) => {
                stats.push(FixpointStats::default());
                report.attempt(Some(format!("warm-up {name}: {e}")));
            }
        }
    }
    drop(warm);

    let mut order_rng = rng.fork(0xda7a);
    let mut turns = [0usize; TOPOLOGIES.len()];
    for _ in 0..ctx.passes {
        let mut order: Vec<usize> = TOPOLOGIES
            .iter()
            .enumerate()
            .flat_map(|(i, t)| std::iter::repeat_n(i, if ctx.smoke { 1 } else { t.per_pass }))
            .collect();
        order_rng.shuffle(&mut order);
        for class in order {
            let name = TOPOLOGIES[class].name;
            let entry = class * GRAPHS + turns[class] % GRAPHS;
            // An operation takes milliseconds: each is a pass of its own,
            // comparable with the other evaluations of the same graph.
            report.begin_pass(entry as u32);
            turns[class] += 1;
            let (out, _, ms) = rec.op(|rec| (operate(rec, &compiled[entry], &goals), name));
            report.sample(name, ms);
            report.attempt(match &out {
                Ok((db, _)) if *db.stats() != stats[entry] => Some(format!(
                    "{name}: fixpoint statistics changed between evaluations"
                )),
                Ok((_, answers)) => problem(name, &goals, &wants[entry], answers),
                Err(e) => Some(format!("{name}: {e}")),
            });
        }
    }

    let total = |f: fn(&FixpointStats) -> u64| stats.iter().map(f).sum::<u64>();
    report.exact("datalog.derived_facts", total(|s| s.derived_facts));
    report.exact("datalog.rounds", total(|s| s.rounds));
    report.exact("datalog.join_batches", total(|s| s.join_batches));
    report.exact("datalog.edb_facts", total(|s| s.edb_facts));
    if ctx.traced() {
        let spans = rec.into_spans();
        // Mean `evaluate()` time of one class, in microseconds.
        let evaluate_us = |class: usize| {
            let name = TOPOLOGIES[class].name;
            let ops: Vec<u32> = spans
                .iter()
                .filter(|s| s.class == name)
                .map(|s| s.op)
                .collect();
            let (ns, n) = spans
                .iter()
                .filter(|s| s.name == "datalog.evaluate" && ops.contains(&s.op))
                .fold((0u64, 0u64), |(ns, n), s| (ns + s.duration_ns(), n + 1));
            ns as f64 / n.max(1) as f64 / 1e3
        };
        // The two halves of the per-round-cost question: fixed cost per round
        // is read on `chain`, join cost per fact on `star`.
        let per_graph = |class: usize, f: fn(&FixpointStats) -> u64| {
            stats[class * GRAPHS..(class + 1) * GRAPHS]
                .iter()
                .map(f)
                .sum::<u64>()
                .max(1) as f64
                / GRAPHS as f64
        };
        report.layer(
            "datalog.us_per_round",
            evaluate_us(1) / per_graph(1, |s| s.rounds),
        );
        report.layer(
            "datalog.us_per_derived_fact",
            evaluate_us(0) / per_graph(0, |s| s.derived_facts),
        );
        report.trace(
            &spans,
            &[
                "ir.parse_program",
                "ir.parse_term",
                "datalog.compile",
                "datalog.evaluate",
                "datalog.query",
            ],
            &ctx.out_dir.join("trace-datalog_attack.jsonl"),
        );
    }
    report.rss_mb = peak_rss_mb();
    report
}
