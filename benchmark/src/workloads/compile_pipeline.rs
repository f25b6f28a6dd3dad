//! `compile_pipeline`: compile time, the cost side of the paper's trade. An
//! operation takes source text through `parse_program`, `analyze_program`,
//! `apply_granularity_control` and `compile_program` (the 15 programs), or
//! through `parse_program` and `CompiledDatalog::compile` (the three seeded
//! fact files, where the parser is most of the work).

use super::datalog_attack::{source as attack_source, TOPOLOGIES};
use super::since_start;
use crate::cases::{self, SUITE};
use crate::rng::Rng;
use crate::round::{peak_rss_mb, RoundCtx, RoundReport};
use crate::spans::Recorder;
use granlog_analysis::annotate::{apply_granularity_control, AnnotateOptions, AnnotatedProgram};
use granlog_analysis::pipeline::{analyze_program, AnalysisOptions, ProgramAnalysis};
use granlog_datalog::CompiledDatalog;
use granlog_engine::template::compile_program;
use granlog_engine::ClauseTemplate;
use granlog_ir::parser::parse_program;
use granlog_ir::Program;

/// Clauses of each suite program, counted by hand from its source.
const CLAUSES: [usize; 15] = [5, 3, 4, 7, 6, 4, 9, 6, 6, 9, 8, 2, 4, 5, 4];

/// Clauses of the attack-graph ruleset.
const ATTACK_RULE_CLAUSES: usize = 7;

/// Each program compiles this many times per fact-file compile, so the
/// millisecond-sized fact files do not own the round.
const PROGRAMS_PER_PASS: usize = 3;

/// One pass = 3 x 15 program compiles and 3 fact-file compiles.
pub const PASS_MS: f64 = 45.0;

/// What one compile produced, for checking and for the exact layer metrics.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Compiled {
    clauses: usize,
    templates: usize,
    /// `&` conjunctions the annotator decided about.
    conjunctions: usize,
    guarded: usize,
    predicates: usize,
    bounded: usize,
    rules: usize,
}

/// What the pipeline hands back; summarised outside the timed operation.
enum Artifacts {
    Suite {
        program: Program,
        analysis: ProgramAnalysis,
        annotated: AnnotatedProgram,
        templates: Vec<ClauseTemplate>,
    },
    Facts {
        program: Program,
        plans: CompiledDatalog,
    },
}

fn compile_suite_program(rec: &mut Recorder, source: &str) -> Result<Artifacts, String> {
    let program = rec
        .span("ir.parse_program", || parse_program(source))
        .map_err(|e| e.to_string())?;
    let analysis = rec.span("analysis.analyze", || {
        analyze_program(&program, &AnalysisOptions::default())
    });
    let annotated = rec.span("analysis.annotate", || {
        apply_granularity_control(&program, &analysis, &AnnotateOptions::default())
    });
    let templates = rec.span("engine.compile_program", || {
        compile_program(&annotated.program)
    });
    Ok(Artifacts::Suite {
        program,
        analysis,
        annotated,
        templates,
    })
}

fn compile_fact_file(rec: &mut Recorder, source: &str) -> Result<Artifacts, String> {
    let program = rec
        .span("ir.parse_program", || parse_program(source))
        .map_err(|e| e.to_string())?;
    let plans = rec
        .span("datalog.compile", || CompiledDatalog::compile(&program))
        .map_err(|e| e.to_string())?;
    Ok(Artifacts::Facts { program, plans })
}

fn summarise(artifacts: Result<Artifacts, String>) -> Result<Compiled, String> {
    Ok(match artifacts? {
        Artifacts::Suite {
            program,
            analysis,
            annotated,
            templates,
        } => Compiled {
            clauses: program.clauses().len(),
            templates: templates.len(),
            conjunctions: annotated.decisions.len(),
            guarded: annotated
                .decisions
                .iter()
                .filter(|d| d.guarded == Some(true))
                .count(),
            predicates: analysis.preds.len(),
            bounded: analysis
                .preds
                .values()
                .filter(|p| !p.cost.is_infinite())
                .count(),
            rules: 0,
        },
        Artifacts::Facts { program, plans } => Compiled {
            clauses: program.clauses().len(),
            rules: plans.num_rules(),
            ..Compiled::default()
        },
    })
}

/// `&` operators in a program's clauses (comments stripped): the number of
/// binary parallel conjunctions the annotator has to decide about.
fn ampersands(source: &str) -> usize {
    source
        .lines()
        .map(|line| line.split('%').next().unwrap_or(""))
        .map(|code| code.matches('&').count())
        .sum()
}

pub fn run(ctx: &RoundCtx) -> RoundReport {
    let mut report = RoundReport::default();
    let mut rec = Recorder::new(ctx.traced(), ctx.started, 0);
    let rng = Rng::new(ctx.seed);

    // Set-up: generate the fact files; compile every class once.
    let facts: Vec<String> = TOPOLOGIES
        .iter()
        .map(|t| t.facts(ctx.smoke, &rng, 0))
        .collect();
    let fact_sources: Vec<String> = facts.iter().map(|f| attack_source(f)).collect();
    let classes: Vec<&'static str> = SUITE
        .into_iter()
        .chain(TOPOLOGIES.iter().map(|t| t.name))
        .collect();
    let sources: Vec<&str> = SUITE
        .iter()
        .map(|name| cases::source(name))
        .chain(fact_sources.iter().map(String::as_str))
        .collect();
    let operate = |rec: &mut Recorder, class: usize| {
        if class < SUITE.len() {
            compile_suite_program(rec, sources[class])
        } else {
            compile_fact_file(rec, sources[class])
        }
    };
    let warm: Vec<_> = (0..classes.len())
        .map(|class| operate(&mut rec, class))
        .collect();
    report.setup_s = since_start(ctx);
    let warm: Vec<Result<Compiled, String>> = warm.into_iter().map(summarise).collect();

    // What a correct compile looks like, from the source text alone.
    let problem = |class: usize, out: &Result<Compiled, String>| -> Option<String> {
        let name = classes[class];
        let got = match out {
            Ok(got) => got,
            Err(e) => return Some(format!("{name}: {e}")),
        };
        let (clauses, conjunctions, rules) = if class < SUITE.len() {
            (CLAUSES[class], ampersands(sources[class]), 0)
        } else {
            let fact_lines = facts[class - SUITE.len()]
                .lines()
                .filter(|l| l.ends_with('.'))
                .count();
            (ATTACK_RULE_CLAUSES + fact_lines, 0, ATTACK_RULE_CLAUSES)
        };
        let right = got.clauses == clauses
            && got.conjunctions == conjunctions
            && got.rules == rules
            && (class >= SUITE.len() || got.templates == clauses)
            && Some(got) == warm[class].as_ref().ok();
        (!right).then(|| format!("{name}: compiled to {got:?}, expected {clauses} clauses, {conjunctions} conjunctions, {rules} rules"))
    };
    for (class, out) in warm.iter().enumerate() {
        if let Some(why) = problem(class, out) {
            report.attempt(Some(format!("warm-up {why}")));
        }
    }

    // Source bytes parsed so far: the warm-up parsed every class once.
    let mut parsed_bytes: usize = sources.iter().map(|s| s.len()).sum();
    let mut order_rng = rng.fork(0xc0de);
    for _ in 0..ctx.passes {
        let mut order: Vec<usize> = (0..classes.len())
            .flat_map(|class| {
                let times = if class < SUITE.len() && !ctx.smoke {
                    PROGRAMS_PER_PASS
                } else {
                    1
                };
                std::iter::repeat_n(class, times)
            })
            .collect();
        order_rng.shuffle(&mut order);
        report.begin_pass(0);
        for class in order {
            let (out, _, ms) = rec.op(|rec| (operate(rec, class), classes[class]));
            report.sample(classes[class], ms);
            parsed_bytes += sources[class].len();
            report.attempt(problem(class, &summarise(out)));
        }
    }

    let suite: Vec<Compiled> = warm
        .iter()
        .take(SUITE.len())
        .filter_map(|w| w.clone().ok())
        .collect();
    let sum = |f: fn(&Compiled) -> usize| suite.iter().map(f).sum::<usize>();
    report.exact(
        "ir.clauses",
        warm.iter()
            .filter_map(|w| w.as_ref().ok())
            .map(|c| c.clauses as u64)
            .sum(),
    );
    report.exact("analysis.guarded_conjunctions", sum(|c| c.guarded) as u64);
    report.layer(
        "analysis.bounded_share",
        sum(|c| c.bounded) as f64 / sum(|c| c.predicates).max(1) as f64,
    );
    if ctx.traced() {
        let spans = rec.into_spans();
        let (parse_ns, _) = crate::spans::total_ns(&spans, "ir.parse_program");
        report.layer(
            "ir.parse_program_mb_s",
            parsed_bytes as f64 / 1e6 / (parse_ns as f64 / 1e9),
        );
        report.trace(
            &spans,
            &[
                "ir.parse_program",
                "analysis.analyze",
                "analysis.annotate",
                "engine.compile_program",
                "datalog.compile",
            ],
            &ctx.out_dir.join("trace-compile_pipeline.jsonl"),
        );
        // The two kinds of class spend their time in different layers: say so
        // separately, beside the split over all operations.
        for (group, is_program) in [("programs", true), ("fact files", false)] {
            let part = crate::spans::decompose_classes(&spans, |class| {
                SUITE.contains(&class) == is_program
            });
            for layer in part.layer_self_ns.keys() {
                report
                    .shares
                    .push((format!("{layer} on {group}"), part.layer_share(layer)));
            }
        }
    }
    report.rss_mb = peak_rss_mb();
    report
}
