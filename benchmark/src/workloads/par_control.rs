//! `par_control`: the eight programs that spawn, at sizes where a query takes
//! milliseconds, on a `ParExecutor` with granularity control on. Spawn, copy,
//! join and guard evaluation are what moves here: the paper's runtime claim.
//! The same schedule runs under `Off` and `AlwaysSpawn` in a traced pass to
//! give the baselines `par.control_gain` and `par.speedup_vs_seq` divide by.

use super::{load_threads, problem, rendered, since_start};
use crate::cases::{self, VARIANTS};
use crate::reference;
use crate::rng::Rng;
use crate::round::{peak_rss_mb, Mode, RoundCtx, RoundReport};
use crate::spans::Recorder;
use granlog_analysis::pipeline::{analyze_program, AnalysisOptions};
use granlog_benchmarks::harness::{execute, prepare_program, ControlMode};
use granlog_ir::parser::{parse_program, parse_term};
use granlog_obs::{Registry, Tracer};
use granlog_par::{Granularity, ParConfig, ParExecutor, ParObs};
use granlog_sim::{simulate, SimConfig};
use std::sync::Arc;

/// The programs with a `&` the analysis lets spawn at some size, and the size
/// each runs at here (5-50 ms per query under control on the reference host).
const CLASSES: [(&str, usize); 8] = [
    ("fib", 19),
    ("hanoi", 11),
    ("quick_sort", 1500),
    ("merge_sort", 1500),
    ("matrix_mult", 24),
    ("tree_traversal", 12),
    ("fft", 512),
    ("poly_inclusion", 400),
];

/// Inputs per class (odd, like [`VARIANTS`]): each costs a warm-up query of
/// several milliseconds.
const PAR_VARIANTS: usize = 3;

/// One pass = each of the 8 classes once, in seeded order.
pub const PASS_MS: f64 = 145.0;

/// The executor's thread count: the host's CPUs, capped where the suite's
/// parallel columns have always been taken.
fn threads() -> usize {
    load_threads().min(4)
}

pub fn run(ctx: &RoundCtx) -> RoundReport {
    let mut report = RoundReport::default();
    let mut rec = Recorder::new(ctx.traced(), ctx.started, 0);
    let rng = Rng::new(ctx.seed);
    let granularity = match ctx.mode {
        Mode::ParOff => Granularity::Off,
        Mode::ParAlways => Granularity::AlwaysSpawn,
        _ => Granularity::On,
    };
    let names: Vec<&'static str> = CLASSES.iter().map(|(name, _)| *name).collect();

    // Set-up: parse, analyse and lower guards (inside `ParExecutor::new`),
    // parse goals, warm every executor's machines.
    let programs: Vec<_> = names
        .iter()
        .map(|name| {
            rec.span("ir.parse_program", || parse_program(cases::source(name)))
                .unwrap_or_else(|e| panic!("{name} does not parse: {e}"))
        })
        .collect();
    let goal_texts: Vec<Vec<String>> = CLASSES
        .iter()
        .map(|(name, size)| {
            let size = if ctx.smoke {
                cases::test_size(name)
            } else {
                *size
            };
            let mut goals = cases::goals(name, size, &rng);
            goals.truncate(PAR_VARIANTS.min(VARIANTS));
            goals
        })
        .collect();
    let goals: Vec<Vec<_>> = goal_texts
        .iter()
        .map(|texts| {
            texts
                .iter()
                .map(|text| {
                    rec.span("ir.parse_term", || parse_term(text))
                        .unwrap_or_else(|e| panic!("goal does not parse: {e}"))
                })
                .collect()
        })
        .collect();
    let registry = Registry::new();
    let obs = Arc::new(ParObs::register(&registry, Arc::new(Tracer::disabled(1))));
    let mut executors: Vec<ParExecutor> = programs
        .iter()
        .map(|program| {
            let mut executor = rec.span("par.new", || {
                ParExecutor::new(
                    program,
                    ParConfig {
                        threads: threads(),
                        granularity,
                        ..ParConfig::default()
                    },
                )
            });
            if ctx.traced() {
                executor.set_obs(Some(Arc::clone(&obs)));
            }
            executor
        })
        .collect();
    let warm: Vec<Vec<_>> = goals
        .iter()
        .zip(&mut executors)
        .map(|(variants, executor)| {
            variants
                .iter()
                .map(|(goal, vars)| executor.run_goal(goal, vars))
                .collect()
        })
        .collect();
    report.setup_s = since_start(ctx);

    let expects: Vec<Vec<_>> = names
        .iter()
        .zip(&goal_texts)
        .map(|(name, texts)| texts.iter().map(|t| reference::expect(name, t)).collect())
        .collect();
    let check =
        |class: usize,
         variant: usize,
         out: &granlog_engine::EngineResult<granlog_par::ParOutcome>| match out {
            Ok(o) => problem(
                names[class],
                &expects[class][variant],
                o.succeeded,
                &rendered(&o.bindings),
            ),
            Err(e) => Some(format!("{}: {e}", names[class])),
        };
    for (class, outs) in warm.iter().enumerate() {
        for (variant, out) in outs.iter().enumerate() {
            if let Some(why) = check(class, variant, out) {
                report.attempt(Some(format!("warm-up {why}")));
            }
        }
    }
    drop(warm);
    // Warm-up is not part of the schedule's counts.
    let (steals_before, arm_before, join_before) = (
        obs.steals.get(),
        obs.arm_ms.snapshot(),
        obs.join_wait_ms.snapshot(),
    );

    let mut order_rng = rng.fork(0x9a7c);
    let (mut spawned, mut inlined) = (0u64, 0u64);
    for pass in 0..ctx.passes {
        let mut order: Vec<usize> = (0..names.len()).collect();
        order_rng.shuffle(&mut order);
        let variant = pass % goals[0].len();
        for class in order {
            // An operation takes milliseconds: each is a pass of its own,
            // comparable with the other runs of the same goal.
            report.begin_pass((class * PAR_VARIANTS + variant) as u32);
            let (goal, vars) = &goals[class][variant];
            let executor = &mut executors[class];
            let (out, _, ms) = rec.op(|rec| {
                (
                    rec.span("par.run_goal", || executor.run_goal(goal, vars)),
                    names[class],
                )
            });
            report.sample(names[class], ms);
            if let Ok(o) = &out {
                spawned += o.spawned_tasks as u64;
                inlined += o.inlined_conjunctions as u64;
            }
            report.attempt(check(class, variant, &out));
        }
    }

    report.exact("par.spawned_tasks", spawned);
    report.exact("par.inlined_conjunctions", inlined);
    report.layer(
        "par.spawn_share",
        spawned as f64 / (spawned + inlined).max(1) as f64,
    );
    if ctx.traced() {
        let (arm, join) = (obs.arm_ms.snapshot(), obs.join_wait_ms.snapshot());
        let mean = |after: &granlog_obs::HistogramSnapshot,
                    before: &granlog_obs::HistogramSnapshot| {
            (after.sum - before.sum) / (after.count - before.count).max(1) as f64
        };
        report.layer("par.steals", (obs.steals.get() - steals_before) as f64);
        report.layer("par.arm_ms", mean(&arm, &arm_before));
        report.layer("par.join_wait_ms", mean(&join, &join_before));
        predicted_gain(&mut report, &mut rec, &programs, &goal_texts);
        report.trace(
            &rec.into_spans(),
            &[
                "ir.parse_program",
                "ir.parse_term",
                "par.new",
                "par.run_goal",
                "sim.simulate",
            ],
            &ctx.out_dir.join("trace-par_control.jsonl"),
        );
    }
    report.rss_mb = peak_rss_mb();
    report
}

/// The simulator's prediction beside the measurement: each program's recorded
/// fork-join tree scheduled on the simulated 4-processor machine without (T0)
/// and with (T1) granularity control; `sim.predicted_control_gain` is the
/// geometric mean of T0 / T1.
fn predicted_gain(
    report: &mut RoundReport,
    rec: &mut Recorder,
    programs: &[granlog_ir::Program],
    goal_texts: &[Vec<String>],
) {
    let machine = SimConfig::rolog4();
    let overhead = machine.overhead.per_task_overhead();
    let gains: Vec<f64> = programs
        .iter()
        .zip(goal_texts)
        .map(|(program, texts)| {
            let analysis = analyze_program(program, &AnalysisOptions::default());
            let mut makespan = |mode| {
                let prepared = prepare_program(program, &analysis, mode, overhead);
                let outcome = execute(prepared, texts[0].clone());
                rec.span("sim.simulate", || simulate(&outcome.task_tree, &machine))
                    .makespan
            };
            makespan(ControlMode::NoControl) / makespan(ControlMode::WithControl)
        })
        .collect();
    report.layer("sim.predicted_control_gain", crate::stats::geomean(&gains));
}
