//! `sld_suite`: the 15 programs at the paper's sizes, each on its own warm
//! sequential `Machine`, goals parsed in set-up, one thread. `engine` does
//! ~100 % of the timed work and `serve`/`store`/`datalog`/`par` none.

use super::{problem, rendered, since_start};
use crate::cases::{self, SUITE, VARIANTS};
use crate::reference;
use crate::rng::Rng;
use crate::round::{peak_rss_mb, Mode, RoundCtx, RoundReport};
use crate::spans::Recorder;
use granlog_engine::{Counters, Machine, MachineConfig};
use granlog_ir::parser::{parse_program, parse_term};
use std::sync::Arc;

/// One pass = each of the 15 classes once, in seeded order.
pub const PASS_MS: f64 = 11.0;

pub fn run(ctx: &RoundCtx) -> RoundReport {
    let mut report = RoundReport::default();
    let mut rec = Recorder::new(ctx.traced(), ctx.started, 0);
    let rng = Rng::new(ctx.seed);
    let config = MachineConfig {
        profile: ctx.mode == Mode::Profile,
        ..MachineConfig::default()
    };

    // Set-up: parse programs, write and parse goals, build and warm machines.
    let mut source_bytes = 0usize;
    let programs: Vec<_> = SUITE
        .iter()
        .map(|name| {
            let source = cases::source(name);
            source_bytes += source.len();
            rec.span("ir.parse_program", || parse_program(source))
                .unwrap_or_else(|e| panic!("{name} does not parse: {e}"))
        })
        .collect();
    let goal_texts: Vec<Vec<String>> = SUITE
        .iter()
        .map(|name| {
            let size = if ctx.smoke {
                cases::test_size(name)
            } else {
                cases::paper_size(name)
            };
            cases::goals(name, size, &rng)
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
    let mut machines: Vec<Machine> = programs
        .iter()
        .map(|program| {
            let templates = rec.span("engine.compile_program", || {
                granlog_engine::template::compile_program(program)
            });
            Machine::with_templates(program, config, Arc::from(templates))
        })
        .collect();
    let warm: Vec<Vec<_>> = goals
        .iter()
        .zip(&mut machines)
        .map(|(variants, machine)| {
            variants
                .iter()
                .map(|(goal, vars)| machine.run_goal(goal, vars))
                .collect()
        })
        .collect();
    report.setup_s = since_start(ctx);

    // References, and the warm-up answers checked against them.
    let expects: Vec<Vec<_>> = SUITE
        .iter()
        .zip(&goal_texts)
        .map(|(name, texts)| texts.iter().map(|t| reference::expect(name, t)).collect())
        .collect();
    let check =
        |class: usize,
         variant: usize,
         out: &granlog_engine::EngineResult<granlog_engine::QueryOutcome>| match out {
            Ok(o) => problem(
                SUITE[class],
                &expects[class][variant],
                o.succeeded,
                &rendered(&o.bindings),
            ),
            Err(e) => Some(format!("{}: {e}", SUITE[class])),
        };
    for (class, outs) in warm.iter().enumerate() {
        for (variant, out) in outs.iter().enumerate() {
            if let Some(why) = check(class, variant, out) {
                report.attempt(Some(format!("warm-up {why}")));
            }
        }
    }
    drop(warm);

    // The timed schedule.
    let mut order_rng = rng.fork(0x5c4e);
    let mut counters = Counters::default();
    let mut heap_high_water = 0usize;
    let mut allocations = 0u64;
    for pass in 0..ctx.passes {
        let mut order: Vec<usize> = (0..SUITE.len()).collect();
        order_rng.shuffle(&mut order);
        let variant = pass % VARIANTS;
        report.begin_pass(variant as u32);
        for class in order {
            let (goal, vars) = &goals[class][variant];
            let machine = &mut machines[class];
            let before = crate::alloc::allocations();
            let (out, _, ms) = rec.op(|rec| {
                (
                    rec.span("engine.run_goal", || machine.run_goal(goal, vars)),
                    SUITE[class],
                )
            });
            allocations += crate::alloc::allocations() - before;
            report.sample(SUITE[class], ms);
            if let Ok(o) = &out {
                counters = counters.add(&o.counters);
            }
            heap_high_water = heap_high_water.max(machine.stats().heap_high_water);
            report.attempt(check(class, variant, &out));
        }
    }

    report.exact("engine.resolutions", counters.resolutions);
    report.exact("engine.head_attempts", counters.head_attempts);
    report.exact("engine.unifications", counters.unifications);
    report.exact("engine.builtins", counters.builtins);
    report.exact("engine.heap_high_water_cells", heap_high_water as u64);
    report.exact(
        "ir.clauses",
        programs.iter().map(|p| p.clauses().len() as u64).sum(),
    );
    if ctx.traced() {
        let spans = rec.into_spans();
        let (parse_ns, _) = crate::spans::total_ns(&spans, "ir.parse_program");
        let (run_ns, _) = crate::spans::total_ns(&spans, "engine.run_goal");
        report.layer(
            "ir.parse_program_mb_s",
            source_bytes as f64 / 1e6 / (parse_ns as f64 / 1e9),
        );
        report.layer(
            "engine.mres_per_s",
            counters.resolutions as f64 / 1e6 / (run_ns as f64 / 1e9),
        );
        report.layer(
            "engine.allocs_per_resolution",
            allocations as f64 / counters.resolutions.max(1) as f64,
        );
        report.trace(
            &spans,
            &[
                "ir.parse_program",
                "ir.parse_term",
                "engine.compile_program",
                "engine.run_goal",
            ],
            &ctx.out_dir.join("trace-sld_suite.jsonl"),
        );
    }
    report.rss_mb = peak_rss_mb();
    report
}
