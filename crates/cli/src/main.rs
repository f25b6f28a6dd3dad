//! `granlog` — command-line front end for the granularity analysis toolchain.
//!
//! ```text
//! granlog analyze  <file.pl> [--overhead W] [--metric resolutions|unifications|steps]
//! granlog annotate <file.pl> [--overhead W]
//! granlog run      <file.pl> <query> [--processors P] [--overhead W] [--control|--no-control|--sequential]
//! granlog ddg      <file.pl> <name/arity>
//! granlog serve    [--addr HOST:PORT] [--steps N] [--heap CELLS] [--wall MS] [--cache N]
//! ```
//!
//! * `analyze` prints the per-predicate report: modes, measures, argument-size
//!   functions, cost upper bounds, solver schemas and thresholds.
//! * `annotate` prints the granularity-controlled program (parallel
//!   conjunctions guarded by `'$grain_ge'` tests) on stdout.
//! * `run` executes a query and reports the answer, the operation counts and
//!   the simulated parallel execution time on a P-processor machine.
//! * `ddg` prints the data dependency graphs of a predicate's clauses.
//! * `serve` starts the multi-tenant query service: concurrent sessions over
//!   a shared compiled-template cache, each query one engine call under its
//!   session's step/heap/wall budget.

#![forbid(unsafe_code)]

use granlog_cli::{run_cli, CliError};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(&args, &mut std::io::stdout()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("{msg}");
            eprintln!("{}", granlog_cli::USAGE);
            ExitCode::from(2)
        }
        Err(err) => {
            eprintln!("granlog: {err}");
            ExitCode::FAILURE
        }
    }
}
