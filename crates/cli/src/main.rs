//! `granlog` — command-line front end for the granularity analysis toolchain.
//!
//! ```text
//! granlog analyze  <file.pl> [--overhead W]
//! granlog annotate <file.pl> [--overhead W]
//! granlog run      <file.pl> <query> [--granularity on|always-spawn|off] [--overhead W]
//!                  [--processors P [--profile] | --threads N] [--trace FILE]
//! granlog run      <file.pl> <query> --engine bottom-up [--trace FILE]
//! granlog ddg      <file.pl> <name/arity>
//! granlog serve    [--addr HOST:PORT] [--steps N] [--heap CELLS] [--wall MS]
//!                  [--cache N] [--max-conns N] [--idle-timeout SECS] [--data-dir DIR]
//!                  [--fsync always|interval[=MS]|never] [--wal-limit BYTES]
//!                  [--metrics-addr HOST:PORT] [--slow-ms MS]
//! ```
//!
//! * `analyze` prints the per-predicate report: modes, measures, argument-size
//!   functions, cost upper bounds, solver schemas and thresholds.
//! * `annotate` prints the granularity-controlled program (parallel
//!   conjunctions guarded by `'$grain_ge'` tests) on stdout.
//! * `run` executes a query under one spawn policy — `--granularity on`
//!   (grain-tested, the paper's T1, the default), `always-spawn` (T0) or
//!   `off` (sequential) — and reports the answer, the operation counts and
//!   either the simulated parallel time on a P-processor machine or, with
//!   `--threads N`, the measured time on N threads. `--engine bottom-up`
//!   prints every answer of a Datalog program instead.
//! * `ddg` prints the data dependency graphs of a predicate's clauses.
//! * `serve` starts the multi-tenant query service: concurrent sessions over
//!   a shared compiled-template cache, each query one engine call under its
//!   session's step/heap/wall budget.
//!
//! A flag the command (or the `run` path) does not read is a usage error.

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
