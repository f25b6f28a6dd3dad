//! Prints the paper's artefacts and the ablations, each to stdout and to
//! `target/experiments/<name>.txt`.
//!
//! ```text
//! cargo run --release -p granlog-benchmarks --bin experiments -- [--small] [NAME ...]
//! ```
//!
//! With no `NAME` it prints the paper's four artefacts (`fig1_ddg`,
//! `table1_rolog`, `table2_andprolog`, `fig2_grainsize`); the ablations are
//! `ablation_overhead` and `ablation_metric`. `--small` runs the reduced
//! input sizes the tests pin. An unknown name exits 2 before anything runs.

#![forbid(unsafe_code)]

use granlog_benchmarks::artefacts::{emit, lookup, ARTEFACTS, PAPER_ARTEFACTS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let small = args.iter().any(|arg| arg == "--small");
    let mut names: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|arg| *arg != "--small")
        .collect();
    if names.is_empty() {
        names = ARTEFACTS[..PAPER_ARTEFACTS]
            .iter()
            .map(|(name, _)| *name)
            .collect();
    }
    let mut chosen = Vec::with_capacity(names.len());
    for name in names {
        match lookup(name) {
            Ok(renderer) => chosen.push((name, renderer)),
            Err(message) => {
                eprintln!("experiments: {message}");
                return ExitCode::from(2);
            }
        }
    }
    for (name, renderer) in chosen {
        emit(name, &renderer.render(small));
    }
    ExitCode::SUCCESS
}
