//! The integration suites' shared kit: the 15-program corpus, the sequential
//! oracle, answer canonicalization, a parallel hook that steals every arm,
//! scratch directories and server start-up.
//! Each suite pulls it in with `mod support;` and uses its own subset.
#![allow(dead_code)]

use granlog_benchmarks::{all_benchmarks, control_benchmarks, nrev_benchmark, Benchmark};
use granlog_engine::par::{ArmResult, Offer, ParHook};
use granlog_engine::{ClauseTemplate, Machine, MachineConfig};
use granlog_ir::parser::parse_program;
use granlog_ir::Program;
use granlog_serve::{ServeConfig, Server, ServerHandle};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// The full 15-program corpus the acceptance bars talk about: the paper's
/// Table 1 suite, the Appendix A `nrev`, and the control-construct extras.
pub fn fifteen_benchmarks() -> Vec<Benchmark> {
    let mut corpus = all_benchmarks();
    corpus.push(nrev_benchmark());
    corpus.extend(control_benchmarks());
    assert_eq!(corpus.len(), 15, "the acceptance corpus is 15 programs");
    corpus
}

/// Canonicalizes rendered binding terms: every `_N` token is renamed in
/// first-occurrence order, so answers that differ only in variable
/// numbering (machine-reuse dependent) compare equal.
pub fn canonical(bindings: &[(String, String)]) -> Vec<(String, String)> {
    let mut map: BTreeMap<String, usize> = BTreeMap::new();
    bindings
        .iter()
        .map(|(name, term)| {
            let mut out = String::new();
            let mut chars = term.chars().peekable();
            while let Some(c) = chars.next() {
                if c == '_' && chars.peek().is_some_and(|d| d.is_ascii_digit()) {
                    let mut id = String::new();
                    while let Some(d) = chars.peek().filter(|d| d.is_ascii_digit()) {
                        id.push(*d);
                        chars.next();
                    }
                    let next = map.len();
                    let canon_id = *map.entry(id).or_insert(next);
                    out.push_str(&format!("_V{canon_id}"));
                } else {
                    out.push(c);
                }
            }
            (name.clone(), out)
        })
        .collect()
}

/// The oracle: the expected answer for one benchmark query, computed on a
/// fresh, sequential, fault-free machine and rendered exactly as the server
/// renders it.
pub fn expected_answer(bench: &Benchmark, query: &str) -> (bool, Vec<(String, String)>) {
    let program = parse_program(bench.source).unwrap();
    let mut machine = Machine::with_config(&program, MachineConfig::default());
    let outcome = machine.run_query(query).unwrap();
    let rendered = outcome
        .bindings
        .iter()
        .map(|(name, term)| (name.to_string(), term.to_string()))
        .collect();
    (outcome.succeeded, rendered)
}

/// A [`ParHook`] that steals everything: each offered arm is claimed and run
/// to its first solution on a second machine *inside* `offer`, before the
/// forker has started on arm 0. On the real executor whether an arm crosses
/// the spawn boundary is a race (and at one thread it never does); under
/// this hook every arm `1..` of every independent conjunction does — pack,
/// unpack, solve, answer pack, unpack, join — deterministically, on the
/// calling thread. No spawn guards: every conjunction is offered.
pub struct EagerThief<'p> {
    program: &'p Program,
    templates: Arc<[ClauseTemplate]>,
    /// Arms run on a second machine so far.
    pub stolen: AtomicUsize,
}

impl<'p> EagerThief<'p> {
    pub fn new(program: &'p Program) -> Self {
        EagerThief {
            program,
            templates: granlog_engine::template::compile_program(program).into(),
            stolen: AtomicUsize::new(0),
        }
    }
}

impl ParHook for EagerThief<'_> {
    fn offer(&self, arms: &[Arc<Offer>]) {
        for arm in arms {
            assert!(arm.claim(), "nobody else has seen the arm yet");
            let mut machine = Machine::with_templates(
                self.program,
                MachineConfig::default(),
                Arc::clone(&self.templates),
            );
            arm.complete(machine.run_arm(arm.arm(), Some(self)));
            self.stolen.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn join(&self, arm: &Offer) -> ArmResult {
        arm.take_result().expect("completed inside `offer`")
    }
}

/// A unique scratch directory per invocation, so parallel tests and
/// repeated runs never share WAL state.
pub fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("granlog-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Starts a server under `config` (whose default listens on an ephemeral
/// loopback port).
pub fn start_server(config: ServeConfig) -> ServerHandle {
    Server::start(config).expect("server must bind an ephemeral port")
}
