//! Implementation of the `granlog` command-line tool.
//!
//! The logic lives in a library (with the binary as a thin wrapper) so that
//! the argument parsing and each subcommand can be unit-tested without
//! spawning processes.

#![forbid(unsafe_code)]

use granlog_analysis::annotate::{
    apply_granularity_control, prepare_program, AnnotateOptions, ControlMode,
};
use granlog_analysis::ddg::Ddg;
use granlog_analysis::pipeline::{analyze_program, AnalysisOptions};
use granlog_analysis::report::render_report;
use granlog_engine::{Machine, MachineConfig, RecordedOutcome};
use granlog_ir::{parser::parse_program, PredId, Program, Symbol, Term};
use granlog_par::{Granularity, ParConfig, ParExecutor};
use granlog_serve::{BootError, ServeConfig, Server};
use granlog_sim::{simulate, OverheadModel, SimConfig};
use granlog_store::{FsyncPolicy, StoreConfig};
use std::fmt;
use std::io::Write;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

/// The usage string printed on argument errors.
pub const USAGE: &str = "\
usage:
  granlog analyze  <file.pl> [--overhead W]
  granlog annotate <file.pl> [--overhead W]
  granlog run      <file.pl> <query> [--granularity on|always-spawn|off]
                   [--overhead W] [--processors P [--profile] | --threads N]
                   [--trace FILE]
  granlog run      <file.pl> <query> --engine bottom-up [--trace FILE]
  granlog ddg      <file.pl> <name/arity>
  granlog serve    [--addr HOST:PORT] [--steps N] [--heap CELLS]
                   [--wall MS] [--cache N] [--max-conns N]
                   [--idle-timeout SECS] [--data-dir DIR]
                   [--fsync always|interval[=MS]|never] [--wal-limit BYTES]
                   [--metrics-addr HOST:PORT] [--slow-ms MS]

--granularity is the spawn policy of an SLD run: on (the default)
guards each parallel conjunction with its grain-size test (the paper's
T1), always-spawn spawns every one (T0), off spawns none (the
sequential baseline). Without --threads the query executes sequentially
and its parallelism is *simulated* on --processors P; with --threads N
it executes on a real pool of N worker threads (measured wall-clock;
under on, the pool runs the annotated program, whose grain tests decide
at run time which conjunctions spawn). A flag the command, or the run
path, does not read is a usage error.

--engine bottom-up evaluates the program as stratified Datalog: a
semi-naive fixpoint materialises every derivable fact, and the query
prints *all* answers (SLD resolution, --engine sld, the default, prints
the first). Programs outside the Datalog subset (cut, disjunction,
arithmetic, builtins, metacalls, non-ground compound arguments,
unstratified negation) are rejected with a diagnostic naming the
offending clause.

serve starts a multi-tenant query service: one session per connection,
compiled programs shared through a cache of --cache entries, each query
one engine call under the per-session budget (--steps head attempts,
200000000 when unset; --heap arena cells; --wall milliseconds). Past
--max-conns concurrent connections new ones are shed with a typed
`err overloaded` line (0 = unlimited); connections idle longer than
--idle-timeout seconds are reaped (0 = never). With --data-dir the
loaded-program corpus is durable: every accepted load is journaled to a
write-ahead log under DIR (fsynced per --fsync, compacted into a
snapshot past --wal-limit bytes) and replayed into the cache on the
next boot.

observability: `run --profile` turns on the engine's per-predicate port
profiler (call/exit/fail/redo counts plus head-attempt, unification and
heap-cell work) and prints the table joined against the analysis' cost
bounds; `run --trace FILE` dumps the query's structured events (query
begin/end, par spawn/inline/steal/join, datalog stratum/round) as JSONL
to FILE. `serve --metrics-addr` starts a plaintext HTTP listener
answering every request with the Prometheus text exposition the
`metrics` protocol command returns; `serve --slow-ms MS` logs every
query at or above MS milliseconds to stderr with its program key, goal
and budget consumption.";

/// Errors surfaced to the user by the CLI.
#[derive(Debug)]
pub enum CliError {
    /// The command line itself was malformed.
    Usage(String),
    /// A file could not be read.
    Io(std::io::Error),
    /// The program or query did not parse.
    Parse(granlog_ir::ParseError),
    /// The engine reported an error while running a query.
    Engine(granlog_engine::EngineError),
    /// The bottom-up engine rejected the program or query (outside the
    /// Datalog subset, unstratified, or unsafe), or evaluation failed.
    Datalog(granlog_datalog::DatalogError),
    /// `serve` could not boot: the listen address would not bind or the
    /// data dir is unusable. Typed, with a nonzero exit — never a panic
    /// backtrace.
    Serve(BootError),
    /// Anything else (missing predicate, bad indicator, ...).
    Other(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Parse(e) => write!(f, "{e}"),
            CliError::Engine(e) => write!(f, "execution error: {e}"),
            CliError::Datalog(e) => write!(f, "bottom-up: {e}"),
            CliError::Serve(e) => write!(f, "serve: {e}"),
            CliError::Other(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<granlog_ir::ParseError> for CliError {
    fn from(e: granlog_ir::ParseError) -> Self {
        CliError::Parse(e)
    }
}

impl From<granlog_engine::EngineError> for CliError {
    fn from(e: granlog_engine::EngineError) -> Self {
        CliError::Engine(e)
    }
}

impl From<BootError> for CliError {
    fn from(e: BootError) -> Self {
        CliError::Serve(e)
    }
}

impl From<granlog_datalog::DatalogError> for CliError {
    fn from(e: granlog_datalog::DatalogError) -> Self {
        CliError::Datalog(e)
    }
}

/// Parsed command-line options shared by the subcommands.
#[derive(Debug, Clone)]
struct Options {
    overhead: f64,
    processors: usize,
    /// `Some(n)`: execute on a real pool of `n` threads instead of
    /// simulating.
    threads: Option<usize>,
    /// `run`: the spawn policy of an SLD run, simulated or threaded.
    granularity: Granularity,
    /// `run`: which evaluation engine answers the query.
    engine: Engine,
    /// `run`: dump structured trace events as JSONL to this file.
    trace: Option<String>,
    /// `run`: enable the per-predicate port profiler and print its table.
    profile: bool,
    /// `serve`: the server's configuration, but for its store.
    serve: ServeConfig,
    /// `serve`: data directory for the durable program store (None = the
    /// corpus is in-memory only).
    data_dir: Option<String>,
    /// `serve`: the store's fsync policy and WAL bound (its `dir` is
    /// `data_dir`).
    store: StoreConfig,
    positional: Vec<String>,
    /// Every flag on the command line, in order; a command refuses any it
    /// does not read ([`Options::reads`]).
    given: Vec<String>,
}

impl Options {
    /// Refuses the first flag given that `command` does not read (`flags`,
    /// space-separated): every flag either changes what the command does or
    /// is a usage error.
    fn reads(&self, command: &str, flags: &str) -> Result<(), CliError> {
        let unread = |flag: &&String| !flags.split(' ').any(|f| f == flag.as_str());
        match self.given.iter().find(unread) {
            Some(flag) => Err(usage(&format!("{command} does not take {flag}"))),
            None => Ok(()),
        }
    }
}

/// Which evaluation strategy `granlog run` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// Top-down SLD resolution (first answer), the default.
    Sld,
    /// Bottom-up semi-naive Datalog evaluation (all answers).
    BottomUp,
}

fn parse_options(args: &[String]) -> Result<Options, CliError> {
    let mut options = Options {
        overhead: OverheadModel::rolog_like().per_task_overhead(),
        processors: 4,
        threads: None,
        granularity: Granularity::On,
        engine: Engine::Sld,
        trace: None,
        profile: false,
        serve: ServeConfig {
            addr: "127.0.0.1:4517".to_string(),
            ..ServeConfig::default()
        },
        data_dir: None,
        store: StoreConfig::new(""),
        positional: Vec::new(),
        given: Vec::new(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let flag = arg.as_str();
        if flag.starts_with("--") {
            options.given.push(arg.clone());
        }
        let serve = &mut options.serve;
        match flag {
            "--overhead" => {
                let overhead: f64 = value(flag, "overhead", &mut iter)?;
                // A task cannot cost NaN, infinitely many or fewer than no
                // units: every threshold downstream would be meaningless.
                if !overhead.is_finite() || overhead < 0.0 {
                    return Err(usage(&format!(
                        "--overhead must be a finite, non-negative number, not {overhead}"
                    )));
                }
                options.overhead = overhead;
            }
            "--processors" => {
                options.processors =
                    at_least_one(flag, value(flag, "processor count", &mut iter)?)?;
            }
            "--threads" => {
                let threads = value(flag, "thread count", &mut iter)?;
                options.threads = Some(at_least_one(flag, threads)?);
            }
            "--engine" => {
                options.engine = match value::<String>(flag, "", &mut iter)?.as_str() {
                    "sld" => Engine::Sld,
                    "bottom-up" => Engine::BottomUp,
                    other => {
                        return Err(usage(&format!("unknown engine {other:?} (sld|bottom-up)")))
                    }
                };
            }
            "--granularity" => {
                options.granularity = match value::<String>(flag, "", &mut iter)?.as_str() {
                    "on" => Granularity::On,
                    "off" => Granularity::Off,
                    "always-spawn" => Granularity::AlwaysSpawn,
                    other => return Err(usage(&format!("unknown granularity mode {other:?}"))),
                };
            }
            "--trace" => options.trace = Some(value(flag, "", &mut iter)?),
            "--profile" => options.profile = true,
            "--addr" => serve.addr = value(flag, "", &mut iter)?,
            "--steps" => serve.budget.steps = Some(value(flag, "step budget", &mut iter)?),
            "--heap" => serve.budget.heap_cells = Some(value(flag, "heap budget", &mut iter)?),
            "--wall" => {
                let ms = value(flag, "wall budget", &mut iter)?;
                serve.budget.wall = Some(Duration::from_millis(ms));
            }
            "--cache" => {
                serve.cache_capacity =
                    at_least_one(flag, value(flag, "cache capacity", &mut iter)?)?;
            }
            "--max-conns" => serve.max_conns = value(flag, "connection cap", &mut iter)?,
            "--idle-timeout" => {
                let secs = value(flag, "idle timeout", &mut iter)?;
                serve.idle_timeout = (secs > 0).then(|| Duration::from_secs(secs));
            }
            "--metrics-addr" => serve.metrics_addr = Some(value(flag, "", &mut iter)?),
            "--slow-ms" => serve.slow_ms = Some(value(flag, "slow threshold", &mut iter)?),
            "--data-dir" => options.data_dir = Some(value(flag, "", &mut iter)?),
            "--fsync" => {
                let policy: String = value(flag, "", &mut iter)?;
                options.store.fsync = FsyncPolicy::parse(&policy).ok_or_else(|| {
                    usage(&format!(
                        "invalid fsync policy {policy:?} (always|interval[=MS]|never)"
                    ))
                })?;
            }
            "--wal-limit" => options.store.wal_limit_bytes = value(flag, "wal limit", &mut iter)?,
            other if other.starts_with("--") => {
                return Err(usage(&format!("unknown option {other}")));
            }
            other => options.positional.push(other.to_owned()),
        }
    }
    Ok(options)
}

/// The value following `flag`, parsed as a `T`; `what` names the value in
/// the "invalid ..." diagnostic.
fn value<T: FromStr>(
    flag: &str,
    what: &str,
    iter: &mut std::slice::Iter<'_, String>,
) -> Result<T, CliError> {
    let noun = if flag == "--trace" { "file" } else { "value" };
    let text = iter
        .next()
        .ok_or_else(|| usage(&format!("{flag} needs a {noun}")))?;
    text.parse()
        .map_err(|_| usage(&format!("invalid {what} {text:?}")))
}

/// Rejects a zero count for `flag`.
fn at_least_one<T: PartialEq + Default>(flag: &str, n: T) -> Result<T, CliError> {
    if n == T::default() {
        return Err(usage(&format!("{flag} must be at least 1")));
    }
    Ok(n)
}

fn usage(msg: &str) -> CliError {
    CliError::Usage(msg.to_owned())
}

fn load_program(path: &str) -> Result<Program, CliError> {
    let source = std::fs::read_to_string(path)?;
    Ok(parse_program(&source)?)
}

/// Entry point shared by the binary and the tests. `args` excludes the program
/// name; all regular output is written to `out`.
pub fn run_cli(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(usage("missing subcommand"));
    };
    let options = parse_options(rest)?;
    match command.as_str() {
        "analyze" => cmd_analyze(&options, out),
        "annotate" => cmd_annotate(&options, out),
        "run" => cmd_run(&options, out),
        "ddg" => cmd_ddg(&options, out),
        "serve" => cmd_serve(&options, out),
        "help" | "--help" | "-h" => {
            options.reads("help", "")?;
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        other => Err(usage(&format!("unknown subcommand {other:?}"))),
    }
}

fn cmd_analyze(options: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    options.reads("analyze", "--overhead")?;
    let [path] = options.positional.as_slice() else {
        return Err(usage("analyze expects exactly one file"));
    };
    let program = load_program(path)?;
    let analysis = analyze_program(&program, &AnalysisOptions::default());
    write!(out, "{}", render_report(&analysis, Some(options.overhead)))?;
    Ok(())
}

fn cmd_annotate(options: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    options.reads("annotate", "--overhead")?;
    let [path] = options.positional.as_slice() else {
        return Err(usage("annotate expects exactly one file"));
    };
    let program = load_program(path)?;
    let analysis = analyze_program(&program, &AnalysisOptions::default());
    let annotated = apply_granularity_control(
        &program,
        &analysis,
        &AnnotateOptions {
            overhead: options.overhead,
        },
    );
    writeln!(
        out,
        "% granularity control for a per-task overhead of {} units",
        options.overhead
    )?;
    write!(out, "{}", annotated.program)?;
    writeln!(out)?;
    for decision in &annotated.decisions {
        writeln!(
            out,
            "% clause {} of {}: {:?}",
            decision.clause_index + 1,
            decision.clause_pred,
            decision.guarded
        )?;
    }
    Ok(())
}

/// The three ways `run` answers a query, picked by `--engine` and `--threads`.
#[derive(Clone, Copy)]
enum RunPath {
    /// SLD resolution on one machine, parallelism simulated on
    /// `--processors`.
    Simulated,
    /// SLD resolution on a real pool of this many threads.
    Threaded(usize),
    /// Bottom-up Datalog evaluation.
    BottomUp,
}

/// What a `run` path reports: its answers and the lines printed after them.
struct RunReport {
    answers: Vec<Vec<(Symbol, Term)>>,
    summary: Vec<u8>,
}

fn cmd_run(options: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    let (path, command, flags) = match (options.engine, options.threads) {
        (Engine::BottomUp, _) => (RunPath::BottomUp, "run --engine bottom-up", ""),
        (Engine::Sld, Some(threads)) => (
            RunPath::Threaded(threads),
            "run --threads",
            "--threads --granularity --overhead",
        ),
        (Engine::Sld, None) => (
            RunPath::Simulated,
            "run",
            "--granularity --overhead --processors --profile",
        ),
    };
    options.reads(command, &format!("--engine --trace {flags}"))?;
    let [file, query] = options.positional.as_slice() else {
        return Err(usage("run expects a file and a query"));
    };
    let program = load_program(file)?;
    // One reading of the goal, whichever engine answers it: a malformed
    // goal is a parse error, not an execution error of one engine.
    let (goal, var_names) = granlog_ir::parser::parse_term(query)?;
    let report = traced(options.trace.as_deref(), query, |tracer| match path {
        RunPath::Simulated => run_simulated(options, &program, &goal, &var_names),
        RunPath::Threaded(threads) => {
            run_threaded(options, threads, &program, &goal, &var_names, tracer)
        }
        RunPath::BottomUp => run_bottom_up(&program, &goal, &var_names, tracer),
    })?;
    // SLD prints its one answer a binding a line, bottom-up an answer a line.
    let separator = match path {
        RunPath::BottomUp => ", ",
        _ => "\n  ",
    };
    write_answers(out, report.answers, separator)?;
    out.write_all(&report.summary)?;
    Ok(())
}

/// `granlog run`: sequential execution of the program prepared for the
/// spawn policy — `on` guards each `&` with its grain test (the paper's
/// T1), `always-spawn` spawns every `&` (T0), `off` runs sequentially —
/// with the recorded fork-join tree scheduled on a simulated machine of
/// `--processors` processors.
fn run_simulated(
    options: &Options,
    program: &Program,
    goal: &Term,
    var_names: &[Symbol],
) -> Result<(RunReport, TraceFields), CliError> {
    let mode = match options.granularity {
        Granularity::On => ControlMode::WithControl,
        Granularity::AlwaysSpawn => ControlMode::NoControl,
        Granularity::Off => ControlMode::Sequential,
    };
    let analysis = analyze_program(program, &AnalysisOptions::default());
    let prepared = prepare_program(program, &analysis, mode, options.overhead);
    let mut machine = Machine::with_config(
        &prepared,
        MachineConfig {
            profile: options.profile,
            ..MachineConfig::default()
        },
    );
    let RecordedOutcome { outcome, task_tree } = machine.run_goal_recorded(goal, var_names)?;
    let mut summary = Vec::new();
    writeln!(
        summary,
        "work: {:.0} units ({} resolutions, {} grain tests); tasks spawned: {}",
        outcome.work,
        outcome.counters.resolutions,
        outcome.counters.grain_tests,
        task_tree.spawned_tasks()
    )?;
    if let Some(rows) = machine.profile() {
        write_profile(&mut summary, &rows, &analysis)?;
    }
    let scaled = OverheadModel::rolog_like();
    let per_task = scaled.per_task_overhead();
    let overhead = scaled.scaled(options.overhead / per_task.max(1e-9));
    let sim = simulate(&task_tree, &SimConfig::new(options.processors, overhead));
    writeln!(
        summary,
        "simulated time on {} processors: {:.0} units (speedup {:.2}x, utilisation {:.0}%)",
        options.processors,
        sim.makespan,
        sim.speedup_vs_sequential,
        sim.utilisation * 100.0
    )?;
    let end = vec![
        ("ok", outcome.succeeded.into()),
        ("resolutions", outcome.counters.resolutions.into()),
    ];
    let answers = outcome.succeeded.then_some(outcome.bindings);
    let answers = answers.into_iter().collect();
    Ok((RunReport { answers, summary }, end))
}

/// Events the `--trace` ring can hold; past this the oldest are dropped
/// (the dump's `dropped` figure is visible via ring accounting, and a
/// single CLI query rarely approaches it).
const TRACE_RING_CAPACITY: usize = 65536;

/// The `--trace` scope of one `run`: with a trace file requested, `run`
/// executes between a `query_begin` and a `query_end` event (the latter
/// carrying the fields `run` returns beside its result) on a fresh ring,
/// which is then written to `path` as JSONL, one event object per line.
/// Without one, `run` sees no tracer and nothing is recorded.
fn traced<T>(
    path: Option<&str>,
    query: &str,
    run: impl FnOnce(Option<&Arc<granlog_obs::Tracer>>) -> Result<(T, TraceFields), CliError>,
) -> Result<T, CliError> {
    let tracer = path.map(|_| Arc::new(granlog_obs::Tracer::new(TRACE_RING_CAPACITY)));
    if let Some(t) = &tracer {
        t.emit("query_begin", vec![("goal", query.into())]);
    }
    let (result, end) = run(tracer.as_ref())?;
    if let (Some(path), Some(t)) = (path, &tracer) {
        t.emit("query_end", end);
        std::fs::write(path, t.jsonl(false))?;
    }
    Ok(result)
}

type TraceFields = Vec<(&'static str, granlog_obs::Value)>;

/// Prints `yes` and one line per answer — its named bindings joined by
/// `sep` — or `no` if there is no answer.
fn write_answers(
    out: &mut dyn Write,
    answers: impl IntoIterator<Item = Vec<(Symbol, Term)>>,
    sep: &str,
) -> Result<(), CliError> {
    let mut answers = answers.into_iter().peekable();
    if answers.peek().is_none() {
        writeln!(out, "no")?;
    } else {
        writeln!(out, "yes")?;
    }
    for bindings in answers {
        let shown: Vec<String> = bindings
            .iter()
            .filter(|(name, _)| name.as_str() != "_")
            .map(|(name, value)| format!("{name} = {value}"))
            .collect();
        if !shown.is_empty() {
            writeln!(out, "  {}", shown.join(sep))?;
        }
    }
    Ok(())
}

/// Prints the profiler's per-predicate table, joining observed port counts
/// against the analysis' predicted cost bound for each predicate (`-` for
/// predicates the analysis has no closed form for, e.g. builtins-heavy or
/// transformed ones).
fn write_profile(
    out: &mut dyn Write,
    rows: &[(PredId, granlog_engine::PredProfile)],
    analysis: &granlog_analysis::pipeline::ProgramAnalysis,
) -> Result<(), CliError> {
    writeln!(
        out,
        "profile: per-predicate ports (call + redo = exit + fail on completed runs)"
    )?;
    writeln!(
        out,
        "  {:<18} {:>7} {:>7} {:>7} {:>7} {:>9} {:>9} {:>10}  predicted cost",
        "predicate", "calls", "exits", "fails", "redos", "head-att", "unif", "heap-cells",
    )?;
    for (pred, p) in rows {
        let cost = analysis
            .cost_of(*pred)
            .map_or_else(|| "-".to_string(), |e| e.to_string());
        writeln!(
            out,
            "  {:<18} {:>7} {:>7} {:>7} {:>7} {:>9} {:>9} {:>10}  {}",
            pred.to_string(),
            p.calls,
            p.exits,
            p.fails,
            p.redos,
            p.head_attempts,
            p.unifications,
            p.heap_cells,
            cost,
        )?;
    }
    Ok(())
}

/// `granlog run --threads N`: real multi-threaded execution on the
/// work-sharing pool — under `--granularity on` on the annotated program,
/// whose grain tests decide which conjunctions spawn — and measured (not
/// simulated) wall-clock time.
fn run_threaded(
    options: &Options,
    threads: usize,
    program: &Program,
    goal: &Term,
    var_names: &[Symbol],
    tracer: Option<&Arc<granlog_obs::Tracer>>,
) -> Result<(RunReport, TraceFields), CliError> {
    let mut executor = ParExecutor::new(
        program,
        ParConfig {
            threads,
            granularity: options.granularity,
            overhead: options.overhead,
            machine: MachineConfig::default(),
        },
    );
    // With --trace, hook a local registry + the ring into the executor so
    // the spawn/inline/steal/join stream lands in the dump.
    executor.set_obs(tracer.map(|t| {
        let registry = granlog_obs::Registry::new();
        Arc::new(granlog_par::ParObs::register(&registry, Arc::clone(t)))
    }));
    let start = std::time::Instant::now();
    let outcome = executor.run_goal(goal, var_names)?;
    let wall = start.elapsed();
    let mut summary = Vec::new();
    writeln!(
        summary,
        "work: {:.0} units ({} resolutions, {} grain tests)",
        outcome.work, outcome.counters.resolutions, outcome.counters.grain_tests
    )?;
    let mode = match options.granularity {
        Granularity::On => "granularity control on",
        Granularity::Off => "parallelism off",
        Granularity::AlwaysSpawn => "always spawn",
    };
    writeln!(
        summary,
        "measured time on {} threads ({mode}): {:.3} ms; tasks spawned: {}, conjunctions inlined: {}",
        threads,
        wall.as_secs_f64() * 1e3,
        outcome.spawned_tasks,
        outcome.inlined_conjunctions
    )?;
    let end = vec![
        ("ok", outcome.succeeded.into()),
        ("spawned", outcome.spawned_tasks.into()),
    ];
    let answers = outcome.succeeded.then_some(outcome.bindings);
    let answers = answers.into_iter().collect();
    Ok((RunReport { answers, summary }, end))
}

/// `granlog run --engine bottom-up`: compile the program as stratified
/// Datalog, run the semi-naive fixpoint, and print *every* answer to the
/// query (SLD resolution prints the first), one answer a line.
fn run_bottom_up(
    program: &Program,
    goal: &Term,
    var_names: &[Symbol],
    tracer: Option<&Arc<granlog_obs::Tracer>>,
) -> Result<(RunReport, TraceFields), CliError> {
    let compiled = granlog_datalog::CompiledDatalog::compile(program)?;
    let database = compiled.evaluate_traced(tracer.map(|t| &**t))?;
    let answers = database.query(goal, var_names)?;
    let stats = database.stats();
    let mut summary = Vec::new();
    writeln!(
        summary,
        "bottom-up: {} answers; {} facts derived in {} rounds \
         ({} edb facts, {} join batches, {} tuples tried)",
        answers.rows.len(),
        stats.derived_facts,
        stats.rounds,
        stats.edb_facts,
        stats.join_batches,
        stats.tuples_tried
    )?;
    let end = vec![
        ("ok", answers.succeeded().into()),
        ("answers", answers.rows.len().into()),
    ];
    let answers = (0..answers.rows.len()).map(|i| answers.bindings(i));
    let answers = answers.collect();
    Ok((RunReport { answers, summary }, end))
}

/// `granlog serve`: run the multi-tenant query service until a client sends
/// `shutdown`. The listening line is printed (and flushed) before blocking,
/// so scripts can scrape the bound port even when `--addr` asked for port 0.
fn cmd_serve(options: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    options.reads(
        "serve",
        "--addr --steps --heap --wall --cache --max-conns --idle-timeout --data-dir \
         --fsync --wal-limit --metrics-addr --slow-ms",
    )?;
    if !options.positional.is_empty() {
        return Err(usage("serve takes no positional arguments"));
    }
    let handle = Server::start(ServeConfig {
        store: options.data_dir.as_ref().map(|dir| StoreConfig {
            dir: dir.into(),
            ..options.store.clone()
        }),
        ..options.serve.clone()
    })?;
    if options.data_dir.is_some() {
        writeln!(out, "recovered {} programs", handle.recovered_programs())?;
    }
    if let Some(addr) = handle.metrics_addr() {
        writeln!(out, "metrics on {addr}")?;
    }
    writeln!(out, "listening on {}", handle.addr())?;
    out.flush()?;
    handle.wait();
    writeln!(out, "server stopped")?;
    Ok(())
}

fn cmd_ddg(options: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    options.reads("ddg", "")?;
    let [path, indicator] = options.positional.as_slice() else {
        return Err(usage(
            "ddg expects a file and a predicate indicator (name/arity)",
        ));
    };
    let program = load_program(path)?;
    let pred = parse_indicator(indicator)?;
    if !program.defines(pred) {
        return Err(CliError::Other(format!("{pred} is not defined in {path}")));
    }
    let modes = granlog_ir::modes::infer_modes(&program);
    let decl = granlog_ir::modes::mode_or_default(&modes, pred).into_owned();
    for (i, clause) in program.clauses_of(pred).iter().enumerate() {
        let ddg = Ddg::build(clause, &decl);
        writeln!(out, "% clause {}: {}", i + 1, clause.display())?;
        write!(out, "{}", ddg.to_ascii())?;
        writeln!(out)?;
    }
    Ok(())
}

fn parse_indicator(text: &str) -> Result<PredId, CliError> {
    let Some((name, arity)) = text.rsplit_once('/') else {
        return Err(usage(&format!(
            "bad predicate indicator {text:?} (expected name/arity)"
        )));
    };
    let arity: usize = arity
        .parse()
        .map_err(|_| usage(&format!("bad arity in {text:?}")))?;
    Ok(PredId::parse(name, arity))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("granlog-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        path
    }

    fn run(args: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run_cli(&args, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    const NREV: &str = r#"
        :- mode nrev(+, -).
        :- mode append(+, +, -).
        nrev([], []).
        nrev([H|L], R) :- nrev(L, R1), append(R1, [H], R).
        append([], L, L).
        append([H|L1], L2, [H|L3]) :- append(L1, L2, L3).
    "#;

    const QSORT: &str = r#"
        :- mode qsort(+, -).
        :- mode partition(+, +, -, -).
        :- mode app(+, +, -).
        qsort([], []).
        qsort([P|Xs], S) :- partition(Xs, P, Sm, Bg), qsort(Sm, S1) & qsort(Bg, S2), app(S1, [P|S2], S).
        partition([], _, [], []).
        partition([X|Xs], P, [X|S], B) :- X =< P, partition(Xs, P, S, B).
        partition([X|Xs], P, S, [X|B]) :- X > P, partition(Xs, P, S, B).
        app([], L, L).
        app([H|T], L, [H|R]) :- app(T, L, R).
    "#;

    #[test]
    fn analyze_prints_costs_and_thresholds() {
        let path = write_temp("nrev_analyze.pl", NREV);
        let out = run(&["analyze", path.to_str().unwrap(), "--overhead", "48"]).unwrap();
        assert!(out.contains("0.5*n^2 + 1.5*n + 1"));
        assert!(out.contains("threshold"));
        assert!(out.contains("nrev/2"));
    }

    #[test]
    fn annotate_inserts_grain_tests() {
        let path = write_temp("qsort_annotate.pl", QSORT);
        let out = run(&["annotate", path.to_str().unwrap(), "--overhead", "40"]).unwrap();
        assert!(out.contains("$grain_ge"), "{out}");
        assert!(out.contains('&'));
        assert!(out.contains("% clause"));
    }

    #[test]
    fn run_executes_queries_with_and_without_control() {
        let path = write_temp("qsort_run.pl", QSORT);
        for mode in ["on", "always-spawn", "off"] {
            let out = run(&[
                "run",
                path.to_str().unwrap(),
                "qsort([3,1,2], S)",
                "--granularity",
                mode,
                "--processors",
                "2",
            ])
            .unwrap();
            assert!(out.contains("yes"), "{mode}: {out}");
            assert!(out.contains("S = [1,2,3]"), "{mode}: {out}");
            assert!(out.contains("simulated time"), "{mode}: {out}");
        }
    }

    #[test]
    fn run_executes_on_real_threads() {
        let path = write_temp("qsort_par.pl", QSORT);
        for granularity in ["on", "off", "always-spawn"] {
            let out = run(&[
                "run",
                path.to_str().unwrap(),
                "qsort([3,1,2,5,4], S)",
                "--threads",
                "2",
                "--granularity",
                granularity,
            ])
            .unwrap();
            assert!(out.contains("yes"), "{granularity}: {out}");
            assert!(out.contains("S = [1,2,3,4,5]"), "{granularity}: {out}");
            assert!(out.contains("measured time on 2 threads"), "{out}");
        }
        // Parallelism off never spawns.
        let out = run(&[
            "run",
            path.to_str().unwrap(),
            "qsort([3,1,2], S)",
            "--threads",
            "4",
            "--granularity",
            "off",
        ])
        .unwrap();
        assert!(out.contains("tasks spawned: 0"), "{out}");
        // Bad values are usage errors.
        assert!(matches!(
            run(&["run", path.to_str().unwrap(), "q", "--threads", "0"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&[
                "run",
                path.to_str().unwrap(),
                "q",
                "--threads",
                "2",
                "--granularity",
                "bogus"
            ]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn run_reports_failure() {
        let path = write_temp("fail_run.pl", "p(1).");
        let out = run(&["run", path.to_str().unwrap(), "p(2)"]).unwrap();
        assert!(out.contains("no"));
    }

    const ATTACK: &str = r#"
        host(a). host(b). host(c). host(d).
        link(a, b). link(b, c).
        vuln(b). vuln(c).
        entry(a).
        reach(H) :- entry(H).
        reach(T) :- link(S, T), reach(S).
        safe(H) :- host(H), \+ reach(H).
    "#;

    #[test]
    fn run_bottom_up_prints_all_answers() {
        let path = write_temp("attack_run.pl", ATTACK);
        let out = run(&[
            "run",
            path.to_str().unwrap(),
            "reach(X)",
            "--engine",
            "bottom-up",
        ])
        .unwrap();
        assert!(out.contains("yes"), "{out}");
        for host in ["X = a", "X = b", "X = c"] {
            assert!(out.contains(host), "missing {host}: {out}");
        }
        assert!(out.contains("3 answers"), "{out}");
        assert!(out.contains("facts derived in"), "{out}");
        // The stratified-negation stratum works over the CLI too.
        let out = run(&[
            "run",
            path.to_str().unwrap(),
            "safe(X)",
            "--engine",
            "bottom-up",
        ])
        .unwrap();
        assert!(out.contains("X = d"), "{out}");
        assert!(out.contains("1 answers"), "{out}");
        // A ground query is yes/no.
        let out = run(&[
            "run",
            path.to_str().unwrap(),
            "reach(d)",
            "--engine",
            "bottom-up",
        ])
        .unwrap();
        assert!(out.starts_with("no"), "{out}");
        // `--engine sld` is the explicit spelling of the default.
        let out = run(&["run", path.to_str().unwrap(), "reach(X)", "--engine", "sld"]).unwrap();
        assert!(out.contains("X = a"), "{out}");
        assert!(out.contains("simulated time"), "{out}");
    }

    #[test]
    fn run_bottom_up_rejects_non_datalog_with_the_clause_named() {
        let path = write_temp("nrev_bottom_up.pl", NREV);
        let err = run(&[
            "run",
            path.to_str().unwrap(),
            "nrev([1,2], R)",
            "--engine",
            "bottom-up",
        ])
        .expect_err("nrev builds lists; it is not Datalog");
        assert!(matches!(err, CliError::Datalog(_)), "{err:?}");
        let msg = err.to_string();
        assert!(msg.contains("not a Datalog program"), "{msg}");
        assert!(
            msg.contains("nrev"),
            "diagnostic must name the clause: {msg}"
        );
    }

    #[test]
    fn ddg_prints_graphs() {
        let path = write_temp("nrev_ddg.pl", NREV);
        let out = run(&["ddg", path.to_str().unwrap(), "nrev/2"]).unwrap();
        assert!(out.contains("start"));
        assert!(out.contains("{body2_1, body2_2, body2_3}"));
        assert!(run(&["ddg", path.to_str().unwrap(), "missing/9"]).is_err());
        assert!(run(&["ddg", path.to_str().unwrap(), "nonsense"]).is_err());
    }

    #[test]
    fn usage_errors() {
        assert!(matches!(run(&[]), Err(CliError::Usage(_))));
        assert!(matches!(run(&["frobnicate"]), Err(CliError::Usage(_))));
        assert!(matches!(run(&["analyze"]), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&["analyze", "a.pl", "--overhead"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["run", "x.pl", "q", "--processors", "0"]),
            Err(CliError::Usage(_))
        ));
        let help = run(&["help"]).unwrap();
        assert!(help.contains("usage"));
    }

    /// Runs each command line, with `F` standing for `file`, and asserts
    /// that it is a usage error whose message starts with the expected text.
    fn assert_usage_errors(file: &std::path::Path, cases: &[(&str, &str)]) {
        let file = file.to_str().unwrap();
        for (line, expected) in cases {
            let args: Vec<&str> = line
                .split(' ')
                .map(|arg| if arg == "F" { file } else { arg })
                .collect();
            match run(&args) {
                Err(CliError::Usage(msg)) => assert!(msg.starts_with(expected), "{line}: {msg}"),
                other => panic!("{line}: expected a usage error, got {other:?}"),
            }
        }
    }

    /// Every flag a command, or the `run` path picked, does not read is a
    /// usage error naming that flag and the command; none is dropped. The
    /// spawn policy has one spelling: the old ones are unknown options, as
    /// is `--metric`, since the analysis has one cost unit.
    #[test]
    fn a_flag_the_command_does_not_read_is_a_usage_error() {
        let pl = write_temp("flags.pl", &format!("{NREV}\n{ATTACK}\ncount(0).\n"));
        assert_usage_errors(
            &pl,
            &[
                (
                    "run F count(100000) --steps 10",
                    "run does not take --steps",
                ),
                ("serve --threads 2", "serve does not take --threads"),
                (
                    "analyze F --granularity off",
                    "analyze does not take --granularity",
                ),
                (
                    "annotate F --processors 2",
                    "annotate does not take --processors",
                ),
                (
                    "ddg F nrev/2 --threads 3 --profile",
                    "ddg does not take --threads",
                ),
                ("help --trace t.jsonl", "help does not take --trace"),
                (
                    "run F reach(X) --wal-limit 9",
                    "run does not take --wal-limit",
                ),
                ("analyze F --metric steps", "unknown option --metric"),
                (
                    "run --engine bottom-up F reach(X) --granularity off --overhead 7",
                    "run --engine bottom-up does not take --granularity",
                ),
                (
                    "run F nrev([1],R) --processors 8 --threads 2",
                    "run --threads does not take --processors",
                ),
                (
                    "run F nrev([1],R) --threads 2 --sequential",
                    "unknown option --sequential",
                ),
                ("run F nrev([1],R) --control", "unknown option --control"),
                (
                    "run F nrev([1],R) --no-control",
                    "unknown option --no-control",
                ),
            ],
        );
    }

    #[test]
    fn run_bottom_up_refuses_sld_side_flags() {
        let pl = write_temp("attack_flags.pl", ATTACK);
        assert_usage_errors(
            &pl,
            &[
                (
                    "run F reach(X) --engine bottom-up --threads 2",
                    "run --engine bottom-up does not take --threads",
                ),
                (
                    "run F reach(X) --engine bottom-up --processors 4",
                    "run --engine bottom-up does not take --processors",
                ),
                (
                    "run F reach(X) --engine bottom-up --granularity off",
                    "run --engine bottom-up does not take --granularity",
                ),
                ("run F reach(X) --engine magic", "unknown engine \"magic\""),
            ],
        );
    }

    #[test]
    fn run_profile_refuses_threads_and_bottom_up() {
        let pl = write_temp("nrev_profile_refuse.pl", NREV);
        assert_usage_errors(
            &pl,
            &[
                (
                    "run F nrev([1],R) --profile --threads 2",
                    "run --threads does not take --profile",
                ),
                (
                    "run F nrev([1],R) --profile --engine bottom-up",
                    "run --engine bottom-up does not take --profile",
                ),
            ],
        );
    }

    #[test]
    fn an_overhead_that_is_not_a_cost_is_a_usage_error() {
        let path = write_temp("overhead_domain.pl", QSORT);
        let path = path.to_str().unwrap();
        for overhead in ["nan", "NaN", "inf", "-inf", "infinity", "-1", "-0.5"] {
            for command in [
                vec!["analyze", path],
                vec!["annotate", path],
                vec!["run", path, "qsort([3,1,2], S)", "--granularity", "on"],
            ] {
                let args = [command, vec!["--overhead", overhead]].concat();
                match run(&args) {
                    Err(CliError::Usage(msg)) => assert!(msg.contains("--overhead"), "{msg}"),
                    other => panic!("{args:?}: expected a usage error, got {other:?}"),
                }
            }
        }
        // The boundary is inside the domain: spawning for free is a model.
        assert!(run(&["analyze", path, "--overhead", "0"]).is_ok());
    }

    /// A `Write` sink the serve thread and the test can share.
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    #[test]
    fn serve_answers_a_scripted_session_and_shuts_down() {
        let out = SharedBuf::default();
        let mut thread_out = out.clone();
        let server = std::thread::spawn(move || {
            let args: Vec<String> = ["serve", "--addr", "127.0.0.1:0", "--steps", "4000"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            run_cli(&args, &mut thread_out)
        });
        // Scrape the bound port from the listening line.
        let addr = loop {
            if let Some(line) = out
                .contents()
                .lines()
                .find_map(|l| l.strip_prefix("listening on ").map(str::to_string))
            {
                break line;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        };
        let mut client = granlog_serve::ServeClient::connect(&addr).unwrap();
        client.load(NREV).unwrap().unwrap();
        let reply = client
            .query("nrev([1,2,3], R)")
            .unwrap()
            .expect("query must succeed");
        assert!(reply.succeeded);
        assert_eq!(reply.bindings, vec![("R".into(), "[3,2,1]".into())]);
        // The session budget is enforced over the serve path too.
        let err = client
            .query(
                "nrev([1,2,3,4,5,6,7,8,9,10,1,2,3,4,5,6,7,8,9,10,\
                    1,2,3,4,5,6,7,8,9,10,1,2,3,4,5,6,7,8,9,10,\
                    1,2,3,4,5,6,7,8,9,10,1,2,3,4,5,6,7,8,9,10,\
                    1,2,3,4,5,6,7,8,9,10,1,2,3,4,5,6,7,8,9,10,\
                    1,2,3,4,5,6,7,8,9,10,1,2,3,4,5,6,7,8,9,10], R)",
            )
            .unwrap()
            .expect_err("a 100-element nrev must blow a 4000-step budget");
        assert!(err.contains("budget"), "{err}");
        client.shutdown_server().unwrap();
        server.join().unwrap().unwrap();
        assert!(out.contents().contains("server stopped"));
    }

    /// Starts `granlog serve` on a background thread, scrapes the bound
    /// address from the listening line, and returns `(addr, join handle,
    /// shared output)`.
    fn spawn_serve(
        extra: &[&str],
    ) -> (
        String,
        std::thread::JoinHandle<Result<(), CliError>>,
        SharedBuf,
    ) {
        let out = SharedBuf::default();
        let mut thread_out = out.clone();
        let mut args: Vec<String> = ["serve", "--addr", "127.0.0.1:0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        args.extend(extra.iter().map(|s| s.to_string()));
        let server = std::thread::spawn(move || run_cli(&args, &mut thread_out));
        let addr = loop {
            if let Some(line) = out
                .contents()
                .lines()
                .find_map(|l| l.strip_prefix("listening on ").map(str::to_string))
            {
                break line;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        };
        (addr, server, out)
    }

    #[test]
    fn serve_with_data_dir_recovers_programs_across_restarts() {
        let dir = std::env::temp_dir().join(format!("granlog-cli-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_arg = dir.to_str().unwrap();

        let (addr, server, _out) = spawn_serve(&["--data-dir", dir_arg]);
        let mut client = granlog_serve::ServeClient::connect(&addr).unwrap();
        client.load(NREV).unwrap().unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.stored, 1, "load must be journaled");
        assert!(stats.wal_bytes > 0);
        client.shutdown_server().unwrap();
        server.join().unwrap().unwrap();

        // Same data dir, fresh server: the corpus comes back and the first
        // query of the recovered program is a cache hit.
        let (addr, server, out) = spawn_serve(&["--data-dir", dir_arg]);
        assert!(
            out.contents().contains("recovered 1 programs"),
            "{}",
            out.contents()
        );
        let mut client = granlog_serve::ServeClient::connect(&addr).unwrap();
        let stats = client.stats().unwrap();
        assert_eq!(stats.recovered, 1);
        let (_, _, cache_hit) = client.load(NREV).unwrap().unwrap();
        assert!(cache_hit, "recovery must have pre-warmed the cache");
        let reply = client.query("nrev([1,2,3], R)").unwrap().unwrap();
        assert_eq!(reply.bindings, vec![("R".into(), "[3,2,1]".into())]);
        client.shutdown_server().unwrap();
        server.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_with_an_unusable_data_dir_is_a_typed_error() {
        let file = write_temp("not_a_dir.bin", "occupied");
        let err = run(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--data-dir",
            file.to_str().unwrap(),
        ])
        .expect_err("a regular file cannot be a data dir");
        assert!(matches!(err, CliError::Serve(_)), "{err:?}");
        assert!(err.to_string().contains("data dir"), "{err}");
    }

    #[test]
    fn serve_with_an_unbindable_addr_is_a_typed_error() {
        let err =
            run(&["serve", "--addr", "256.0.0.1:99999"]).expect_err("nonsense address cannot bind");
        assert!(matches!(err, CliError::Serve(_)), "{err:?}");
    }

    #[test]
    fn serve_wall_budget_cuts_runaway_queries() {
        let (addr, server, _out) = spawn_serve(&["--wall", "50"]);
        let mut client = granlog_serve::ServeClient::connect(&addr).unwrap();
        let path = write_temp("loop_wall.pl", "loop :- loop.\np(1).\n");
        let source = std::fs::read_to_string(&path).unwrap();
        client.load(&source).unwrap().unwrap();
        let err = client
            .query("loop")
            .unwrap()
            .expect_err("an infinite loop must blow a 50ms wall budget");
        assert!(err.starts_with("budget"), "{err}");
        // The wall budget can also be lifted per session, protocol-side.
        client
            .budget(granlog_engine::BudgetKind::Wall, None)
            .unwrap();
        assert!(client.query("p(X)").unwrap().unwrap().succeeded);
        client.shutdown_server().unwrap();
        server.join().unwrap().unwrap();
    }

    #[test]
    fn run_profile_prints_the_port_table() {
        let path = write_temp("nrev_profile.pl", NREV);
        let out = run(&[
            "run",
            path.to_str().unwrap(),
            "nrev([1,2,3,4], R)",
            "--profile",
        ])
        .unwrap();
        assert!(out.contains("profile: per-predicate ports"), "{out}");
        assert!(out.contains("nrev/2"), "{out}");
        assert!(out.contains("append/3"), "{out}");
        // The table joins observed work against the analysis' cost bounds.
        assert!(out.contains("0.5*n^2"), "{out}");
        // Without the flag the table never appears.
        let plain = run(&["run", path.to_str().unwrap(), "nrev([1,2,3,4], R)"]).unwrap();
        assert!(!plain.contains("profile:"), "{plain}");
    }

    #[test]
    fn run_trace_dumps_jsonl_events() {
        let path = write_temp("nrev_trace.pl", NREV);
        let trace = std::env::temp_dir()
            .join("granlog-cli-tests")
            .join(format!("trace-{}.jsonl", std::process::id()));
        let trace_arg = trace.to_str().unwrap().to_string();
        run(&[
            "run",
            path.to_str().unwrap(),
            "nrev([1,2], R)",
            "--trace",
            &trace_arg,
        ])
        .unwrap();
        let dump = std::fs::read_to_string(&trace).unwrap();
        assert!(dump.contains("\"kind\":\"query_begin\""), "{dump}");
        assert!(dump.contains("\"kind\":\"query_end\""), "{dump}");
        assert!(dump.lines().all(|l| l.starts_with('{')), "{dump}");

        // Bottom-up runs dump the fixpoint's stratum/round events.
        let dl = write_temp(
            "dl_trace.pl",
            "edge(a,b).\nedge(b,c).\npath(X,Y) :- edge(X,Y).\npath(X,Z) :- edge(X,Y), path(Y,Z).\n",
        );
        run(&[
            "run",
            dl.to_str().unwrap(),
            "path(a, X)",
            "--engine",
            "bottom-up",
            "--trace",
            &trace_arg,
        ])
        .unwrap();
        let dump = std::fs::read_to_string(&trace).unwrap();
        assert!(dump.contains("\"kind\":\"datalog_stratum\""), "{dump}");
        assert!(dump.contains("\"kind\":\"datalog_round\""), "{dump}");
        let _ = std::fs::remove_file(&trace);
    }

    #[test]
    fn serve_metrics_trace_and_slow_log_end_to_end() {
        let (addr, server, out) = spawn_serve(&[
            "--metrics-addr",
            "127.0.0.1:0",
            "--slow-ms",
            "0", // every query is "slow": the log path runs deterministically
        ]);
        let mut client = granlog_serve::ServeClient::connect(&addr).unwrap();
        client.load(NREV).unwrap().unwrap();
        client.trace(true).unwrap();
        let reply = client.query("nrev([1,2,3], R)").unwrap().unwrap();
        assert!(reply.succeeded);

        // Protocol scrape: histograms have the query, the slow log counted.
        let text = client.metrics().unwrap();
        assert!(
            text.contains("# TYPE granlog_query_latency_ms histogram"),
            "{text}"
        );
        assert!(text.contains("granlog_queries_total 1"), "{text}");
        assert!(text.contains("granlog_slow_queries_total 1"), "{text}");
        assert!(text.contains("granlog_query_latency_ms_count 1"), "{text}");
        assert!(text.contains("granlog_loads_total 1"), "{text}");

        // The trace ring captured the query events.
        let dump = client.trace_dump().unwrap();
        assert!(dump.contains("\"kind\":\"query_begin\""), "{dump}");
        assert!(dump.contains("\"kind\":\"query_end\""), "{dump}");
        client.trace(false).unwrap();

        // The stats line now reports liveness and build identity.
        let stats = client.stats().unwrap();
        assert_eq!(stats.version, env!("CARGO_PKG_VERSION"));
        assert!(stats.extra.is_empty(), "unknown fields: {:?}", stats.extra);

        // HTTP scrape on the side listener serves the same exposition.
        let metrics_addr = out
            .contents()
            .lines()
            .find_map(|l| l.strip_prefix("metrics on ").map(str::to_string))
            .expect("serve must print the metrics address");
        let mut http = std::net::TcpStream::connect(&metrics_addr).unwrap();
        use std::io::{Read as _, Write as _};
        http.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        http.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
        assert!(response.contains("granlog_queries_total"), "{response}");

        client.shutdown_server().unwrap();
        server.join().unwrap().unwrap();
    }

    #[test]
    fn serve_rejects_bad_flags() {
        assert!(matches!(
            run(&["serve", "--cache", "0"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["serve", "stray.pl"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["serve", "--fsync", "sometimes"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["serve", "--wall", "soon"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["serve", "--wal-limit", "big"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn missing_file_is_an_io_error() {
        assert!(matches!(
            run(&["analyze", "/definitely/not/here.pl"]),
            Err(CliError::Io(_))
        ));
    }

    #[test]
    fn parse_errors_are_reported() {
        let path = write_temp("broken.pl", "p(a");
        assert!(matches!(
            run(&["analyze", path.to_str().unwrap()]),
            Err(CliError::Parse(_))
        ));
    }

    #[test]
    fn a_malformed_goal_is_a_parse_error_on_every_engine() {
        let path = write_temp("goal_parse.pl", "e(1).");
        let path = path.to_str().unwrap();
        for engine in [
            &["run", path, "e("][..],
            &["run", path, "e(", "--threads", "2"],
            &["run", path, "e(", "--engine", "bottom-up"],
        ] {
            match run(engine) {
                Err(CliError::Parse(e)) => assert!(e.to_string().contains("1:3"), "{e}"),
                other => panic!("{engine:?}: {other:?}"),
            }
        }
    }
}
