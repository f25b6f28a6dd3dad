//! The granlog benchmark: six workloads, five bounded end-to-end metrics, and
//! per-crate layer metrics from a traced pass. See `README.md` beside this
//! package's manifest for the catalogue and the reasoning.
//!
//! ```text
//! benchmark [--workload W]... [--seed N] [--seconds S] [--trace [0|1]]
//!           [--aa] [--smoke] [--save PATH] [--baseline PATH]
//! benchmark --benchmark-json | --catalogue
//! ```
//!
//! Every workload runs as [`report::ROUNDS`] rounds, each a fresh child
//! process (fresh address-space layout and allocator state, its own `VmHWM`)
//! executing one fixed, seed-generated schedule; a metric is its best round,
//! printed beside the median and quartiles over rounds. The process exits
//! nonzero on any wrong answer.

mod alloc;
mod cases;
mod catalogue;
mod provenance;
mod quiet;
mod reference;
mod report;
mod rng;
mod round;
mod spans;
mod stats;
mod workloads;

use report::{Measured, Stored, Summary, ROUNDS};
use round::{Mode, RoundCtx, RoundReport};
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workloads::{Workload, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Stack of the thread a round runs on: answers are deep terms (a
/// 4 000-element list is 4 000 frames of unification or rendering).
const ROUND_STACK_BYTES: usize = 256 << 20;

struct Options {
    workloads: Vec<&'static Workload>,
    /// True when `--workload` chose them: the last line is then the one-object
    /// result the driver reads.
    chosen: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
    smoke: bool,
    save: Option<PathBuf>,
    baseline: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: benchmark [--workload W]... [--seed N] [--seconds S] [--trace [0|1]] [--aa] [--smoke] \
         [--save PATH] [--baseline PATH]\n       benchmark --benchmark-json | --catalogue\nworkloads: {}",
        names.join(", ")
    )
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workloads: Vec::new(),
        chosen: false,
        seed: 1,
        seconds: catalogue::RUN_SECONDS as f64,
        trace: false,
        aa: false,
        smoke: false,
        save: None,
        baseline: None,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--workload" => {
                let name = value(&mut i, flag)?;
                let workload =
                    workloads::find(&name).ok_or_else(|| format!("no workload `{name}`"))?;
                options.workloads.push(workload);
                options.chosen = true;
            }
            "--seed" => {
                options.seed = value(&mut i, flag)?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                options.seconds = value(&mut i, flag)?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(options.seconds > 0.0 && options.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                // `--trace` alone turns the traced pass on; the driver passes 0 or 1.
                options.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--aa" => options.aa = true,
            "--smoke" => options.smoke = true,
            "--save" => options.save = Some(value(&mut i, flag)?.into()),
            "--baseline" => options.baseline = Some(value(&mut i, flag)?.into()),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if options.workloads.is_empty() {
        options.workloads = WORKLOADS.iter().collect();
    }
    Ok(options)
}

/// Where rounds write: `<target dir>/benchmark/`, beside the profile directory
/// the executable lives in, so everything stays inside the build's own tree.
fn out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("benchmark")))
        .unwrap_or_else(|| PathBuf::from("target/benchmark"))
}

// ---------------------------------------------------------------------------
// The child: one round.

fn child_main(args: &[String]) -> ExitCode {
    let started = Instant::now();
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .unwrap_or_else(|| panic!("round needs {flag}"))
    };
    let workload = workloads::find(get("--round")).expect("known workload");
    let ctx = RoundCtx {
        seed: get("--seed").parse().expect("seed"),
        passes: get("--passes").parse().expect("passes"),
        mode: Mode::parse(get("--mode")).expect("mode"),
        smoke: args.iter().any(|a| a == "--smoke"),
        out_dir: PathBuf::from(get("--out")),
        started,
    };
    let report = std::thread::Builder::new()
        .stack_size(ROUND_STACK_BYTES)
        .spawn(move || (workload.run)(&ctx))
        .expect("round thread")
        .join();
    match report {
        Ok(report) => {
            print!("{}", report.encode());
            ExitCode::SUCCESS
        }
        Err(_) => ExitCode::FAILURE,
    }
}

/// How a round ended.
enum RoundEnd {
    Reported(RoundReport),
    /// The round made no progress for its whole time limit and was killed.
    Hung,
}

/// A round that takes this many times its planned length (and at least
/// [`MIN_ROUND_LIMIT`]) is taken for hung.
const ROUND_LIMIT_FACTOR: f64 = 10.0;
const MIN_ROUND_LIMIT: Duration = Duration::from_secs(20);

/// A hung round is killed and run again at most this often per workload.
const MAX_HUNG_ROUNDS: u64 = 2;

/// Runs one round of `workload` in a fresh process and reads its report. The
/// child is always waited for: a round that outlives its time limit is killed
/// first, so the benchmark itself ends in bounded time whatever the system
/// under test does.
fn run_round(
    workload: &Workload,
    options: &Options,
    passes: usize,
    mode: Mode,
    out: &Path,
) -> Result<RoundEnd, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--round", workload.name, "--mode", mode.name()])
        .args([
            "--seed",
            &options.seed.to_string(),
            "--passes",
            &passes.to_string(),
        ])
        .arg("--out")
        .arg(out);
    if options.smoke {
        command.arg("--smoke");
    }
    // The child's stderr (a panic message) is ours.
    let mut child = command
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start a round: {e}"))?;
    // The report can be larger than a pipe buffer: read it while waiting.
    let mut pipe = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        pipe.read_to_string(&mut text).map(|_| text)
    });
    let planned = Duration::from_secs_f64(options.seconds / ROUNDS as f64 * ROUND_LIMIT_FACTOR);
    let deadline = Instant::now() + planned.max(MIN_ROUND_LIMIT);
    let status = loop {
        match child
            .try_wait()
            .map_err(|e| format!("cannot wait for a round: {e}"))?
        {
            Some(status) => break Some(status),
            None if Instant::now() >= deadline => break None,
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    if status.is_none() {
        let _ = child.kill();
        let _ = child.wait();
    }
    let text = reader
        .join()
        .map_err(|_| "round reader panicked".to_string())?;
    match status {
        None => Ok(RoundEnd::Hung),
        Some(status) if !status.success() => Err(format!(
            "{} round ({}) died: {status}",
            workload.name,
            mode.name()
        )),
        Some(_) => {
            let text = text.map_err(|e| format!("cannot read a round's report: {e}"))?;
            RoundReport::decode(&text).map(RoundEnd::Reported)
        }
    }
}

/// The variant rounds a traced pass adds for a workload.
fn variant_modes(workload: &str) -> &'static [Mode] {
    match workload {
        "sld_suite" => &[Mode::Profile],
        "par_control" => &[Mode::ParOff, Mode::ParAlways],
        "serve_hot" => &[Mode::TraceOn],
        _ => &[],
    }
}

fn measure(workload: &'static Workload, options: &Options, out: &Path) -> Result<Measured, String> {
    let (rounds, passes) = if options.smoke {
        (1, 1)
    } else {
        // A count, so the schedule (and every exact counter) is a function of
        // `--seconds` and `--seed` alone, never of how fast this host is.
        let round_ms = options.seconds * 1e3 / ROUNDS as f64;
        (
            ROUNDS,
            ((round_ms / workload.pass_ms).round() as usize).max(1),
        )
    };
    let mut measured = Measured {
        workload: workload.name,
        passes,
        plain: Vec::new(),
        traced: None,
        variants: Vec::new(),
        hung_rounds: 0,
    };
    // A hung round is announced, counted (`bench.hung_rounds`) and run again:
    // the numbers come from complete rounds only, and the benchmark ends.
    let round = |passes: usize, mode: Mode, hung: &mut u64| -> Result<RoundReport, String> {
        loop {
            match run_round(workload, options, passes, mode, out)? {
                RoundEnd::Reported(report) => return Ok(report),
                RoundEnd::Hung if *hung < MAX_HUNG_ROUNDS => {
                    *hung += 1;
                    println!(
                        "WARNING: a {} round ({}) hung and was killed; running it again",
                        workload.name,
                        mode.name()
                    );
                }
                RoundEnd::Hung => return Err(format!("{} rounds keep hanging", workload.name)),
            }
        }
    };
    let mut hung = 0;
    for _ in 0..rounds {
        measured.plain.push(round(passes, Mode::Plain, &mut hung)?);
    }
    if options.trace {
        measured.traced = Some(round(passes, Mode::Traced, &mut hung)?);
        for &mode in variant_modes(workload.name) {
            // The spawn-everything baseline is several times slower per
            // operation; a quarter of the schedule gives its class medians.
            let passes = match mode {
                Mode::ParOff | Mode::ParAlways => (passes / 4).max(1),
                _ => passes,
            };
            let report = round(passes, mode, &mut hung)?;
            measured.variants.push((mode, report));
        }
    }
    measured.hung_rounds = hung;
    Ok(measured)
}

/// Measures every chosen workload once and prints each as it finishes.
fn measure_set(options: &Options, out: &Path) -> Result<Vec<Summary>, String> {
    let mut summaries = Vec::new();
    for workload in &options.workloads {
        let summary = report::summarize(&measure(workload, options, out)?);
        print!("{}", report::render(&summary, options.trace));
        summaries.push(summary);
    }
    Ok(summaries)
}

fn provenance_of(options: &Options) -> Vec<(String, String)> {
    vec![
        ("commit".to_string(), provenance::commit()),
        ("seed".to_string(), options.seed.to_string()),
        ("seconds".to_string(), options.seconds.to_string()),
        (
            "rounds".to_string(),
            if options.smoke { 1 } else { ROUNDS }.to_string(),
        ),
        ("smoke".to_string(), options.smoke.to_string()),
    ]
}

fn parent_main(options: &Options) -> Result<bool, String> {
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let fingerprint = provenance::fingerprint();
    let provenance = provenance_of(options);
    for (key, value) in fingerprint
        .iter()
        .map(|(k, v)| (*k, v))
        .chain(provenance.iter().map(|(k, v)| (k.as_str(), v)))
    {
        println!("# {key}: {value}");
    }
    // Refuse a comparison before spending the time to measure.
    let baseline = match &options.baseline {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let stored = Stored::decode(&text)?;
            if let Some(why) = provenance::mismatch(&fingerprint, &stored.fingerprint) {
                return Err(format!(
                    "refusing to compare against {}: it was measured on another host or toolchain ({why})",
                    path.display()
                ));
            }
            Some(stored)
        }
        None => None,
    };

    let summaries = measure_set(options, &out)?;
    let mut ok = summaries.iter().all(Summary::correct);
    let stored = Stored::new(&fingerprint, &provenance, &summaries);
    let save = options
        .save
        .clone()
        .unwrap_or_else(|| out.join("results.tsv"));
    std::fs::write(&save, stored.encode())
        .map_err(|e| format!("cannot write {}: {e}", save.display()))?;
    println!("# results stored in {}", save.display());

    if options.aa {
        println!("== A/A: the same code measured again");
        let again = measure_set(options, &out)?;
        ok &= again.iter().all(Summary::correct);
        let rows = report::differences(&stored, &Stored::new(&fingerprint, &provenance, &again));
        print!("{}", report::render_differences(&rows, ("first", "second")));
        let beyond = rows.iter().filter(|d| d.beyond_bound_either_way()).count();
        println!(
            "# A/A: {beyond} of {} differences are beyond their bound",
            rows.len()
        );
        ok &= beyond == 0;
    }
    if let Some(baseline) = baseline {
        println!("== against the baseline");
        let rows = report::differences(&baseline, &stored);
        print!("{}", report::render_differences(&rows, ("baseline", "now")));
        let regressions = rows.iter().filter(|d| d.regression()).count();
        println!(
            "# {regressions} of {} metrics are worse than the baseline by more than their bound",
            rows.len()
        );
        ok &= regressions == 0;
    }
    if options.chosen && summaries.len() == 1 {
        println!("{}", report::contract_json(&summaries[0], options.trace));
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--round") => return child_main(&args),
        Some("--benchmark-json") => {
            print!("{}", catalogue::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Some("--catalogue") => {
            print!("{}", catalogue::markdown());
            return ExitCode::SUCCESS;
        }
        Some("--help" | "-h") => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(why) => {
            eprintln!("benchmark: {why}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match parent_main(&options) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: FAILED: wrong answers, a moved exact counter, or a difference beyond its bound (see above)");
            ExitCode::FAILURE
        }
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::FAILURE
        }
    }
}
