//! One round: a fresh child process that sets a workload up, runs its fixed
//! schedule once and reports what it measured as tab-separated lines on its
//! standard output. The parent ([`crate::report`]) folds rounds into metrics.

use crate::spans::{self, Span};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// What a round measures besides the plain schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Tracing off: the rounds end-to-end metrics come from.
    Plain,
    /// Spans around every layer call, plus the in-process replays that split
    /// served time into layers.
    Traced,
    /// `sld_suite` with `MachineConfig::profile` on.
    Profile,
    /// `par_control` under `Granularity::Off`.
    ParOff,
    /// `par_control` under `Granularity::AlwaysSpawn`.
    ParAlways,
    /// `serve_hot` after `trace on`.
    TraceOn,
}

impl Mode {
    pub const ALL: [Mode; 6] = [
        Mode::Plain,
        Mode::Traced,
        Mode::Profile,
        Mode::ParOff,
        Mode::ParAlways,
        Mode::TraceOn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Traced => "traced",
            Mode::Profile => "profile",
            Mode::ParOff => "par-off",
            Mode::ParAlways => "par-always",
            Mode::TraceOn => "trace-on",
        }
    }

    pub fn parse(text: &str) -> Option<Mode> {
        Mode::ALL.into_iter().find(|m| m.name() == text)
    }
}

/// Everything a round needs to know.
pub struct RoundCtx {
    pub seed: u64,
    /// How many passes over the workload's base schedule the round makes.
    pub passes: usize,
    pub mode: Mode,
    /// `--smoke`: the suite's test sizes instead of the workload's own.
    pub smoke: bool,
    /// Scratch and output directory (inside the build's target directory).
    pub out_dir: PathBuf,
    /// Process start: set-up time is counted from here.
    pub started: Instant,
}

impl RoundCtx {
    pub fn traced(&self) -> bool {
        self.mode == Mode::Traced
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct LayerValue {
    pub name: String,
    pub value: f64,
    /// Must repeat bit-for-bit in every round of the same schedule.
    pub exact: bool,
}

/// One pass of one thread over the workload's base schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pass {
    /// Which set of inputs the pass used. Passes of one kind do the same
    /// work, so their durations are comparable; passes of different kinds
    /// are not (a different list to sort is a different amount of sorting).
    pub kind: u32,
    /// `(class, latency in milliseconds)` of each operation, in order; the
    /// class is an index into [`RoundReport::classes`].
    pub ops: Vec<(u16, f64)>,
}

impl Pass {
    /// The pass's duration: the sum of its operations' latencies, in seconds.
    pub fn seconds(&self) -> f64 {
        self.ops.iter().map(|(_, ms)| ms).sum::<f64>() / 1e3
    }
}

/// What one round measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundReport {
    /// Child start to first timed operation, reference computation excluded.
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// `VmHWM` at the end of the round.
    pub rss_mb: f64,
    /// Names of the operation classes, in order of first appearance.
    pub classes: Vec<String>,
    /// Per load thread, the passes it made over its schedule, in order.
    pub threads: Vec<Vec<Pass>>,
    pub layers: Vec<LayerValue>,
    /// Traced rounds: each layer's self time as a share of operation time.
    pub shares: Vec<(String, f64)>,
    /// Traced rounds: share of operation time the layers' self times cover.
    pub coverage: Option<f64>,
    /// Why operations failed (first few).
    pub notes: Vec<String>,
}

const MAX_NOTES: usize = 8;

impl RoundReport {
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.push(LayerValue {
            name: name.to_string(),
            value,
            exact: false,
        });
    }

    pub fn exact(&mut self, name: &str, value: u64) {
        self.layers.push(LayerValue {
            name: name.to_string(),
            value: value as f64,
            exact: true,
        });
    }

    /// Starts the next pass of this report's (only) thread.
    pub fn begin_pass(&mut self, kind: u32) {
        if self.threads.is_empty() {
            self.threads.push(Vec::new());
        }
        self.threads[0].push(Pass {
            kind,
            ops: Vec::new(),
        });
    }

    fn class_index(&mut self, class: &str) -> u16 {
        let index = self
            .classes
            .iter()
            .position(|name| name == class)
            .unwrap_or_else(|| {
                self.classes.push(class.to_string());
                self.classes.len() - 1
            });
        u16::try_from(index).expect("fewer than 65536 classes")
    }

    /// Records one operation's latency under its class, in the current pass.
    pub fn sample(&mut self, class: &str, ms: f64) {
        let index = self.class_index(class);
        if self.threads.first().is_none_or(Vec::is_empty) {
            self.begin_pass(0);
        }
        let pass = self.threads[0].last_mut().expect("a pass was begun");
        pass.ops.push((index, ms));
    }

    /// Counts one attempted operation; `problem` says why it failed, if it did.
    pub fn attempt(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(why) = problem {
            self.failed += 1;
            if self.notes.len() < MAX_NOTES {
                self.notes.push(why);
            }
        }
    }

    /// Adds another thread's samples and counts.
    pub fn absorb(&mut self, other: RoundReport) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for mut passes in other.threads {
            for pass in &mut passes {
                for (class, _) in &mut pass.ops {
                    *class = self.class_index(&other.classes[*class as usize]);
                }
            }
            self.threads.push(passes);
        }
        for note in other.notes {
            if self.notes.len() < MAX_NOTES {
                self.notes.push(note);
            }
        }
    }

    /// Every operation of the round as `(class name, latency in ms)`.
    pub fn ops(&self) -> impl Iterator<Item = (&str, f64)> {
        self.threads
            .iter()
            .flatten()
            .flat_map(|pass| &pass.ops)
            .map(|(class, ms)| (self.classes[*class as usize].as_str(), *ms))
    }

    /// Derives the span-based numbers of a traced round: the mean duration of
    /// each named span as `<name>_ms`, the layer shares and the coverage; and
    /// writes the spans as JSONL.
    pub fn trace(
        &mut self,
        spans: &[Span],
        span_metrics: &[&'static str],
        jsonl: &std::path::Path,
    ) {
        for name in span_metrics {
            if spans::total_ns(spans, name).1 > 0 {
                self.layer(&format!("{name}_ms"), spans::mean_ms(spans, name));
            }
        }
        let decomposition = spans::decompose(spans);
        self.coverage = Some(decomposition.coverage());
        self.shares = decomposition
            .layer_self_ns
            .keys()
            .map(|layer| (layer.to_string(), decomposition.layer_share(layer)))
            .collect();
        if let Some(dir) = jsonl.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(jsonl, spans::to_jsonl(spans)) {
            self.notes
                .push(format!("cannot write {}: {e}", jsonl.display()));
            self.failed += 1;
        }
    }

    pub fn encode(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "setup_s\t{}", self.setup_s);
        let _ = writeln!(out, "attempted\t{}", self.attempted);
        let _ = writeln!(out, "failed\t{}", self.failed);
        let _ = writeln!(out, "rss_mb\t{}", self.rss_mb);
        for class in &self.classes {
            let _ = writeln!(out, "class\t{class}");
        }
        for (thread, passes) in self.threads.iter().enumerate() {
            for pass in passes {
                let _ = write!(out, "pass\t{thread}\t{}", pass.kind);
                for (class, ms) in &pass.ops {
                    let _ = write!(out, "\t{class}:{ms}");
                }
                out.push('\n');
            }
        }
        for l in &self.layers {
            let _ = writeln!(out, "layer\t{}\t{}\t{}", l.name, l.value, u8::from(l.exact));
        }
        for (layer, share) in &self.shares {
            let _ = writeln!(out, "share\t{layer}\t{share}");
        }
        if let Some(coverage) = self.coverage {
            let _ = writeln!(out, "coverage\t{coverage}");
        }
        for note in &self.notes {
            let _ = writeln!(out, "note\t{}", note.replace(['\t', '\n'], " "));
        }
        out.push_str("end\n");
        out
    }

    /// Parses [`RoundReport::encode`]'s output; `Err` names the first bad line
    /// (a child that died mid-report has no `end` line).
    pub fn decode(text: &str) -> Result<RoundReport, String> {
        let mut report = RoundReport::default();
        let mut complete = false;
        for line in text.lines() {
            let fields: Vec<&str> = line.split('\t').collect();
            let bad = || format!("bad round report line: {line:?}");
            let num = |i: usize| -> Result<f64, String> {
                fields.get(i).and_then(|f| f.parse().ok()).ok_or_else(bad)
            };
            match fields[0] {
                "setup_s" => report.setup_s = num(1)?,
                "attempted" => report.attempted = num(1)? as u64,
                "failed" => report.failed = num(1)? as u64,
                "rss_mb" => report.rss_mb = num(1)?,
                "class" => report
                    .classes
                    .push(fields.get(1).ok_or_else(bad)?.to_string()),
                "pass" => {
                    let thread = num(1)? as usize;
                    let mut pass = Pass {
                        kind: num(2)? as u32,
                        ops: Vec::with_capacity(fields.len() - 3),
                    };
                    for field in &fields[3..] {
                        let (class, ms) = field.split_once(':').ok_or_else(bad)?;
                        pass.ops.push((
                            class.parse().map_err(|_| bad())?,
                            ms.parse().map_err(|_| bad())?,
                        ));
                    }
                    if report.threads.len() <= thread {
                        report.threads.resize(thread + 1, Vec::new());
                    }
                    report.threads[thread].push(pass);
                }
                "layer" => report.layers.push(LayerValue {
                    name: fields.get(1).ok_or_else(bad)?.to_string(),
                    value: num(2)?,
                    exact: num(3)? != 0.0,
                }),
                "share" => report
                    .shares
                    .push((fields.get(1).ok_or_else(bad)?.to_string(), num(2)?)),
                "coverage" => report.coverage = Some(num(1)?),
                "note" => report.notes.push(fields.get(1).unwrap_or(&"").to_string()),
                "end" => complete = true,
                _ => return Err(bad()),
            }
        }
        if complete {
            Ok(report)
        } else {
            Err("round report has no `end` line: the round died".to_string())
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_its_text_form() {
        let mut report = RoundReport {
            setup_s: 0.012345678901234,
            rss_mb: 33.25,
            coverage: Some(0.987),
            ..RoundReport::default()
        };
        report.begin_pass(0);
        report.sample("fib", 0.25);
        report.sample("hanoi", 1.0);
        report.begin_pass(1);
        report.sample("fib", 0.125);
        report.attempt(None);
        report.attempt(Some("fib: wrong\tanswer".to_string()));
        report.layer("engine.run_goal_ms", 0.07);
        report.exact("engine.resolutions", 123_456_789);
        report.shares.push(("engine".to_string(), 0.97));
        let decoded = RoundReport::decode(&report.encode()).expect("decodes");
        assert_eq!(
            decoded.classes,
            vec!["fib".to_string(), "hanoi".to_string()]
        );
        assert_eq!(
            decoded.threads[0][1],
            Pass {
                kind: 1,
                ops: vec![(0, 0.125)]
            }
        );
        assert_eq!(
            decoded.ops().collect::<Vec<_>>(),
            vec![("fib", 0.25), ("hanoi", 1.0), ("fib", 0.125)]
        );
        assert!((decoded.threads[0][0].seconds() - 0.00125).abs() < 1e-15);
        assert_eq!(decoded.notes, vec!["fib: wrong answer".to_string()]);
        assert_eq!(
            RoundReport {
                notes: report.notes.clone(),
                ..decoded
            },
            report
        );
    }

    #[test]
    fn a_truncated_report_is_an_error() {
        let text = RoundReport::default().encode();
        assert!(RoundReport::decode(text.trim_end_matches("end\n")).is_err());
        assert!(RoundReport::decode("bogus\t1\nend\n").is_err());
        assert!(RoundReport::decode("setup_s\tx\nend\n").is_err());
    }

    #[test]
    fn absorb_merges_threads() {
        let mut a = RoundReport::default();
        a.sample("query", 1.0);
        a.attempt(None);
        let mut b = RoundReport::default();
        b.sample("load_hit", 3.0);
        b.sample("query", 2.0);
        b.threads[0][0].ops.reverse();
        b.attempt(Some("late".to_string()));
        a.absorb(b);
        assert_eq!((a.attempted, a.failed), (2, 1));
        // The other thread's class indices are translated into ours.
        assert_eq!(a.classes, vec!["query".to_string(), "load_hit".to_string()]);
        assert_eq!(a.threads.len(), 2);
        assert_eq!(a.threads[1][0].ops, vec![(0, 2.0), (1, 3.0)]);
    }

    #[test]
    fn modes_parse_by_name() {
        for mode in Mode::ALL {
            assert_eq!(Mode::parse(mode.name()), Some(mode));
        }
        assert_eq!(Mode::parse("nope"), None);
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 0.0);
    }
}
