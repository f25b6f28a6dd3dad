//! Folding rounds into metrics, printing them, storing them with their
//! provenance, and comparing two sets of them against the bounds.

use crate::catalogue::{self, Better, END_TO_END, PER_LAYER};
use crate::quiet::{figures, ClassFigures, Figures, Passes};
use crate::round::{Mode, RoundReport};
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Plain rounds per workload: a metric's value is their median.
pub const ROUNDS: usize = 8;

/// The tracing assertion: layer self times must cover this share of the
/// operation spans they decompose.
const MIN_SPAN_COVERAGE: f64 = 0.95;

/// A serve round has this many operations at least, so its 99th percentile
/// has a hundred samples beyond it.
const P99_MIN_SAMPLES: usize = 10_000;

/// All rounds of one workload.
pub struct Measured {
    pub workload: &'static str,
    pub passes: usize,
    pub plain: Vec<RoundReport>,
    pub traced: Option<RoundReport>,
    pub variants: Vec<(Mode, RoundReport)>,
    /// Rounds that hung, were killed and were run again.
    pub hung_rounds: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiled {
    /// The metric's value.
    pub value: f64,
    /// Median and quartiles over rounds of the same figure taken per round
    /// over *all* its passes: what the host was like, beside the value.
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Quartiled {
    fn new(value: f64, per_round: &[f64]) -> Quartiled {
        let (q1, median, q3) = stats::quartiles(per_round);
        Quartiled {
            value,
            median,
            q1,
            q3,
        }
    }
}

/// One workload's metrics.
pub struct Summary {
    pub workload: &'static str,
    pub passes: usize,
    pub rounds: usize,
    /// In catalogue order.
    pub end_to_end: Vec<(&'static str, Quartiled)>,
    /// Per class, over the run's quiet passes.
    pub classes: Vec<ClassFigures>,
    /// Layer metrics by name: all of them after a traced pass, otherwise only
    /// the counters every round reports.
    pub layers: BTreeMap<String, f64>,
    /// Each layer's share of operation time (traced pass only).
    pub shares: Vec<(String, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Wrong answers, exact counters that moved, uncovered spans.
    pub problems: Vec<String>,
}

impl Summary {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    #[cfg(test)]
    fn end_to_end(&self, name: &str) -> Quartiled {
        self.end_to_end
            .iter()
            .find(|(n, _)| *n == name)
            .expect("catalogued metric")
            .1
    }
}

/// Values of the exact-flagged layer metrics must repeat in every round of the
/// same schedule; returns the agreed values and a problem per one that moved.
fn exact_layers(rounds: &[&RoundReport]) -> (BTreeMap<String, f64>, Vec<String>) {
    let mut agreed: BTreeMap<String, f64> = BTreeMap::new();
    let mut problems = Vec::new();
    for round in rounds {
        for layer in round.layers.iter().filter(|l| l.exact) {
            match agreed.get(&layer.name) {
                Some(&seen) if seen != layer.value => problems.push(format!(
                    "{} is flagged exact but differs between rounds: {} and {}",
                    layer.name, seen, layer.value
                )),
                Some(_) => {}
                None => {
                    agreed.insert(layer.name.clone(), layer.value);
                }
            }
        }
    }
    problems.dedup();
    (agreed, problems)
}

pub fn summarize(measured: &Measured) -> Summary {
    let plain = &measured.plain;
    let plain_refs: Vec<&RoundReport> = plain.iter().collect();
    let quiet = figures(&plain_refs, Passes::Quiet);
    let per_round_all: Vec<Figures> = plain.iter().map(|r| figures(&[r], Passes::All)).collect();
    let per_round = |f: fn(&RoundReport) -> f64| -> Vec<f64> { plain.iter().map(f).collect() };
    let per_round_figure =
        |f: fn(&Figures) -> f64| -> Vec<f64> { per_round_all.iter().map(f).collect() };
    let least = |values: &[f64]| values.iter().copied().fold(f64::INFINITY, f64::min);
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            let value = match m.name {
                // One sample a round: its quietest is the fastest set-up.
                "setup_s" => {
                    let values = per_round(|r| r.setup_s);
                    Quartiled::new(
                        if values.is_empty() {
                            0.0
                        } else {
                            least(&values)
                        },
                        &values,
                    )
                }
                "ops_per_s" => Quartiled::new(quiet.ops_per_s, &per_round_figure(|f| f.ops_per_s)),
                "p50_ms" => Quartiled::new(quiet.p50_ms(), &per_round_figure(Figures::p50_ms)),
                "tail_ms" => Quartiled::new(quiet.tail_ms(), &per_round_figure(Figures::tail_ms)),
                "peak_rss_mb" => {
                    let values = per_round(|r| r.rss_mb);
                    Quartiled::new(stats::median(&values), &values)
                }
                other => unreachable!("end-to-end metric `{other}` has no definition"),
            };
            (m.name, value)
        })
        .collect();

    let all_rounds: Vec<&RoundReport> = plain.iter().chain(&measured.traced).collect();
    let mut attempted = 0;
    let mut failed = 0;
    let mut problems = Vec::new();
    for round in all_rounds
        .iter()
        .copied()
        .chain(measured.variants.iter().map(|(_, r)| r))
    {
        attempted += round.attempted;
        failed += round.failed;
        problems.extend(round.notes.iter().cloned());
    }
    let (mut layers, moved) = exact_layers(&all_rounds);
    problems.extend(moved);
    let mut shares = Vec::new();

    // Counters every round reports: the median over plain rounds.
    let mut plain_values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for round in plain {
        for layer in round.layers.iter().filter(|l| !l.exact) {
            plain_values
                .entry(layer.name.clone())
                .or_default()
                .push(layer.value);
        }
    }
    if let Some(traced) = &measured.traced {
        for layer in &traced.layers {
            layers.entry(layer.name.clone()).or_insert(layer.value);
        }
        for (name, values) in &plain_values {
            layers.insert(name.clone(), stats::median(values));
        }
        shares = traced.shares.clone();
        // A single extra round is compared with single plain rounds: the
        // quiet passes of one round are not as quiet as those of eight.
        let single: Vec<Figures> = plain.iter().map(|r| figures(&[r], Passes::Quiet)).collect();
        let single_rate = stats::median(&single.iter().map(|f| f.ops_per_s).collect::<Vec<_>>());
        let cost_share =
            |round: &RoundReport| single_rate / figures(&[round], Passes::Quiet).ops_per_s - 1.0;
        layers.insert("bench.trace_overhead_share".into(), cost_share(traced));
        layers.insert(
            "bench.round_spread".into(),
            stats::rel_spread(&per_round_figure(|f| f.ops_per_s)),
        );
        layers.insert(
            "bench.failed_share".into(),
            failed as f64 / attempted.max(1) as f64,
        );
        layers.insert("bench.hung_rounds".into(), measured.hung_rounds as f64);
        if let Some(coverage) = traced.coverage {
            layers.insert("bench.span_coverage".into(), coverage);
            if coverage < MIN_SPAN_COVERAGE {
                problems.push(format!(
                    "layer self times cover {:.1} % of operation time, less than {:.0} %",
                    coverage * 100.0,
                    MIN_SPAN_COVERAGE * 100.0
                ));
            }
        }
        if measured.workload.starts_with("serve_") {
            let p99s: Vec<f64> = plain
                .iter()
                .map(|r| stats::sorted(r.ops().map(|(_, ms)| ms).collect()))
                .filter(|all| all.len() >= P99_MIN_SAMPLES)
                .map(|all| stats::percentile(&all, 0.99))
                .collect();
            if !p99s.is_empty() {
                layers.insert("serve.p99_ms".into(), stats::median(&p99s));
            }
        }
        // Baselines: the same schedule under another configuration.
        let ratio_to = |variant: &Figures| -> Vec<f64> {
            variant
                .classes
                .iter()
                .filter_map(|theirs| {
                    let ours: Vec<f64> = single
                        .iter()
                        .filter_map(|f| {
                            Some(f.classes.iter().find(|c| c.name == theirs.name)?.p50_ms)
                        })
                        .collect();
                    let ours = stats::median(&ours);
                    (ours > 0.0).then_some(theirs.p50_ms / ours)
                })
                .collect()
        };
        for (mode, round) in &measured.variants {
            match mode {
                Mode::Profile => {
                    layers.insert("obs.profile_on_cost_share".into(), cost_share(round));
                }
                Mode::TraceOn => {
                    layers.insert("obs.trace_on_cost_share".into(), cost_share(round));
                }
                Mode::ParOff => {
                    let theirs = figures(&[round], Passes::Quiet);
                    layers.insert("par.run_goal_off_ms".into(), theirs.p50_ms());
                    layers.insert(
                        "par.speedup_vs_seq".into(),
                        stats::geomean(&ratio_to(&theirs)),
                    );
                }
                Mode::ParAlways => {
                    let theirs = figures(&[round], Passes::Quiet);
                    layers.insert("par.run_goal_always_ms".into(), theirs.p50_ms());
                    layers.insert(
                        "par.control_gain".into(),
                        stats::geomean(&ratio_to(&theirs)),
                    );
                }
                Mode::Plain | Mode::Traced => {}
            }
        }
        for name in layers.keys() {
            if catalogue::per_layer(name).is_none() {
                problems.push(format!("layer metric `{name}` is not in the catalogue"));
            }
        }
    }

    Summary {
        workload: measured.workload,
        passes: measured.passes,
        rounds: plain.len(),
        end_to_end,
        classes: quiet.classes,
        layers,
        shares,
        attempted,
        failed,
        problems,
    }
}

// ---------------------------------------------------------------------------
// Printing.

fn number(value: f64) -> String {
    let magnitude = value.abs();
    if value == 0.0 {
        "0".to_string()
    } else if magnitude >= 1000.0 || (value.fract() == 0.0 && magnitude < 1e15) {
        format!("{value:.0}")
    } else if magnitude >= 10.0 {
        format!("{value:.2}")
    } else {
        format!("{value:.4}")
    }
}

/// Every metric of a workload by name, with its unit.
pub fn render(summary: &Summary, traced: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {} ({} rounds x {} passes; {} operations attempted, {} failed)",
        summary.workload, summary.rounds, summary.passes, summary.attempted, summary.failed
    );
    let _ = writeln!(
        out,
        "  {:<14} {:>12} {:>12} {:>12} {:>12}  {:<5} {:>6}  bound",
        "end to end", "value", "rounds: med", "q1", "q3", "unit", "iqr"
    );
    for (name, q) in &summary.end_to_end {
        let m = catalogue::end_to_end(name);
        let spread = if q.median != 0.0 {
            (q.q3 - q.q1) / q.median
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "  {:<14} {:>12} {:>12} {:>12} {:>12}  {:<5} {:>5.1}%  {} by {:.0} %",
            name,
            number(q.value),
            number(q.median),
            number(q.q1),
            number(q.q3),
            m.unit,
            spread * 100.0,
            m.better.name(),
            m.bound * 100.0
        );
    }
    let _ = writeln!(
        out,
        "  {:<14} {:>12}  ratio (must be 0)",
        "failed_share",
        number(summary.failed as f64 / summary.attempted.max(1) as f64)
    );
    let _ = writeln!(
        out,
        "  {:<18} {:>8} {:>12} {:>12}  tail",
        "class", "samples", "p50 ms", "tail ms"
    );
    for c in &summary.classes {
        let _ = writeln!(
            out,
            "  {:<18} {:>8} {:>12} {:>12}  p{:.0}",
            c.name,
            c.samples,
            number(c.p50_ms),
            number(c.tail_ms),
            c.tail_percentile * 100.0
        );
    }
    if traced {
        let _ = writeln!(out, "  {:<34} {:>14}  unit", "layer metric", "value");
        for m in PER_LAYER.iter() {
            // A metric this workload does not exercise is left out of its
            // table rather than shown as 0.
            if let Some(value) = summary.layers.get(m.name) {
                let _ = writeln!(out, "  {:<34} {:>14}  {}", m.name, number(*value), m.unit);
            }
        }
        if !summary.shares.is_empty() {
            let parts: Vec<String> = summary
                .shares
                .iter()
                .map(|(layer, share)| format!("{layer} {:.1} %", share * 100.0))
                .collect();
            let _ = writeln!(out, "  share of operation time: {}", parts.join(", "));
        }
    }
    for problem in &summary.problems {
        let _ = writeln!(out, "  PROBLEM: {problem}");
    }
    out
}

/// The one-line result the driver reads: with `traced` every per-layer metric
/// (0 where the workload does not exercise the layer), else every end-to-end
/// metric.
pub fn contract_json(summary: &Summary, traced: bool) -> String {
    let metrics: Vec<String> = if traced {
        PER_LAYER
            .iter()
            .map(|m| {
                let value = summary
                    .layers
                    .get(m.name)
                    .copied()
                    .filter(|v| v.is_finite())
                    .unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect()
    } else {
        summary
            .end_to_end
            .iter()
            .map(|(name, q)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    name,
                    q.value,
                    catalogue::end_to_end(name).unit
                )
            })
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        summary.correct(),
        summary.attempted.max(1),
        summary.failed,
        metrics.join(", ")
    )
}

// ---------------------------------------------------------------------------
// Stored results.

const RESULTS_HEADER: &str = "granlog-benchmark-results\t1";

/// A result set as stored on disk: enough to compare against later.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stored {
    pub fingerprint: Vec<(String, String)>,
    pub provenance: Vec<(String, String)>,
    /// `(workload, metric, value, median over rounds)`.
    pub end_to_end: Vec<(String, String, f64, f64)>,
    /// `(workload, metric, value)`.
    pub layers: Vec<(String, String, f64)>,
    /// `(workload, attempted, failed)`.
    pub counts: Vec<(String, u64, u64)>,
}

impl Stored {
    pub fn new(
        fingerprint: &[(&'static str, String)],
        provenance: &[(String, String)],
        summaries: &[Summary],
    ) -> Stored {
        let mut stored = Stored {
            fingerprint: fingerprint
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            provenance: provenance.to_vec(),
            ..Stored::default()
        };
        for s in summaries {
            stored
                .provenance
                .push((format!("passes.{}", s.workload), s.passes.to_string()));
            for (name, q) in &s.end_to_end {
                stored.end_to_end.push((
                    s.workload.to_string(),
                    name.to_string(),
                    q.value,
                    q.median,
                ));
            }
            for (name, value) in &s.layers {
                stored
                    .layers
                    .push((s.workload.to_string(), name.clone(), *value));
            }
            stored
                .counts
                .push((s.workload.to_string(), s.attempted, s.failed));
        }
        stored
    }

    pub fn encode(&self) -> String {
        let mut out = format!("{RESULTS_HEADER}\n");
        for (k, v) in &self.fingerprint {
            let _ = writeln!(out, "fingerprint\t{k}\t{v}");
        }
        for (k, v) in &self.provenance {
            let _ = writeln!(out, "provenance\t{k}\t{v}");
        }
        for (w, m, value, median) in &self.end_to_end {
            let _ = writeln!(out, "e2e\t{w}\t{m}\t{value}\t{median}");
        }
        for (w, m, value) in &self.layers {
            let _ = writeln!(out, "layer\t{w}\t{m}\t{value}");
        }
        for (w, attempted, failed) in &self.counts {
            let _ = writeln!(out, "count\t{w}\t{attempted}\t{failed}");
        }
        out
    }

    pub fn decode(text: &str) -> Result<Stored, String> {
        let mut lines = text.lines();
        if lines.next() != Some(RESULTS_HEADER) {
            return Err("not a granlog-benchmark results file".to_string());
        }
        let mut stored = Stored::default();
        for line in lines {
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || format!("bad results line: {line:?}");
            let text = |i: usize| f.get(i).map(|s| s.to_string()).ok_or_else(bad);
            let num = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).ok_or_else(bad);
            match f[0] {
                "fingerprint" => stored.fingerprint.push((text(1)?, text(2)?)),
                "provenance" => stored.provenance.push((text(1)?, text(2)?)),
                "e2e" => stored
                    .end_to_end
                    .push((text(1)?, text(2)?, num(3)?, num(4)?)),
                "layer" => stored.layers.push((text(1)?, text(2)?, num(3)?)),
                "count" => stored
                    .counts
                    .push((text(1)?, num(2)? as u64, num(3)? as u64)),
                _ => return Err(bad()),
            }
        }
        Ok(stored)
    }
}

// ---------------------------------------------------------------------------
// Comparing two sets.

/// One row of a comparison: an end-to-end metric on a workload in both sets.
#[derive(Debug, Clone, PartialEq)]
pub struct Difference {
    pub workload: String,
    pub metric: String,
    pub first: f64,
    pub second: f64,
    /// By what share of `first` the second set is worse (negative: better).
    pub worsening: f64,
    pub bound: f64,
}

impl Difference {
    /// An A/A check has no "better" side: any move past the bound is noise
    /// the bound does not cover.
    pub fn beyond_bound_either_way(&self) -> bool {
        self.worsening.abs() > self.bound
    }

    pub fn regression(&self) -> bool {
        self.worsening > self.bound
    }
}

/// Every end-to-end metric both sets have, workload by workload, plus the
/// failed share (whose bound is 0, absolute).
pub fn differences(first: &Stored, second: &Stored) -> Vec<Difference> {
    let mut out = Vec::new();
    for (workload, metric, a, _) in &first.end_to_end {
        let Some((_, _, b, _)) = second
            .end_to_end
            .iter()
            .find(|(w, m, ..)| w == workload && m == metric)
        else {
            continue;
        };
        let Some(m) = END_TO_END.iter().find(|m| m.name == metric) else {
            continue;
        };
        out.push(Difference {
            workload: workload.clone(),
            metric: metric.clone(),
            first: *a,
            second: *b,
            worsening: m.better.worsening(*a, *b),
            bound: m.bound,
        });
    }
    for (workload, attempted, failed) in &first.counts {
        let Some((_, attempted2, failed2)) = second.counts.iter().find(|(w, ..)| w == workload)
        else {
            continue;
        };
        let (a, b) = (
            *failed as f64 / (*attempted).max(1) as f64,
            *failed2 as f64 / (*attempted2).max(1) as f64,
        );
        out.push(Difference {
            workload: workload.clone(),
            metric: "failed_share".to_string(),
            first: a,
            second: b,
            // Absolute, not relative: any failure at all is beyond the bound.
            worsening: Better::Lower.worsening(1.0, 1.0 + a.max(b)),
            bound: 0.0,
        });
    }
    out
}

pub fn render_differences(rows: &[Difference], title: (&str, &str)) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:<18} {:<14} {:>12} {:>12} {:>9} {:>7}",
        "workload", "metric", title.0, title.1, "worse by", "bound"
    );
    for d in rows {
        let _ = writeln!(
            out,
            "  {:<18} {:<14} {:>12} {:>12} {:>8.1}% {:>6.0}%{}",
            d.workload,
            d.metric,
            number(d.first),
            number(d.second),
            d.worsening * 100.0,
            d.bound * 100.0,
            if d.beyond_bound_either_way() {
                "  <-- beyond the bound"
            } else {
                ""
            }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(setup_s: f64, fib: &[f64], hanoi: &[f64]) -> RoundReport {
        let mut r = RoundReport {
            setup_s,
            rss_mb: 10.0,
            ..RoundReport::default()
        };
        for ms in fib {
            r.sample("fib", *ms);
            r.attempt(None);
        }
        for ms in hanoi {
            r.sample("hanoi", *ms);
            r.attempt(None);
        }
        r.exact("engine.resolutions", 1000);
        r
    }

    fn measured(plain: Vec<RoundReport>) -> Measured {
        Measured {
            workload: "sld_suite",
            passes: 1,
            plain,
            traced: None,
            variants: Vec::new(),
            hung_rounds: 0,
        }
    }

    #[test]
    fn a_metric_folds_classes_over_the_runs_quiet_passes() {
        // Three rounds of one pass each: too few to leave any out, so every
        // pass is quiet. Pooled, fib's median is 2 and hanoi's 8.
        let rounds = vec![
            round(0.3, &[1.0, 1.0, 1.0], &[4.0]),
            round(0.1, &[2.0, 2.0, 9.0], &[8.0]),
            round(0.2, &[3.0], &[12.0]),
        ];
        let s = summarize(&measured(rounds));
        let p50 = s.end_to_end("p50_ms");
        // Beside the value: the per-round folds 2, 4, 6.
        assert_eq!((p50.value, p50.median), (4.0, 4.0));
        let setup = s.end_to_end("setup_s");
        assert_eq!((setup.value, setup.median), (0.1, 0.2));
        assert_eq!(s.end_to_end("peak_rss_mb").value, 10.0);
        // 10 operations in 7 + 21 + 15 ms; per round 4 / 7 ms, 4 / 21 ms, 2 / 15 ms.
        let rate = s.end_to_end("ops_per_s");
        assert!(
            (rate.value - 10.0 / 0.043).abs() < 1e-9 && (rate.median - 4.0 / 0.021).abs() < 1e-9
        );
        assert_eq!(s.classes[0].name, "fib");
        assert_eq!((s.classes[0].samples, s.classes[0].p50_ms), (7, 2.0));
        // Seven fib and three hanoi samples are too few for anything above
        // the median, so each class's tail is its median.
        assert_eq!(s.classes[0].tail_percentile, 0.50);
        assert_eq!((s.classes[0].tail_ms, s.classes[1].tail_ms), (2.0, 8.0));
        assert_eq!(s.end_to_end("tail_ms").value, 4.0);
        assert!(s.correct());
        assert_eq!(s.layers["engine.resolutions"], 1000.0);
    }

    #[test]
    fn an_exact_counter_that_moves_between_rounds_is_a_problem() {
        let mut second = round(0.1, &[1.0], &[1.0]);
        second.layers[0].value = 1001.0;
        let s = summarize(&measured(vec![round(0.1, &[1.0], &[1.0]), second]));
        assert!(!s.correct());
        assert!(s.problems[0].contains("engine.resolutions") && s.problems[0].contains("1001"));
    }

    #[test]
    fn wrong_answers_make_the_result_incorrect() {
        let mut bad = round(0.1, &[1.0], &[1.0]);
        bad.attempt(Some("fib: answer differs".to_string()));
        let s = summarize(&measured(vec![bad]));
        assert_eq!((s.attempted, s.failed), (3, 1));
        assert!(!s.correct());
        let json = contract_json(&s, false);
        assert!(json.starts_with(
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"setup_s\""
        ));
        assert!(render(&s, false).contains("PROBLEM: fib: answer differs"));
    }

    #[test]
    fn traced_pass_adds_the_derived_layer_metrics() {
        let plain = vec![
            round(0.1, &[1.0; 4], &[2.0; 4]),
            round(0.1, &[1.0; 4], &[2.0; 4]),
        ];
        let mut traced = round(0.1, &[1.1; 4], &[2.2; 4]);
        traced.coverage = Some(0.99);
        traced.layer("engine.run_goal_ms", 1.6);
        traced.shares.push(("engine".to_string(), 0.99));
        let profile = round(0.1, &[1.2; 4], &[2.4; 4]);
        let s = summarize(&Measured {
            traced: Some(traced),
            variants: vec![(Mode::Profile, profile)],
            ..measured(plain)
        });
        assert!(s.correct(), "{:?}", s.problems);
        assert!((s.layers["bench.trace_overhead_share"] - 0.1).abs() < 1e-9);
        assert!((s.layers["obs.profile_on_cost_share"] - 0.2).abs() < 1e-9);
        assert_eq!(s.layers["bench.round_spread"], 0.0);
        assert_eq!(s.layers["bench.span_coverage"], 0.99);
        assert_eq!(s.layers["engine.run_goal_ms"], 1.6);
        let json = contract_json(&s, true);
        assert!(json.contains("\"engine.run_goal_ms\": {\"value\": 1.6, \"unit\": \"ms\"}"));
        assert!(json.contains("\"datalog.rounds\": {\"value\": 0, \"unit\": \"count\"}"));
        assert_eq!(json.matches("\"unit\"").count(), PER_LAYER.len());
        assert!(!render(&s, true).contains("datalog.rounds"));
    }

    #[test]
    fn uncovered_operation_time_is_a_problem() {
        let mut traced = round(0.1, &[1.0], &[1.0]);
        traced.coverage = Some(0.90);
        let s = summarize(&Measured {
            traced: Some(traced),
            ..measured(vec![round(0.1, &[1.0], &[1.0])])
        });
        assert!(s.problems.iter().any(|p| p.contains("90.0 %")));
    }

    #[test]
    fn baselines_divide_class_by_class() {
        let plain = vec![round(0.1, &[1.0; 3], &[4.0; 3])];
        let mut traced = round(0.1, &[1.0; 3], &[4.0; 3]);
        traced.coverage = Some(1.0);
        let always = round(0.1, &[4.0], &[4.0]);
        let s = summarize(&Measured {
            workload: "par_control",
            traced: Some(traced),
            variants: vec![(Mode::ParAlways, always)],
            ..measured(plain)
        });
        // fib 4x slower without control, hanoi the same: geometric mean 2.
        assert!((s.layers["par.control_gain"] - 2.0).abs() < 1e-9);
        assert_eq!(s.layers["par.run_goal_always_ms"], 4.0);
    }

    #[test]
    fn stored_results_round_trip_and_compare_against_the_bounds() {
        let first = summarize(&measured(vec![round(0.1, &[1.0; 3], &[1.0; 3])]));
        let second = summarize(&measured(vec![round(0.1, &[1.5; 3], &[1.5; 3])]));
        let fingerprint = vec![("nproc", "2".to_string())];
        let provenance = vec![("seed".to_string(), "1".to_string())];
        let a = Stored::new(&fingerprint, &provenance, &[first]);
        let b = Stored::new(&fingerprint, &provenance, &[second]);
        assert_eq!(Stored::decode(&a.encode()).expect("decodes"), a);
        assert!(Stored::decode("nonsense").is_err());
        assert!(a
            .provenance
            .contains(&("passes.sld_suite".to_string(), "1".to_string())));
        let rows = differences(&a, &b);
        let p50 = rows.iter().find(|d| d.metric == "p50_ms").expect("p50 row");
        assert!(
            (p50.worsening - 0.5).abs() < 1e-9 && p50.regression() && p50.beyond_bound_either_way()
        );
        let back = differences(&b, &a);
        let p50 = back.iter().find(|d| d.metric == "p50_ms").expect("p50 row");
        assert!(!p50.regression() && p50.beyond_bound_either_way());
        let setup = rows
            .iter()
            .find(|d| d.metric == "setup_s")
            .expect("setup row");
        assert!(!setup.beyond_bound_either_way());
        let failed = rows
            .iter()
            .find(|d| d.metric == "failed_share")
            .expect("failed row");
        assert!(!failed.regression());
        assert!(render_differences(&rows, ("first", "second")).contains("beyond the bound"));
    }

    #[test]
    fn any_failure_is_beyond_the_failed_share_bound() {
        let ok = summarize(&measured(vec![round(0.1, &[1.0], &[1.0])]));
        let mut bad_round = round(0.1, &[1.0], &[1.0]);
        bad_round.attempt(Some("wrong".to_string()));
        let bad = summarize(&measured(vec![bad_round]));
        let a = Stored::new(&[], &[], &[ok]);
        let b = Stored::new(&[], &[], &[bad]);
        let rows = differences(&a, &b);
        assert!(rows
            .iter()
            .find(|d| d.metric == "failed_share")
            .expect("row")
            .regression());
    }
}
