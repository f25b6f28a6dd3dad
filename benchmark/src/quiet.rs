//! What a run says about the system, read from its *quiet passes*.
//!
//! The reference host is a two-CPU virtual machine whose neighbours come and
//! go: for seconds, sometimes for a whole run, everything is 30-60 % slower,
//! and in a busy minute more than half of all operations are hit. A median
//! over all operations then measures the neighbours, not the system:
//! back-to-back rounds of one schedule differed by up to 60 %, runs by 25 %.
//! Passes of one kind repeat the same work, so a slow pass is a disturbed
//! pass. For each load thread and each kind of pass, the fastest tenth of the
//! passes of that kind — of all the run's rounds together — are the run's
//! quiet passes, and throughput, class medians and class tails are all taken
//! over the operations of those passes alone. On recorded rounds
//! this moved `serve_hot`'s latency by 3 % between runs where the unfiltered
//! median moved by 25 %. Selecting on duration reads a little fast; it does
//! so identically for a parent commit and a change, which is what a
//! comparison needs. What it cannot show is a stall the system itself causes
//! once every few passes (a compaction): that is what the unfiltered
//! `serve.p99_ms` is for.

use crate::round::{Pass, RoundReport};
use crate::stats;
use std::collections::BTreeMap;

/// Which passes figures are taken from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Passes {
    /// The quiet ones: what the metrics are.
    Quiet,
    /// All of them: what the host was like.
    All,
}

/// Share of a thread's passes of one kind taken as quiet ...
const QUIET_SHARE: f64 = 0.10;

/// ... but never fewer than this many (or all, when there are fewer): the
/// millisecond-sized workloads make only a few dozen passes of a kind a run.
/// `par_control`'s 24 per goal make this a quarter there, on purpose: how much
/// of a query runs in parallel varies so widely from query to query that its
/// fastest tenth is an extreme, not a floor (on recorded rounds the fastest
/// quarter moved least between runs).
const MIN_QUIET_PASSES: usize = 6;

#[derive(Debug, Clone, PartialEq)]
pub struct ClassFigures {
    pub name: String,
    /// Operations of this class in the round's quiet passes.
    pub samples: usize,
    pub p50_ms: f64,
    /// The highest ladder percentile with ten of those samples beyond it
    /// ([`stats::tail_percentile`]), and its value.
    pub tail_percentile: f64,
    pub tail_ms: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Figures {
    /// Correct operations per second over the chosen passes, summed over load
    /// threads.
    pub ops_per_s: f64,
    pub classes: Vec<ClassFigures>,
}

impl Figures {
    /// Geometric mean over classes of the class's median latency.
    pub fn p50_ms(&self) -> f64 {
        stats::geomean(&self.classes.iter().map(|c| c.p50_ms).collect::<Vec<_>>())
    }

    /// Geometric mean over classes of the class's tail latency.
    pub fn tail_ms(&self) -> f64 {
        stats::geomean(&self.classes.iter().map(|c| c.tail_ms).collect::<Vec<_>>())
    }
}

/// Indices of the quiet passes among one thread's: of each kind, the fastest
/// [`QUIET_SHARE`].
pub fn quiet_passes(passes: &[&Pass]) -> Vec<usize> {
    let mut by_kind: BTreeMap<u32, Vec<(f64, usize)>> = BTreeMap::new();
    for (index, pass) in passes.iter().enumerate() {
        by_kind
            .entry(pass.kind)
            .or_default()
            .push((pass.seconds(), index));
    }
    let mut quiet = Vec::new();
    for mut ranked in by_kind.into_values() {
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        let keep = ((ranked.len() as f64 * QUIET_SHARE).ceil() as usize).max(MIN_QUIET_PASSES);
        quiet.extend(ranked.into_iter().take(keep).map(|(_, index)| index));
    }
    quiet.sort_unstable();
    quiet
}

/// One thread's operations per second: all its operations over the time its
/// passes would have taken had each been as fast as the chosen passes of its
/// kind are on average. (Weighing by how often each kind ran keeps the
/// schedule's mix, which the chosen passes alone need not have.)
fn rate(all: &[&Pass], chosen: &[usize]) -> f64 {
    let mut chosen_by_kind: BTreeMap<u32, (f64, usize)> = BTreeMap::new();
    for pass in chosen.iter().map(|i| all[*i]) {
        let (seconds, passes) = chosen_by_kind.entry(pass.kind).or_default();
        *seconds += pass.seconds();
        *passes += 1;
    }
    let (mut ops, mut seconds) = (0usize, 0.0);
    for pass in all {
        if let Some((chosen_seconds, passes)) = chosen_by_kind.get(&pass.kind) {
            ops += pass.ops.len();
            seconds += chosen_seconds / *passes as f64;
        }
    }
    if seconds > 0.0 {
        ops as f64 / seconds
    } else {
        0.0
    }
}

/// Figures over the chosen passes of `rounds` (rounds of one schedule: thread
/// `t` of every round is the same session, so their passes are pooled).
pub fn figures(rounds: &[&RoundReport], which: Passes) -> Figures {
    let mut names: Vec<&str> = Vec::new();
    let mut samples: Vec<Vec<f64>> = Vec::new();
    let mut ops_per_s = 0.0;
    let threads = rounds.iter().map(|r| r.threads.len()).max().unwrap_or(0);
    for thread in 0..threads {
        let pooled: Vec<(&RoundReport, &Pass)> = rounds
            .iter()
            .filter_map(|round| Some((*round, round.threads.get(thread)?)))
            .flat_map(|(round, passes)| passes.iter().map(move |pass| (round, pass)))
            .collect();
        let all: Vec<&Pass> = pooled.iter().map(|(_, pass)| *pass).collect();
        let chosen = match which {
            Passes::Quiet => quiet_passes(&all),
            Passes::All => (0..all.len()).collect(),
        };
        ops_per_s += rate(&all, &chosen);
        for (round, pass) in chosen.into_iter().map(|i| pooled[i]) {
            // Class indices are per round: go through the name.
            for (class, ms) in &pass.ops {
                let name = round.classes[*class as usize].as_str();
                let slot = names.iter().position(|n| *n == name).unwrap_or_else(|| {
                    names.push(name);
                    samples.push(Vec::new());
                    names.len() - 1
                });
                samples[slot].push(*ms);
            }
        }
    }
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed.min(r.attempted)).sum();
    let classes = names
        .into_iter()
        .zip(samples)
        .map(|(name, samples)| {
            let sorted = stats::sorted(samples);
            let tail_percentile = stats::tail_percentile(sorted.len());
            ClassFigures {
                name: name.to_string(),
                samples: sorted.len(),
                p50_ms: stats::percentile(&sorted, 0.50),
                tail_percentile,
                tail_ms: stats::percentile(&sorted, tail_percentile),
            }
        })
        .collect();
    Figures {
        ops_per_s: ops_per_s * (attempted - failed) as f64 / attempted.max(1) as f64,
        classes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(kind: u32, ms: &[f64]) -> Pass {
        Pass {
            kind,
            ops: ms.iter().map(|ms| (0, *ms)).collect(),
        }
    }

    #[test]
    fn quiet_passes_are_the_fastest_of_each_kind() {
        // Kind 0 passes take ~1 ms, kind 1 passes ~10 ms; every fifth pass of
        // either kind is disturbed (+50 %). 100 passes of each kind: ten of
        // each are quiet, whatever the other kind costs.
        let passes: Vec<Pass> = (0..200)
            .map(|i| {
                let kind = i % 2;
                let base = if kind == 0 { 1.0 } else { 10.0 };
                let wobble = 1.0 + f64::from(i / 2 % 7) * 0.001;
                let disturbed = if i / 2 % 5 == 4 { 1.5 } else { 1.0 };
                pass(kind as u32, &[base * wobble * disturbed])
            })
            .collect();
        let refs: Vec<&Pass> = passes.iter().collect();
        let quiet: Vec<&Pass> = quiet_passes(&refs).into_iter().map(|i| refs[i]).collect();
        assert_eq!(quiet.len(), 20);
        assert_eq!(quiet.iter().filter(|p| p.kind == 1).count(), 10);
        assert!(quiet
            .iter()
            .all(|p| p.ops[0].1 < 1.002 || (10.0..10.02).contains(&p.ops[0].1)));
    }

    #[test]
    fn a_few_dozen_passes_keep_six_of_each_kind() {
        let passes: Vec<Pass> = (0..40)
            .rev()
            .map(|i| pass(i % 2, &[1.0 + f64::from(i)]))
            .collect();
        let refs: Vec<&Pass> = passes.iter().collect();
        let mut quiet: Vec<f64> = quiet_passes(&refs)
            .into_iter()
            .map(|i| refs[i].ops[0].1)
            .collect();
        quiet.sort_by(f64::total_cmp);
        assert_eq!(quiet, (1..=12).map(f64::from).collect::<Vec<f64>>());
        assert_eq!(quiet_passes(&refs[..3]).len(), 3);
        assert!(quiet_passes(&[]).is_empty());
    }

    #[test]
    fn throughput_keeps_the_schedules_mix() {
        // Ten cheap passes (1 ms) for every expensive one (100 ms); a run of
        // 6 expensive and 60 cheap ones keeps 6 of each, but the rate is that
        // of the schedule: 66 operations in 60 x 1 + 6 x 100 ms.
        let mut round = RoundReport::default();
        for i in 0..66 {
            round.begin_pass(u32::from(i % 11 == 0));
            round.sample(
                if i % 11 == 0 { "chain" } else { "star" },
                if i % 11 == 0 { 100.0 } else { 1.0 },
            );
            round.attempt(None);
        }
        let quiet = figures(&[&round], Passes::Quiet);
        assert!((quiet.ops_per_s - 66.0 / 0.660).abs() < 1e-9);
        assert_eq!((quiet.classes[0].samples, quiet.classes[1].samples), (6, 6));
    }

    #[test]
    fn figures_come_from_quiet_operations_only() {
        // Two rounds of 100 passes of two operations; every second pass of the
        // second round is disturbed (2x).
        let rounds: Vec<RoundReport> = (0..2)
            .map(|r| {
                let mut round = RoundReport::default();
                for i in 0..100 {
                    round.begin_pass(0);
                    let slow = if r == 1 && i % 2 == 0 { 2.0 } else { 1.0 };
                    // The second round meets its classes in the other order.
                    if r == 0 {
                        round.sample("fib", 1.0 * slow);
                        round.sample("hanoi", 4.0 * slow);
                    } else {
                        round.sample("hanoi", 4.0 * slow);
                        round.sample("fib", 1.0 * slow);
                    }
                    round.attempt(None);
                    round.attempt(None);
                }
                round
            })
            .collect();
        let refs: Vec<&RoundReport> = rounds.iter().collect();
        let quiet = figures(&refs, Passes::Quiet);
        assert_eq!(quiet.classes.len(), 2);
        assert_eq!(
            (quiet.classes[0].name.as_str(), quiet.classes[0].samples),
            ("fib", 20)
        );
        assert_eq!(
            (quiet.classes[0].p50_ms, quiet.classes[1].p50_ms),
            (1.0, 4.0)
        );
        assert_eq!((quiet.p50_ms(), quiet.tail_ms()), (2.0, 2.0));
        // Two operations per 5 ms pass.
        assert!((quiet.ops_per_s - 400.0).abs() < 1e-9);
        // All passes: a quarter of them took twice as long.
        let all = figures(&refs, Passes::All);
        assert_eq!(all.classes[0].samples, 200);
        assert!((all.ops_per_s - 400.0 / 1.25).abs() < 1e-9);
        assert_eq!(all.classes[0].tail_ms, 2.0);
        // A failed operation is not a correct one.
        let mut failing = rounds.clone();
        failing[0].attempt(Some("wrong".to_string()));
        let refs: Vec<&RoundReport> = failing.iter().collect();
        assert!((figures(&refs, Passes::Quiet).ops_per_s - 400.0 * 400.0 / 401.0).abs() < 1e-9);
    }

    #[test]
    fn threads_add_up() {
        let mut a = RoundReport::default();
        a.begin_pass(0);
        a.sample("query", 1.0);
        a.attempt(None);
        let mut b = RoundReport::default();
        b.begin_pass(0);
        b.sample("query", 1.0);
        b.attempt(None);
        a.absorb(b);
        let both = figures(&[&a], Passes::Quiet);
        assert!((both.ops_per_s - 2000.0).abs() < 1e-9);
        assert_eq!(both.classes[0].samples, 2);
    }
}
