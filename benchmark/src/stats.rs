//! The statistics every reported number goes through.
//!
//! * a latency percentile is nearest-rank, and is only quoted when at least
//!   [`MIN_BEYOND`] samples lie beyond it;
//! * a workload's latency is the geometric mean of its classes' latencies,
//!   so one heavy class cannot own the number;
//! * a metric's value is the median across rounds, with the quartiles Python's
//!   `statistics.quantiles(values, n=4)` would give, so the spread printed
//!   here is the spread the driver computes.

/// A percentile is quoted only with this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried from the top; the first with [`MIN_BEYOND`] samples
/// beyond it is the class's tail. The ladder starts at the 90th percentile:
/// on the shared reference host anything higher measured the neighbours (its
/// run-to-run spread was past 20 % when the 90th's was under 10 %). The
/// median closes the ladder: a class with too few samples for anything
/// higher reports its median as its tail.
const TAIL_LADDER: [f64; 3] = [0.90, 0.75, 0.50];

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond percentile `p` among `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}

/// Nearest-rank percentile of an ascending slice (0 for an empty one).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// The highest ladder percentile with [`MIN_BEYOND`] samples beyond it among
/// `n` samples (the median when nothing higher qualifies).
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(0.50)
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values.to_vec());
    let n = data.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (data[0], data[0], data[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median: the run-to-run spread.
pub fn rel_spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

/// Geometric mean of strictly positive values (0 for none).
pub fn geomean(values: &[f64]) -> f64 {
    let positive: Vec<f64> = values.iter().copied().filter(|v| *v > 0.0).collect();
    if positive.is_empty() {
        return 0.0;
    }
    (positive.iter().map(|v| v.ln()).sum::<f64>() / positive.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let data: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&data, 0.50), 50.0);
        assert_eq!(percentile(&data, 0.99), 99.0);
        assert_eq!(percentile(&data, 1.0), 100.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // 1000 samples: the 99th percentile is sample 990, ten lie beyond;
        // one fewer and it would not qualify.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        // 100 samples: the 90th percentile is sample 90, ten lie beyond.
        assert_eq!(samples_beyond(100, 0.90), 10);
        assert_eq!(tail_percentile(10_000), 0.90);
        assert_eq!(tail_percentile(100), 0.90);
        assert_eq!(tail_percentile(99), 0.75);
        assert_eq!(tail_percentile(40), 0.75);
        assert_eq!(tail_percentile(39), 0.50);
        assert_eq!(tail_percentile(3), 0.50);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q2, q3) = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert!(close(q1, 1.5) && close(q2, 3.0) && close(q3, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&ten);
        assert!(close(q1, 2.75) && close(q2, 5.5) && close(q3, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q2, q3) = quartiles(&[1.0, 2.0]);
        assert!(close(q1, 0.75) && close(q2, 1.5) && close(q3, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert!(close(rel_spread(&ten), 1.0));
        assert!(close(median(&[9.0, 1.0, 5.0]), 5.0));
    }

    #[test]
    fn geometric_mean_folds_classes() {
        assert!(close(geomean(&[1.0, 100.0]), 10.0));
        assert!(close(geomean(&[2.0, 8.0, 4.0]), 4.0));
        // One class 100x heavier moves the fold by 100^(1/3), not by 100/3.
        assert!(geomean(&[1.0, 1.0, 100.0]) < 5.0);
        assert_eq!(geomean(&[]), 0.0);
    }
}
