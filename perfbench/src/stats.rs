//! The one statistics helper every metric goes through: median and
//! quartiles, the tail percentile, and the geometric mean.

/// Median and quartiles of a sample, as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// and `statistics.median` give them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// The highest percentile of a sample that still has `beyond` samples
/// above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in percent.
    pub pct: f64,
    pub value: f64,
    /// Samples strictly above the reported rank.
    pub beyond: usize,
    /// Sample count.
    pub n: usize,
}

/// Samples a tail percentile must leave beyond itself.
pub const TAIL_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// `None` for fewer than two samples (Python raises there too).
pub fn quartiles(values: &[f64]) -> Option<Quartiles> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    // Python's exclusive method, integer math included: the i-th cut
    // sits at position (n + 1) * i / 4, its left neighbour clamped to
    // 1..n-1, which extrapolates past the sample ends for tiny samples.
    let cut = |i: usize| {
        let m = (n + 1) * i;
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some(Quartiles {
        q1: cut(1),
        median: median(values)?,
        q3: cut(3),
    })
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: the value at rank `n - TAIL_BEYOND` (1-based), named as the
/// percentile `100 * (n - TAIL_BEYOND) / n`. `None` when the sample has
/// no more than [`TAIL_BEYOND`] values.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let v = sorted(values);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    Some(Tail {
        pct: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        value: v[n - TAIL_BEYOND - 1],
        beyond: TAIL_BEYOND,
        n,
    })
}

/// `None` for an empty sample or one with a value that is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || !values.iter().all(|v| *v > 0.0) {
        return None;
    }
    let mean_ln = values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64;
    Some(mean_ln.exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v).unwrap();
        assert!(close(q.q1, 2.75) && close(q.median, 5.5) && close(q.q3, 8.25));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        let q = quartiles(&[5.0, 1.0, 3.0]).unwrap();
        assert!(close(q.q1, 1.0) && close(q.median, 3.0) && close(q.q3, 5.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[2.0, 1.0]).unwrap();
        assert!(close(q.q1, 0.75) && close(q.median, 1.5) && close(q.q3, 2.25));
        // statistics.quantiles([3.5, 1.25, 9, 4, 4.5, 7], n=4)
        //   == [2.9375, 4.25, 7.5]
        let q = quartiles(&[3.5, 1.25, 9.0, 4.0, 4.5, 7.0]).unwrap();
        assert!(close(q.q1, 2.9375) && close(q.median, 4.25) && close(q.q3, 7.5));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.value, t.beyond, t.n), (90.0, 10, 100));
        assert!(close(t.pct, 90.0));
        assert_eq!(v.iter().filter(|x| **x > t.value).count(), 10);
        let v: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 1.0);
        assert!(close(t.pct, 100.0 / 11.0));
    }

    #[test]
    fn geomean_of_positive_samples_only() {
        assert!(close(geomean(&[1.0, 100.0]).unwrap(), 10.0));
        assert!(close(geomean(&[2.0, 8.0, 4.0]).unwrap(), 4.0));
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }
}
