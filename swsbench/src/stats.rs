//! Quantiles: exact nearest-rank for latency samples, and Python's
//! `statistics.quantiles(values, n=4)` for run-to-run spreads.

/// The exact nearest-rank `q`-quantile of `samples` (sorted in place).
/// `None` when empty.
pub fn nearest_rank<T: Ord + Copy>(samples: &mut [T], q: f64) -> Option<T> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method)
/// computes them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    let ld = data.len() as i64;
    if ld < 2 {
        return None;
    }
    data.sort_by(f64::total_cmp);
    let n = 4i64;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        let (lo, hi) = (data[(j - 1) as usize], data[j as usize]);
        *slot = (lo * (n - delta) as f64 + hi * delta as f64) / n as f64;
    }
    Some(out)
}

/// Interquartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(nearest_rank(&mut v, 0.5), Some(50));
        assert_eq!(nearest_rank(&mut v, 0.99), Some(99));
        assert_eq!(nearest_rank(&mut v, 1.0), Some(100));
        assert_eq!(nearest_rank::<u64>(&mut [], 0.5), None);
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }
}
