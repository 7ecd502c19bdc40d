//! Order statistics and interval arithmetic for the benchmark's reports.

/// Median, quartiles and sample count of one metric over the repetitions
/// of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count). Panics on an
/// empty slice: every metric has at least one sample by construction.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method, which
/// extrapolates for tiny samples), so the spreads this benchmark reports
/// are the ones a Python reader of its results would compute.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    match v.len() {
        0 => panic!("quartiles of no samples"),
        1 => (v[0], v[0]),
        len => {
            let m = len + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (cut(1), cut(3))
        }
    }
}

pub fn summarize(values: &[f64]) -> Summary {
    let (q1, q3) = quartiles(values);
    Summary {
        median: median(values),
        q1,
        q3,
        n: values.len(),
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Total length covered by a set of `(start, end)` intervals, counting
/// overlaps once. A layer's self time is its span minus this union over
/// its children.
pub fn union_len(intervals: &[(f64, f64)]) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals.iter().copied().filter(|(a, b)| b > a).collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((s, e)) if a <= e => Some((s, e.max(b))),
            Some((s, e)) => {
                total += e - s;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0.0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from Python 3: statistics.quantiles(data, n=4).
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[5.0, 1.0]), (0.0, 6.0));
        assert_eq!(quartiles(&[2.5, 0.5, 9.0, 4.0, 1.5]), (1.0, 6.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        let s = summarize(&ten);
        assert_eq!((s.median, s.n), (5.5, 10));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&hundred, 100.0), 100.0);
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 50.0), 3.0);
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 0.0), 1.0);
    }

    #[test]
    fn interval_union_counts_overlap_once() {
        assert_eq!(union_len(&[]), 0.0);
        assert_eq!(union_len(&[(0.0, 1.0), (2.0, 3.0)]), 2.0);
        assert_eq!(union_len(&[(0.0, 2.0), (1.0, 3.0)]), 3.0);
        assert_eq!(union_len(&[(1.0, 3.0), (0.0, 4.0), (5.0, 6.0)]), 5.0);
        // Touching intervals merge; empty ones contribute nothing.
        assert_eq!(union_len(&[(0.0, 1.0), (1.0, 2.0), (3.0, 3.0)]), 2.0);
    }
}
