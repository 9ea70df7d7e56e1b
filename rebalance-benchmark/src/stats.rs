//! Order statistics for per-round samples.

/// Median, quartiles and sample count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&sorted)?;
        Some(Summary {
            median: median(&sorted)?,
            q1,
            q3,
            n: sorted.len(),
        })
    }

    /// Interquartile range as a share of the median (0 for a zero
    /// median, whose spread cannot be expressed as a share).
    pub fn rel_spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of sorted samples.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartiles of sorted samples by the "exclusive"
/// method, the default of Python's `statistics.quantiles(data, n=4)`,
/// so numbers here match a spread computed there. One sample is its own
/// quartiles.
pub fn quartiles(sorted: &[f64]) -> Option<(f64, f64)> {
    let len = sorted.len();
    match len {
        0 => None,
        1 => Some((sorted[0], sorted[0])),
        _ => {
            let m = len + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            Some((cut(1), cut(3)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[1.0, 2.0, 9.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), Some(3.0));
    }

    // Reference values from Python 3: statistics.quantiles(data, n=4).
    #[test]
    fn quartiles_match_python_exclusive_method() {
        assert_eq!(quartiles(&[]), None);
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), Some((1.25, 3.75)));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some((1.5, 4.5)));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
    }

    #[test]
    fn summary_sorts_its_input() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.median, s.q1, s.q3, s.n), (3.0, 1.5, 4.5, 5));
        assert!((s.rel_spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[]), None);
    }
}
