//! Medians, quartiles and the compare verdict.

/// Median and quartiles, `(p25, p50, p75)`, by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads printed here match the ones an outside checker computes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        len => {
            let m = len + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(2), q(3))
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Interquartile range as a share of the median (0 when both are 0).
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (p25, p50, p75) = quartiles(values);
    let iqr = p75 - p25;
    if iqr == 0.0 {
        0.0
    } else {
        iqr / p50.abs()
    }
}

/// How a change's runs compare with a baseline's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    /// The run-to-run spread is wider than the metric's bound, so neither
    /// a gain nor the absence of a regression can be shown.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `change` against `base`, runs paired in order.
///
/// A gain needs the change to win at least nine tenths of the pairs (ties
/// count for neither side) and the medians to differ by more than the
/// baseline's interquartile range. With a `bound` (end-to-end metrics), a
/// spread wider than the bound is unresolved unless every change run beats
/// every baseline run, and a regression is a median worse by more than the
/// bound. Without one (per-layer metrics), a regression is the mirror of a
/// gain.
pub fn verdict(base: &[f64], change: &[f64], lower_is_better: bool, bound: Option<f64>) -> Verdict {
    let n = base.len().min(change.len());
    if n == 0 {
        return Verdict::Unresolved;
    }
    let better = |x: f64, than: f64| if lower_is_better { x < than } else { x > than };
    let (b25, mb, b75) = quartiles(base);
    let mc = median(change);
    let clear_gap = (mc - mb).abs() > b75 - b25;
    let wins = (0..n).filter(|&i| better(change[i], base[i])).count();
    let losses = (0..n).filter(|&i| better(base[i], change[i])).count();
    let won = 10 * wins >= 9 * n && clear_gap;
    let Some(bound) = bound else {
        return if won {
            Verdict::Better
        } else if 10 * losses >= 9 * n && clear_gap {
            Verdict::Worse
        } else {
            Verdict::Unchanged
        };
    };
    if relative_iqr(base).max(relative_iqr(change)) > bound {
        let dominates = change.iter().all(|&c| base.iter().all(|&b| better(c, b)));
        return if dominates {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if won {
        return Verdict::Better;
    }
    let worse_by = if lower_is_better { mc - mb } else { mb - mc };
    if worse_by > bound * mb.abs() {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 3.0, 5.0));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), (1.25, 2.5, 3.75));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(median(&[2.0, 9.0]), 5.5);
    }

    #[test]
    fn relative_iqr_is_a_share_of_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!(relative_iqr(&[3.0; 5]), 0.0);
    }

    fn around(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + jitter * ((i % 5) as f64 - 2.0))
            .collect()
    }

    #[test]
    fn compare_verdicts() {
        let base = around(100.0, 0.5);
        // Every pair wins by far more than the baseline's IQR.
        assert_eq!(
            verdict(&base, &around(80.0, 0.5), true, Some(0.1)),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &around(120.0, 0.5), false, Some(0.1)),
            Verdict::Better
        );
        // 15% worse on a 10% bound.
        assert_eq!(
            verdict(&base, &around(115.0, 0.5), true, Some(0.1)),
            Verdict::Worse
        );
        // 5% worse on a 10% bound is within the bound.
        assert_eq!(
            verdict(&base, &around(105.0, 0.5), true, Some(0.1)),
            Verdict::Unchanged
        );
        // Same distribution.
        assert_eq!(verdict(&base, &base, true, Some(0.1)), Verdict::Unchanged);
        // A spread wider than the bound cannot show anything...
        let noisy = around(100.0, 10.0);
        assert_eq!(
            verdict(&noisy, &around(101.0, 10.0), true, Some(0.1)),
            Verdict::Unresolved
        );
        // ...unless every change run beats every baseline run.
        assert_eq!(
            verdict(&noisy, &around(40.0, 10.0), true, Some(0.1)),
            Verdict::Better
        );
        // Without a bound, a loss in every pair beyond the IQR is worse.
        assert_eq!(
            verdict(&base, &around(110.0, 0.5), true, None),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &around(100.2, 0.5), true, None),
            Verdict::Unchanged
        );
        assert_eq!(verdict(&[], &base, true, Some(0.1)), Verdict::Unresolved);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let base = vec![10.0; 10];
        let mut change = vec![9.0; 8];
        change.extend([10.0, 10.0]);
        // 8 wins of 10 pairs is short of nine tenths.
        assert_eq!(verdict(&base, &change, true, None), Verdict::Unchanged);
        change[8] = 9.0;
        assert_eq!(verdict(&base, &change, true, None), Verdict::Better);
    }
}
