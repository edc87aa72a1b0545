//! Median and quartiles of a handful of repetitions, and the quiet-host
//! floor of repetitions that do identical work.

/// One metric's reported value and the five-number summary of its
/// repetitions. A count that repeats exactly is a summary of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// What the metric reports: the median, unless [`Summary::with_value`]
    /// put a steadier estimate of the same quantity in its place.
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// A single measured value.
    pub fn single(v: f64) -> Summary {
        Summary {
            value: v,
            median: v,
            q1: v,
            q3: v,
            min: v,
            max: v,
            n: 1,
        }
    }

    /// Summarises `values`; `None` when empty or when any value is not
    /// finite (a ratio with a zero base, say — never printed as a number).
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&v);
        Some(Summary {
            value: median,
            median,
            q1,
            q3,
            min: v[0],
            max: v[v.len() - 1],
            n: v.len(),
        })
    }

    /// Reports `value` in place of the median; the summary stays.
    pub fn with_value(self, value: f64) -> Summary {
        Summary { value, ..self }
    }

    /// Interquartile range as a share of the median (0 for one sample).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// `(q1, median, q3)` of a sorted, non-empty slice, by the rule of
/// Python's `statistics.quantiles(v, n=4)` (the exclusive method), so a
/// spread computed here is the spread the driver computes.
fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let len = sorted.len();
    if len == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The time one repetition takes on a quiet host at the reference clock
/// (see `host::clock_step_ns`), from repetitions cut into the same pieces
/// of identical work. Each repetition gives its pieces' ns and, beside
/// each piece, what a step of the host's clock took then. Every piece is
/// taken from the repetition that ran it fastest and divided by its own
/// clock step; the sum is the floor. `None` without repetitions.
///
/// The reference host is a 2-vCPU VM. Its neighbours move its core clock
/// between turbo levels 27 % apart that last from a fraction of a second
/// to minutes, and, apart from that, slow a working set that leans on the
/// shared caches by 1.4x and more for seconds at a time. Both only ever
/// add time. Contention comes and goes within a repetition, so a piece's
/// minimum over ten repetitions is that piece undisturbed far more often
/// than any whole repetition is; the clock level can outlast a run, so
/// the piece is read in clock steps, not in ns. Over thirty 10 s windows
/// of one commit the median repetition moved by 20 % (IQR / median),
/// the raw floor by 17 %, this floor by 2 %.
pub fn quiet_floor<'a>(reps: impl IntoIterator<Item = (&'a [u64], &'a [f64])>) -> Option<f64> {
    let mut reps = reps.into_iter();
    let (ns, clock) = reps.next()?;
    let mut best: Vec<(u64, f64)> = ns.iter().copied().zip(clock.iter().copied()).collect();
    for (ns, clock) in reps {
        for (least, piece) in best
            .iter_mut()
            .zip(ns.iter().copied().zip(clock.iter().copied()))
        {
            if piece.0 < least.0 {
                *least = piece;
            }
        }
    }
    Some(best.iter().map(|(ns, step)| *ns as f64 / step).sum())
}

/// The `q`-quantile (nearest rank) of an unsorted sample; 0 when empty.
pub fn percentile(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((values.len() as f64 * q).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        assert_eq!((s.min, s.max, s.n), (1.0, 5.0, 5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = Summary::of(&[20.0, 10.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn quiet_floor_takes_each_piece_from_its_fastest_repetition() {
        let unit = [1.0; 3];
        let reps: [(&[u64], &[f64]); 3] = [
            (&[10, 50, 30], &unit),
            (&[40, 20, 30], &unit),
            (&[11, 21, 90], &unit),
        ];
        assert_eq!(quiet_floor(reps), Some(60.0));
        // A repetition at a clock 1.25x slower costs the same steps: the
        // fastest piece is chosen by its ns and read in its own clock.
        let slow: (&[u64], &[f64]) = (&[50, 100], &[1.25, 1.25]);
        let mixed: (&[u64], &[f64]) = (&[45, 80], &[1.25, 1.0]);
        assert_eq!(quiet_floor([slow]), Some(120.0));
        assert_eq!(quiet_floor([slow, mixed]), Some(36.0 + 80.0));
        assert_eq!(quiet_floor(std::iter::empty()), None);
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(s.value, 2.0);
        let floored = s.with_value(0.5);
        assert_eq!((floored.value, floored.median, floored.n), (0.5, 2.0, 3));
    }

    #[test]
    fn degenerate_samples() {
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(Summary::of(&[1.0, f64::NAN]), None);
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(s, Summary::single(7.0));
        assert_eq!(s.spread(), 0.0);
        assert_eq!(Summary::single(0.0).spread(), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&mut v, 0.5), 50);
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut v, 1.0), 100);
        assert_eq!(percentile(&mut [], 0.5), 0);
        assert_eq!(percentile(&mut [9], 0.99), 9);
    }
}
