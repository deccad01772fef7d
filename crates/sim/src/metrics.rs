//! Small statistics helpers used by tests and the experiment harness.

/// An append-only sample set with summary statistics. Samples are stored
/// raw; quantiles sort a copy on demand, which is fine at experiment scale.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    samples: Vec<f64>,
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn push(&mut self, v: f64) {
        debug_assert!(v.is_finite(), "non-finite sample");
        self.samples.push(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Arithmetic mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Smallest sample, or 0.0 if empty.
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest sample, or 0.0 if empty.
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// The `q`-quantile (0.0..=1.0) by nearest-rank, or 0.0 if empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut s = self.samples.clone();
        s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let idx = ((q.clamp(0.0, 1.0)) * (s.len() - 1) as f64).round() as usize;
        s[idx]
    }

    /// Raw samples, in insertion order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn summary_stats() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            h.push(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean(), 3.0);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 5.0);
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(0.5), 3.0);
        assert_eq!(h.quantile(1.0), 5.0);
    }

    #[test]
    fn quantile_nearest_rank() {
        let mut h = Histogram::new();
        for v in 0..100 {
            h.push(v as f64);
        }
        assert_eq!(h.quantile(0.99), 98.0);
        assert_eq!(h.quantile(0.5), 50.0);
    }
}
