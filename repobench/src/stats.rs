//! Order statistics over samples, and the fixed-size log₂ histogram
//! used wherever one sample per event would be too many to keep.

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// The `q`-quantile of `v` (0 ≤ q ≤ 1), interpolating linearly between
/// the two nearest ranks; 0 when `v` is empty.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Count, total and log₂ histogram of nanosecond durations: bucket `b`
/// holds durations in `[2^(b-1), 2^b)` ns (bucket 0 holds 0 ns).
#[derive(Clone, Debug)]
pub struct Hist {
    pub count: u64,
    pub total_ns: u64,
    pub buckets: [u64; 40],
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            count: 0,
            total_ns: 0,
            buckets: [0; 40],
        }
    }
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.buckets[bucket(ns)] += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// `[count, total_ns, [bucket counts up to the last non-empty one]]`.
    pub fn to_json(&self) -> String {
        let last = self
            .buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1);
        let b: Vec<String> = self.buckets[..last].iter().map(u64::to_string).collect();
        format!(
            "{{\"count\":{},\"total_ns\":{},\"log2_buckets\":[{}]}}",
            self.count,
            self.total_ns,
            b.join(",")
        )
    }
}

pub fn bucket(ns: u64) -> usize {
    ((64 - ns.leading_zeros()) as usize).min(39)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn hist_buckets_are_log2() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(3), 2);
        assert_eq!(bucket(1024), 11);
        let mut h = Hist::default();
        h.record(10);
        h.record(30);
        assert_eq!(h.count, 2);
        assert_eq!(h.mean_ns(), 20.0);
    }
}
