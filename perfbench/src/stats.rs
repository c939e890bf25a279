//! Latency samples, quantiles and answer digests.

use std::time::Duration;

/// Samples per window of [`Samples::quiet_p50_us`] and
/// [`Samples::quiet_p99_us`].
pub const WINDOW: usize = 1000;

/// A set of durations, kept exactly (nanoseconds) in recording order; a
/// sorted copy is made on demand.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: Option<Vec<u64>>,
}

impl Samples {
    /// No samples.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one duration.
    pub fn push(&mut self, d: Duration) {
        self.push_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Record one duration in nanoseconds.
    pub fn push_ns(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = None;
    }

    /// Append every sample of `other`, in its order.
    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = None;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// The `q`-quantile in microseconds, linearly interpolated between
    /// order statistics (0 when empty).
    pub fn quantile_us(&mut self, q: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        let ns = &self.ns;
        quantile_sorted(
            self.sorted.get_or_insert_with(|| {
                let mut v = ns.clone();
                v.sort_unstable();
                v
            }),
            q,
        )
    }

    /// The `q`-quantile of each run of `size` consecutive samples, in
    /// recording order (the last run absorbs the remainder).
    pub fn window_quantiles_us(&self, q: f64, size: usize) -> Vec<f64> {
        let windows = (self.ns.len() / size.max(1)).max(1);
        let per = self.ns.len().div_ceil(windows).max(1);
        self.ns
            .chunks(per)
            .map(|chunk| {
                let mut v = chunk.to_vec();
                v.sort_unstable();
                quantile_sorted(&v, q)
            })
            .collect()
    }

    /// The `q`-quantile the benchmark reports: the [`QUIET`] percentile,
    /// over windows of `size` consecutive samples, of each window's
    /// `q`-quantile.
    ///
    /// The shared host slows now and then for a fraction of a second to a
    /// minute or more, by up to 1.6x, and stalls for milliseconds. A
    /// quantile over the whole run follows how long the neighbours kept
    /// the host slow; a low percentile of the windows measures the program
    /// in the quietest stretches, and still moves when the program's
    /// latency moves in every window.
    pub fn quiet_quantile_us(&self, q: f64, size: usize) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        quiet_low(&self.window_quantiles_us(q, size))
    }

    /// Quiet median over windows of [`WINDOW`] samples.
    pub fn quiet_p50_us(&self) -> f64 {
        self.quiet_quantile_us(0.50, WINDOW)
    }

    /// Quiet p99 over windows of twice [`WINDOW`] samples, so twenty lie
    /// beyond each window's p99.
    pub fn quiet_p99_us(&self) -> f64 {
        self.quiet_quantile_us(0.99, 2 * WINDOW)
    }

    /// Median in microseconds.
    pub fn p50_us(&mut self) -> f64 {
        self.quantile_us(0.50)
    }

    /// 99th percentile in microseconds.
    pub fn p99_us(&mut self) -> f64 {
        self.quantile_us(0.99)
    }
}

fn quantile_sorted(sorted: &[u64], q: f64) -> f64 {
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    (sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac) / 1e3
}

/// Share of the windows of a run faster than the one reported. Slow
/// stretches of the reference host last up to a minute or more, so in
/// ten 30-second runs three were slow for nine tenths of their windows
/// and a 10% share reported the slow speed; at 2% a run needs only half
/// a second of quiet.
pub const QUIET: f64 = 0.02;

/// The [`QUIET`] quantile of per-window values (lower is better): see
/// [`Samples::quiet_quantile_us`]. 0 when empty.
pub fn quiet_low(values: &[f64]) -> f64 {
    quantile_f64(values, QUIET)
}

/// The `1 − QUIET` quantile of per-window rates (higher is better): see
/// [`Samples::quiet_quantile_us`]. 0 when empty.
pub fn quiet_high(values: &[f64]) -> f64 {
    quantile_f64(values, 1.0 - QUIET)
}

fn quantile_f64(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = q * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of a non-empty list of values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Hit count plus an order-sensitive FNV-1a hash of the node ids: equal
/// digests mean equal answers, node for node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    /// Number of hits.
    pub hits: usize,
    /// Hash of the hit node ids in answer order.
    pub hash: u64,
}

impl Digest {
    /// Digest of a node-id sequence.
    pub fn of(nodes: impl IntoIterator<Item = u32>) -> Self {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut hits = 0;
        for n in nodes {
            for b in n.to_le_bytes() {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
            hits += 1;
        }
        Digest { hits, hash }
    }

    /// Fold another digest in (for per-family totals).
    pub fn combine(self, other: Digest) -> Digest {
        Digest {
            hits: self.hits + other.hits,
            hash: (self.hash ^ other.hash.rotate_left(17)).wrapping_mul(0x0100_0000_01b3),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut s = Samples::new();
        for v in [1_000u64, 2_000, 3_000, 4_000] {
            s.push_ns(v);
        }
        assert_eq!(s.p50_us(), 2.5);
        assert_eq!(s.quantile_us(0.0), 1.0);
        assert_eq!(s.quantile_us(1.0), 4.0);
    }

    #[test]
    fn quiet_p99_ignores_stalled_windows() {
        let mut s = Samples::new();
        for w in 0..5 {
            for i in 0..WINDOW as u64 {
                s.push_ns(if w == 2 { 1_000_000 } else { 1_000 + i % 100 });
            }
        }
        assert_eq!(s.window_quantiles_us(0.99, WINDOW).len(), 5);
        assert!(s.quiet_quantile_us(0.99, WINDOW) < 1.2);
        assert!(s.p99_us() > 999.0);
    }

    #[test]
    fn quiet_quartiles_pick_the_fast_windows() {
        let windows: Vec<f64> = (0..=100).rev().map(f64::from).collect();
        assert!((quiet_low(&windows) - 2.0).abs() < 1e-9);
        assert!((quiet_high(&windows) - 98.0).abs() < 1e-9);
        assert_eq!(quiet_low(&[]), 0.0);
    }

    #[test]
    fn digest_is_order_sensitive() {
        assert_ne!(Digest::of([1, 2]), Digest::of([2, 1]));
        assert_eq!(Digest::of([1, 2]).hits, 2);
        assert_eq!(Digest::of([]), Digest::of(Vec::new()));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
