//! Sample sets and the percentile rules the report uses.

use crate::rng::SplitMix64;

/// A uniform sample of at most `cap` items from a stream of any length
/// (reservoir sampling, algorithm R). Memory stays bounded however long a
/// run is, and the kept items are an unbiased sample of all of them.
#[derive(Debug, Clone)]
pub struct Reservoir<T> {
    items: Vec<T>,
    seen: u64,
    cap: usize,
    rng: SplitMix64,
}

impl<T> Reservoir<T> {
    /// An empty reservoir keeping at most `cap` items, replacing them with
    /// the stream `seed` fixes.
    pub fn new(cap: usize, seed: u64) -> Reservoir<T> {
        Reservoir {
            items: Vec::new(),
            seen: 0,
            cap,
            rng: SplitMix64::new(seed),
        }
    }

    /// Offer one item.
    pub fn push(&mut self, item: T) {
        self.push_with(|| item);
    }

    /// Offer one item, built only if it is kept.
    pub fn push_with(&mut self, item: impl FnOnce() -> T) {
        self.seen += 1;
        if self.items.len() < self.cap {
            self.items.push(item());
        } else {
            let j = self.rng.below(self.seen) as usize;
            if j < self.cap {
                self.items[j] = item();
            }
        }
    }

    /// Items offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The kept items.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Move every kept item of `other` in (each stream keeps its own
    /// uniform sample; the union is what the report percentiles read).
    pub fn absorb(&mut self, other: Reservoir<T>) {
        self.seen += other.seen;
        self.items.extend(other.items);
    }
}

/// Percentiles the report may quote, lowest first.
pub const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p) - 1
}

/// Zero-based nearest-rank index of the `p`-th percentile of `n > 0`
/// sorted samples.
fn rank(n: usize, p: f64) -> usize {
    // ceil(p% of n) in whole basis points, so 99.99% of 100000 is 99990
    // exactly rather than one more through float rounding.
    let bp = (p * 100.0).round() as u128;
    let r = (bp * n as u128).div_ceil(10_000) as usize;
    r.clamp(1, n) - 1
}

/// The highest percentile of [`LADDER`] that has at least ten samples
/// beyond it, or `None` when even the median has fewer.
pub fn highest_valid(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    LADDER.iter().rev().copied().find(|&p| beyond(n, p) >= 10)
}

/// The nearest-rank `p`-th percentile of `sorted` (0 when empty).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), p)]
}

/// Median of `values` (mean of the middle pair for an even count; 0 when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Latency percentiles of one repetition.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Latency {
    /// Samples the percentiles come from.
    pub n: usize,
    /// Median (ns).
    pub p50_ns: u64,
    /// 99th percentile (ns).
    pub p99_ns: u64,
}

impl Latency {
    /// Percentiles over the union of `parts`.
    pub fn of(parts: impl IntoIterator<Item = Reservoir<u64>>) -> Latency {
        let mut v: Vec<u64> = parts.into_iter().flat_map(|r| r.items).collect();
        v.sort_unstable();
        Latency {
            n: v.len(),
            p50_ns: percentile(&v, 50.0),
            p99_ns: percentile(&v, 99.0),
        }
    }

    /// Whether there are at least ten samples beyond the p99.
    pub fn p99_supported(&self) -> bool {
        highest_valid(self.n).is_some_and(|p| p >= 99.0)
    }
}

/// Nanoseconds to microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}
