//! Lock-free metrics registry.
//!
//! All storage is allocated at **registration time**; the hot path only
//! touches pre-sized atomic cells, so recording a metric never allocates
//! and never takes a lock. Two metric kinds:
//!
//! * **counters** — monotone `u64`, relaxed `fetch_add`;
//! * **histograms** — fixed bucket bounds chosen at registration, one
//!   atomic count per bucket plus the sum of observations as integer
//!   nanosecond ticks — a `fetch_add`, so the total is the same whatever
//!   order parallel ring lanes arrive in (an `f64` sum is not).
//!
//! Both are pure functions of the simulated workload, so they participate
//! in the deterministic fingerprint used by the telemetry determinism
//! tests. Host-dependent runtime observations (cache occupancy, arena
//! high-water, fleet and shard residency) are not registry metrics: they
//! are fields of the per-round `RoundTelemetry` on the `RunRecord`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Handle to a registered counter (index into the registry, `Copy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

#[derive(Debug)]
struct Cell {
    name: &'static str,
    value: AtomicU64,
}

impl Cell {
    fn new(name: &'static str) -> Self {
        Cell {
            name,
            value: AtomicU64::new(0),
        }
    }
}

#[derive(Debug)]
struct HistogramCell {
    name: &'static str,
    /// Upper bucket bounds (ascending); an implicit overflow bucket
    /// catches everything above the last bound.
    bounds: Vec<f64>,
    /// `bounds.len() + 1` bucket counts.
    counts: Vec<AtomicU64>,
    /// Sum of observed values in [`TICKS_PER_UNIT`]ths, as a wrapping
    /// two's-complement `i64`: integer addition commutes, so concurrent
    /// observers cannot make the total depend on their interleaving.
    sum_ticks: AtomicU64,
}

/// Histogram sums resolve one nanosecond of a value measured in seconds.
const TICKS_PER_UNIT: f64 = 1e9;

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: &'static str,
    /// Upper bucket bounds (ascending), overflow bucket implicit.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Sum of all observed values, to the nanosecond (each observation
    /// is rounded to a whole tick before it is added).
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Total observations across all buckets.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Point-in-time copy of the whole registry.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` per counter, in registration order.
    pub counters: Vec<(&'static str, u64)>,
    /// One snapshot per histogram, in registration order.
    pub histograms: Vec<HistogramSnapshot>,
}

/// Pre-registered metric storage; see the module docs for the contract.
///
/// Registration takes `&mut self` (setup phase); recording takes `&self`
/// and is safe from any thread.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Vec<Cell>,
    histograms: Vec<HistogramCell>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Register a monotone counter.
    pub fn register_counter(&mut self, name: &'static str) -> CounterId {
        self.counters.push(Cell::new(name));
        CounterId(self.counters.len() - 1)
    }

    /// Register a histogram with fixed ascending bucket bounds.
    pub fn register_histogram(&mut self, name: &'static str, bounds: &[f64]) -> HistogramId {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        self.histograms.push(HistogramCell {
            name,
            bounds: bounds.to_vec(),
            counts,
            sum_ticks: AtomicU64::new(0),
        });
        HistogramId(self.histograms.len() - 1)
    }

    /// Add `n` to a counter (relaxed; no lock, no allocation).
    #[inline]
    pub fn inc(&self, id: CounterId, n: u64) {
        self.counters[id.0].value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current counter value.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id.0].value.load(Ordering::Relaxed)
    }

    /// Record one observation into a histogram.
    #[inline]
    pub fn observe(&self, id: HistogramId, v: f64) {
        let h = &self.histograms[id.0];
        let bucket = h.bounds.partition_point(|&b| v > b);
        h.counts[bucket].fetch_add(1, Ordering::Relaxed);
        let ticks = (v * TICKS_PER_UNIT).round() as i64;
        h.sum_ticks.fetch_add(ticks as u64, Ordering::Relaxed);
    }

    /// Copy out every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|c| (c.name, c.value.load(Ordering::Relaxed)))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|h| HistogramSnapshot {
                    name: h.name,
                    bounds: h.bounds.clone(),
                    counts: h.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
                    sum: h.sum_ticks.load(Ordering::Relaxed) as i64 as f64 / TICKS_PER_UNIT,
                })
                .collect(),
        }
    }

    /// FNV-1a fingerprint of every metric: names, counter values,
    /// histogram bounds, bucket counts and tick sums.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for c in &self.counters {
            h.str(c.name);
            h.u64(c.value.load(Ordering::Relaxed));
        }
        for hist in &self.histograms {
            h.str(hist.name);
            for b in &hist.bounds {
                h.u64(b.to_bits());
            }
            for c in &hist.counts {
                h.u64(c.load(Ordering::Relaxed));
            }
            h.u64(hist.sum_ticks.load(Ordering::Relaxed));
        }
        h.finish()
    }
}

/// Minimal FNV-1a accumulator shared by the fingerprint paths.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    pub(crate) fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub(crate) fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    pub(crate) fn str(&mut self, s: &str) {
        for b in s.as_bytes() {
            self.byte(*b);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_move_the_fingerprint() {
        let mut r = MetricsRegistry::new();
        let c = r.register_counter("c");
        r.inc(c, 3);
        let before = r.fingerprint();
        r.inc(c, 4);
        assert_eq!(r.counter(c), 7);
        assert_eq!(r.snapshot().counters, vec![("c", 7)]);
        assert_ne!(r.fingerprint(), before);
    }

    #[test]
    fn histogram_buckets() {
        let mut r = MetricsRegistry::new();
        let h = r.register_histogram("h", &[1.0, 2.0, 4.0]);
        for v in [0.5, 1.0, 1.5, 3.0, 100.0] {
            r.observe(h, v);
        }
        let s = &r.snapshot().histograms[0];
        // <=1.0: {0.5, 1.0}; <=2.0: {1.5}; <=4.0: {3.0}; overflow: {100.0}
        assert_eq!(s.counts, vec![2, 1, 1, 1]);
        assert_eq!(s.sum, 106.0);
        assert_eq!(s.total(), 5);
    }

    #[test]
    fn concurrent_increments() {
        use std::sync::Arc;
        let mut r = MetricsRegistry::new();
        let c = r.register_counter("c");
        let h = r.register_histogram("h", &[10.0]);
        let r = Arc::new(r);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        r.inc(c, 1);
                        r.observe(h, 1.0);
                    }
                })
            })
            .collect();
        for th in handles {
            th.join().expect("thread panicked");
        }
        assert_eq!(r.counter(c), 4000);
        let s = &r.snapshot().histograms[0];
        assert_eq!(s.total(), 4000);
        assert_eq!(s.sum, 4000.0);
    }

    /// An `f64` running sum of these values depends on the order they are
    /// folded in; the tick sum — and so the fingerprint — must not, in
    /// either sequential order or from racing threads.
    #[test]
    fn fingerprint_ignores_observation_order() {
        use std::sync::Arc;
        let values: Vec<f64> = (0..64)
            .flat_map(|i| [4e9, 0.1 + i as f64 * 1e-3, -4e9, 0.3])
            .collect();
        let fresh = || {
            let mut r = MetricsRegistry::new();
            let h = r.register_histogram("h", &[1.0]);
            (Arc::new(r), h)
        };
        let (forward, h) = fresh();
        values.iter().for_each(|&v| forward.observe(h, v));
        let (reversed, h) = fresh();
        values.iter().rev().for_each(|&v| reversed.observe(h, v));
        let (threaded, h) = fresh();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let (r, values) = (Arc::clone(&threaded), values.clone());
                std::thread::spawn(move || {
                    values
                        .iter()
                        .skip(t)
                        .step_by(4)
                        .for_each(|&v| r.observe(h, v));
                })
            })
            .collect();
        for th in handles {
            th.join().expect("thread panicked");
        }
        assert_eq!(forward.fingerprint(), reversed.fingerprint());
        assert_eq!(forward.fingerprint(), threaded.fingerprint());
        assert_eq!(forward.snapshot(), threaded.snapshot());
        let sum: f64 = forward.snapshot().histograms[0].sum;
        assert!((sum - 64.0 * 0.4 - 2.016).abs() < 1e-6, "sum {sum}");
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_bounds_panic() {
        MetricsRegistry::new().register_histogram("bad", &[2.0, 1.0]);
    }
}
