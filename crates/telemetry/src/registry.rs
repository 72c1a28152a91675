//! Lock-free counter registry.
//!
//! All storage is allocated at **registration time**; the hot path only
//! touches pre-sized atomic cells, so recording a metric never allocates
//! and never takes a lock. The one metric kind is the **counter**: a
//! monotone `u64` bumped with a relaxed `fetch_add`, so its total is the
//! same whatever order parallel ring lanes arrive in.
//!
//! Counters are pure functions of the simulated workload, so they
//! participate in the deterministic fingerprint used by the telemetry
//! determinism tests. Host-dependent runtime observations (cache
//! occupancy, arena high-water, fleet and shard residency) are not
//! registry metrics: they are fields of the per-round `RoundTelemetry` on
//! the `RunRecord`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Handle to a registered counter (index into the registry, `Copy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

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

/// Point-in-time copy of the whole registry.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` per counter, in registration order.
    pub counters: Vec<(&'static str, u64)>,
}

/// Pre-registered metric storage; see the module docs for the contract.
///
/// Registration takes `&mut self` (setup phase); recording takes `&self`
/// and is safe from any thread.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Vec<Cell>,
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

    /// Add `n` to a counter (relaxed; no lock, no allocation).
    #[inline]
    pub fn inc(&self, id: CounterId, n: u64) {
        self.counters[id.0].value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current counter value.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id.0].value.load(Ordering::Relaxed)
    }

    /// Copy out every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|c| (c.name, c.value.load(Ordering::Relaxed)))
                .collect(),
        }
    }

    /// FNV-1a fingerprint of every counter: names and values.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for c in &self.counters {
            h.str(c.name);
            h.u64(c.value.load(Ordering::Relaxed));
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
    fn concurrent_increments() {
        use std::sync::Arc;
        let mut r = MetricsRegistry::new();
        let c = r.register_counter("c");
        let r = Arc::new(r);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        r.inc(c, 1);
                    }
                })
            })
            .collect();
        for th in handles {
            th.join().expect("thread panicked");
        }
        assert_eq!(r.counter(c), 4000);
    }
}
