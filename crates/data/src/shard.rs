//! Lazily-realised device shards: the O(cohort) data plane.
//!
//! A [`ShardPlan`] describes every device's private shard as a pure
//! function of `(seed, device)` — the same design the fleet layer uses
//! for trajectories. Per device, independent SplitMix64 streams derive:
//!
//! * a **sample count** in `[min_samples, max_samples]`,
//! * a **Dirichlet label mixture** `Dir(β)` over the classes (the
//!   streaming analogue of [`crate::partition::Partition::Dirichlet`]:
//!   each device draws its own class mixture instead of each class
//!   dealing proportions across devices — same β semantics, no pooled
//!   dataset required),
//! * and, only when the device is actually trained, the **features**
//!   through the existing `synth` machinery (class prototype plus
//!   `N(0, noise²)` per-feature draws).
//!
//! Because label *counts* come from the mixture by cumulative rounding
//! (no sampling), per-device class histograms cost O(classes) and are
//! exactly the histograms of the realised shard — latency/label
//! clustering never needs feature materialisation.
//!
//! [`ShardCache`] bounds resident realisations with an exact LRU keyed
//! on device id. It is shared across workers rather than per-worker:
//! the pool hands out work on demand, with no stable device→worker
//! affinity, so a shared cache is what actually delivers zero-cost
//! steady-state reuse once a cohort's shards are resident. Hits are
//! allocation-free (an `Arc` refcount bump); values are pure functions of
//! the plan, so eviction followed by re-realisation is bit-identical.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use fedhisyn_tensor::{fill_normal, rng_from_seed, Tensor};
use rand::seq::SliceRandom;

use crate::dataset::Dataset;
use crate::partition::sample_dirichlet;
use crate::synth::SynthConfig;

/// SplitMix64 finalizer over `(master, a, b)` — the data crate's copy of
/// the workspace seed-derivation idiom (kept local so the dependency
/// graph stays layered; the only contract is "pure function of the
/// inputs", not the exact stream).
fn mix(master: u64, a: u64, b: u64) -> u64 {
    let mut z = master
        ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ 0x5EED_DA7A_0000_0000;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-device stream roles.
const ROLE_LEN: u64 = 0x01E4;
const ROLE_MIX: u64 = 0xD112;
const ROLE_DATA: u64 = 0xFEA7;
const ROLE_TEST: u64 = 0x7E57;

/// A lazily-realised federation: every device's shard derived on demand
/// from `(seed, device)`, with nothing materialised up front except the
/// shared class prototypes (O(classes · dim)).
#[derive(Debug, Clone)]
pub struct ShardPlan {
    synth: SynthConfig,
    n_devices: usize,
    beta: f64,
    min_samples: usize,
    max_samples: usize,
    /// Class prototypes, shared by every shard (the same draws the dense
    /// generator starts from).
    prototypes: Arc<Vec<Vec<f32>>>,
}

impl ShardPlan {
    /// Build a plan for `n_devices` shards over `synth`'s class geometry,
    /// with per-device sample counts in `[min_samples, max_samples]` and
    /// label skew `Dir(beta)` (smaller β ⇒ more skew, as in the paper).
    pub fn new(
        synth: SynthConfig,
        n_devices: usize,
        beta: f64,
        min_samples: usize,
        max_samples: usize,
    ) -> Self {
        assert!(n_devices > 0, "need at least one device");
        assert!(beta > 0.0, "Dirichlet beta must be positive");
        assert!(
            (1..=max_samples).contains(&min_samples),
            "need 1 <= min_samples ({min_samples}) <= max_samples ({max_samples})"
        );
        assert!(synth.classes > 0, "need at least one class");
        let prototypes = Arc::new(synth.class_prototypes());
        ShardPlan {
            synth,
            n_devices,
            beta,
            min_samples,
            max_samples,
            prototypes,
        }
    }

    /// Number of devices the plan covers.
    pub fn n_devices(&self) -> usize {
        self.n_devices
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.synth.classes
    }

    /// The synth geometry the shards are drawn from.
    pub fn synth(&self) -> &SynthConfig {
        &self.synth
    }

    /// Sample count of `device`'s shard — O(1), no realisation.
    pub fn shard_len(&self, device: usize) -> usize {
        assert!(device < self.n_devices, "device {device} out of range");
        let span = (self.max_samples - self.min_samples + 1) as u64;
        self.min_samples + (mix(self.synth.seed, device as u64, ROLE_LEN) % span) as usize
    }

    /// `device`'s Dirichlet label mixture (sums to 1) — O(classes).
    pub fn mixture(&self, device: usize) -> Vec<f64> {
        assert!(device < self.n_devices, "device {device} out of range");
        let mut rng = rng_from_seed(mix(self.synth.seed, device as u64, ROLE_MIX));
        sample_dirichlet(self.beta, self.synth.classes, &mut rng)
    }

    /// `device`'s class histogram — integer counts by cumulative rounding
    /// of the mixture, O(classes) with **no feature materialisation**,
    /// and exactly equal to `realise(device).class_histogram()`. This is
    /// what label-aware clustering and aggregation weights consume.
    pub fn class_histogram(&self, device: usize) -> Vec<usize> {
        let n = self.shard_len(device);
        let props = self.mixture(device);
        let mut counts = Vec::with_capacity(props.len());
        let mut acc = 0.0f64;
        let mut start = 0usize;
        for (c, &p) in props.iter().enumerate() {
            acc += p;
            let end = if c == props.len() - 1 {
                n // the final cut is exact regardless of float rounding
            } else {
                ((acc * n as f64).round() as usize).clamp(start, n)
            };
            counts.push(end - start);
            start = end;
        }
        counts
    }

    /// Materialise `device`'s shard: labels from the histogram (shuffled
    /// deterministically) and features through the synth generator —
    /// `prototype[label] + N(0, noise²)`. A pure function of
    /// `(plan, device)`: any two calls, on any thread, in any order,
    /// produce bit-identical datasets.
    pub fn realise(&self, device: usize) -> Dataset {
        let counts = self.class_histogram(device);
        let n: usize = counts.iter().sum();
        let mut labels = Vec::with_capacity(n);
        for (class, &k) in counts.iter().enumerate() {
            labels.extend(std::iter::repeat_n(class, k));
        }
        let mut rng = rng_from_seed(mix(self.synth.seed, device as u64, ROLE_DATA));
        labels.shuffle(&mut rng);
        let d = self.synth.total_input_dim();
        let mut data = vec![0.0f32; n * d];
        for (i, &label) in labels.iter().enumerate() {
            let row = &mut data[i * d..(i + 1) * d];
            fill_normal(row, 0.0, self.synth.noise, &mut rng);
            for (x, &p) in row.iter_mut().zip(&self.prototypes[label]) {
                *x += p;
            }
        }
        let mut dims = vec![n];
        dims.extend(self.synth.input.sample_dims());
        Dataset::new(Tensor::from_vec(dims, data), labels, self.synth.classes)
    }

    /// Materialise every shard — the dense reference the lazy path is
    /// proven bit-identical against (tests and small-scale runs only:
    /// O(fleet) by construction).
    pub fn realise_all(&self) -> Vec<Dataset> {
        (0..self.n_devices).map(|d| self.realise(d)).collect()
    }

    /// The plan's global held-out test split (identically distributed
    /// with the shards' class-conditional draws), realised densely — it
    /// is evaluated every round, so laziness buys nothing there.
    pub fn test_split(&self) -> Dataset {
        let mut rng = rng_from_seed(mix(self.synth.seed, u64::MAX, ROLE_TEST));
        self.synth
            .sample_split(&self.prototypes, self.synth.test_per_class, &mut rng)
    }
}

/// Heap bytes a realised dataset holds (features + labels).
fn dataset_bytes(d: &Dataset) -> usize {
    std::mem::size_of_val(d.x.data()) + d.y.len() * std::mem::size_of::<usize>()
}

/// A cache slot: either realised data or a marker that another thread is
/// realising it right now (waiters block on the condvar).
#[derive(Debug)]
enum Slot {
    Pending,
    Ready { tick: u64, data: Arc<Dataset> },
}

#[derive(Debug, Default)]
struct CacheMap {
    slots: HashMap<usize, Slot>,
    /// Count of `Ready` slots — the quantity `capacity` bounds.
    ready: usize,
    /// Monotone last-touch counter — the LRU key.
    tick: u64,
}

/// Bounded exact-LRU cache over realised shards, keyed on device id.
///
/// Capacity bounds the number of *resident* (realised) shards exactly;
/// size it to the per-round cohort (a couple of multiples gives headroom
/// for cohort drift between rounds). Once a cohort's shards are
/// resident, steady-state rounds realise nothing and every lookup is an
/// allocation-free `Arc` clone. Misses realise *outside* the map lock —
/// distinct devices realise in parallel, while concurrent misses on the
/// same device coalesce onto one realisation via a pending slot.
#[derive(Debug)]
pub struct ShardCache {
    inner: Mutex<CacheMap>,
    /// Signalled when a pending slot becomes ready (or is abandoned).
    ready: Condvar,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    resident_bytes: AtomicU64,
}

impl ShardCache {
    /// A cache holding at most `capacity` realised shards.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        ShardCache {
            inner: Mutex::new(CacheMap::default()),
            ready: Condvar::new(),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            resident_bytes: AtomicU64::new(0),
        }
    }

    /// Total shards the cache can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Fetch `device`'s shard, realising it via `realise` on a miss.
    /// Realisation runs outside the map lock; a pending slot makes
    /// concurrent misses on the same device realise exactly once per
    /// residency period while distinct devices realise in parallel.
    pub fn get_or_realise(&self, device: usize, realise: impl FnOnce() -> Dataset) -> Arc<Dataset> {
        let mut map = self.inner.lock().unwrap();
        loop {
            map.tick += 1;
            let now = map.tick;
            match map.slots.get_mut(&device) {
                Some(Slot::Ready { tick, data }) => {
                    *tick = now;
                    let data = Arc::clone(data);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return data;
                }
                Some(Slot::Pending) => {
                    map = self.ready.wait(map).unwrap();
                }
                None => break,
            }
        }
        map.slots.insert(device, Slot::Pending);
        drop(map);

        // If `realise` unwinds, clear the pending slot so waiters retry
        // instead of deadlocking.
        struct PendingGuard<'a> {
            cache: &'a ShardCache,
            device: usize,
            armed: bool,
        }
        impl Drop for PendingGuard<'_> {
            fn drop(&mut self) {
                if self.armed {
                    let mut map = self.cache.inner.lock().unwrap();
                    map.slots.remove(&self.device);
                    self.cache.ready.notify_all();
                }
            }
        }
        let mut guard = PendingGuard {
            cache: self,
            device,
            armed: true,
        };
        let data = Arc::new(realise());
        guard.armed = false;

        let mut map = self.inner.lock().unwrap();
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.resident_bytes
            .fetch_add(dataset_bytes(&data) as u64, Ordering::Relaxed);
        map.tick += 1;
        let now = map.tick;
        map.slots.insert(
            device,
            Slot::Ready {
                tick: now,
                data: Arc::clone(&data),
            },
        );
        map.ready += 1;
        while map.ready > self.capacity {
            // The just-inserted entry holds the newest tick, so the LRU
            // victim is always some other resident shard.
            let victim = map
                .slots
                .iter()
                .filter_map(|(&d, s)| match s {
                    Slot::Ready { tick, .. } => Some((*tick, d)),
                    Slot::Pending => None,
                })
                .min()
                .map(|(_, d)| d)
                .expect("ready > capacity >= 1 implies a Ready victim");
            if let Some(Slot::Ready { data, .. }) = map.slots.remove(&victim) {
                self.resident_bytes
                    .fetch_sub(dataset_bytes(&data) as u64, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                map.ready -= 1;
            }
        }
        drop(map);
        self.ready.notify_all();
        data
    }

    /// Whether `device`'s shard is currently resident (test hook).
    pub fn contains(&self, device: usize) -> bool {
        matches!(
            self.inner.lock().unwrap().slots.get(&device),
            Some(Slot::Ready { .. })
        )
    }

    /// Cumulative cache hits.
    pub fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cumulative misses — each one realised a shard.
    pub fn miss_count(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cumulative LRU evictions.
    pub fn eviction_count(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Approximate bytes of currently-resident shard data. (Evicted
    /// entries still referenced by in-flight `Arc`s are not counted —
    /// this tracks cache residency, not total process heap.)
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::InputKind;

    fn plan() -> ShardPlan {
        ShardPlan::new(
            SynthConfig {
                classes: 5,
                input: InputKind::Flat { dim: 8 },
                train_per_class: 10,
                test_per_class: 6,
                separation: 2.0,
                noise: 1.0,
                seed: 42,
            },
            64,
            0.3,
            12,
            40,
        )
    }

    #[test]
    fn shard_len_is_bounded_and_deterministic() {
        let p = plan();
        for d in 0..64 {
            let n = p.shard_len(d);
            assert!((12..=40).contains(&n), "device {d}: {n}");
            assert_eq!(n, p.shard_len(d));
        }
        // Lengths vary across devices.
        let first = p.shard_len(0);
        assert!((1..64).any(|d| p.shard_len(d) != first));
    }

    #[test]
    fn histogram_matches_realised_shard_exactly() {
        let p = plan();
        for d in [0, 7, 31, 63] {
            let hist = p.class_histogram(d);
            let shard = p.realise(d);
            assert_eq!(hist, shard.class_histogram(), "device {d}");
            assert_eq!(hist.iter().sum::<usize>(), p.shard_len(d));
            assert_eq!(shard.len(), p.shard_len(d));
        }
    }

    #[test]
    fn realisation_is_pure() {
        let p = plan();
        let a = p.realise(9);
        let b = p.realise(9);
        assert_eq!(a.x.data(), b.x.data());
        assert_eq!(a.y, b.y);
        // A fresh plan with identical inputs gives identical shards.
        let q = plan();
        let c = q.realise(9);
        assert_eq!(a.x.data(), c.x.data());
        assert_eq!(a.y, c.y);
    }

    #[test]
    fn devices_differ_and_labels_are_shuffled() {
        let p = plan();
        let a = p.realise(0);
        let b = p.realise(1);
        assert_ne!(a.x.data(), b.x.data());
        // Labels should not be in sorted (class-block) order for a shard
        // with at least two classes present.
        let d = (0..64)
            .find(|&d| {
                p.class_histogram(d).iter().filter(|&&c| c > 0).count() >= 3 && p.shard_len(d) >= 20
            })
            .expect("some shard holds several classes");
        let shard = p.realise(d);
        let mut sorted = shard.y.clone();
        sorted.sort_unstable();
        assert_ne!(shard.y, sorted, "labels must be interleaved");
    }

    #[test]
    fn small_beta_skews_mixtures() {
        let skew_of = |beta: f64| -> f64 {
            let p = ShardPlan::new(
                SynthConfig {
                    classes: 10,
                    input: InputKind::Flat { dim: 4 },
                    train_per_class: 10,
                    test_per_class: 4,
                    separation: 1.0,
                    noise: 1.0,
                    seed: 9,
                },
                100,
                beta,
                50,
                50,
            );
            (0..100)
                .map(|d| p.mixture(d).into_iter().fold(0.0f64, f64::max))
                .sum::<f64>()
                / 100.0
        };
        assert!(
            skew_of(0.1) > skew_of(10.0) + 0.1,
            "Dir(0.1) must concentrate mass harder than Dir(10)"
        );
    }

    #[test]
    fn test_split_is_deterministic_and_balanced() {
        let p = plan();
        let a = p.test_split();
        let b = plan().test_split();
        assert_eq!(a.x.data(), b.x.data());
        assert_eq!(a.y, b.y);
        assert_eq!(a.len(), 5 * 6);
        assert_eq!(a.class_histogram(), vec![6; 5]);
    }

    #[test]
    fn cache_hits_reuse_the_same_allocation() {
        let p = plan();
        let cache = ShardCache::new(8);
        let a = cache.get_or_realise(3, || p.realise(3));
        let b = cache.get_or_realise(3, || p.realise(3));
        assert!(Arc::ptr_eq(&a, &b), "hit must return the resident Arc");
        assert_eq!(cache.miss_count(), 1);
        assert_eq!(cache.hit_count(), 1);
        assert_eq!(cache.resident_bytes(), dataset_bytes(&a) as u64);
    }

    #[test]
    fn cache_evicts_the_least_recently_used_shard() {
        let p = plan();
        let cache = ShardCache::new(2);
        assert_eq!(cache.capacity(), 2);
        let _ = cache.get_or_realise(0, || p.realise(0));
        let _ = cache.get_or_realise(1, || p.realise(1));
        // Touch 0 so 1 becomes the LRU, then overflow with 2.
        let _ = cache.get_or_realise(0, || unreachable!("resident"));
        let _ = cache.get_or_realise(2, || p.realise(2));
        assert_eq!(cache.eviction_count(), 1);
        assert!(!cache.contains(1), "device 1 was least-recently used");
        assert!(cache.contains(0));
        assert!(cache.contains(2));
        // Re-realisation after eviction is bit-identical (purity).
        let again = cache.get_or_realise(1, || p.realise(1));
        let fresh = p.realise(1);
        assert_eq!(again.x.data(), fresh.x.data());
        assert_eq!(again.y, fresh.y);
    }

    #[test]
    fn cache_accounting_survives_churn() {
        let p = plan();
        let cache = ShardCache::new(16);
        for d in 0..48 {
            let _ = cache.get_or_realise(d, || p.realise(d));
        }
        assert_eq!(cache.miss_count(), 48);
        assert_eq!(cache.eviction_count(), 48 - 16);
        let resident: u64 = (0..48)
            .filter(|&d| cache.contains(d))
            .map(|d| dataset_bytes(&p.realise(d)) as u64)
            .sum();
        assert_eq!(cache.resident_bytes(), resident);
    }
}
