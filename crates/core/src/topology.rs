//! Ring communication topologies (paper §4.1, Eq. 5).

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How devices are ordered around a ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RingOrder {
    /// Ascending local-training time — the paper's choice (Observation 2).
    SmallToLarge,
    /// Descending local-training time (the paper's other strong variant).
    LargeToSmall,
    /// Random permutation (the paper's weak control in Figure 3).
    Random,
}

/// A directed ring over a set of device ids.
///
/// `order[p]` is the device at ring position `p`; each device forwards its
/// trained model to the device at the next position (wrapping).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ring {
    order: Vec<usize>,
}

impl Ring {
    /// Build a ring over `members` (device ids) given each member's
    /// latency `t_i`.
    ///
    /// Eq. 5's ordering metric is `M_i = t_i + D_{i,i+1}`; §4.1 takes the
    /// inter-device delays as equal, so the metric is `M_i = t_i` and
    /// transfers cost no virtual time.
    pub fn build<R: Rng>(
        members: &[usize],
        latencies: &[f64],
        order: RingOrder,
        rng: &mut R,
    ) -> Ring {
        assert_eq!(members.len(), latencies.len(), "one latency per member");
        assert!(!members.is_empty(), "a ring needs at least one member");
        let mut idx: Vec<usize> = (0..members.len()).collect();
        match order {
            RingOrder::Random => idx.shuffle(rng),
            RingOrder::SmallToLarge | RingOrder::LargeToSmall => {
                idx.sort_by(|&a, &b| {
                    latencies[a]
                        .partial_cmp(&latencies[b])
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(members[a].cmp(&members[b]))
                });
                if order == RingOrder::LargeToSmall {
                    idx.reverse();
                }
            }
        }
        Ring {
            order: idx.into_iter().map(|i| members[i]).collect(),
        }
    }

    /// [`Ring::build`], then demote *suspect* members — devices whose
    /// transport fault score crossed the proactive-rebuild threshold — to
    /// the ring tail, preserving relative order within each group.
    ///
    /// `suspects[i]` flags `members[i]`. Keeping flaky devices adjacent
    /// at the tail bounds the blast radius of their lossy edges: a
    /// giveup between two suspects costs the healthy head of the ring
    /// nothing, whereas a suspect spliced mid-ring taxes every model
    /// that must relay through it. An empty slice — or one with no flag
    /// set — is **bit-identical** to [`Ring::build`] (same RNG
    /// consumption, same order, no extra allocation), which is what
    /// keeps fault-free runs byte-for-byte reproducible.
    pub(crate) fn build_with_suspects<R: Rng>(
        members: &[usize],
        latencies: &[f64],
        order: RingOrder,
        rng: &mut R,
        suspects: &[bool],
    ) -> Ring {
        let ring = Ring::build(members, latencies, order, rng);
        if suspects.iter().all(|&s| !s) {
            return ring;
        }
        assert_eq!(
            suspects.len(),
            members.len(),
            "one suspect flag per member (or none at all)"
        );
        let flagged: std::collections::HashMap<usize, bool> = members
            .iter()
            .copied()
            .zip(suspects.iter().copied())
            .collect();
        let (clean, tail): (Vec<usize>, Vec<usize>) = ring
            .order
            .iter()
            .partition(|d| !flagged.get(d).copied().unwrap_or(false));
        let mut order = clean;
        order.extend(tail);
        Ring { order }
    }

    /// Devices in ring order.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Ring size.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The ring position after `pos`: each device forwards to the one
    /// there, and the last position wraps to the first.
    pub(crate) fn next_position(&self, pos: usize) -> usize {
        (pos + 1) % self.order.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedhisyn_tensor::rng_from_seed;

    #[test]
    fn small_to_large_sorts_ascending() {
        let members = vec![10, 20, 30, 40];
        let lat = vec![4.0, 1.0, 3.0, 2.0];
        let mut rng = rng_from_seed(0);
        let ring = Ring::build(&members, &lat, RingOrder::SmallToLarge, &mut rng);
        assert_eq!(ring.order(), &[20, 40, 30, 10]);
    }

    #[test]
    fn large_to_small_is_reverse() {
        let members = vec![10, 20, 30];
        let lat = vec![1.0, 2.0, 3.0];
        let mut rng = rng_from_seed(0);
        let ring = Ring::build(&members, &lat, RingOrder::LargeToSmall, &mut rng);
        assert_eq!(ring.order(), &[30, 20, 10]);
    }

    #[test]
    fn random_is_a_permutation() {
        let members: Vec<usize> = (0..20).collect();
        let lat = vec![1.0; 20];
        let mut rng = rng_from_seed(1);
        let ring = Ring::build(&members, &lat, RingOrder::Random, &mut rng);
        let mut sorted = ring.order().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, members);
    }

    #[test]
    fn successor_wraps_around() {
        let members = vec![5, 6, 7];
        let lat = vec![1.0, 2.0, 3.0];
        let mut rng = rng_from_seed(2);
        let ring = Ring::build(&members, &lat, RingOrder::SmallToLarge, &mut rng);
        // Order: 5, 6, 7; slowest (7) wraps to fastest (5) — the paper's
        // "device with the longest local training time is connected to the
        // device with the shortest".
        assert_eq!(ring.order(), &[5, 6, 7]);
        let successor = |pos: usize| ring.order()[ring.next_position(pos)];
        assert_eq!(successor(0), 6);
        assert_eq!(successor(1), 7);
        assert_eq!(successor(2), 5);
    }

    #[test]
    fn singleton_ring_points_to_itself() {
        let mut rng = rng_from_seed(3);
        let ring = Ring::build(&[9], &[1.0], RingOrder::SmallToLarge, &mut rng);
        assert_eq!(ring.order(), &[9]);
        assert_eq!(ring.next_position(0), 0);
    }

    #[test]
    fn equal_latencies_break_ties_by_id() {
        let members = vec![3, 1, 2];
        let lat = vec![1.0, 1.0, 1.0];
        let mut rng = rng_from_seed(4);
        let ring = Ring::build(&members, &lat, RingOrder::SmallToLarge, &mut rng);
        assert_eq!(ring.order(), &[1, 2, 3]);
    }

    #[test]
    fn deterministic_random_order_given_seed() {
        let members: Vec<usize> = (0..10).collect();
        let lat = vec![1.0; 10];
        let a = Ring::build(&members, &lat, RingOrder::Random, &mut rng_from_seed(5));
        let b = Ring::build(&members, &lat, RingOrder::Random, &mut rng_from_seed(5));
        assert_eq!(a, b);
    }

    #[test]
    fn no_suspects_is_bit_identical_to_plain_build() {
        let members = vec![10, 20, 30, 40];
        let lat = vec![4.0, 1.0, 3.0, 2.0];
        for order in [
            RingOrder::SmallToLarge,
            RingOrder::LargeToSmall,
            RingOrder::Random,
        ] {
            let plain = Ring::build(&members, &lat, order, &mut rng_from_seed(7));
            let empty =
                Ring::build_with_suspects(&members, &lat, order, &mut rng_from_seed(7), &[]);
            let all_false = Ring::build_with_suspects(
                &members,
                &lat,
                order,
                &mut rng_from_seed(7),
                &[false; 4],
            );
            assert_eq!(plain, empty);
            assert_eq!(plain, all_false);
        }
    }

    #[test]
    fn suspects_are_demoted_to_the_ring_tail() {
        let members = vec![10, 20, 30, 40];
        let lat = vec![4.0, 1.0, 3.0, 2.0];
        // Plain order is [20, 40, 30, 10]; flag the fastest device (20)
        // and a mid-ring one (30) as suspects.
        let ring = Ring::build_with_suspects(
            &members,
            &lat,
            RingOrder::SmallToLarge,
            &mut rng_from_seed(0),
            &[false, true, true, false],
        );
        assert_eq!(ring.order(), &[40, 10, 20, 30]);
    }

    #[test]
    fn suspect_demotion_preserves_random_permutation_membership() {
        let members: Vec<usize> = (0..12).collect();
        let lat = vec![1.0; 12];
        let suspects: Vec<bool> = (0..12).map(|i| i % 3 == 0).collect();
        let ring = Ring::build_with_suspects(
            &members,
            &lat,
            RingOrder::Random,
            &mut rng_from_seed(5),
            &suspects,
        );
        let mut sorted = ring.order().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, members, "still a permutation");
        // All suspects occupy the tail.
        let first_suspect = ring
            .order()
            .iter()
            .position(|&d| suspects[d])
            .expect("some suspects");
        assert!(ring.order()[first_suspect..].iter().all(|&d| suspects[d]));
    }
}
