//! Stateless seed derivation — the one hash every seeded decision in the
//! workspace flows through (fault plans here, fleet trajectories in
//! `fedhisyn-fleet`, algorithm randomness in `fedhisyn-core`). It lives
//! in this crate because simnet is the bottom of that dependency chain.

/// Derive an independent 64-bit stream value from a master seed and three
/// role coordinates.
///
/// SplitMix64 finalizer over the XOR of the inputs: cheap, stateless, and
/// well-distributed, so per-(round, device, role) streams never collide in
/// practice. Being a pure function of its arguments is what makes whole
/// experiments reproducible bit-for-bit regardless of query order.
pub fn seed_mix(master: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut z = master
        ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ c.wrapping_mul(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)` from a hash — the top 53 bits, so the mapping is
/// exact in f64 and identical on every platform.
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
}
