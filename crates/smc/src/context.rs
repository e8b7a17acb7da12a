//! Keyed randomness substreams — the [`ProtocolContext`].
//!
//! The protocol layers used to thread one sequential `&mut StdRng` through
//! every draw site. That made the *position* of every draw depend on every
//! draw before it: value-dependent sampling (DGK mask rejection loops,
//! Paillier nonce generation, Yao prime search) shifted the stream, so two
//! executions that perform the same logical work in a different *order*
//! diverged in every subsequent random value, and batch items could not be
//! evaluated out of order.
//!
//! A [`ProtocolContext`] replaces the threaded stream with *keyed
//! derivation*, the pattern production MPC systems use (cf. IPA's
//! `ProtocolContext`/`RecordId`): every draw site derives its generator
//! from three independent inputs —
//!
//! 1. the **session seed** (one per party, from
//!    `Participant::seed`/`::rng`),
//! 2. a **step path** built by [`ProtocolContext::narrow`] (a label per
//!    protocol step, e.g. `"hdp"` → `"mask"`) and
//!    [`ProtocolContext::at`] (an index per loop instance, e.g. the
//!    query counter), and
//! 3. a **record index** ([`ProtocolContext::rng_for`]).
//!
//! `ctx.narrow("hdp.mul").rng_for(record)` therefore yields the same
//! stream no matter when, in what order, or on which thread it is drawn,
//! so independent records can be evaluated out of order or in parallel
//! (see [`crate::parallel`]).
//!
//! Derivation is a SplitMix64-style hash chain over the existing RNG
//! machinery — no new dependencies, and the leaf generator is still the
//! workspace [`StdRng`]. The identity
//! `ctx.rng_for(i) ≡ ctx.at(i).rng()` holds by definition: batch item `i`
//! draws exactly what a scope `ctx.at(i)` would.
//!
//! Collision caveat: keys and leaf seeds are 64-bit (the width
//! [`StdRng::seed_from_u64`] accepts, and the width every session seed in
//! this workspace already had), so two distinct derivation paths alias
//! with probability ≈ `k²/2⁶⁵` over `k` leaf streams — negligible for any
//! realistic session (billions of records before it is likelier than a
//! hardware fault), but *not* zero, and the mixer is not a cryptographic
//! PRF. The workspace's security arguments treat RNG quality as an
//! orthogonal, swappable concern (see the `rand` shim docs); a deployment
//! wanting adversarial-collision resistance swaps the leaf derivation for
//! a keyed PRF with a ≥ 128-bit state in this one module.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Version tag of the randomness discipline, stamped into benchmark
/// artifacts so a recorded run names the derivation scheme it used.
pub const RANDOMNESS_DISCIPLINE: &str = "keyed-v1";

/// Index of one record (comparison, candidate point, ciphertext group)
/// within a protocol step. Plain `u64` — steps key their items by position
/// in the candidate set (or by a stable record id), which both parties
/// agree on by construction.
pub type RecordId = u64;

/// SplitMix64 finalizer: a cheap 64-bit permutation with full avalanche,
/// the same mixer [`StdRng::seed_from_u64`] expands seeds with.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a step label; labels are short, this is a handful of cycles.
#[inline]
fn hash_label(label: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in label.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

// Domain-separation tags so a `narrow("x")` can never collide with an
// `at(i)` or a leaf `rng()` derivation.
const TAG_NARROW: u64 = 0x9E37_79B9_7F4A_7C15;
const TAG_AT: u64 = 0xC2B2_AE3D_27D4_EB4F;
const TAG_LEAF: u64 = 0x1656_67B1_9E37_79F9;

/// A derivation point in the session's randomness tree: the session seed
/// plus the accumulated hash of every [`narrow`](Self::narrow) /
/// [`at`](Self::at) step taken from the root. Cloning or re-deriving the
/// same path always yields the same streams; distinct paths yield
/// independent streams up to 64-bit hash collisions (see the module docs'
/// collision caveat).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolContext {
    seed: u64,
    path: u64,
}

impl ProtocolContext {
    /// Root context of a session, from the party's session seed.
    pub fn new(seed: u64) -> Self {
        ProtocolContext { seed, path: 0 }
    }

    /// Root context derived from an existing generator (one `next_u64`
    /// draw becomes the session seed). This is how `Participant::rng`
    /// bridges the legacy `StdRng`-valued API onto keyed derivation.
    pub fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        ProtocolContext::new(rng.next_u64())
    }

    /// Child context for a named protocol step (`"hdp"`, `"mask"`,
    /// `"cmp"`, …). Sibling steps get independent stream families.
    #[must_use]
    pub fn narrow(&self, step: &str) -> Self {
        ProtocolContext {
            seed: self.seed,
            path: mix(self.path ^ TAG_NARROW ^ hash_label(step)),
        }
    }

    /// Child context for one indexed instance of this step (a loop
    /// iteration: query counter, quickselect level, peer id). The identity
    /// `ctx.rng_for(i) == ctx.at(i).rng()` makes indexed children
    /// interchangeable with per-record leaf streams.
    #[must_use]
    pub fn at(&self, index: u64) -> Self {
        ProtocolContext {
            seed: self.seed,
            path: mix(self.path ^ TAG_AT ^ mix(index ^ TAG_AT)),
        }
    }

    /// This step's own generator (for steps that draw once per instance,
    /// like a permutation shuffle). Domain-separated from the `rng_for`
    /// record streams, so it does not alias any record index.
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(mix(self.seed ^ mix(self.path ^ TAG_LEAF)))
    }

    /// The deterministic generator for `record` under this step —
    /// independent of evaluation order and of every other record's stream.
    pub fn rng_for(&self, record: RecordId) -> StdRng {
        self.at(record).rng()
    }

    /// Re-base this derivation point onto a different session seed while
    /// keeping the accumulated step path. The path component accumulates
    /// independently of the seed, so two parties that walked the same
    /// `narrow`/`at` steps hold identical paths; rekeying both onto a
    /// *shared* seed (e.g. the sharing backend's dealer seed, combined
    /// from one contribution per party) yields the same streams on both
    /// sides — which is exactly what correlated-randomness generation
    /// needs, without threading a second context through every driver.
    #[must_use]
    pub fn rekey(&self, seed: u64) -> Self {
        ProtocolContext {
            seed,
            path: self.path,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn draws(mut r: StdRng, n: usize) -> Vec<u64> {
        (0..n).map(|_| r.next_u64()).collect()
    }

    #[test]
    fn same_path_same_stream() {
        let a = ProtocolContext::new(7).narrow("hdp").at(3).rng_for(5);
        let b = ProtocolContext::new(7).narrow("hdp").at(3).rng_for(5);
        assert_eq!(draws(a, 32), draws(b, 32));
    }

    #[test]
    fn rng_for_is_at_then_rng() {
        let ctx = ProtocolContext::new(99).narrow("mul");
        assert_eq!(draws(ctx.rng_for(4), 16), draws(ctx.at(4).rng(), 16));
    }

    #[test]
    fn order_of_derivation_is_irrelevant() {
        // Deriving record 9 before record 2 (or never deriving 2 at all)
        // must not change record 2's stream — the whole point.
        let ctx = ProtocolContext::new(1).narrow("cmp");
        let _ = draws(ctx.rng_for(9), 100);
        let after = draws(ctx.rng_for(2), 16);
        let fresh = draws(ProtocolContext::new(1).narrow("cmp").rng_for(2), 16);
        assert_eq!(after, fresh);
    }

    #[test]
    fn siblings_diverge() {
        let root = ProtocolContext::new(42);
        let a = draws(root.narrow("mask").rng_for(0), 64);
        let b = draws(root.narrow("mul").rng_for(0), 64);
        let c = draws(root.narrow("mask").rng_for(1), 64);
        let d = draws(root.narrow("mask").at(1).rng_for(0), 64);
        let e = draws(root.narrow("mask").rng(), 64);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(c, d, "at() and rng_for() nest, not alias");
        assert_ne!(a, e, "step-own stream is not record 0");
        assert_eq!(a.iter().filter(|&&v| b.contains(&v)).count(), 0);
    }

    #[test]
    fn seeds_separate_sessions() {
        let a = draws(ProtocolContext::new(1).narrow("x").rng_for(0), 64);
        let b = draws(ProtocolContext::new(2).narrow("x").rng_for(0), 64);
        assert_ne!(a, b);
    }

    #[test]
    fn from_rng_consumes_one_draw() {
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        let ctx = ProtocolContext::from_rng(&mut r1);
        assert_eq!(ctx, ProtocolContext::new(r2.next_u64()));
    }

    #[test]
    fn rekey_keeps_path_swaps_seed() {
        // Two parties with different session seeds but the same protocol
        // position converge once rekeyed onto a shared dealer seed.
        let alice = ProtocolContext::new(1).narrow("mul").at(3);
        let bob = ProtocolContext::new(2).narrow("mul").at(3);
        assert_ne!(draws(alice.rng_for(0), 16), draws(bob.rng_for(0), 16));
        assert_eq!(
            draws(alice.rekey(7).rng_for(0), 16),
            draws(bob.rekey(7).rng_for(0), 16)
        );
        assert_ne!(
            draws(alice.rekey(7).rng_for(0), 16),
            draws(alice.rng_for(0), 16)
        );
    }

    #[test]
    fn leaf_rngs_sample_sanely() {
        // Spot-check the derived generators feed the sampling layer.
        let ctx = ProtocolContext::new(1234).narrow("sanity");
        let mut buckets = [0usize; 8];
        for i in 0..4000u64 {
            let mut r = ctx.rng_for(i);
            buckets[r.random_range(0usize..8)] += 1;
        }
        for &b in &buckets {
            assert!((350..650).contains(&b), "{buckets:?}");
        }
    }
}
