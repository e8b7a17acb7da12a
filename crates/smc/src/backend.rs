//! The pluggable SMC backend: one trait, two cryptographic substrates.
//!
//! Every protocol mode reaches its three SMC workhorses — secure
//! comparison / `share_less_than`, Beaver-style multiplication folds, and
//! the one-round `dot_many` — through [`SmcBackend`], selected per session
//! by `ProtocolConfig::backend` exactly like the Ideal/DGK/Yao comparator
//! choice:
//!
//! * [`PaillierBackend`] delegates byte-for-byte to the existing
//!   homomorphic implementations ([`crate::compare`],
//!   [`crate::multiplication`]), preserving every scoping convention the
//!   drivers used when they called those functions directly (masks from
//!   `ctx.narrow("mask").rng_for(record)`, multiplication scopes at
//!   `ctx.narrow("mul").at(record)`), so routing through the trait changes
//!   nothing observable.
//! * [`SharingBackend`] routes to [`crate::sharing`]: 8-byte ring elements
//!   instead of 512–2048-bit ciphertexts, with correlated randomness from
//!   the session's [`DealerTape`] and trust substitutions accounted in a
//!   [`SharingLedger`].
//!
//! This module never touches a Paillier ciphertext itself — it only
//! dispatches (a CI grep guard keeps it that way).

use crate::compare::{
    compare_batch_alice, compare_batch_bob, share_less_than_batch_alice, share_less_than_batch_bob,
    CmpOp, Comparator, ComparisonDomain,
};
use crate::context::{ProtocolContext, RecordId};
use crate::error::SmcError;
use crate::leakage::Party;
use crate::multiplication::{
    dot_many_keyholder, dot_many_peer, mul_batches_keyholder, mul_batches_peer, zero_sum_masks,
    ResponsePacking,
};
use crate::sharing::{
    sample_mask_i64, sharing_compare_batch_alice, sharing_compare_batch_bob, sharing_dot_querier,
    sharing_dot_responder, sharing_fold_keyholder_batch, sharing_fold_peer_batch,
    sharing_share_less_than_batch_alice, sharing_share_less_than_batch_bob, DealerTape, Fe,
    SharingLedger, MAX_SHARING_MASK,
};
use ppds_bigint::{BigInt, BigUint};
use ppds_paillier::{Keypair, PublicKey};
use ppds_transport::Channel;

/// Which cryptographic substrate a session's SMC workhorses run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The paper's homomorphic path: Paillier ciphertexts end to end.
    #[default]
    Paillier,
    /// Additive secret sharing over `Z_2^64` ([`crate::sharing`]).
    Sharing,
}

impl BackendKind {
    /// Stable wire tag for the Hello handshake.
    pub fn tag(self) -> u8 {
        match self {
            BackendKind::Paillier => 0,
            BackendKind::Sharing => 1,
        }
    }

    /// Inverse of [`BackendKind::tag`].
    pub fn from_tag(tag: u8) -> Option<BackendKind> {
        match tag {
            0 => Some(BackendKind::Paillier),
            1 => Some(BackendKind::Sharing),
            _ => None,
        }
    }

    /// Human-readable name (benchmark rows, session metadata).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Paillier => "paillier",
            BackendKind::Sharing => "sharing",
        }
    }
}

/// The backend dispatch surface. `role` on the comparison methods is the
/// *comparison* role ([`Party::Alice`] holds the compare keypair on the
/// Paillier path; sharing ignores keys but keeps the same send/recv
/// ordering). The multiplication/dot methods encode their role in the
/// method name. `acct` collects the sharing backend's trust-substitution
/// ledger; the Paillier backend leaves it untouched, which is exactly the
/// audit claim that no sharing substitution occurred.
pub trait SmcBackend {
    /// Which substrate this backend runs on.
    fn kind(&self) -> BackendKind;

    /// Secure comparisons, one verdict `alice_value OP bob_value` per
    /// element; a single comparison is the one-item batch.
    #[allow(clippy::too_many_arguments)] // mirrors the protocol's parameter list
    fn compare_batch<C: Channel>(
        &self,
        chan: &mut C,
        role: Party,
        values: &[i64],
        op: CmpOp,
        domain: &ComparisonDomain,
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<Vec<bool>, SmcError>;

    /// Share comparisons (§5): per pair, the party's
    /// `(share_of_a, share_of_b)`; both sides learn `dist_a < dist_b`.
    #[allow(clippy::too_many_arguments)] // mirrors the protocol's parameter list
    fn share_less_than_batch<C: Channel>(
        &self,
        chan: &mut C,
        role: Party,
        pairs: &[(i64, i64)],
        domain: &ComparisonDomain,
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<Vec<bool>, SmcError>;

    /// Querier (key-holding) side of the one-exchange dot product: learns
    /// `u_j = ⟨xs, y_j⟩ + v_j` per responder row.
    fn dot_many_querier<C: Channel>(
        &self,
        chan: &mut C,
        xs: &[i64],
        expected_rows: usize,
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError>;

    /// Responder side of [`SmcBackend::dot_many_querier`]: supplies the
    /// rows, draws the masks `v_j` (its output shares) from
    /// `ctx.rng_for(j)`, and returns them.
    fn dot_many_responder<C: Channel>(
        &self,
        chan: &mut C,
        rows: &[Vec<i64>],
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError>;

    /// Key-holding side of the multiplication fold: for each group `g`
    /// (scoped by `records[g]` under `ctx`), learns the exact inner
    /// product `⟨groups[g], peer_group[g]⟩` (the per-element masks of the
    /// Paillier path are zero-sum, so its folded sum is the same exact
    /// value).
    fn mul_fold_keyholder<C: Channel>(
        &self,
        chan: &mut C,
        groups: &[Vec<i64>],
        records: &[RecordId],
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError>;

    /// Peer side of [`SmcBackend::mul_fold_keyholder`].
    fn mul_fold_peer<C: Channel>(
        &self,
        chan: &mut C,
        groups: &[Vec<i64>],
        records: &[RecordId],
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<(), SmcError>;
}

fn bigints(values: &[i64]) -> Vec<BigInt> {
    values.iter().map(|&v| BigInt::from_i64(v)).collect()
}

fn to_i64(v: &BigInt, what: &str) -> Result<i64, SmcError> {
    v.to_i64()
        .ok_or_else(|| SmcError::protocol(format!("{what} overflows i64")))
}

/// The homomorphic substrate: every method delegates to the existing
/// Paillier implementation with the scoping conventions the drivers used
/// before the trait existed, so transcripts are byte-identical.
pub struct PaillierBackend<'a> {
    /// This party's keypair (used when it plays the key-holding role).
    pub my_keypair: &'a Keypair,
    /// The peer's public key (used when the peer holds the key).
    pub peer_pk: &'a PublicKey,
    /// Comparison backend (Yao / Ideal / DGK).
    pub comparator: Comparator,
    /// Packing layout for multiplication responses (dimension-dependent).
    pub mul_packing: ResponsePacking,
    /// Packing layout for dot-product responses (dimension-dependent).
    pub dot_packing: ResponsePacking,
    /// Mask bound for multiplication zero-sum masks.
    pub mul_mask_bound: BigUint,
    /// Mask bound for dot-product output masks.
    pub dot_mask_bound: BigUint,
}

impl SmcBackend for PaillierBackend<'_> {
    fn kind(&self) -> BackendKind {
        BackendKind::Paillier
    }

    fn compare_batch<C: Channel>(
        &self,
        chan: &mut C,
        role: Party,
        values: &[i64],
        op: CmpOp,
        domain: &ComparisonDomain,
        ctx: &ProtocolContext,
        _acct: &mut SharingLedger,
    ) -> Result<Vec<bool>, SmcError> {
        match role {
            Party::Alice => compare_batch_alice(
                self.comparator,
                chan,
                self.my_keypair,
                values,
                op,
                domain,
                ctx,
            ),
            Party::Bob => {
                compare_batch_bob(self.comparator, chan, self.peer_pk, values, op, domain, ctx)
            }
        }
    }

    fn share_less_than_batch<C: Channel>(
        &self,
        chan: &mut C,
        role: Party,
        pairs: &[(i64, i64)],
        domain: &ComparisonDomain,
        ctx: &ProtocolContext,
        _acct: &mut SharingLedger,
    ) -> Result<Vec<bool>, SmcError> {
        match role {
            Party::Alice => share_less_than_batch_alice(
                self.comparator,
                chan,
                self.my_keypair,
                pairs,
                domain,
                ctx,
            ),
            Party::Bob => {
                share_less_than_batch_bob(self.comparator, chan, self.peer_pk, pairs, domain, ctx)
            }
        }
    }

    fn dot_many_querier<C: Channel>(
        &self,
        chan: &mut C,
        xs: &[i64],
        expected_rows: usize,
        ctx: &ProtocolContext,
        _acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError> {
        let raw = dot_many_keyholder(
            chan,
            self.my_keypair,
            &bigints(xs),
            expected_rows,
            &self.dot_packing,
            ctx,
        )?;
        raw.iter().map(|v| to_i64(v, "distance share")).collect()
    }

    fn dot_many_responder<C: Channel>(
        &self,
        chan: &mut C,
        rows: &[Vec<i64>],
        ctx: &ProtocolContext,
        _acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError> {
        let rows_big: Vec<Vec<BigInt>> = rows.iter().map(|r| bigints(r)).collect();
        let masks = dot_many_peer(
            chan,
            self.peer_pk,
            &rows_big,
            &self.dot_mask_bound,
            &self.dot_packing,
            ctx,
        )?;
        masks.iter().map(|v| to_i64(v, "distance share")).collect()
    }

    fn mul_fold_keyholder<C: Channel>(
        &self,
        chan: &mut C,
        groups: &[Vec<i64>],
        records: &[RecordId],
        ctx: &ProtocolContext,
        _acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError> {
        assert_eq!(groups.len(), records.len(), "one record scope per group");
        let mul_ctx = ctx.narrow("mul");
        let fold = |ws: &[BigInt]| -> Result<i64, SmcError> {
            let sum = ws.iter().fold(BigInt::zero(), |acc, w| &acc + w);
            to_i64(&sum, "folded product")
        };
        let xs_groups: Vec<Vec<BigInt>> = groups.iter().map(|g| bigints(g)).collect();
        let all = mul_batches_keyholder(
            chan,
            self.my_keypair,
            &xs_groups,
            |g| mul_ctx.at(records[g]),
            &self.mul_packing,
        )?;
        all.iter().map(|ws| fold(ws)).collect()
    }

    fn mul_fold_peer<C: Channel>(
        &self,
        chan: &mut C,
        groups: &[Vec<i64>],
        records: &[RecordId],
        ctx: &ProtocolContext,
        _acct: &mut SharingLedger,
    ) -> Result<(), SmcError> {
        assert_eq!(groups.len(), records.len(), "one record scope per group");
        let mask_ctx = ctx.narrow("mask");
        let mul_ctx = ctx.narrow("mul");
        let ys_groups: Vec<Vec<BigInt>> = groups.iter().map(|g| bigints(g)).collect();
        mul_batches_peer(
            chan,
            self.peer_pk,
            &ys_groups,
            |g| {
                zero_sum_masks(
                    mask_ctx.rng_for(records[g]),
                    groups[g].len(),
                    &self.mul_mask_bound,
                )
            },
            |g| mul_ctx.at(records[g]),
            &self.mul_packing,
        )?;
        Ok(())
    }
}

/// The secret-sharing substrate: 8-byte ring elements, correlations from
/// the session [`DealerTape`], substitutions accounted in the
/// [`SharingLedger`].
#[derive(Debug, Clone, Copy)]
pub struct SharingBackend {
    /// The session's shared dealer tape.
    pub tape: DealerTape,
    /// Mask bound for dot-product output masks (clamped to
    /// [`MAX_SHARING_MASK`] so driver-side `i64` sums stay exact).
    pub dot_mask_bound: u64,
}

fn fes(values: &[i64]) -> Vec<Fe> {
    values.iter().map(|&v| Fe::embed(v)).collect()
}

impl SmcBackend for SharingBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Sharing
    }

    fn compare_batch<C: Channel>(
        &self,
        chan: &mut C,
        role: Party,
        values: &[i64],
        op: CmpOp,
        domain: &ComparisonDomain,
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<Vec<bool>, SmcError> {
        match role {
            Party::Alice => {
                sharing_compare_batch_alice(&self.tape, chan, values, op, domain, ctx, acct)
            }
            Party::Bob => {
                sharing_compare_batch_bob(&self.tape, chan, values, op, domain, ctx, acct)
            }
        }
    }

    fn share_less_than_batch<C: Channel>(
        &self,
        chan: &mut C,
        role: Party,
        pairs: &[(i64, i64)],
        domain: &ComparisonDomain,
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<Vec<bool>, SmcError> {
        match role {
            Party::Alice => {
                sharing_share_less_than_batch_alice(&self.tape, chan, pairs, domain, ctx, acct)
            }
            Party::Bob => {
                sharing_share_less_than_batch_bob(&self.tape, chan, pairs, domain, ctx, acct)
            }
        }
    }

    fn dot_many_querier<C: Channel>(
        &self,
        chan: &mut C,
        xs: &[i64],
        expected_rows: usize,
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError> {
        let us = sharing_dot_querier(&self.tape, chan, &fes(xs), expected_rows, ctx, acct)?;
        Ok(us.into_iter().map(Fe::lift).collect())
    }

    fn dot_many_responder<C: Channel>(
        &self,
        chan: &mut C,
        rows: &[Vec<i64>],
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError> {
        // Masks are this party's private output shares: drawn from its own
        // session randomness at the same per-row scope the Paillier path
        // uses (`ctx.rng_for(j)`), never from the shared tape.
        let masks: Vec<i64> = (0..rows.len())
            .map(|j| sample_mask_i64(ctx.rng_for(j as u64), self.dot_mask_bound))
            .collect();
        let row_fes: Vec<Vec<Fe>> = rows.iter().map(|r| fes(r)).collect();
        sharing_dot_responder(&self.tape, chan, &row_fes, &fes(&masks), ctx, acct)?;
        Ok(masks)
    }

    fn mul_fold_keyholder<C: Channel>(
        &self,
        chan: &mut C,
        groups: &[Vec<i64>],
        records: &[RecordId],
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError> {
        assert_eq!(groups.len(), records.len(), "one record scope per group");
        let mul_ctx = ctx.narrow("mul");
        let group_fes: Vec<Vec<Fe>> = groups.iter().map(|g| fes(g)).collect();
        let us = sharing_fold_keyholder_batch(
            &self.tape,
            chan,
            &group_fes,
            |g| mul_ctx.at(records[g]),
            acct,
        )?;
        Ok(us.into_iter().map(Fe::lift).collect())
    }

    fn mul_fold_peer<C: Channel>(
        &self,
        chan: &mut C,
        groups: &[Vec<i64>],
        records: &[RecordId],
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<(), SmcError> {
        assert_eq!(groups.len(), records.len(), "one record scope per group");
        let mul_ctx = ctx.narrow("mul");
        let group_fes: Vec<Vec<Fe>> = groups.iter().map(|g| fes(g)).collect();
        sharing_fold_peer_batch(
            &self.tape,
            chan,
            &group_fes,
            |g| mul_ctx.at(records[g]),
            acct,
        )
    }
}

/// Session-level backend value: the concrete choice made by
/// `ProtocolConfig::backend`, dispatching every trait method to the
/// matching substrate.
pub enum AnyBackend<'a> {
    /// Homomorphic substrate.
    Paillier(PaillierBackend<'a>),
    /// Secret-sharing substrate.
    Sharing(SharingBackend),
}

macro_rules! dispatch {
    ($self:ident, $b:ident => $call:expr) => {
        match $self {
            AnyBackend::Paillier($b) => $call,
            AnyBackend::Sharing($b) => $call,
        }
    };
}

impl SmcBackend for AnyBackend<'_> {
    fn kind(&self) -> BackendKind {
        dispatch!(self, b => b.kind())
    }

    fn compare_batch<C: Channel>(
        &self,
        chan: &mut C,
        role: Party,
        values: &[i64],
        op: CmpOp,
        domain: &ComparisonDomain,
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<Vec<bool>, SmcError> {
        dispatch!(self, b => b.compare_batch(chan, role, values, op, domain, ctx, acct))
    }

    fn share_less_than_batch<C: Channel>(
        &self,
        chan: &mut C,
        role: Party,
        pairs: &[(i64, i64)],
        domain: &ComparisonDomain,
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<Vec<bool>, SmcError> {
        dispatch!(self, b => b.share_less_than_batch(chan, role, pairs, domain, ctx, acct))
    }

    fn dot_many_querier<C: Channel>(
        &self,
        chan: &mut C,
        xs: &[i64],
        expected_rows: usize,
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError> {
        dispatch!(self, b => b.dot_many_querier(chan, xs, expected_rows, ctx, acct))
    }

    fn dot_many_responder<C: Channel>(
        &self,
        chan: &mut C,
        rows: &[Vec<i64>],
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError> {
        dispatch!(self, b => b.dot_many_responder(chan, rows, ctx, acct))
    }

    fn mul_fold_keyholder<C: Channel>(
        &self,
        chan: &mut C,
        groups: &[Vec<i64>],
        records: &[RecordId],
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError> {
        dispatch!(self, b => b.mul_fold_keyholder(chan, groups, records, ctx, acct))
    }

    fn mul_fold_peer<C: Channel>(
        &self,
        chan: &mut C,
        groups: &[Vec<i64>],
        records: &[RecordId],
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<(), SmcError> {
        dispatch!(self, b => b.mul_fold_peer(chan, groups, records, ctx, acct))
    }
}

/// Clamps a configured (possibly `BigUint`-sized) mask bound to the
/// sharing backend's safe range. Zero-sum and output-share masks only
/// shift shares, never outcomes, so clamping is invisible to results.
pub fn clamp_sharing_bound(bound: &BigUint) -> u64 {
    bound.to_u64().unwrap_or(u64::MAX).min(MAX_SHARING_MASK)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_tags_roundtrip() {
        for kind in [BackendKind::Paillier, BackendKind::Sharing] {
            assert_eq!(BackendKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(BackendKind::from_tag(9), None);
        assert_eq!(BackendKind::default(), BackendKind::Paillier);
        assert_eq!(BackendKind::Sharing.name(), "sharing");
    }

    #[test]
    fn clamp_caps_wide_bounds() {
        assert_eq!(clamp_sharing_bound(&BigUint::from_u64(100)), 100);
        let wide = BigUint::from_u64(u64::MAX);
        assert_eq!(clamp_sharing_bound(&(&wide * &wide)), MAX_SHARING_MASK);
    }
}
