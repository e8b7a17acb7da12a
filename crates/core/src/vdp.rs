//! Protocol VDP (§4.3): secure `dist²(d_x, d_y) ≤ Eps²` for vertically
//! partitioned records.
//!
//! Each party computes its local squared-delta sum over the attributes it
//! owns — Alice `α = Σ_{k ≤ l} (d_{x,k} − d_{y,k})²`, Bob
//! `β = Σ_{k > l} (d_{x,k} − d_{y,k})²` — and a single Yao comparison
//! decides `α ≤ Eps² − β`. No homomorphic encryption is needed at all;
//! the whole cost is the comparison (the paper's `O(c2·n0·n²)` bound).
//!
//! The comparison itself runs through the session's [`SmcBackend`], so a
//! sharing-backend session replaces the garbled-circuit stand-in with a
//! shared-bit `share_less_than` over `Z_2^64` without touching this module's
//! dataflow.

use crate::config::{ProtocolConfig, YaoLedger};
use crate::domain::vdp_domain;
use ppds_smc::compare::CmpOp;
use ppds_smc::{Party, ProtocolContext, SharingLedger, SmcBackend, SmcError};
use ppds_transport::Channel;

/// Local squared-delta sum between two attribute slices (each party calls
/// this on its own slice of records `x` and `y`).
pub fn local_delta_sq(x: &ppds_dbscan::Point, y: &ppds_dbscan::Point) -> u64 {
    ppds_dbscan::dist_sq(x, y)
}

/// Alice's side of the VDP decisions for a whole candidate set: one
/// `dist² ≤ Eps²` bit per entry of `alphas` (her local squared-delta sums,
/// in candidate order), all packed into a constant number of wire rounds;
/// a single pair is the one-entry set. `total_dim` is the full record
/// dimension `m` (needed to agree on the comparison domain).
///
/// `ctx` is the region query's context. Entry `i`'s comparison randomness
/// is item `i` of the comparison batch under `ctx` (`ctx.rng_for(i)`):
/// keyed by its position in the candidate set, which both parties
/// enumerate identically.
#[allow(clippy::too_many_arguments)] // mirrors the protocol's parameter list
pub fn vdp_compare_set_alice<C: Channel, B: SmcBackend>(
    chan: &mut C,
    cfg: &ProtocolConfig,
    backend: &B,
    alphas: &[u64],
    total_dim: usize,
    ctx: &ProtocolContext,
    ledger: &mut YaoLedger,
    acct: &mut SharingLedger,
) -> Result<Vec<bool>, SmcError> {
    let domain = vdp_domain(cfg, total_dim);
    let values: Vec<i64> = alphas
        .iter()
        .map(|&alpha| {
            ledger.record(cfg.key_bits, domain.n0());
            i64::try_from(alpha).expect("α fits i64 on a validated lattice")
        })
        .collect();
    backend.compare_batch(chan, Party::Alice, &values, CmpOp::Leq, &domain, ctx, acct)
}

/// Bob's side of [`vdp_compare_set_alice`]; `betas` are his local
/// squared-delta sums for the same candidate set, in the same order.
#[allow(clippy::too_many_arguments)] // mirrors the protocol's parameter list
pub fn vdp_compare_set_bob<C: Channel, B: SmcBackend>(
    chan: &mut C,
    cfg: &ProtocolConfig,
    backend: &B,
    betas: &[u64],
    total_dim: usize,
    ctx: &ProtocolContext,
    ledger: &mut YaoLedger,
    acct: &mut SharingLedger,
) -> Result<Vec<bool>, SmcError> {
    let domain = vdp_domain(cfg, total_dim);
    let values: Vec<i64> = betas
        .iter()
        .map(|&beta| {
            ledger.record(cfg.key_bits, domain.n0());
            cfg.params.eps_sq as i64 - i64::try_from(beta).expect("β fits i64")
        })
        .collect();
    backend.compare_batch(chan, Party::Bob, &values, CmpOp::Leq, &domain, ctx, acct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::paillier_backend;
    use crate::test_helpers::{ctx, rng};
    use ppds_dbscan::{dist_sq, DbscanParams, Point};
    use ppds_paillier::Keypair;
    use ppds_smc::compare::Comparator;
    use ppds_smc::{DealerTape, SharingBackend};
    use ppds_transport::duplex;
    use std::sync::OnceLock;

    fn alice_kp() -> &'static Keypair {
        static KP: OnceLock<Keypair> = OnceLock::new();
        KP.get_or_init(|| Keypair::generate(256, &mut rng(33)))
    }

    fn bob_kp() -> &'static Keypair {
        static KP: OnceLock<Keypair> = OnceLock::new();
        KP.get_or_init(|| Keypair::generate(256, &mut rng(34)))
    }

    /// Runs one candidate set on two threads (Paillier backend unless
    /// `sharing`); returns the agreed verdicts, Alice's ledgers and
    /// metrics.
    fn run_set(
        cfg: ProtocolConfig,
        alphas: Vec<u64>,
        betas: Vec<u64>,
        dim: usize,
        sharing: bool,
    ) -> (
        Vec<bool>,
        YaoLedger,
        SharingLedger,
        ppds_transport::MetricsSnapshot,
    ) {
        let shared = SharingBackend {
            tape: DealerTape::from_seed(77),
            dot_mask_bound: 1 << 20,
        };
        let (mut achan, mut bchan) = duplex();
        let a = std::thread::spawn(move || {
            let mut ledger = YaoLedger::default();
            let mut acct = SharingLedger::default();
            let out = if sharing {
                vdp_compare_set_alice(
                    &mut achan,
                    &cfg,
                    &shared,
                    &alphas,
                    dim,
                    &ctx(3),
                    &mut ledger,
                    &mut acct,
                )
            } else {
                let backend = paillier_backend(&cfg, alice_kp(), &bob_kp().public, dim).unwrap();
                vdp_compare_set_alice(
                    &mut achan,
                    &cfg,
                    &backend,
                    &alphas,
                    dim,
                    &ctx(3),
                    &mut ledger,
                    &mut acct,
                )
            }
            .unwrap();
            (out, ledger, acct, achan.metrics())
        });
        let mut ledger = YaoLedger::default();
        let mut acct = SharingLedger::default();
        let bob = if sharing {
            vdp_compare_set_bob(
                &mut bchan,
                &cfg,
                &shared,
                &betas,
                dim,
                &ctx(4),
                &mut ledger,
                &mut acct,
            )
        } else {
            let backend = paillier_backend(&cfg, bob_kp(), &alice_kp().public, dim).unwrap();
            vdp_compare_set_bob(
                &mut bchan,
                &cfg,
                &backend,
                &betas,
                dim,
                &ctx(4),
                &mut ledger,
                &mut acct,
            )
        }
        .unwrap();
        let (alice, a_ledger, a_acct, metrics) = a.join().unwrap();
        assert_eq!(alice, bob);
        (alice, a_ledger, a_acct, metrics)
    }

    fn cfg10() -> ProtocolConfig {
        ProtocolConfig::new(
            DbscanParams {
                eps_sq: 10,
                min_pts: 2,
            },
            3,
        )
    }

    #[test]
    fn decides_exactly_alpha_plus_beta_vs_eps_in_three_rounds() {
        let alphas: Vec<u64> = vec![0, 5, 5, 10, 0, 11, 3];
        let betas: Vec<u64> = vec![0, 5, 6, 0, 10, 0, 4];
        let expect: Vec<bool> = alphas
            .iter()
            .zip(&betas)
            .map(|(&a, &b)| a + b <= 10)
            .collect();
        let (out, a_ledger, _, metrics) = run_set(cfg10(), alphas.clone(), betas, 2, false);
        assert_eq!(out, expect);
        assert_eq!(a_ledger.comparisons, alphas.len() as u64);
        assert_eq!(metrics.total_rounds(), 3, "one Ideal exchange for all 7");
    }

    #[test]
    fn split_records_match_full_distance() {
        let cfg = ProtocolConfig::new_with_yao(
            DbscanParams {
                eps_sq: 9,
                min_pts: 2,
            },
            3,
        );
        let full_x = Point::new(vec![1, -2, 3, 0]);
        let full_y = Point::new(vec![0, -2, 1, 2]);
        // Vertical split at attribute 2.
        let alpha = local_delta_sq(
            &Point::new(full_x.coords()[..2].to_vec()),
            &Point::new(full_y.coords()[..2].to_vec()),
        );
        let beta = local_delta_sq(
            &Point::new(full_x.coords()[2..].to_vec()),
            &Point::new(full_y.coords()[2..].to_vec()),
        );
        let expect = dist_sq(&full_x, &full_y) <= 9;
        assert_eq!(
            run_set(cfg, vec![alpha], vec![beta], 4, false).0,
            vec![expect]
        );
        assert!(matches!(cfg.comparator, Comparator::Yao));
    }

    #[test]
    fn sharing_backend_matches_plain_comparisons() {
        let alphas: Vec<u64> = vec![0, 5, 5, 10, 0, 11, 3];
        let betas: Vec<u64> = vec![0, 5, 6, 0, 10, 0, 4];
        let expect: Vec<bool> = alphas
            .iter()
            .zip(&betas)
            .map(|(&a, &b)| a + b <= 10)
            .collect();
        let (out, _, a_acct, _) = run_set(cfg10(), alphas.clone(), betas, 2, true);
        assert_eq!(out, expect);
        assert_eq!(a_acct.compares, alphas.len() as u64);
        assert!(
            a_acct.bit_triples > 0,
            "shared-bit compares consume triples"
        );
    }
}
