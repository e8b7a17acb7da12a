//! Protocol HDP (§4.2): secure `dist²(a, b) ≤ Eps²` for horizontally
//! partitioned records, batched into one *neighborhood query* — the
//! querying party's point against every point of the responder, in a fresh
//! random order chosen by the responder.
//!
//! Per pair the paper's recipe runs in two stages:
//!
//! 1. **Multiplication stage.** The responder is the Multiplication
//!    Protocol keyholder with his attribute values `b_k`; the querier is
//!    the peer with her values `a_k` and zero-sum blinding terms `r_k`
//!    (`Σ r_k = 0`). The responder learns `w_k = a_k·b_k + r_k` and sums
//!    them to the exact inner product `⟨a, b⟩` — individual products stay
//!    hidden behind the `r_k`.
//! 2. **Comparison stage.** Querier input `i = Σ a_k²`; responder input
//!    `j = Eps² − Σ b_k² + 2⟨a, b⟩`. One Yao comparison decides
//!    `i ≤ j ⟺ dist²(a, b) ≤ Eps²`.
//!
//! Both stages run through the session's [`SmcBackend`] — the Paillier
//! substrate reproduces the direct homomorphic calls byte-for-byte, the
//! sharing substrate replaces them with Beaver folds and masked opens over
//! `Z_2^64` (same dataflow, 8-byte elements; see DESIGN.md §14).
//!
//! The querier ends with the *count* of matching responder points (the
//! Theorem 9 leakage); because the responder permutes his points per query,
//! the querier cannot link matches across queries, which defeats the
//! Figure 1 intersection attack. The responder learns, for each of his own
//! points, whether it matched *some* unidentified query point (and logs it
//! as [`LeakageEvent::OwnPointMatched`]).

use crate::config::{ProtocolConfig, YaoLedger};
use crate::domain::hdp_domain;
use ppds_dbscan::Point;
use ppds_smc::compare::CmpOp;
use ppds_smc::{
    LeakageEvent, LeakageLog, Party, ProtocolContext, SharingLedger, SmcBackend, SmcError,
};
use ppds_transport::Channel;
use rand::seq::SliceRandom;

/// Querier side of one neighborhood query: returns how many of the
/// responder's `responder_count` (candidate) points lie within `Eps` of
/// `query`. The multiplication stage for **all** responder points rides
/// one wire frame each direction and the final decisions run as one
/// comparison batch — 5 rounds per query, where the paper's per-pair
/// framing pays 5 per responder point (still visible as logical messages).
///
/// `ctx` is this query instance's context (the driver narrows per query).
/// The responder point at permuted position `i` keys its masks and
/// multiplication nonces by `i` under `ctx` (`mask`/`mul` record `i`) and
/// its comparison randomness as item `i` of the batch under
/// `ctx.narrow("cmp")`, so every point's streams are independent of every
/// other's and the per-point ciphertext work parallelizes (see
/// [`ppds_smc::parallel`]).
#[allow(clippy::too_many_arguments)] // mirrors the protocol's parameter list
pub fn hdp_query_querier_batch<C: Channel, B: SmcBackend>(
    chan: &mut C,
    cfg: &ProtocolConfig,
    backend: &B,
    query: &Point,
    responder_count: usize,
    ctx: &ProtocolContext,
    ledger: &mut YaoLedger,
    acct: &mut SharingLedger,
) -> Result<usize, SmcError> {
    if responder_count == 0 {
        return Ok(0);
    }
    let dim = query.dim();
    let domain = hdp_domain(cfg, dim);
    let i_val = i64::try_from(query.norm_sq()).expect("ΣA² fits i64 on a validated lattice");
    let cmp_ctx = ctx.narrow("cmp");
    // Stage 1: every responder point's masked products in one frame pair.
    // Every group is the same query vector, once per responder point.
    let ys_groups: Vec<Vec<i64>> = vec![query.coords().to_vec(); responder_count];
    let records: Vec<u64> = (0..responder_count as u64).collect();
    backend.mul_fold_peer(chan, &ys_groups, &records, ctx, acct)?;
    // Stage 2: one batched comparison run for the whole candidate set.
    let values = vec![i_val; responder_count];
    for _ in 0..responder_count {
        ledger.record(cfg.key_bits, domain.n0());
    }
    let within = backend.compare_batch(
        chan,
        Party::Alice,
        &values,
        CmpOp::Leq,
        &domain,
        &cmp_ctx,
        acct,
    )?;
    Ok(within.into_iter().filter(|&b| b).count())
}

/// Responder side of [`hdp_query_querier_batch`] over `my_points`,
/// restricted to the `candidates` indices (the full range when pruning is
/// off — see the crate-internal `prune` module); its length must equal the
/// `responder_count` the querier uses. Returns the number of served points
/// that matched (the same bits the querier counted).
///
/// A fresh permutation per query (the Figure 1 defense) draws from the
/// query context's `"perm"` substream, so the querier sees match bits in an
/// order it cannot link to any previous query; matched own-point leakage
/// events are recorded in that permuted order. The point at permuted
/// position `i` keys all its randomness by `i`, exactly as the querier
/// does, so the DGK backend's value-dependent draws never shift any other
/// point's stream.
#[allow(clippy::too_many_arguments)] // mirrors the protocol's parameter list
pub fn hdp_respond_batch<C: Channel, B: SmcBackend>(
    chan: &mut C,
    cfg: &ProtocolConfig,
    backend: &B,
    my_points: &[Point],
    candidates: &[usize],
    ctx: &ProtocolContext,
    ledger: &mut YaoLedger,
    acct: &mut SharingLedger,
    leakage: &mut LeakageLog,
) -> Result<usize, SmcError> {
    let dim = my_points.first().map_or(0, Point::dim);
    let domain = hdp_domain(cfg, dim);
    let eps = cfg.params.eps_sq as i64;

    let mut order: Vec<usize> = candidates.to_vec();
    order.shuffle(&mut ctx.narrow("perm").rng());
    let cmp_ctx = ctx.narrow("cmp");
    if order.is_empty() {
        return Ok(0);
    }

    let xs_groups: Vec<Vec<i64>> = order
        .iter()
        .map(|&idx| my_points[idx].coords().to_vec())
        .collect();
    let records: Vec<u64> = (0..order.len() as u64).collect();
    let inner_products = backend.mul_fold_keyholder(chan, &xs_groups, &records, ctx, acct)?;
    let mut j_vals = Vec::with_capacity(order.len());
    for (&idx, &inner_product) in order.iter().zip(&inner_products) {
        ledger.record(cfg.key_bits, domain.n0());
        j_vals.push(eps - my_points[idx].norm_sq() as i64 + 2 * inner_product);
    }
    let within = backend.compare_batch(
        chan,
        Party::Bob,
        &j_vals,
        CmpOp::Leq,
        &domain,
        &cmp_ctx,
        acct,
    )?;
    let mut count = 0usize;
    for (pos, &matched) in within.iter().enumerate() {
        if matched {
            count += 1;
            leakage.record(LeakageEvent::OwnPointMatched {
                point: format!("own#{}", order[pos]),
            });
        }
    }
    Ok(count)
}

impl ProtocolConfig {
    /// Mask bound for the Multiplication Protocol's blinding terms:
    /// `C² · 2^σ`, so each masked product `a_k·b_k + r_k` hides its value
    /// with σ bits of statistical slack. These never enter a Yao comparison
    /// (the `r_k` cancel), so σ can be large regardless of the comparator.
    pub fn mul_mask_bound(&self) -> ppds_bigint::BigUint {
        let c2 = (self.coord_bound as u128) * (self.coord_bound as u128);
        ppds_bigint::BigUint::from_u128(c2 << self.mask_bits.min(64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::paillier_backend;
    use crate::test_helpers::{ctx, rng};
    use ppds_dbscan::{dist_sq, DbscanParams};
    use ppds_paillier::Keypair;
    use ppds_transport::duplex;
    use std::sync::OnceLock;

    fn querier_kp() -> &'static Keypair {
        static KP: OnceLock<Keypair> = OnceLock::new();
        KP.get_or_init(|| Keypair::generate(256, &mut rng(11)))
    }

    fn responder_kp() -> &'static Keypair {
        static KP: OnceLock<Keypair> = OnceLock::new();
        KP.get_or_init(|| Keypair::generate(256, &mut rng(22)))
    }

    /// One neighborhood query on two threads; returns both counts, the
    /// responder's leakage, and the querier's ledgers and metrics.
    fn run_query(
        cfg: &ProtocolConfig,
        query: Point,
        responder_points: Vec<Point>,
    ) -> (
        usize,
        usize,
        LeakageLog,
        YaoLedger,
        ppds_transport::MetricsSnapshot,
    ) {
        let (mut qchan, mut rchan) = duplex();
        let nb = responder_points.len();
        let cfg_q = *cfg;
        let q = std::thread::spawn(move || {
            let backend =
                paillier_backend(&cfg_q, querier_kp(), &responder_kp().public, 2).unwrap();
            let mut ledger = YaoLedger::default();
            let mut acct = SharingLedger::default();
            let count = hdp_query_querier_batch(
                &mut qchan,
                &cfg_q,
                &backend,
                &query,
                nb,
                &ctx(100),
                &mut ledger,
                &mut acct,
            )
            .unwrap();
            assert_eq!(
                acct,
                SharingLedger::default(),
                "Paillier substrate leaves the sharing ledger untouched"
            );
            (count, ledger, qchan.metrics())
        });
        let backend = paillier_backend(cfg, responder_kp(), &querier_kp().public, 2).unwrap();
        let mut ledger = YaoLedger::default();
        let mut acct = SharingLedger::default();
        let mut leakage = LeakageLog::new();
        let all: Vec<usize> = (0..responder_points.len()).collect();
        let responder_count = hdp_respond_batch(
            &mut rchan,
            cfg,
            &backend,
            &responder_points,
            &all,
            &ctx(200),
            &mut ledger,
            &mut acct,
            &mut leakage,
        )
        .unwrap();
        assert_eq!(ledger.comparisons, nb as u64, "one comparison per pair");
        let (querier_count, q_ledger, metrics) = q.join().unwrap();
        (querier_count, responder_count, leakage, q_ledger, metrics)
    }

    fn five_points() -> Vec<Point> {
        vec![
            Point::new(vec![1, 1]),   // dist² 2: in
            Point::new(vec![3, 0]),   // dist² 9: in (boundary)
            Point::new(vec![3, 1]),   // dist² 10: out
            Point::new(vec![-2, -2]), // dist² 8: in
            Point::new(vec![10, 10]), // out
        ]
    }

    #[test]
    fn counts_match_plain_distances_in_five_rounds() {
        let cfg = ProtocolConfig::new(
            DbscanParams {
                eps_sq: 9,
                min_pts: 3,
            },
            10,
        );
        let query = Point::new(vec![0, 0]);
        let responder_points = five_points();
        let expected = responder_points
            .iter()
            .filter(|p| dist_sq(p, &query) <= 9)
            .count();
        let (qc, rc, leakage, q_ledger, metrics) = run_query(&cfg, query, responder_points);
        assert_eq!(qc, expected);
        assert_eq!(rc, expected);
        assert_eq!(leakage.count_kind("own_point_matched"), expected);
        assert_eq!(q_ledger.comparisons, 5);
        assert!(q_ledger.modeled_bytes > 0);
        // 5 rounds per query (2 mul + 3 compare) instead of 5 per point.
        assert_eq!(metrics.total_rounds(), 5);
        assert!(metrics.total_messages() > metrics.total_rounds());
    }

    #[test]
    fn sharing_backend_matches_plain_counts() {
        use ppds_smc::{DealerTape, SharingBackend};
        let cfg = ProtocolConfig::new(
            DbscanParams {
                eps_sq: 9,
                min_pts: 3,
            },
            10,
        );
        let query = Point::new(vec![0, 0]);
        let responder_points = five_points();
        let expected = responder_points
            .iter()
            .filter(|p| dist_sq(p, &query) <= 9)
            .count();
        let backend = SharingBackend {
            tape: DealerTape::from_seed(4242),
            dot_mask_bound: 1 << 20,
        };
        let (mut qchan, mut rchan) = duplex();
        let nb = responder_points.len();
        let q = std::thread::spawn(move || {
            let mut ledger = YaoLedger::default();
            let mut acct = SharingLedger::default();
            let count = hdp_query_querier_batch(
                &mut qchan,
                &cfg,
                &backend,
                &query,
                nb,
                &ctx(100),
                &mut ledger,
                &mut acct,
            )
            .unwrap();
            (count, acct)
        });
        let mut ledger = YaoLedger::default();
        let mut acct = SharingLedger::default();
        let mut leakage = LeakageLog::new();
        let all: Vec<usize> = (0..responder_points.len()).collect();
        let rc = hdp_respond_batch(
            &mut rchan,
            &cfg,
            &backend,
            &responder_points,
            &all,
            &ctx(200),
            &mut ledger,
            &mut acct,
            &mut leakage,
        )
        .unwrap();
        let (qc, q_acct) = q.join().unwrap();
        assert_eq!(qc, expected);
        assert_eq!(rc, expected);
        assert_eq!(leakage.count_kind("own_point_matched"), expected);
        assert_eq!(q_acct.compares, nb as u64);
        assert!(q_acct.triples > 0, "folds consume Beaver triples");
    }

    #[test]
    fn empty_responder_set_is_wire_silent() {
        let cfg = ProtocolConfig::new(
            DbscanParams {
                eps_sq: 4,
                min_pts: 2,
            },
            5,
        );
        let (qc, rc, leakage, _, metrics) = run_query(&cfg, Point::new(vec![0, 0]), vec![]);
        assert_eq!(qc, 0);
        assert_eq!(rc, 0);
        assert!(leakage.is_empty());
        assert_eq!(metrics.total_rounds(), 0);
    }

    #[test]
    fn works_with_negative_coordinates_and_yao() {
        let cfg = ProtocolConfig::new_with_yao(
            DbscanParams {
                eps_sq: 4,
                min_pts: 2,
            },
            3,
        );
        let query = Point::new(vec![-2, 1]);
        let pts = vec![Point::new(vec![-1, 1]), Point::new(vec![2, -2])];
        let (qc, rc, ..) = run_query(&cfg, query, pts);
        assert_eq!(qc, 1);
        assert_eq!(rc, 1);
    }
}
