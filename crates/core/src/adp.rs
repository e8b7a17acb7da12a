//! The arbitrary-partition distance protocol (§4.4).
//!
//! For a record pair `(x, y)` under arbitrary per-cell ownership, the
//! squared distance decomposes over three public attribute classes:
//!
//! * `V_A` — attributes where Alice owns both `x_k` and `y_k`: she sums
//!   `(x_k − y_k)²` locally;
//! * `V_B` — symmetric for Bob;
//! * `H` — attributes where the endpoints are split across parties:
//!   `(x_k − y_k)² = x_k² − 2·x_k·y_k + y_k²`; the squares stay local and
//!   the cross terms go through the Multiplication Protocol with Bob as
//!   keyholder and Alice blinding with zero-sum `r_k` — exactly the HDP
//!   treatment the paper prescribes ("the horizontally partitioned data
//!   could be processed using the Protocol HDP").
//!
//! One Yao comparison then decides
//! `V_A + Σ_H a_k²  ≤  Eps² − V_B − Σ_H b_k² + 2·Σ_H a_k·b_k`,
//! which is `dist²(x, y) ≤ Eps²`.
//!
//! Both the multiplication stage and the comparison dispatch through the
//! session's [`SmcBackend`], so the same dataflow runs over Paillier
//! ciphertexts or 8-byte ring shares (DESIGN.md §14).

use crate::config::{ProtocolConfig, YaoLedger};
use crate::domain::adp_domain;
use ppds_smc::compare::CmpOp;
use ppds_smc::{Party, ProtocolContext, SharingLedger, SmcBackend, SmcError};
use ppds_transport::Channel;

/// One party's view of a record pair: its own values (`Some`) per
/// attribute, for records `x` and `y`.
#[derive(Debug, Clone, Copy)]
pub struct PairView<'a> {
    /// Own values of record `x` (`Some` at owned attributes).
    pub x: &'a [Option<i64>],
    /// Own values of record `y`.
    pub y: &'a [Option<i64>],
}

/// Classified attribute contributions, computed locally by each party from
/// its own view. Ownership is complementary, so the two parties' `split`
/// endpoint lists align index-for-index.
struct LocalParts {
    /// Σ (x_k − y_k)² over attributes where this party owns both endpoints.
    both_owned: i64,
    /// This party's endpoint value per split attribute, ascending `k`.
    split_endpoints: Vec<i64>,
}

fn classify(view: &PairView<'_>) -> LocalParts {
    assert_eq!(view.x.len(), view.y.len(), "views must share the schema");
    let mut both_owned = 0i64;
    let mut split_endpoints = Vec::new();
    for (xk, yk) in view.x.iter().zip(view.y) {
        match (xk, yk) {
            (Some(x), Some(y)) => {
                let d = x - y;
                both_owned += d * d;
            }
            (Some(v), None) | (None, Some(v)) => split_endpoints.push(*v),
            (None, None) => {} // the peer owns both endpoints
        }
    }
    LocalParts {
        both_owned,
        split_endpoints,
    }
}

/// Alice's side of the ADP decisions for a whole candidate set: one
/// `dist²(x, y) ≤ Eps²` bit per pair view. The multiplication stages of
/// every split pair ride one wire frame each direction (Bob keyholder),
/// then one comparison batch decides all pairs — 5 rounds per neighborhood
/// instead of the paper's 5 per pair; a single pair is the one-view set.
///
/// Randomness: `records` carries one stable record id per view, and a
/// split pair's zero-sum masks and multiplication nonces are keyed by that
/// id under `ctx` (`mask`/`mul` record `records[i]`), so a pruned (sparse)
/// candidate set draws the same multiplication randomness for record `y`
/// as the exhaustive set does. The comparison randomness of view `i` is
/// item `i` of the comparison batch under `ctx.narrow("cmp")` — keyed by
/// position, which both parties enumerate identically.
#[allow(clippy::too_many_arguments)] // mirrors the protocol's parameter list
pub fn adp_compare_set_alice<C: Channel, B: SmcBackend>(
    chan: &mut C,
    cfg: &ProtocolConfig,
    backend: &B,
    views: &[PairView<'_>],
    records: &[u64],
    ctx: &ProtocolContext,
    ledger: &mut YaoLedger,
    acct: &mut SharingLedger,
) -> Result<Vec<bool>, SmcError> {
    if views.is_empty() {
        return Ok(Vec::new());
    }
    let total_dim = views[0].x.len();
    let parts: Vec<LocalParts> = views.iter().map(classify).collect();
    // Cross terms for every split pair in one Multiplication Protocol
    // batch. Pairs without split attributes need no multiplication and are
    // left out — ownership is complementary, so both parties filter
    // identically. Each group keys its randomness by the pair's *record
    // id*.
    let split_pairs: Vec<usize> = (0..parts.len())
        .filter(|&i| !parts[i].split_endpoints.is_empty())
        .collect();
    if !split_pairs.is_empty() {
        let ys_groups: Vec<Vec<i64>> = split_pairs
            .iter()
            .map(|&i| parts[i].split_endpoints.clone())
            .collect();
        let group_records: Vec<u64> = split_pairs.iter().map(|&i| records[i]).collect();
        backend.mul_fold_peer(chan, &ys_groups, &group_records, ctx, acct)?;
    }
    let domain = adp_domain(cfg, total_dim);
    let i_vals: Vec<i64> = parts
        .iter()
        .map(|p| {
            ledger.record(cfg.key_bits, domain.n0());
            p.both_owned + p.split_endpoints.iter().map(|&v| v * v).sum::<i64>()
        })
        .collect();
    backend.compare_batch(
        chan,
        Party::Alice,
        &i_vals,
        CmpOp::Leq,
        &domain,
        &ctx.narrow("cmp"),
        acct,
    )
}

/// Bob's side of [`adp_compare_set_alice`].
#[allow(clippy::too_many_arguments)] // mirrors the protocol's parameter list
pub fn adp_compare_set_bob<C: Channel, B: SmcBackend>(
    chan: &mut C,
    cfg: &ProtocolConfig,
    backend: &B,
    views: &[PairView<'_>],
    records: &[u64],
    ctx: &ProtocolContext,
    ledger: &mut YaoLedger,
    acct: &mut SharingLedger,
) -> Result<Vec<bool>, SmcError> {
    if views.is_empty() {
        return Ok(Vec::new());
    }
    let total_dim = views[0].x.len();
    let parts: Vec<LocalParts> = views.iter().map(classify).collect();
    let mut crosses = vec![0i64; parts.len()];
    let split_pairs: Vec<usize> = (0..parts.len())
        .filter(|&i| !parts[i].split_endpoints.is_empty())
        .collect();
    if !split_pairs.is_empty() {
        let xs_groups: Vec<Vec<i64>> = split_pairs
            .iter()
            .map(|&i| parts[i].split_endpoints.clone())
            .collect();
        let group_records: Vec<u64> = split_pairs.iter().map(|&i| records[i]).collect();
        let folds = backend.mul_fold_keyholder(chan, &xs_groups, &group_records, ctx, acct)?;
        for (&i, &fold) in split_pairs.iter().zip(&folds) {
            crosses[i] = fold;
        }
    }
    let domain = adp_domain(cfg, total_dim);
    let j_vals: Vec<i64> = parts
        .iter()
        .zip(&crosses)
        .map(|(p, &cross)| {
            ledger.record(cfg.key_bits, domain.n0());
            let squares: i64 = p.split_endpoints.iter().map(|&v| v * v).sum();
            cfg.params.eps_sq as i64 - p.both_owned - squares + 2 * cross
        })
        .collect();
    backend.compare_batch(
        chan,
        Party::Bob,
        &j_vals,
        CmpOp::Leq,
        &domain,
        &ctx.narrow("cmp"),
        acct,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::paillier_backend;
    use crate::partition::ArbitraryPartition;
    use crate::test_helpers::{ctx, rng};
    use ppds_dbscan::{dist_sq, DbscanParams, Point};
    use ppds_paillier::Keypair;
    use ppds_transport::duplex;
    use std::sync::OnceLock;

    fn alice_kp() -> &'static Keypair {
        static KP: OnceLock<Keypair> = OnceLock::new();
        KP.get_or_init(|| Keypair::generate(256, &mut rng(44)))
    }

    fn bob_kp() -> &'static Keypair {
        static KP: OnceLock<Keypair> = OnceLock::new();
        KP.get_or_init(|| Keypair::generate(256, &mut rng(55)))
    }

    /// Runs record `x` against each of `ys` as one candidate set on two
    /// threads (Paillier backend unless `sharing`); returns the agreed
    /// verdicts and Alice's metrics.
    fn run_set(
        cfg: ProtocolConfig,
        part: &ArbitraryPartition,
        x: usize,
        ys: &[usize],
        sharing: bool,
    ) -> (Vec<bool>, ppds_transport::MetricsSnapshot) {
        use ppds_smc::{DealerTape, SharingBackend};
        let shared = SharingBackend {
            tape: DealerTape::from_seed(909),
            dot_mask_bound: 1 << 20,
        };
        let dim = part.alice_values[x].len();
        let records: Vec<u64> = ys.iter().map(|&y| y as u64).collect();
        type OwnedView = (Vec<Option<i64>>, Vec<Option<i64>>);
        let a_views: Vec<OwnedView> = ys
            .iter()
            .map(|&y| (part.alice_values[x].clone(), part.alice_values[y].clone()))
            .collect();
        let (mut achan, mut bchan) = duplex();
        let a_records = records.clone();
        let a = std::thread::spawn(move || {
            let views: Vec<PairView<'_>> = a_views.iter().map(|(x, y)| PairView { x, y }).collect();
            let mut ledger = YaoLedger::default();
            let mut acct = SharingLedger::default();
            let out = if sharing {
                adp_compare_set_alice(
                    &mut achan,
                    &cfg,
                    &shared,
                    &views,
                    &a_records,
                    &ctx(800),
                    &mut ledger,
                    &mut acct,
                )
            } else {
                let backend = paillier_backend(&cfg, alice_kp(), &bob_kp().public, dim).unwrap();
                adp_compare_set_alice(
                    &mut achan,
                    &cfg,
                    &backend,
                    &views,
                    &a_records,
                    &ctx(800),
                    &mut ledger,
                    &mut acct,
                )
            }
            .unwrap();
            (out, achan.metrics())
        });
        let b_views: Vec<PairView<'_>> = ys
            .iter()
            .map(|&y| PairView {
                x: &part.bob_values[x],
                y: &part.bob_values[y],
            })
            .collect();
        let mut ledger = YaoLedger::default();
        let mut acct = SharingLedger::default();
        let bob = if sharing {
            adp_compare_set_bob(
                &mut bchan,
                &cfg,
                &shared,
                &b_views,
                &records,
                &ctx(900),
                &mut ledger,
                &mut acct,
            )
        } else {
            let backend = paillier_backend(&cfg, bob_kp(), &alice_kp().public, dim).unwrap();
            adp_compare_set_bob(
                &mut bchan,
                &cfg,
                &backend,
                &b_views,
                &records,
                &ctx(900),
                &mut ledger,
                &mut acct,
            )
        }
        .unwrap();
        let (alice, metrics) = a.join().unwrap();
        assert_eq!(alice, bob);
        (alice, metrics)
    }

    /// One comparison for records `x`, `y` of a partition.
    fn run(cfg: ProtocolConfig, part: &ArbitraryPartition, x: usize, y: usize) -> bool {
        run_set(cfg, part, x, &[y], false).0[0]
    }

    fn cfg(eps_sq: u64, bound: i64) -> ProtocolConfig {
        ProtocolConfig::new(DbscanParams { eps_sq, min_pts: 2 }, bound)
    }

    fn four_records() -> Vec<Point> {
        vec![
            Point::new(vec![1, -2, 3, 0]),
            Point::new(vec![0, -2, 1, 2]),
            Point::new(vec![4, 4, -4, -4]),
            Point::new(vec![0, 0, 0, 0]),
        ]
    }

    #[test]
    fn matches_plain_distance_on_random_partitions() {
        let records = &four_records()[..3];
        let mut r = rng(9);
        for trial in 0..5 {
            let part = ArbitraryPartition::random(&mut r, records);
            for x in 0..records.len() {
                for y in 0..records.len() {
                    if x == y {
                        continue;
                    }
                    let expect = dist_sq(&records[x], &records[y]) <= 20;
                    assert_eq!(
                        run(cfg(20, 4), &part, x, y),
                        expect,
                        "trial {trial}, ({x},{y})"
                    );
                }
            }
        }
    }

    #[test]
    fn set_matches_plain_distance_in_five_rounds() {
        let records = four_records();
        let part = ArbitraryPartition::random(&mut rng(77), &records);
        // One set: record 0 against every other record.
        let ys: Vec<usize> = vec![1, 2, 3];
        let (alice, metrics) = run_set(cfg(20, 4), &part, 0, &ys, false);
        for (pos, &y) in ys.iter().enumerate() {
            let expect = dist_sq(&records[0], &records[y]) <= 20;
            assert_eq!(alice[pos], expect, "pair (0,{y})");
        }
        // 2 rounds of multiplication + 3 of comparison for the whole set.
        assert!(
            metrics.total_rounds() <= 5,
            "rounds = {}",
            metrics.total_rounds()
        );
    }

    #[test]
    fn sharing_backend_matches_plain_distance() {
        let records = four_records();
        let part = ArbitraryPartition::random(&mut rng(78), &records);
        let ys: Vec<usize> = vec![1, 2, 3];
        let expect: Vec<bool> = ys
            .iter()
            .map(|&y| dist_sq(&records[0], &records[y]) <= 20)
            .collect();
        assert_eq!(run_set(cfg(20, 4), &part, 0, &ys, true).0, expect);
    }

    #[test]
    fn pure_vertical_ownership_needs_no_multiplication() {
        // Constant per-column ownership => H is empty => ADP reduces to VDP.
        use crate::partition::Owner;
        let records = vec![Point::new(vec![0, 0]), Point::new(vec![3, 4])];
        let ownership = vec![vec![Owner::Alice, Owner::Bob]; 2];
        let part = ArbitraryPartition::from_records(&records, ownership);
        assert!(run(cfg(25, 5), &part, 0, 1)); // dist² = 25 ≤ 25 (boundary)
    }

    #[test]
    fn pure_horizontal_rows_exercise_full_multiplication() {
        use crate::partition::Owner;
        // Record 0 fully Alice's, record 1 fully Bob's: every attribute is a
        // split pair, V_A = V_B = 0.
        let records = vec![Point::new(vec![1, 2]), Point::new(vec![2, 4])];
        let ownership = vec![
            vec![Owner::Alice, Owner::Alice],
            vec![Owner::Bob, Owner::Bob],
        ];
        let part = ArbitraryPartition::from_records(&records, ownership);
        assert!(run(cfg(5, 4), &part, 0, 1)); // dist² = 1 + 4 = 5 ≤ 5
        assert!(!run(cfg(4, 4), &part, 0, 1));
    }
}
