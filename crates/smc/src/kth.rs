//! Secure k-th order statistic over secret-shared distances (§5).
//!
//! After the dot-product phase of the enhanced protocol, Alice holds
//! `u_i = Dist²(A, B_i) + v_i` and Bob holds `v_i`. Neither party knows any
//! distance, but together they can compare two shared distances with one
//! secure comparison (`u_a - u_b` vs `v_a - v_b`). The paper proposes two
//! selection algorithms over this comparison oracle and we implement both:
//!
//! * [`SelectionMethod::RepeatedMin`] — scan for the minimum, delete it,
//!   repeat `k` times: `O(kn)` comparisons, best when `k` is small (the
//!   common case, since `k ≤ MinPts`);
//! * [`SelectionMethod::QuickSelect`] — quickselect on the index set with a
//!   deterministic pivot (both parties must take identical control paths
//!   without extra coordination): expected `O(n)` comparisons, `O(n²)`
//!   worst case, better for large `k` — exactly the trade-off §5 discusses.
//!
//! Control flow is driven purely by comparison outcomes, which Algorithm 1
//! reveals to both parties anyway, so both sides replay the identical
//! decision sequence and stay in lockstep with zero additional messages.

use crate::backend::SmcBackend;
use crate::compare::ComparisonDomain;
use crate::context::ProtocolContext;
use crate::error::SmcError;
use crate::leakage::Party;
use crate::sharing::SharingLedger;
use ppds_observe::trace;
use ppds_transport::Channel;

/// Which of the paper's two k-th-smallest algorithms to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionMethod {
    /// `O(kn)` repeated minimum scan.
    #[default]
    RepeatedMin,
    /// Expected `O(n)` quickselect with deterministic middle pivot.
    QuickSelect,
}

/// Result of a selection: which element ranked k-th, and how many secure
/// comparisons it took (the unit experiment E8 counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectionOutcome {
    /// Index (into the original share vector) of the k-th smallest distance.
    pub index: usize,
    /// Number of secure comparisons executed.
    pub comparisons: usize,
}

/// Selects the k-th smallest (1-based) of the shared distances whose
/// shares this party holds in `shares`, reaching every share comparison
/// through [`SmcBackend`], so one call site serves both the Paillier and
/// the sharing substrate. `role` is the comparison role ([`Party::Alice`]
/// holds the compare keypair). `ctx` is the selection step's context; the
/// engine scopes every comparison by its position, so both parties draw
/// identical streams.
///
/// Quickselect partitions run all pivot comparisons of one level as one
/// batch (3 wire rounds per level instead of 3 per comparison).
/// Repeated-minimum scans are inherently sequential — each comparison's
/// operand depends on the previous outcome — so each comparison is a
/// one-item batch.
#[allow(clippy::too_many_arguments)] // mirrors the protocol's parameter list
pub fn kth_smallest_with<C: Channel, B: SmcBackend>(
    method: SelectionMethod,
    backend: &B,
    chan: &mut C,
    role: Party,
    shares: &[i64],
    k: usize,
    domain: &ComparisonDomain,
    ctx: &ProtocolContext,
    acct: &mut SharingLedger,
) -> Result<SelectionOutcome, SmcError> {
    let span = trace::span("kth", || chan.metrics());
    let mut less_many = |pairs: &[(usize, usize)], chan: &mut C, scope: &ProtocolContext| {
        let share_pairs: Vec<(i64, i64)> =
            pairs.iter().map(|&(a, b)| (shares[a], shares[b])).collect();
        backend.share_less_than_batch(chan, role, &share_pairs, domain, scope, acct)
    };
    let out = kth_engine(shares.len(), k, method, chan, ctx, &mut less_many)?;
    span.end(|| chan.metrics());
    Ok(out)
}

/// Role-neutral engine: identical deterministic control flow on both sides,
/// parameterized by the party-specific comparison call. `less_many` runs a
/// slice of independent share comparisons as one batch under the given
/// scope (items key themselves by index) and returns one outcome per pair.
fn kth_engine<C, F>(
    n: usize,
    k: usize,
    method: SelectionMethod,
    chan: &mut C,
    ctx: &ProtocolContext,
    less_many: &mut F,
) -> Result<SelectionOutcome, SmcError>
where
    C: Channel,
    F: FnMut(&[(usize, usize)], &mut C, &ProtocolContext) -> Result<Vec<bool>, SmcError>,
{
    assert!(n > 0, "cannot select from an empty share vector");
    assert!(
        (1..=n).contains(&k),
        "k = {k} out of range for {n} elements"
    );
    match method {
        SelectionMethod::RepeatedMin => repeated_min(n, k, chan, ctx, less_many),
        SelectionMethod::QuickSelect => quick_select(n, k, chan, ctx, less_many),
    }
}

fn repeated_min<C, F>(
    n: usize,
    k: usize,
    chan: &mut C,
    ctx: &ProtocolContext,
    less_many: &mut F,
) -> Result<SelectionOutcome, SmcError>
where
    C: Channel,
    F: FnMut(&[(usize, usize)], &mut C, &ProtocolContext) -> Result<Vec<bool>, SmcError>,
{
    let mut active: Vec<usize> = (0..n).collect();
    let mut comparisons = 0;
    for round in 0..k {
        let mut min_pos = 0;
        for pos in 1..active.len() {
            // Inherently sequential control flow, but each comparison's
            // randomness is keyed by its ordinal, not by stream position.
            let scope = ctx.at(comparisons as u64);
            comparisons += 1;
            if less_many(&[(active[pos], active[min_pos])], chan, &scope)?[0] {
                min_pos = pos;
            }
        }
        if round == k - 1 {
            return Ok(SelectionOutcome {
                index: active[min_pos],
                comparisons,
            });
        }
        active.swap_remove(min_pos);
    }
    unreachable!("loop returns on round k-1")
}

fn quick_select<C, F>(
    n: usize,
    k: usize,
    chan: &mut C,
    ctx: &ProtocolContext,
    less_many: &mut F,
) -> Result<SelectionOutcome, SmcError>
where
    C: Channel,
    F: FnMut(&[(usize, usize)], &mut C, &ProtocolContext) -> Result<Vec<bool>, SmcError>,
{
    let mut items: Vec<usize> = (0..n).collect();
    let mut k = k; // 1-based rank within `items`
    let mut comparisons = 0;
    let mut level = 0u64;
    loop {
        if items.len() == 1 {
            return Ok(SelectionOutcome {
                index: items[0],
                comparisons,
            });
        }
        // Deterministic pivot: both parties pick the same position without
        // exchanging anything.
        let pivot = items[items.len() / 2];
        let others: Vec<usize> = items.iter().copied().filter(|&i| i != pivot).collect();
        // Every pivot comparison of one partition level is independent, so
        // the level ships as one batch. Comparison `i` of level `ℓ` draws
        // from `ctx.at(ℓ).at(i)`.
        let level_ctx = ctx.at(level);
        level += 1;
        let pairs: Vec<(usize, usize)> = others.iter().map(|&i| (i, pivot)).collect();
        let outcomes = less_many(&pairs, chan, &level_ctx)?;
        if outcomes.len() != others.len() {
            return Err(SmcError::protocol("partition outcome arity mismatch"));
        }
        comparisons += others.len();
        let mut smaller = Vec::new();
        let mut not_smaller = Vec::new();
        for (&idx, &is_less) in others.iter().zip(&outcomes) {
            if is_less {
                smaller.push(idx);
            } else {
                not_smaller.push(idx);
            }
        }
        if k <= smaller.len() {
            items = smaller;
        } else if k == smaller.len() + 1 {
            return Ok(SelectionOutcome {
                index: pivot,
                comparisons,
            });
        } else {
            k -= smaller.len() + 1;
            items = not_smaller;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{PaillierBackend, SharingBackend};
    use crate::compare::Comparator;
    use crate::multiplication::ResponsePacking;
    use crate::sharing::DealerTape;
    use crate::test_helpers::{alice_keypair, ctx, rng};
    use ppds_bigint::BigUint;
    use ppds_paillier::SlotLayout;
    use ppds_transport::{duplex, MetricsSnapshot};
    use rand::Rng;

    fn paillier(comparator: Comparator) -> PaillierBackend<'static> {
        // Selection only compares; the response packings go unused.
        let packing = ResponsePacking {
            layout: SlotLayout::new(alice_keypair().public.bits(), 64).unwrap(),
            offset: BigUint::from_u64(1 << 40),
        };
        PaillierBackend {
            my_keypair: alice_keypair(),
            peer_pk: &alice_keypair().public,
            comparator,
            mul_packing: packing.clone(),
            dot_packing: packing,
            mul_mask_bound: BigUint::from_u64(1 << 20),
            dot_mask_bound: BigUint::from_u64(1 << 20),
        }
    }

    /// Splits `dists` into shares (u_i = d_i + v_i for random v_i), runs the
    /// selection on two threads, and returns the outcome both sides agree
    /// on, Alice's channel metrics, and her sharing ledger.
    fn run_with<B: SmcBackend + Sync>(
        backend: &B,
        dists: &[i64],
        k: usize,
        method: SelectionMethod,
        seed: u64,
    ) -> (SelectionOutcome, MetricsSnapshot, SharingLedger) {
        let mut r = rng(seed);
        let vs: Vec<i64> = dists.iter().map(|_| r.random_range(-50..=50)).collect();
        let us: Vec<i64> = dists.iter().zip(&vs).map(|(d, v)| d + v).collect();
        let bound = 2 * (dists.iter().map(|d| d.abs()).max().unwrap_or(0) + 50);
        let domain = ComparisonDomain::symmetric(bound);
        let (mut achan, mut bchan) = duplex();
        std::thread::scope(|s| {
            let alice = s.spawn(|| {
                let mut acct = SharingLedger::default();
                let out = kth_smallest_with(
                    method,
                    backend,
                    &mut achan,
                    Party::Alice,
                    &us,
                    k,
                    &domain,
                    &ctx(seed + 1),
                    &mut acct,
                )
                .unwrap();
                (out, achan.metrics(), acct)
            });
            let mut acct = SharingLedger::default();
            let bob = kth_smallest_with(
                method,
                backend,
                &mut bchan,
                Party::Bob,
                &vs,
                k,
                &domain,
                &ctx(seed + 2),
                &mut acct,
            );
            let alice = alice.join().unwrap();
            assert_eq!(alice.0, bob.unwrap(), "both parties must agree");
            alice
        })
    }

    fn run(
        dists: &[i64],
        k: usize,
        method: SelectionMethod,
        comparator: Comparator,
        seed: u64,
    ) -> SelectionOutcome {
        run_with(&paillier(comparator), dists, k, method, seed).0
    }

    /// The set of indices whose value ties for the k-th smallest (selection
    /// may return any of them).
    fn kth_tie_set(dists: &[i64], k: usize) -> Vec<usize> {
        let mut sorted: Vec<i64> = dists.to_vec();
        sorted.sort();
        let kth_value = sorted[k - 1];
        (0..dists.len())
            .filter(|&i| dists[i] == kth_value)
            .collect()
    }

    #[test]
    fn selects_correct_index_all_ranks() {
        let dists = [9i64, 2, 14, 5, 0, 7, 7, 3, 11, 1];
        for method in [SelectionMethod::RepeatedMin, SelectionMethod::QuickSelect] {
            for k in 1..=dists.len() {
                let outcome = run(&dists, k, method, Comparator::Ideal, 100 + k as u64);
                let valid = kth_tie_set(&dists, k);
                assert!(
                    valid.contains(&outcome.index),
                    "{method:?} k={k}: got {} want one of {valid:?}",
                    outcome.index
                );
            }
        }
    }

    #[test]
    fn handles_ties() {
        let dists = [5i64, 5, 5, 1, 5];
        for method in [SelectionMethod::RepeatedMin, SelectionMethod::QuickSelect] {
            let outcome = run(&dists, 1, method, Comparator::Ideal, 7);
            assert_eq!(outcome.index, 3, "{method:?}: unique minimum");
            let outcome = run(&dists, 3, method, Comparator::Ideal, 8);
            assert!(dists[outcome.index] == 5, "{method:?}: tie rank");
        }
    }

    #[test]
    fn single_element() {
        for method in [SelectionMethod::RepeatedMin, SelectionMethod::QuickSelect] {
            let outcome = run(&[42], 1, method, Comparator::Ideal, 9);
            assert_eq!(outcome.index, 0);
            assert_eq!(outcome.comparisons, 0, "{method:?}");
        }
    }

    #[test]
    fn repeated_min_comparison_count_is_exact() {
        // Round t scans (n - t) active elements => (n - t - 1) comparisons.
        let dists = [3i64, 1, 4, 1, 5, 9, 2, 6];
        let n = dists.len();
        for k in 1..=4 {
            let outcome = run(
                &dists,
                k,
                SelectionMethod::RepeatedMin,
                Comparator::Ideal,
                20,
            );
            let expect: usize = (0..k).map(|t| n - t - 1).sum();
            assert_eq!(outcome.comparisons, expect, "k={k}");
        }
    }

    #[test]
    fn quickselect_uses_fewer_comparisons_for_large_k() {
        let mut r = rng(33);
        let dists: Vec<i64> = (0..40).map(|_| r.random_range(0..1000)).collect();
        let k = 20;
        let rm = run(
            &dists,
            k,
            SelectionMethod::RepeatedMin,
            Comparator::Ideal,
            40,
        );
        let qs = run(
            &dists,
            k,
            SelectionMethod::QuickSelect,
            Comparator::Ideal,
            41,
        );
        assert!(
            qs.comparisons < rm.comparisons,
            "quickselect {} vs repeated-min {}",
            qs.comparisons,
            rm.comparisons
        );
    }

    #[test]
    fn quickselect_collapses_partition_rounds() {
        let mut r = rng(44);
        let dists: Vec<i64> = (0..32).map(|_| r.random_range(0..1000)).collect();
        let (outcome, metrics, _) = run_with(
            &paillier(Comparator::Ideal),
            &dists,
            16,
            SelectionMethod::QuickSelect,
            45,
        );
        assert!(kth_tie_set(&dists, 16).contains(&outcome.index));
        // Every partition level is 3 rounds, against the paper's 3 per
        // comparison (still visible as logical messages). Expected levels
        // ~log n, comparisons ~2n.
        assert_eq!(metrics.total_messages(), 3 * outcome.comparisons as u64);
        assert!(
            metrics.total_rounds() < 3 * outcome.comparisons as u64 / 2,
            "rounds {} should be far below 3x{} comparisons",
            metrics.total_rounds(),
            outcome.comparisons
        );
    }

    #[test]
    fn yao_backend_agrees_with_ideal_on_small_instance() {
        let dists = [4i64, 1, 3, 2];
        for k in 1..=4 {
            let ideal = run(
                &dists,
                k,
                SelectionMethod::RepeatedMin,
                Comparator::Ideal,
                60,
            );
            let yao = run(&dists, k, SelectionMethod::RepeatedMin, Comparator::Yao, 61);
            assert_eq!(ideal.index, yao.index, "k={k}");
        }
    }

    #[test]
    fn backend_dispatch_agrees_across_substrates() {
        let dists = [9i64, 2, 14, 5, 0, 7, 3, 11];
        let sharing = SharingBackend {
            tape: DealerTape::from_seed(77),
            dot_mask_bound: 1 << 20,
        };
        for method in [SelectionMethod::RepeatedMin, SelectionMethod::QuickSelect] {
            for k in [1, 4, 8] {
                let seed = 500 + k as u64;
                let (p, _, pacct) = run_with(&paillier(Comparator::Ideal), &dists, k, method, seed);
                let (sh, _, sacct) = run_with(&sharing, &dists, k, method, seed);
                assert_eq!(p.index, sh.index, "{method:?} k={k}");
                assert_eq!(p.comparisons, sh.comparisons);
                // Paillier leaves the sharing ledger untouched; sharing
                // accounts one substitution per comparison.
                assert_eq!(pacct, SharingLedger::default());
                assert_eq!(sacct.compares as usize, sh.comparisons);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn k_zero_panics() {
        let _ = run(
            &[1, 2],
            0,
            SelectionMethod::RepeatedMin,
            Comparator::Ideal,
            70,
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn k_above_n_panics() {
        let _ = run(
            &[1, 2],
            3,
            SelectionMethod::QuickSelect,
            Comparator::Ideal,
            71,
        );
    }
}
