//! Property-based end-to-end tests: random small datasets through the full
//! protocol stack must always reproduce the plaintext reference semantics.
//!
//! Key sizes are tiny (protocol correctness is key-size independent) and
//! instance sizes small — each case still runs the complete Paillier +
//! comparison pipeline on two threads. The comparator is one more input:
//! every mode must match the plaintext reference under the Ideal, the
//! faithful Yao, and the bitwise DGK comparator alike.

mod common;

use common::{
    run_arbitrary_pair, run_enhanced_pair, run_horizontal_pair, run_multiparty, run_vertical_pair,
};
use ppdbscan::config::ProtocolConfig;
use ppdbscan::{ArbitraryPartition, VerticalPartition};
use ppds_dbscan::{dbscan, dbscan_with_external_density, DbscanParams, Point};
use ppds_smc::compare::Comparator;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const BOUND: i64 = 6;

fn small_cfg(eps_sq: u64, min_pts: usize) -> ProtocolConfig {
    let mut cfg = ProtocolConfig::new(DbscanParams { eps_sq, min_pts }, BOUND);
    cfg.key_bits = 64; // fast keygen; correctness is size-independent
    cfg.mask_bits = 6;
    cfg
}

fn points_strategy(min: usize, max: usize) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec((-BOUND..=BOUND, -BOUND..=BOUND), min..=max).prop_map(|coords| {
        coords
            .into_iter()
            .map(|(x, y)| Point::new(vec![x, y]))
            .collect()
    })
}

/// A config for `comparator` whose domains the faithful Yao protocol
/// (O(n0) decryptions per comparison) and per-bit DGK can afford inside a
/// property test: small keys, a tight lattice, one bit of mask slack for
/// Yao.
fn comparator_cfg(comparator: Comparator, min_pts: usize) -> ProtocolConfig {
    let mut cfg = small_cfg(8, min_pts);
    cfg.comparator = comparator;
    if comparator == Comparator::Yao {
        cfg.mask_bits = 1;
        cfg.coord_bound = 4;
    }
    cfg
}

fn comparator_strategy() -> impl Strategy<Value = Comparator> {
    (0usize..3).prop_map(|i| [Comparator::Ideal, Comparator::Yao, Comparator::Dgk][i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random inputs, random session seeds, any comparator, all five modes:
    /// each party's labels equal the plaintext reference of its mode.
    #[test]
    fn every_mode_matches_plaintext_under_every_comparator(
        comparator in comparator_strategy(),
        coords in proptest::collection::vec((-4i64..=4, -4i64..=4), 6..=6),
        min_pts in 2usize..4,
        seed in any::<u64>(),
    ) {
        let cfg = comparator_cfg(comparator, min_pts);
        let points: Vec<Point> = coords.into_iter().map(|(x, y)| Point::new(vec![x, y])).collect();
        let (alice, bob) = (points[..3].to_vec(), points[3..].to_vec());
        let rng_a = || StdRng::seed_from_u64(seed);
        let rng_b = || StdRng::seed_from_u64(seed ^ 1);
        let horizontal_refs = (
            dbscan_with_external_density(&alice, &bob, cfg.params),
            dbscan_with_external_density(&bob, &alice, cfg.params),
        );

        let (a, b) = run_horizontal_pair(&cfg, &alice, &bob, rng_a(), rng_b()).unwrap();
        prop_assert_eq!(&a.clustering, &horizontal_refs.0, "horizontal/{:?}", comparator);
        prop_assert_eq!(&b.clustering, &horizontal_refs.1, "horizontal/{:?}", comparator);

        let (a, b) = run_enhanced_pair(&cfg, &alice, &bob, rng_a(), rng_b()).unwrap();
        prop_assert_eq!(&a.clustering, &horizontal_refs.0, "enhanced/{:?}", comparator);
        prop_assert_eq!(&b.clustering, &horizontal_refs.1, "enhanced/{:?}", comparator);

        let reference = dbscan(&points, cfg.params);
        let partition = VerticalPartition::split(&points, 1);
        let (a, b) = run_vertical_pair(&cfg, &partition, rng_a(), rng_b()).unwrap();
        prop_assert_eq!(&a.clustering, &reference, "vertical/{:?}", comparator);
        prop_assert_eq!(&b.clustering, &reference, "vertical/{:?}", comparator);

        let arb = ArbitraryPartition::random(&mut StdRng::seed_from_u64(seed ^ 0xA5A5), &points);
        let (a, b) = run_arbitrary_pair(&cfg, &arb, rng_a(), rng_b()).unwrap();
        prop_assert_eq!(&a.clustering, &reference, "arbitrary/{:?}", comparator);
        prop_assert_eq!(&b.clustering, &reference, "arbitrary/{:?}", comparator);

        let parties = vec![points[..2].to_vec(), points[2..4].to_vec(), points[4..].to_vec()];
        let outputs = run_multiparty(&cfg, &parties, seed).unwrap();
        for (i, out) in outputs.iter().enumerate() {
            let others: Vec<Point> = parties
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .flat_map(|(_, p)| p.iter().cloned())
                .collect();
            let expected = dbscan_with_external_density(&parties[i], &others, cfg.params);
            prop_assert_eq!(&out.clustering, &expected, "multiparty/{:?} party {}", comparator, i);
        }
    }
}

proptest! {
    // Each case spins up threads + keygen, so keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn horizontal_always_matches_reference(
        alice in points_strategy(1, 6),
        bob in points_strategy(1, 6),
        eps_sq in 1u64..30,
        min_pts in 1usize..5,
        seed in any::<u64>(),
    ) {
        let cfg = small_cfg(eps_sq, min_pts);
        let (a, b) = run_horizontal_pair(
            &cfg,
            &alice,
            &bob,
            StdRng::seed_from_u64(seed),
            StdRng::seed_from_u64(seed.wrapping_add(1)),
        )
        .unwrap();
        prop_assert_eq!(
            a.clustering,
            dbscan_with_external_density(&alice, &bob, cfg.params)
        );
        prop_assert_eq!(
            b.clustering,
            dbscan_with_external_density(&bob, &alice, cfg.params)
        );
    }

    #[test]
    fn enhanced_always_equals_basic(
        alice in points_strategy(1, 5),
        bob in points_strategy(1, 5),
        eps_sq in 1u64..30,
        min_pts in 1usize..5,
        seed in any::<u64>(),
    ) {
        let cfg = small_cfg(eps_sq, min_pts);
        let (enh_a, enh_b) = run_enhanced_pair(
            &cfg,
            &alice,
            &bob,
            StdRng::seed_from_u64(seed),
            StdRng::seed_from_u64(seed.wrapping_add(1)),
        )
        .unwrap();
        prop_assert_eq!(
            enh_a.clustering,
            dbscan_with_external_density(&alice, &bob, cfg.params)
        );
        prop_assert_eq!(
            enh_b.clustering,
            dbscan_with_external_density(&bob, &alice, cfg.params)
        );
    }

    #[test]
    fn vertical_always_matches_plaintext(
        records in points_strategy(2, 7),
        eps_sq in 1u64..30,
        min_pts in 1usize..5,
        seed in any::<u64>(),
    ) {
        let cfg = small_cfg(eps_sq, min_pts);
        let partition = VerticalPartition::split(&records, 1);
        let (a, b) = run_vertical_pair(
            &cfg,
            &partition,
            StdRng::seed_from_u64(seed),
            StdRng::seed_from_u64(seed.wrapping_add(1)),
        )
        .unwrap();
        let reference = dbscan(&records, cfg.params);
        prop_assert_eq!(a.clustering, reference.clone());
        prop_assert_eq!(b.clustering, reference);
    }

    #[test]
    fn arbitrary_always_matches_plaintext(
        records in points_strategy(2, 6),
        eps_sq in 1u64..30,
        min_pts in 1usize..5,
        seed in any::<u64>(),
    ) {
        let cfg = small_cfg(eps_sq, min_pts);
        let partition = ArbitraryPartition::random(&mut StdRng::seed_from_u64(seed), &records);
        let (a, b) = run_arbitrary_pair(
            &cfg,
            &partition,
            StdRng::seed_from_u64(seed.wrapping_add(2)),
            StdRng::seed_from_u64(seed.wrapping_add(3)),
        )
        .unwrap();
        let reference = dbscan(&records, cfg.params);
        prop_assert_eq!(a.clustering, reference.clone());
        prop_assert_eq!(b.clustering, reference);
    }
}
