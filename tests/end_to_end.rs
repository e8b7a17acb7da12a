//! Cross-crate integration tests: every protocol family against its
//! plaintext reference semantics, over the generated workload families.

mod common;

use common::{rng, run_arbitrary_pair, run_enhanced_pair, run_horizontal_pair, run_vertical_pair};
use ppdbscan::config::ProtocolConfig;
use ppdbscan::{ArbitraryPartition, VerticalPartition};
use ppds_dbscan::datagen::{cluster_in_ring, split_alternating, standard_blobs, two_moons};
use ppds_dbscan::{dbscan, dbscan_with_external_density, eval, DbscanParams, Point, Quantizer};
use ppds_smc::compare::Comparator;

fn workloads() -> Vec<(&'static str, Vec<Point>, DbscanParams)> {
    let quantizer = Quantizer::new(1.0, 80);
    let (blobs, _) = standard_blobs(&mut rng(1), 12, 3, 2, quantizer);
    let (moons, _) = two_moons(&mut rng(2), 14, 40.0, 1.0, quantizer);
    let (rings, _) = cluster_in_ring(&mut rng(3), 10, 16, 2.0, 30.0, 0.5, quantizer);
    vec![
        (
            "blobs",
            blobs,
            DbscanParams {
                eps_sq: 81,
                min_pts: 3,
            },
        ),
        (
            "moons",
            moons,
            DbscanParams {
                eps_sq: 100,
                min_pts: 3,
            },
        ),
        (
            "rings",
            rings,
            DbscanParams {
                eps_sq: 100,
                min_pts: 3,
            },
        ),
    ]
}

#[test]
fn vertical_matches_plaintext_exactly_on_all_workloads() {
    for (name, records, params) in workloads() {
        let cfg = ProtocolConfig::new(params, 80);
        let dim = records[0].dim();
        for split in 1..dim {
            let partition = VerticalPartition::split(&records, split);
            let (a, b) = run_vertical_pair(&cfg, &partition, rng(10), rng(11)).unwrap();
            let reference = dbscan(&records, params);
            assert_eq!(a.clustering, reference, "{name} split {split}: alice");
            assert_eq!(b.clustering, reference, "{name} split {split}: bob");
        }
    }
}

#[test]
fn arbitrary_matches_plaintext_exactly_on_all_workloads() {
    for (name, records, params) in workloads() {
        let cfg = ProtocolConfig::new(params, 80);
        let partition = ArbitraryPartition::random(&mut rng(20), &records);
        let (a, b) = run_arbitrary_pair(&cfg, &partition, rng(21), rng(22)).unwrap();
        let reference = dbscan(&records, params);
        assert_eq!(a.clustering, reference, "{name}: alice");
        assert_eq!(b.clustering, reference, "{name}: bob");
    }
}

#[test]
fn horizontal_matches_external_density_reference_on_all_workloads() {
    for (name, records, params) in workloads() {
        let cfg = ProtocolConfig::new(params, 80);
        let (alice_pts, bob_pts) = split_alternating(&records);
        let (a, b) = run_horizontal_pair(&cfg, &alice_pts, &bob_pts, rng(30), rng(31)).unwrap();
        assert_eq!(
            a.clustering,
            dbscan_with_external_density(&alice_pts, &bob_pts, params),
            "{name}: alice"
        );
        assert_eq!(
            b.clustering,
            dbscan_with_external_density(&bob_pts, &alice_pts, params),
            "{name}: bob"
        );
    }
}

#[test]
fn enhanced_equals_basic_on_all_workloads() {
    for (name, records, params) in workloads() {
        let cfg = ProtocolConfig::new(params, 80);
        let (alice_pts, bob_pts) = split_alternating(&records);
        let (basic_a, basic_b) =
            run_horizontal_pair(&cfg, &alice_pts, &bob_pts, rng(40), rng(41)).unwrap();
        let (enh_a, enh_b) =
            run_enhanced_pair(&cfg, &alice_pts, &bob_pts, rng(42), rng(43)).unwrap();
        assert_eq!(basic_a.clustering, enh_a.clustering, "{name}: alice");
        assert_eq!(basic_b.clustering, enh_b.clustering, "{name}: bob");
    }
}

#[test]
fn horizontal_agreement_with_centralized_is_high_but_not_exact() {
    // The paper's horizontal semantics cannot chain through the peer's
    // points. On dense well-mixed splits agreement is perfect; a planted
    // bridge breaks it. Both facts are part of the reproduction (E4).
    let params = DbscanParams {
        eps_sq: 4,
        min_pts: 2,
    };
    let cfg = ProtocolConfig::new(params, 20);

    // Bridge case: Alice's two groups connected only through Bob's point.
    let alice = vec![
        Point::new(vec![0]),
        Point::new(vec![1]),
        Point::new(vec![5]),
        Point::new(vec![6]),
    ];
    let bob = vec![Point::new(vec![3])];
    let (a, _) = run_horizontal_pair(&cfg, &alice, &bob, rng(50), rng(51)).unwrap();
    assert_eq!(a.clustering.num_clusters, 2, "bridge must not merge");

    let mut union = alice.clone();
    union.extend(bob.iter().cloned());
    let centralized = dbscan(&union, params);
    assert_eq!(centralized.num_clusters, 1, "centralized merges via bridge");

    let centralized_alice = ppds_dbscan::Clustering {
        labels: centralized.labels[..alice.len()].to_vec(),
        num_clusters: centralized.num_clusters,
    };
    let ri = eval::rand_index(&a.clustering, &centralized_alice);
    // Exactly 1/3 here: of the 6 point pairs, only the two within-group
    // pairs agree once the horizontal semantics split the bridge.
    assert!(ri < 1.0, "divergence expected, rand index = {ri}");
    assert!((ri - 1.0 / 3.0).abs() < 1e-12, "rand index = {ri}");
}

#[test]
fn all_partitionings_of_same_records_agree_where_semantics_coincide() {
    // Vertical and arbitrary protocols implement the same functionality
    // (exact DBSCAN on the join) through different crypto paths — they must
    // agree with each other on identical records.
    let quantizer = Quantizer::new(1.0, 50);
    let (records, _) = standard_blobs(&mut rng(60), 10, 2, 3, quantizer);
    let params = DbscanParams {
        eps_sq: 64,
        min_pts: 3,
    };
    let cfg = ProtocolConfig::new(params, 50);

    let vertical = VerticalPartition::split(&records, 1);
    let (v_out, _) = run_vertical_pair(&cfg, &vertical, rng(61), rng(62)).unwrap();

    let arbitrary = ArbitraryPartition::random(&mut rng(63), &records);
    let (ar_out, _) = run_arbitrary_pair(&cfg, &arbitrary, rng(64), rng(65)).unwrap();

    assert_eq!(v_out.clustering, ar_out.clustering);
}

#[test]
fn empty_and_singleton_inputs() {
    let params = DbscanParams {
        eps_sq: 4,
        min_pts: 2,
    };
    let cfg = ProtocolConfig::new(params, 10);

    // Alice empty, Bob has data.
    let bob = vec![Point::new(vec![0, 0]), Point::new(vec![1, 0])];
    let (a, b) = run_horizontal_pair(&cfg, &[], &bob, rng(70), rng(71)).unwrap();
    assert!(a.clustering.labels.is_empty());
    assert_eq!(b.clustering.num_clusters, 1);

    // Both singletons.
    let (a, b) = run_horizontal_pair(
        &cfg,
        &[Point::new(vec![0, 0])],
        &[Point::new(vec![1, 0])],
        rng(72),
        rng(73),
    )
    .unwrap();
    // Each party's single point is core (own 1 + peer 1 = 2 >= MinPts).
    assert_eq!(a.clustering.num_clusters, 1);
    assert_eq!(b.clustering.num_clusters, 1);
}

#[test]
fn dgk_backend_full_runs_at_realistic_domains() {
    // The bitwise comparator is fully cryptographic AND logarithmic, so —
    // unlike the faithful Yao backend — it can run complete clusterings at
    // the default σ = 20 mask width. All four protocol families.
    let params = DbscanParams {
        eps_sq: 8,
        min_pts: 3,
    };
    let cfg = ppdbscan::config::ProtocolConfig::new_with_dgk(params, 30);
    let alice = vec![
        Point::new(vec![0, 0]),
        Point::new(vec![2, 1]),
        Point::new(vec![20, 20]),
    ];
    let bob = vec![Point::new(vec![1, 1]), Point::new(vec![21, 21])];

    let (h_a, h_b) = run_horizontal_pair(&cfg, &alice, &bob, rng(90), rng(91)).unwrap();
    assert_eq!(
        h_a.clustering,
        dbscan_with_external_density(&alice, &bob, params)
    );
    assert_eq!(
        h_b.clustering,
        dbscan_with_external_density(&bob, &alice, params)
    );

    let (e_a, _) = run_enhanced_pair(&cfg, &alice, &bob, rng(92), rng(93)).unwrap();
    assert_eq!(e_a.clustering, h_a.clustering);

    let records: Vec<Point> = alice.iter().chain(&bob).cloned().collect();
    let vp = VerticalPartition::split(&records, 1);
    let (v_a, v_b) = run_vertical_pair(&cfg, &vp, rng(94), rng(95)).unwrap();
    assert_eq!(v_a.clustering, dbscan(&records, params));
    assert_eq!(v_b.clustering, v_a.clustering);

    let ap = ArbitraryPartition::random(&mut rng(96), &records);
    let (ar_a, _) = run_arbitrary_pair(&cfg, &ap, rng(97), rng(98)).unwrap();
    assert_eq!(ar_a.clustering, dbscan(&records, params));
}

#[test]
fn faithful_yao_full_run_small_instance() {
    // End-to-end with the real Algorithm 1 comparator everywhere: tiny
    // lattice so n0 stays tractable (~hundreds of decryptions/comparison).
    let params = DbscanParams {
        eps_sq: 2,
        min_pts: 2,
    };
    let cfg = ProtocolConfig::new_with_yao(params, 3);
    let alice = vec![Point::new(vec![0, 0]), Point::new(vec![3, 3])];
    let bob = vec![Point::new(vec![1, 0]), Point::new(vec![-3, 3])];
    let (a, b) = run_horizontal_pair(&cfg, &alice, &bob, rng(80), rng(81)).unwrap();
    assert_eq!(
        a.clustering,
        dbscan_with_external_density(&alice, &bob, params)
    );
    assert_eq!(
        b.clustering,
        dbscan_with_external_density(&bob, &alice, params)
    );

    let partition = VerticalPartition::split(
        &[
            Point::new(vec![0, 0]),
            Point::new(vec![1, 1]),
            Point::new(vec![3, -3]),
        ],
        1,
    );
    let (va, vb) = run_vertical_pair(&cfg, &partition, rng(82), rng(83)).unwrap();
    assert_eq!(va.clustering, vb.clustering);
}

/// In dimensions ≥ 3 the zero-sum blinding group's *closing* mask
/// balances the others and can reach `(dim−1)·mask_bound`, so the
/// multiplication reply's slot offset budgets `C² + dim·mask_bound`; an
/// offset that forgot the closing term would abort the session mid-run.
/// dim = 2 never exercises this (the closing mask is one bounded mask
/// negated), so this pins dim = 3..=6 against the plaintext reference.
#[test]
fn higher_dimensional_horizontal_matches_reference() {
    let params = DbscanParams {
        eps_sq: 81,
        min_pts: 3,
    };
    let cfg = ProtocolConfig::new(params, 60);
    for dim in 3usize..=6 {
        let quantizer = Quantizer::new(1.0, 60);
        let (records, _) = standard_blobs(&mut rng(40 + dim as u64), 4, 3, dim, quantizer);
        let (alice, bob) = split_alternating(&records);
        let (a, b) = run_horizontal_pair(&cfg, &alice, &bob, rng(7), rng(57)).unwrap();
        let expect_a = dbscan_with_external_density(&alice, &bob, params);
        let expect_b = dbscan_with_external_density(&bob, &alice, params);
        assert_eq!(a.clustering, expect_a, "dim {dim}: alice");
        assert_eq!(b.clustering, expect_b, "dim {dim}: bob");
    }
}

/// The fully cryptographic comparator on vertical data: every comparison
/// ships its masked verdict cells as packed words (at 256-bit keys, ~11
/// slots per word) and the labels are exactly plaintext DBSCAN's.
#[test]
fn dgk_backend_vertical_matches_plaintext() {
    let quantizer = Quantizer::new(1.0, 60);
    let (records, _) = standard_blobs(&mut rng(88), 3, 3, 2, quantizer);
    let partition = VerticalPartition::split(&records, 1);
    let params = DbscanParams {
        eps_sq: 81,
        min_pts: 2,
    };
    let mut cfg = ProtocolConfig::new(params, 60);
    cfg.comparator = Comparator::Dgk;
    let (a, b) = run_vertical_pair(&cfg, &partition, rng(5), rng(6)).unwrap();
    assert_eq!(a.clustering, dbscan(&records, params));
    assert_eq!(b.clustering, a.clustering);
}
