//! Plaintext-slot packing parity: for every protocol family the packed
//! transport must produce
//! **byte-identical labels, leakage logs, and Yao ledgers** to the
//! unpacked reference under the same seeds — packing changes how masked
//! responses ride the wire, never what the protocol computes or reveals —
//! while cutting the ciphertext-heavy response bytes (and with them the
//! keyholder's decryption bill) by the packing factor.

mod common;

use common::{
    rng, run_arbitrary_pair, run_enhanced_pair, run_horizontal_pair, run_multiparty,
    run_vertical_pair,
};
use ppds::ppdbscan::config::ProtocolConfig;
use ppds::ppdbscan::session::{Participant, PartyData};
use ppds::ppdbscan::{ArbitraryPartition, PartyOutput, VerticalPartition};
use ppds::ppds_dbscan::datagen::{split_alternating, standard_blobs};
use ppds::ppds_dbscan::{dbscan, DbscanParams, Point, Quantizer};
use ppds::ppds_smc::compare::Comparator;
use ppds::ppds_smc::kth::SelectionMethod;
use ppds::ppds_smc::Party;

fn blobs(n: usize, seed: u64) -> Vec<Point> {
    let quantizer = Quantizer::new(1.0, 60);
    let (points, _) = standard_blobs(&mut rng(seed), (n / 3).max(1), 3, 2, quantizer);
    points
}

fn base_cfg() -> ProtocolConfig {
    ProtocolConfig::new(
        DbscanParams {
            eps_sq: 81,
            min_pts: 3,
        },
        60,
    )
}

/// Labels, leakage, and modeled Yao cost must be identical; total bytes
/// must drop by at least `min_byte_factor` (0.0 = don't check).
fn assert_packing_parity(
    name: &str,
    unpacked: &(PartyOutput, PartyOutput),
    packed: &(PartyOutput, PartyOutput),
    min_byte_factor: f64,
) {
    for (side, (u, p)) in [
        ("alice", (&unpacked.0, &packed.0)),
        ("bob", (&unpacked.1, &packed.1)),
    ] {
        assert_eq!(
            u.clustering, p.clustering,
            "{name}/{side}: labels must be byte-identical"
        );
        assert_eq!(
            u.leakage, p.leakage,
            "{name}/{side}: packing must not change leakage"
        );
        assert_eq!(
            u.yao, p.yao,
            "{name}/{side}: same comparisons, same modeled Yao cost"
        );
        let (ub, pb) = (u.traffic.total_bytes(), p.traffic.total_bytes());
        assert!(
            ub as f64 >= min_byte_factor * pb as f64,
            "{name}/{side}: bytes {ub} unpacked vs {pb} packed \
             (wanted >= {min_byte_factor}x fewer)"
        );
    }
}

/// Acceptance criterion: a vertical run must report ≥ 5× fewer wire bytes
/// packed, with byte-identical labels, leakage, and ledger.
#[test]
fn vertical_packed_cuts_bytes_5x_with_identical_output() {
    let records = blobs(21, 4242);
    let partition = VerticalPartition::split(&records, 1);
    let cfg = base_cfg();
    let unpacked = run_vertical_pair(&cfg, &partition, rng(1), rng(2)).unwrap();
    let packed = run_vertical_pair(&cfg.with_packing(true), &partition, rng(1), rng(2)).unwrap();
    assert_packing_parity("vertical", &unpacked, &packed, 5.0);
    assert_eq!(packed.0.clustering, dbscan(&records, cfg.params));
    println!(
        "vertical: bytes {} -> {}",
        unpacked.0.traffic.total_bytes(),
        packed.0.traffic.total_bytes()
    );
}

// The `_both_batchings` / `_and_batchings` suffixes below predate the
// single round-batched framing; the names are kept so the suite's test ids
// stay stable. Each test now pins its mode in that one framing.
#[test]
fn horizontal_packing_parity_both_batchings() {
    let (alice, bob) = split_alternating(&blobs(18, 9007));
    let cfg = base_cfg();
    let unpacked = run_horizontal_pair(&cfg, &alice, &bob, rng(3), rng(53)).unwrap();
    let packed =
        run_horizontal_pair(&cfg.with_packing(true), &alice, &bob, rng(3), rng(53)).unwrap();
    // The multiplication reply leg packs (dim=2 products per word pair
    // stay small), the comparison verdict padding packs ~11x.
    assert_packing_parity("horizontal", &unpacked, &packed, 2.0);
}

#[test]
fn enhanced_packing_parity_both_selections_and_batchings() {
    let (alice, bob) = split_alternating(&blobs(16, 778));
    for (label, selection) in [
        ("repeated-min", SelectionMethod::RepeatedMin),
        ("quickselect", SelectionMethod::QuickSelect),
    ] {
        let mut cfg = base_cfg();
        cfg.params.min_pts = 5; // force joint core tests to engage
        cfg.selection = selection;
        let unpacked = run_enhanced_pair(&cfg, &alice, &bob, rng(11), rng(61)).unwrap();
        let packed =
            run_enhanced_pair(&cfg.with_packing(true), &alice, &bob, rng(11), rng(61)).unwrap();
        assert_packing_parity(&format!("enhanced/{label}"), &unpacked, &packed, 1.0);
        let engaged = unpacked.0.leakage.count_kind("threshold_rank")
            + unpacked.1.leakage.count_kind("threshold_rank")
            > 0;
        assert!(engaged, "{label}: test must exercise the selection");
    }
}

/// Regression: in dimensions ≥ 3 the zero-sum blinding group's *closing*
/// mask balances the others and can reach `(dim−1)·mask_bound` — the
/// packing offset must budget for it, or packed multiplication legs abort
/// mid-session. dim = 2 never exercises this (the closing mask is just
/// one bounded mask negated), so this pins dim = 3 and 4 explicitly.
#[test]
fn higher_dimensional_packing_parity() {
    for dim in [3usize, 4] {
        let quantizer = Quantizer::new(1.0, 60);
        let (records, _) = standard_blobs(&mut rng(40 + dim as u64), 4, 3, dim, quantizer);
        let (alice, bob) = split_alternating(&records);
        let cfg = base_cfg();
        let unpacked = run_horizontal_pair(&cfg, &alice, &bob, rng(7), rng(57)).unwrap();
        let packed =
            run_horizontal_pair(&cfg.with_packing(true), &alice, &bob, rng(7), rng(57)).unwrap();
        assert_packing_parity(&format!("horizontal/dim={dim}"), &unpacked, &packed, 1.5);
    }
}

#[test]
fn arbitrary_packing_parity_both_batchings() {
    let records = blobs(12, 3021);
    let partition = ArbitraryPartition::random(&mut rng(21), &records);
    let cfg = base_cfg();
    let unpacked = run_arbitrary_pair(&cfg, &partition, rng(5), rng(55)).unwrap();
    let packed = run_arbitrary_pair(&cfg.with_packing(true), &partition, rng(5), rng(55)).unwrap();
    assert_packing_parity("arbitrary", &unpacked, &packed, 2.0);
}

#[test]
fn multiparty_packing_parity() {
    let all = blobs(15, 56);
    let parties: Vec<Vec<Point>> = (0..3)
        .map(|p| {
            all.iter()
                .enumerate()
                .filter(|(i, _)| i % 3 == p)
                .map(|(_, pt)| pt.clone())
                .collect()
        })
        .collect();
    let cfg = base_cfg();
    let unpacked = run_multiparty(&cfg, &parties, 7).unwrap();
    let packed = run_multiparty(&cfg.with_packing(true), &parties, 7).unwrap();
    for (i, (u, p)) in unpacked.iter().zip(&packed).enumerate() {
        assert_eq!(u.clustering, p.clustering, "party {i} labels");
        assert_eq!(u.leakage, p.leakage, "party {i} leakage");
        assert_eq!(u.yao, p.yao, "party {i} ledger");
        assert!(
            u.traffic.total_bytes() > p.traffic.total_bytes(),
            "party {i}: bytes {} vs {}",
            u.traffic.total_bytes(),
            p.traffic.total_bytes()
        );
    }
}

/// The fully cryptographic comparator under packing: the DGK masked
/// verdict vector ships as packed words (at 256-bit keys, ~11 slots per
/// word), with outcomes, leakage order, and ledger untouched.
#[test]
fn dgk_backend_packing_parity_on_vertical() {
    let records = blobs(9, 88);
    let partition = VerticalPartition::split(&records, 1);
    let mut cfg = ProtocolConfig::new(
        DbscanParams {
            eps_sq: 81,
            min_pts: 2,
        },
        60,
    );
    cfg.comparator = Comparator::Dgk;
    let unpacked = run_vertical_pair(&cfg, &partition, rng(5), rng(6)).unwrap();
    let packed = run_vertical_pair(&cfg.with_packing(true), &partition, rng(5), rng(6)).unwrap();
    // The DGK request leg (per-bit ciphertexts) cannot pack, so the
    // end-to-end cut is bounded by ~2x; the reply-leg cut is ~11x (pinned
    // at the smc layer).
    assert_packing_parity("vertical-dgk", &unpacked, &packed, 1.3);
}

/// Randomizer-pool opt-in: a pooled session consumes precomputed `r^n`
/// factors, which changes ciphertext bytes but never outcomes — labels,
/// leakage, and ledgers match the unpooled run exactly.
#[test]
fn pooled_sessions_match_unpooled_outputs() {
    let (alice_pts, bob_pts) = split_alternating(&blobs(12, 311));
    let cfg = base_cfg().with_packing(true);
    let run = |pooled: bool| {
        let participant = |role, pts: &[Point], seed| {
            let p = Participant::new(cfg)
                .role(role)
                .data(PartyData::Horizontal(pts.to_vec()))
                .seed(seed);
            if pooled {
                p.pooled_randomizers(64, 2)
            } else {
                p
            }
        };
        let (a, b) = ppds::ppdbscan::session::run_participants(
            participant(Party::Alice, &alice_pts, 40),
            participant(Party::Bob, &bob_pts, 41),
        )
        .unwrap();
        (a, b)
    };
    let (plain_a, plain_b) = run(false);
    let (pooled_a, pooled_b) = run(true);
    assert_eq!(plain_a.output.clustering, pooled_a.output.clustering);
    assert_eq!(plain_b.output.clustering, pooled_b.output.clustering);
    assert_eq!(plain_a.output.leakage, pooled_a.output.leakage);
    assert_eq!(plain_b.output.leakage, pooled_b.output.leakage);
    assert_eq!(plain_a.output.yao, pooled_a.output.yao);
    assert_eq!(plain_b.output.yao, pooled_b.output.yao);
    assert!(pooled_a.meta.packing, "meta records the knob");
}

#[test]
fn session_meta_reports_packing() {
    let records = blobs(6, 91);
    let partition = VerticalPartition::split(&records, 1);
    let cfg = base_cfg().with_packing(true);
    let (a, b) = ppds::ppdbscan::session::run_participants(
        Participant::new(cfg)
            .role(Party::Alice)
            .data(PartyData::Vertical(partition.alice.clone()))
            .seed(1),
        Participant::new(cfg)
            .role(Party::Bob)
            .data(PartyData::Vertical(partition.bob.clone()))
            .seed(2),
    )
    .unwrap();
    assert!(a.meta.packing && b.meta.packing);
}
