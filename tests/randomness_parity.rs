//! Randomness-discipline parity: in a K-party mesh, each pairwise
//! session's streams are keyed by the peer's id, so changing one peer's
//! private data never shifts the randomness (most visibly: the
//! Figure-1-defense permutations) any *other* pair of parties uses with
//! each other.

mod common;

use common::run_multiparty;
use ppds::ppdbscan::config::ProtocolConfig;
use ppds::ppds_dbscan::{DbscanParams, Point};
use ppds::ppds_smc::compare::Comparator;

/// Mesh sessions derive their randomness as `ctx.narrow("mesh").at(peer_id)`:
/// keyed by the peer's global id, not by traffic order. Changing party 0's
/// private data therefore cannot shift a single byte of the randomness the
/// party-1 ↔ party-2 pair uses — in particular the DGK comparator's
/// value-dependent rejection sampling while serving party 0 no longer
/// leaks into the Figure-1-defense permutations party 1 later draws for
/// party 2's queries (under one threaded stream per node, it did).
#[test]
fn mesh_streams_are_keyed_per_peer() {
    let mut cfg = ProtocolConfig::new(
        DbscanParams {
            eps_sq: 4,
            min_pts: 3,
        },
        60,
    );
    cfg.comparator = Comparator::Dgk; // value-dependent draws: the sharp case
    cfg.key_bits = 64;

    // Parties 1 and 2: interleaved tight cluster, lots of cross matches
    // (and thus permuted own#idx leakage on both sides). Party 0: same
    // record count in both variants, far from everyone — its *values*
    // change, its counts contribution (zero) does not.
    let party1 = vec![
        Point::new(vec![0, 0]),
        Point::new(vec![1, 1]),
        Point::new(vec![0, 2]),
        Point::new(vec![2, 0]),
    ];
    let party2 = vec![
        Point::new(vec![1, 0]),
        Point::new(vec![0, 1]),
        Point::new(vec![2, 1]),
    ];
    let far_a = vec![Point::new(vec![50, 50]), Point::new(vec![-50, 40])];
    let far_b = vec![Point::new(vec![44, -51]), Point::new(vec![-48, -39])];

    let run = |party0: &[Point]| {
        run_multiparty(
            &cfg,
            &[party0.to_vec(), party1.clone(), party2.clone()],
            977,
        )
        .unwrap()
    };
    let out_a = run(&far_a);
    let out_b = run(&far_b);

    // The pinned pair (parties 1 and 2) must be bit-for-bit unaffected.
    for party in [1usize, 2] {
        assert_eq!(
            out_a[party].clustering, out_b[party].clustering,
            "party {party}: labels shifted by party 0's data"
        );
        assert_eq!(
            out_a[party].leakage, out_b[party].leakage,
            "party {party}: permuted leakage order shifted by party 0's data"
        );
        assert_eq!(
            out_a[party].yao, out_b[party].yao,
            "party {party}: yao ledger"
        );
    }
    // Sanity: the scenario actually exercises permuted own-point leakage.
    assert!(
        out_a[1].leakage.count_kind("own_point_matched") >= 3,
        "test must observe enough matches for a permutation shift to show"
    );
}
