//! Failure injection: a semi-honest implementation still has to fail
//! *cleanly* on malformed input — typed errors, never panics, never wrong
//! answers — because in deployment the peer is a different codebase.

use ppdbscan::config::ProtocolConfig;
use ppdbscan::session::{Participant, PartyData};
use ppdbscan::CoreError;
use ppds_bigint::BigInt;
use ppds_bigint::BigUint;
use ppds_dbscan::{DbscanParams, Point};
use ppds_paillier::Keypair;
use ppds_smc::compare::{compare_batch_bob, CmpOp, Comparator, ComparisonDomain};
use ppds_smc::millionaires::{yao_bob, YaoConfig};
use ppds_smc::multiplication::mul_batches_peer;
use ppds_smc::{setup, Party, ProtocolContext, SmcError};
use ppds_transport::{duplex, Channel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn test_keypair() -> Keypair {
    Keypair::generate(128, &mut rng(0))
}

/// The peer side of one multiplication (a one-group, one-element batch)
/// against whatever frame the fake keyholder already queued.
fn one_product_peer<C: Channel>(chan: &mut C, kp: &Keypair, seed: u64) -> SmcError {
    let ctx = ProtocolContext::new(seed);
    let mut cfg = ProtocolConfig::new(
        DbscanParams {
            eps_sq: 4,
            min_pts: 2,
        },
        10,
    );
    cfg.key_bits = kp.public.bits();
    let (packing, _) = ppdbscan::domain::response_packings(&cfg, 1).unwrap();
    mul_batches_peer(
        chan,
        &kp.public,
        &[vec![BigInt::from_i64(1)]],
        |_| vec![BigInt::from_i64(3)],
        |g| ctx.at(g as u64),
        &packing,
    )
    .unwrap_err()
}

#[test]
fn garbage_public_key_is_rejected_not_panicking() {
    let (mut a, mut b) = duplex();
    a.send(&BigUint::from_u64(12)).unwrap(); // even "modulus"
    let err = setup::recv_public_key(&mut b).unwrap_err();
    assert!(matches!(err, SmcError::Crypto(_)));
}

#[test]
fn zero_ciphertext_in_multiplication_is_crypto_error() {
    let kp = test_keypair();
    let (mut a, mut b) = duplex();
    a.send_batch(&[vec![BigUint::zero()]]).unwrap();
    let err = one_product_peer(&mut b, &kp, 1);
    assert!(matches!(err, SmcError::Crypto(_)));
}

#[test]
fn truncated_yao_sequence_is_protocol_error() {
    let kp = test_keypair();
    let config = YaoConfig { n0: 8 };
    let (mut alice_side, mut bob_side) = duplex();
    // Fake "Alice": accept Bob's probe, answer with a too-short sequence.
    let handle = std::thread::spawn(move || {
        let _probe: BigUint = alice_side.recv().unwrap();
        let p = BigUint::from_u64(101);
        let seq = vec![BigUint::from_u64(5); 3]; // should be 8
        alice_side.send(&(p, seq)).unwrap();
        // Bob errors out before step 7; nothing else to do.
    });
    let err = yao_bob(
        &mut bob_side,
        &kp.public,
        4,
        &config,
        &ProtocolContext::new(2),
    )
    .unwrap_err();
    assert!(matches!(err, SmcError::Protocol(_)));
    handle.join().unwrap();
}

#[test]
fn degenerate_yao_modulus_is_protocol_error() {
    let kp = test_keypair();
    let config = YaoConfig { n0: 4 };
    let (mut alice_side, mut bob_side) = duplex();
    let handle = std::thread::spawn(move || {
        let _probe: BigUint = alice_side.recv().unwrap();
        let p = BigUint::one(); // degenerate modulus
        let seq = vec![BigUint::zero(); 4];
        alice_side.send(&(p, seq)).unwrap();
    });
    let err = yao_bob(
        &mut bob_side,
        &kp.public,
        2,
        &config,
        &ProtocolContext::new(3),
    )
    .unwrap_err();
    assert!(matches!(err, SmcError::Protocol(_)));
    handle.join().unwrap();
}

#[test]
fn peer_disconnect_mid_protocol_is_transport_error() {
    let kp = test_keypair();
    let domain = ComparisonDomain::symmetric(10);
    let (alice_side, mut bob_side) = duplex();
    drop(alice_side); // peer vanishes before the first message
    let err = compare_batch_bob(
        Comparator::Ideal,
        &mut bob_side,
        &kp.public,
        &[3],
        CmpOp::Lt,
        &domain,
        &ProtocolContext::new(4),
    )
    .unwrap_err();
    assert!(matches!(err, SmcError::Transport(_)));
}

#[test]
fn wrong_typed_message_is_decode_error_not_panic() {
    let kp = test_keypair();
    let (mut a, mut b) = duplex();
    // The responder expects a batch of ciphertext groups; send a bool.
    a.send(&true).unwrap();
    let err = one_product_peer(&mut b, &kp, 5);
    assert!(matches!(err, SmcError::Transport(_)));
}

#[test]
fn full_driver_surfaces_peer_garbage_as_error() {
    // A "peer" that answers the key exchange with nonsense: the real party
    // must return an error (never hang, never panic).
    let cfg = ProtocolConfig::new(
        DbscanParams {
            eps_sq: 4,
            min_pts: 2,
        },
        10,
    );
    let points = vec![Point::new(vec![0, 0])];
    let (mut honest, mut fake) = duplex();
    let handle = std::thread::spawn(move || {
        let _their_n: BigUint = fake.recv().unwrap();
        fake.send(&BigUint::from_u64(6)).unwrap(); // even, tiny "modulus"
                                                   // Keep the channel open so the honest side isn't just disconnected.
        std::thread::sleep(std::time::Duration::from_millis(50));
    });
    let err = Participant::new(cfg)
        .role(Party::Alice)
        .data(PartyData::Horizontal(points))
        .rng(rng(6))
        .run(&mut honest)
        .unwrap_err();
    assert!(matches!(err, CoreError::Smc(_)));
    handle.join().unwrap();
}

#[test]
fn mode_mismatch_between_protocols_is_detected() {
    // One side runs horizontal, the other vertical: handshake must catch
    // it, on both sides, naming the mode field.
    let cfg = ProtocolConfig::new(
        DbscanParams {
            eps_sq: 4,
            min_pts: 2,
        },
        10,
    );
    let points = vec![Point::new(vec![0, 0]), Point::new(vec![1, 1])];
    let result = ppdbscan::session::run_participants(
        Participant::new(cfg)
            .role(Party::Alice)
            .data(PartyData::Horizontal(points.clone()))
            .rng(rng(7)),
        Participant::new(cfg)
            .role(Party::Bob)
            .data(PartyData::Vertical(points))
            .rng(rng(8)),
    );
    match result.unwrap_err() {
        CoreError::HandshakeMismatch { field, .. } => assert_eq!(field, "mode"),
        other => panic!("wanted HandshakeMismatch on mode, got {other:?}"),
    }
}
