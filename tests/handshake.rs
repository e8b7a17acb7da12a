//! Handshake negative tests: any disagreement between the two halves must
//! fail fast on **both** sides with a typed
//! [`CoreError::HandshakeMismatch`] naming the offending field — never a
//! hang, never a generic decode error.

use ppdbscan::config::ProtocolConfig;
use ppdbscan::session::{Hello, Mode, Participant, PartyData, WIRE_VERSION};
use ppdbscan::CoreError;
use ppds_dbscan::{DbscanParams, Point};
use ppds_paillier::Keypair;
use ppds_smc::{setup, BackendKind, Party};
use ppds_transport::wire::{WireDecode, WireEncode};
use ppds_transport::{duplex, Channel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cfg(eps_sq: u64) -> ProtocolConfig {
    ProtocolConfig::new(DbscanParams { eps_sq, min_pts: 2 }, 10)
}

fn points() -> Vec<Point> {
    vec![Point::new(vec![0, 0]), Point::new(vec![1, 1])]
}

/// Runs two participants against each other and returns **both** sides'
/// results (unlike `run_participants`, which surfaces only the first
/// error).
fn run_both(
    alice: Participant,
    bob: Participant,
) -> (
    Result<ppdbscan::SessionOutcome, CoreError>,
    Result<ppdbscan::SessionOutcome, CoreError>,
) {
    let (mut chan_a, mut chan_b) = duplex();
    std::thread::scope(|scope| {
        let a = scope.spawn(move || alice.run(&mut chan_a));
        let b = scope.spawn(move || bob.run(&mut chan_b));
        (a.join().unwrap(), b.join().unwrap())
    })
}

/// Asserts one side failed with `HandshakeMismatch` on `field`, returning
/// `(ours, theirs)`.
fn expect_mismatch(
    side: &str,
    result: Result<ppdbscan::SessionOutcome, CoreError>,
    field: &str,
) -> (u64, u64) {
    match result {
        Err(CoreError::HandshakeMismatch {
            field: got,
            ours,
            theirs,
        }) => {
            assert_eq!(got, field, "{side}: wrong field named");
            (ours, theirs)
        }
        Err(other) => panic!("{side}: wanted HandshakeMismatch on {field}, got {other:?}"),
        Ok(_) => panic!("{side}: session ran despite {field} mismatch"),
    }
}

fn horizontal(c: ProtocolConfig, seed: u64) -> Participant {
    Participant::new(c)
        .data(PartyData::Horizontal(points()))
        .seed(seed)
}

#[test]
fn eps_sq_mismatch_fails_on_both_sides_naming_the_field() {
    let (a, b) = run_both(
        horizontal(cfg(4), 1).role(Party::Alice),
        horizontal(cfg(9), 2).role(Party::Bob),
    );
    let (a_ours, a_theirs) = expect_mismatch("alice", a, "eps_sq");
    let (b_ours, b_theirs) = expect_mismatch("bob", b, "eps_sq");
    assert_eq!((a_ours, a_theirs), (4, 9));
    assert_eq!((b_ours, b_theirs), (9, 4), "sides swapped symmetrically");
}

/// Configs validation refuses: the retired unbatched framing and unpacked
/// encoding (`batching` / `packing = false`), and a Paillier key too small
/// for one packed response slot. Each is a typed config error from
/// `validate()` and from `Participant::run` on either side — for modes
/// that validate before the handshake (horizontal, enhanced), and for the
/// retired knobs also one that validates its joint dimension after it
/// (vertical) — and from a mesh node; no frame ever reaches the peer.
#[test]
fn batching_off_is_a_typed_config_error_before_any_frame() {
    // 24 points, Eps² = 81, C = 60, σ = 20: masked products need 35-bit
    // slots, so a 32-bit key cannot carry one reply.
    let mut small_key = cfg(81);
    (small_key.coord_bound, small_key.key_bits) = (60, 32);
    let points24: Vec<Point> = (0..24i64)
        .map(|i| Point::new(vec![(i * 37) % 121 - 60, (i * 53) % 121 - 60]))
        .collect();
    let retired = |batching, packing| ProtocolConfig {
        batching,
        packing,
        ..cfg(4)
    };
    let cases = [
        (retired(false, true), "batching", points(), true),
        (retired(true, false), "packing", points(), true),
        (small_key, "slot", points24, false),
    ];
    for (bad, needle, pts, before_dimension_check) in cases {
        let is_config_error = |err: CoreError| match err {
            CoreError::Config(msg) => assert!(msg.contains(needle), "{msg}"),
            other => panic!("wanted a {needle} config error, got {other:?}"),
        };
        is_config_error(bad.validate(2).unwrap_err());
        let mut modes = vec![
            PartyData::Horizontal(pts.clone()),
            PartyData::Enhanced(pts.clone()),
        ];
        if before_dimension_check {
            modes.push(PartyData::Vertical(pts.clone()));
        }
        for data in modes {
            for role in [Party::Alice, Party::Bob] {
                let (mut chan, peer) = duplex();
                let err = Participant::new(bad)
                    .role(role)
                    .data(data.clone())
                    .seed(3)
                    .run(&mut chan)
                    .unwrap_err();
                is_config_error(err);
                assert_eq!(chan.metrics().total_bytes(), 0, "no frame sent");
                drop(peer);
            }
        }
        let (chan, _peer) = duplex();
        let mut mesh = [(1, chan)];
        let err = Participant::new(bad)
            .data(PartyData::Multiparty(pts))
            .seed(4)
            .run_mesh(&mut mesh, 0, 2)
            .unwrap_err();
        is_config_error(err);
        assert_eq!(mesh[0].1.metrics().total_bytes(), 0, "no mesh frame sent");
    }
}

#[test]
fn backend_mismatch_fails_on_both_sides_naming_the_field() {
    let (a, b) = run_both(
        horizontal(cfg(4), 15).role(Party::Alice),
        horizontal(cfg(4).with_backend(BackendKind::Sharing), 16).role(Party::Bob),
    );
    // Paillier = 0, Sharing = 1 on the wire.
    assert_eq!(expect_mismatch("alice", a, "backend"), (0, 1));
    assert_eq!(expect_mismatch("bob", b, "backend"), (1, 0));
}

#[test]
fn comparator_mismatch_fails_on_both_sides_naming_the_field() {
    let mut dgk = cfg(4);
    dgk.comparator = ppds_smc::compare::Comparator::Dgk;
    let (a, b) = run_both(
        horizontal(cfg(4), 5).role(Party::Alice),
        horizontal(dgk, 6).role(Party::Bob),
    );
    // Ideal = 1, Dgk = 2 on the wire.
    assert_eq!(expect_mismatch("alice", a, "comparator"), (1, 2));
    assert_eq!(expect_mismatch("bob", b, "comparator"), (2, 1));
}

/// A peer that completes the key exchange honestly, then sends the Hello
/// frame `hello_bytes`; returns the real horizontal participant's error.
fn run_against_hello(hello_bytes: Vec<u8>, seed: u64) -> CoreError {
    run_data_against_hello(PartyData::Horizontal(points()), hello_bytes, seed)
}

/// [`run_against_hello`] for any data view; a multiparty participant runs
/// as node 0 of a two-node mesh (the lower id plays Alice in the key
/// exchange).
fn run_data_against_hello(data: PartyData, hello_bytes: Vec<u8>, seed: u64) -> CoreError {
    let (mut real_chan, mut fake_chan) = duplex();
    let fake = std::thread::spawn(move || {
        let mut rng = StdRng::seed_from_u64(99);
        let kp = Keypair::generate(256, &mut rng);
        setup::exchange_keys_bob(&mut fake_chan, &kp).unwrap();
        fake_chan.send_bytes(&hello_bytes).unwrap();
        // Drain the real side's hello so its send doesn't block.
        let _theirs: Hello = fake_chan.recv().unwrap();
    });
    let participant = Participant::new(cfg(4)).data(data.clone()).seed(seed);
    let err = match data {
        PartyData::Multiparty(_) => participant
            .run_mesh(&mut [(1, real_chan)], 0, 2)
            .unwrap_err(),
        _ => participant
            .role(Party::Alice)
            .run(&mut real_chan)
            .unwrap_err(),
    };
    fake.join().unwrap();
    err
}

fn expect_wire_version_mismatch(err: CoreError, theirs_expected: u64) {
    match err {
        CoreError::HandshakeMismatch {
            field,
            ours,
            theirs,
        } => {
            assert_eq!(field, "wire_version");
            assert_eq!(ours, u64::from(WIRE_VERSION));
            assert_eq!(theirs, theirs_expected);
        }
        other => panic!("wanted HandshakeMismatch on wire_version, got {other:?}"),
    }
}

#[test]
fn wire_version_mismatch_is_a_typed_error_not_a_hang_or_decode_failure() {
    // A "future" (or past) peer: the real participant must reject it by
    // name — before any protocol message.
    let hello = Hello::for_session(&cfg(4), Mode::Horizontal, 2, 2).with_wire_version(8);
    expect_wire_version_mismatch(run_against_hello(hello.encode_to_vec(), 7), 8);
}

/// Appends one raw `(tag, value)` field to an encoded `Hello`. Frame
/// layout: version (u32 LE), field count (u32 LE), then (tag: u8,
/// value: u64 LE) pairs.
fn with_raw_field(mut frame: Vec<u8>, tag: u8, value: u64) -> Vec<u8> {
    let count = u32::from_le_bytes(frame[4..8].try_into().unwrap());
    frame[4..8].copy_from_slice(&(count + 1).to_le_bytes());
    frame.push(tag);
    frame.extend_from_slice(&value.to_le_bytes());
    frame
}

#[test]
fn v5_hello_with_the_batching_field_is_a_wire_version_mismatch() {
    // Wire v5 still negotiated the batching knob (field tag 11) and wire
    // v6 the packing knob (tag 12); a v7 participant refuses such peers by
    // version instead of silently ignoring the field.
    assert_eq!(WIRE_VERSION, 7);
    for (version, retired_tag, seed) in [(5u32, 11u8, 17u64), (6, 12, 18)] {
        let frame = Hello::for_session(&cfg(4), Mode::Horizontal, 2, 2)
            .with_wire_version(version)
            .encode_to_vec();
        let frame = with_raw_field(frame, retired_tag, 1);
        let decoded = Hello::decode_exact(&frame).unwrap();
        assert_eq!(decoded.wire_version, version);
        expect_wire_version_mismatch(run_against_hello(frame, seed), u64::from(version));
    }
}

/// An untrusted record count is bounded before anything is sized by it:
/// a peer advertising more records than one batch frame can carry is a
/// typed `record_count` mismatch in the handshake — never a
/// capacity-overflow panic or an allocation abort in the modes that size
/// per-query buffers by the peer's count.
#[test]
fn forged_record_count_is_a_typed_mismatch_not_an_abort() {
    let bound = ppds_transport::channel::MAX_FRAME_BYTES;
    let modes = [
        (Mode::Horizontal, PartyData::Horizontal(points())),
        (Mode::Enhanced, PartyData::Enhanced(points())),
        (Mode::Multiparty, PartyData::Multiparty(points())),
    ];
    for (mode, data) in modes {
        for forged in [bound + 1, u64::MAX] {
            let hello = Hello::for_session(&cfg(4), mode, forged as usize, 2);
            match run_data_against_hello(data.clone(), hello.encode_to_vec(), 19) {
                CoreError::Mismatch(msg) => assert!(msg.contains("record_count"), "{msg}"),
                other => panic!("{mode}/{forged}: wanted a record_count mismatch, got {other:?}"),
            }
        }
    }
}

#[test]
fn legacy_vec_u64_meta_frame_is_rejected_as_a_version_mismatch() {
    // The pre-session handshake sent a bare Vec<u64> of 11 magic numbers.
    // Its bytes decode leniently as a Hello whose "version" is the length
    // prefix (11), so a current participant rejects it with a typed
    // wire_version error instead of a decode failure mid-frame.
    let (mut real_chan, mut fake_chan) = duplex();
    let fake = std::thread::spawn(move || {
        let mut rng = StdRng::seed_from_u64(98);
        let kp = Keypair::generate(256, &mut rng);
        setup::exchange_keys_bob(&mut fake_chan, &kp).unwrap();
        let legacy_meta: Vec<u64> = vec![1, 2, 2, 10, 4, 2, 256, 1, 0, 20, 0];
        fake_chan.send(&legacy_meta).unwrap();
        let _theirs: Hello = fake_chan.recv().unwrap();
    });
    let err = horizontal(cfg(4), 8)
        .role(Party::Alice)
        .run(&mut real_chan)
        .unwrap_err();
    fake.join().unwrap();
    match err {
        CoreError::HandshakeMismatch { field, theirs, .. } => {
            assert_eq!(field, "wire_version");
            assert_eq!(theirs, 11, "the Vec length prefix reads as the version");
        }
        other => panic!("wanted HandshakeMismatch on wire_version, got {other:?}"),
    }
}

#[test]
fn selection_and_mask_bits_mismatches_are_also_typed() {
    let mut quickselect = cfg(4);
    quickselect.selection = ppds_smc::kth::SelectionMethod::QuickSelect;
    let (a, _b) = run_both(
        horizontal(cfg(4), 9).role(Party::Alice),
        horizontal(quickselect, 10).role(Party::Bob),
    );
    expect_mismatch("alice", a, "selection");

    let mut wide = cfg(4);
    wide.mask_bits = 8;
    let (a, _b) = run_both(
        horizontal(cfg(4), 11).role(Party::Alice),
        horizontal(wide, 12).role(Party::Bob),
    );
    assert_eq!(expect_mismatch("alice", a, "mask_bits"), (20, 8));
}
