//! Deployment and accounting tests: every protocol mode over real TCP
//! sockets with the same outputs as in memory, the round-batching bound,
//! and the communication-complexity shape checks behind experiments E1/E2.

mod common;

use common::{rng, run_horizontal_pair, run_vertical_pair};
use ppdbscan::config::ProtocolConfig;
use ppdbscan::session::{
    run_mesh_local, run_participants, Mode, Participant, PartyData, SessionOutcome, WIRE_VERSION,
};
use ppdbscan::{ArbitraryPartition, PartyOutput, VerticalPartition};
use ppds_dbscan::datagen::{split_alternating, standard_blobs};
use ppds_dbscan::{dbscan, dbscan_with_external_density, DbscanParams, Point, Quantizer};
use ppds_smc::Party;
use ppds_transport::tcp::TcpChannel;
use std::net::TcpListener;

fn cfg(eps_sq: u64, min_pts: usize, bound: i64) -> ProtocolConfig {
    ProtocolConfig::new(DbscanParams { eps_sq, min_pts }, bound)
}

/// Runs one participant over a real TCP socket: the accepting side listens
/// on an ephemeral port, the connecting side dials it.
fn over_tcp(
    listener: Option<TcpListener>,
    addr: std::net::SocketAddr,
    participant: Participant,
) -> SessionOutcome {
    let mut chan = match listener {
        Some(listener) => TcpChannel::accept(&listener).unwrap(),
        None => TcpChannel::connect(addr).unwrap(),
    };
    participant.run(&mut chan).unwrap()
}

fn blobs(n: usize, seed: u64) -> Vec<Point> {
    let quantizer = Quantizer::new(1.0, 60);
    let (points, _) = standard_blobs(&mut rng(seed), (n / 3).max(1), 3, 2, quantizer);
    points
}

fn base_cfg() -> ProtocolConfig {
    cfg(81, 3, 60)
}

/// Asserts labels, leakage, Yao ledger, and the complete traffic snapshot
/// are identical.
fn assert_output_parity(name: &str, expected: &PartyOutput, got: &PartyOutput) {
    assert_eq!(expected.clustering, got.clustering, "{name}: labels");
    assert_eq!(expected.leakage, got.leakage, "{name}: LeakageLog");
    assert_eq!(expected.yao, got.yao, "{name}: YaoLedger");
    assert_eq!(expected.traffic, got.traffic, "{name}: MetricsSnapshot");
}

const TWO_PARTY_MODES: [Mode; 4] = [
    Mode::Horizontal,
    Mode::Enhanced,
    Mode::Vertical,
    Mode::Arbitrary,
];

/// The two parties' `PartyData` views of one mode over one dataset.
fn mode_views(mode: Mode, records: &[Point], seed: u64) -> (PartyData, PartyData) {
    match mode {
        Mode::Horizontal => {
            let (a, b) = split_alternating(records);
            (PartyData::Horizontal(a), PartyData::Horizontal(b))
        }
        Mode::Enhanced => {
            let (a, b) = split_alternating(records);
            (PartyData::Enhanced(a), PartyData::Enhanced(b))
        }
        Mode::Vertical => {
            let part = VerticalPartition::split(records, 1);
            (
                PartyData::Vertical(part.alice),
                PartyData::Vertical(part.bob),
            )
        }
        Mode::Arbitrary => {
            let part = ArbitraryPartition::random(&mut rng(seed ^ 0xA5A5), records);
            (
                PartyData::Arbitrary(part.alice_values),
                PartyData::Arbitrary(part.bob_values),
            )
        }
        other => panic!("mode_views covers two-party modes only, got {other}"),
    }
}

/// Runs one two-party mode over real TCP sockets via `Participant` and
/// returns `(alice, bob)` outcomes.
fn tcp_pair(
    cfg: ProtocolConfig,
    data_a: PartyData,
    data_b: PartyData,
    seed: u64,
) -> (SessionOutcome, SessionOutcome) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let alice = Participant::new(cfg)
        .role(Party::Alice)
        .data(data_a)
        .seed(seed);
    let alice_thread = std::thread::spawn(move || over_tcp(Some(listener), addr, alice));
    let bob = Participant::new(cfg)
        .role(Party::Bob)
        .data(data_b)
        .seed(seed + 1);
    let bob = over_tcp(None, addr, bob);
    (alice_thread.join().unwrap(), bob)
}

#[test]
fn every_two_party_mode_runs_over_tcp_with_identical_outputs() {
    let records = blobs(9, 404);
    let mut cfg = base_cfg();
    cfg.key_bits = 128; // four modes × two transports: keep the test quick
    for mode in TWO_PARTY_MODES {
        let seed = 31;
        let (data_a, data_b) = mode_views(mode, &records, seed);
        let (mem_a, mem_b) = run_participants(
            Participant::new(cfg)
                .role(Party::Alice)
                .data(data_a.clone())
                .seed(seed),
            Participant::new(cfg)
                .role(Party::Bob)
                .data(data_b.clone())
                .seed(seed + 1),
        )
        .unwrap();
        let (tcp_a, tcp_b) = tcp_pair(cfg, data_a, data_b, seed);
        assert_output_parity(&format!("{mode}/tcp/alice"), &mem_a.output, &tcp_a.output);
        assert_output_parity(&format!("{mode}/tcp/bob"), &mem_b.output, &tcp_b.output);
        assert_eq!(tcp_a.meta, mem_a.meta, "{mode}: negotiated metadata");
        assert_eq!(tcp_a.meta.wire_version, WIRE_VERSION);
        assert_eq!(tcp_a.meta.mode, mode);
    }
}

#[test]
fn multiparty_runs_over_tcp_mesh_with_identical_outputs() {
    let all = blobs(9, 606);
    let parties: Vec<Vec<Point>> = (0..3)
        .map(|p| {
            all.iter()
                .enumerate()
                .filter(|(i, _)| i % 3 == p)
                .map(|(_, pt)| pt.clone())
                .collect()
        })
        .collect();
    let mut cfg = base_cfg();
    cfg.key_bits = 128;
    let seed = 13u64;
    let reference = run_mesh_local(&cfg, &parties, seed).unwrap();

    // Build a real TCP full mesh: one socket pair per party pair, the
    // lower id accepting.
    let k = parties.len();
    let mut mesh: Vec<Vec<(usize, TcpChannel)>> = (0..k).map(|_| Vec::new()).collect();
    for i in 0..k {
        for j in i + 1..k {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let accept = std::thread::spawn(move || TcpChannel::accept(&listener).unwrap());
            let connect = TcpChannel::connect(addr).unwrap();
            mesh[i].push((j, accept.join().unwrap()));
            mesh[j].push((i, connect));
        }
    }

    let mut handles = Vec::new();
    for (my_id, (mut peers, points)) in mesh.drain(..).zip(parties.iter()).enumerate() {
        let participant = Participant::new(cfg)
            .data(PartyData::Multiparty(points.clone()))
            .seed(seed.wrapping_add(my_id as u64));
        handles.push(std::thread::spawn(move || {
            participant.run_mesh(&mut peers, my_id, 3).unwrap()
        }));
    }
    for (i, handle) in handles.into_iter().enumerate() {
        let outcome = handle.join().unwrap();
        assert_output_parity(
            &format!("multiparty/tcp/party{i}"),
            &reference[i].output,
            &outcome.output,
        );
        assert_eq!(outcome.meta, reference[i].meta, "party {i}: metadata");
    }
}

/// The round-batching bound: a vertical run at n ≥ 64 ships its region
/// queries in at most a tenth as many wire rounds as logical messages (the
/// paper's per-comparison framing would pay one round per message), with
/// the clustering still exactly the centralized reference.
#[test]
fn vertical_n64_rounds_are_at_most_a_tenth_of_logical_messages() {
    let records = blobs(66, 4242);
    assert!(records.len() >= 64, "need n >= 64, got {}", records.len());
    let partition = VerticalPartition::split(&records, 1);
    let cfg = base_cfg();
    let (a, b) = run_vertical_pair(&cfg, &partition, rng(1), rng(2)).unwrap();
    assert_eq!(a.clustering, dbscan(&records, cfg.params));
    assert_eq!(b.clustering, a.clustering);
    for (side, out) in [("alice", &a), ("bob", &b)] {
        let (rounds, messages) = (out.traffic.total_rounds(), out.traffic.total_messages());
        assert!(
            rounds * 10 <= messages,
            "{side}: {rounds} wire rounds for {messages} logical messages (wanted <= 1/10)"
        );
    }
}

#[test]
fn horizontal_protocol_over_real_tcp_sockets() {
    let alice = vec![
        Point::new(vec![0, 0]),
        Point::new(vec![1, 1]),
        Point::new(vec![10, 10]),
    ];
    let bob = vec![Point::new(vec![0, 1]), Point::new(vec![11, 10])];
    let c = cfg(4, 3, 15);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let alice_participant = Participant::new(c)
        .role(Party::Alice)
        .data(PartyData::Horizontal(alice.clone()))
        .rng(rng(1));
    let alice_thread =
        std::thread::spawn(move || over_tcp(Some(listener), addr, alice_participant));
    let b_outcome = over_tcp(
        None,
        addr,
        Participant::new(c)
            .role(Party::Bob)
            .data(PartyData::Horizontal(bob.clone()))
            .rng(rng(2)),
    );
    let a_outcome = alice_thread.join().unwrap();
    let (a_out, b_out) = (&a_outcome.output, &b_outcome.output);

    assert_eq!(
        a_out.clustering,
        dbscan_with_external_density(&alice, &bob, c.params)
    );
    assert_eq!(
        b_out.clustering,
        dbscan_with_external_density(&bob, &alice, c.params)
    );
    // The negotiated metadata survives the real socket unchanged.
    assert_eq!(a_outcome.meta.wire_version, WIRE_VERSION);
    assert_eq!(a_outcome.meta.peers[0].n, bob.len());
    assert_eq!(b_outcome.meta.peers[0].n, alice.len());
    // TCP and in-memory transports must charge identical traffic: with the
    // same seeds the transcript is identical, so the full MetricsSnapshot
    // (bytes and messages, both directions) must match exactly.
    let (mem_a, mem_b) = run_horizontal_pair(&c, &alice, &bob, rng(1), rng(2)).unwrap();
    assert_eq!(a_out.traffic, mem_a.traffic);
    assert_eq!(b_out.traffic, mem_b.traffic);
    assert_eq!(a_out.traffic.bytes_sent, mem_b.traffic.bytes_received);
}

#[test]
fn vertical_protocol_over_real_tcp_sockets() {
    let records = vec![
        Point::new(vec![0, 0]),
        Point::new(vec![1, 1]),
        Point::new(vec![9, 9]),
        Point::new(vec![1, 0]),
    ];
    let partition = VerticalPartition::split(&records, 1);
    let c = cfg(2, 2, 10);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let alice_participant = Participant::new(c)
        .role(Party::Alice)
        .data(PartyData::Vertical(partition.alice.clone()))
        .rng(rng(3));
    let alice_thread =
        std::thread::spawn(move || over_tcp(Some(listener), addr, alice_participant));
    let b_out = over_tcp(
        None,
        addr,
        Participant::new(c)
            .role(Party::Bob)
            .data(PartyData::Vertical(partition.bob.clone()))
            .rng(rng(4)),
    )
    .output;
    let a_out = alice_thread.join().unwrap().output;

    let reference = dbscan(&records, c.params);
    assert_eq!(a_out.clustering, reference);
    assert_eq!(b_out.clustering, reference);
}

#[test]
fn batched_vertical_protocol_over_real_tcp_sockets() {
    // The round-batched pipeline on its target deployment path: real
    // sockets. Same labels as the in-memory run, byte-identical traffic
    // snapshot (including the rounds counters), and the round collapse
    // visible end to end.
    let records: Vec<Point> = (0..10)
        .map(|i| Point::new(vec![(i % 5) * 2, i / 5]))
        .collect();
    let partition = VerticalPartition::split(&records, 1);
    let c = cfg(2, 2, 10);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let alice_participant = Participant::new(c)
        .role(Party::Alice)
        .data(PartyData::Vertical(partition.alice.clone()))
        .rng(rng(30));
    let alice_thread =
        std::thread::spawn(move || over_tcp(Some(listener), addr, alice_participant));
    let b_outcome = over_tcp(
        None,
        addr,
        Participant::new(c)
            .role(Party::Bob)
            .data(PartyData::Vertical(partition.bob.clone()))
            .rng(rng(31)),
    );
    let a_outcome = alice_thread.join().unwrap();
    let (a_out, b_out) = (a_outcome.output, b_outcome.output);

    assert_eq!(a_out.clustering, dbscan(&records, c.params));
    let (mem_a, mem_b) = run_vertical_pair(&c, &partition, rng(30), rng(31)).unwrap();
    assert_eq!(a_out.traffic, mem_a.traffic, "TCP batch accounting parity");
    assert_eq!(b_out.traffic, mem_b.traffic);
    assert!(
        a_out.traffic.total_messages() >= 3 * a_out.traffic.total_rounds(),
        "batched frames must carry many logical messages ({} msgs, {} rounds)",
        a_out.traffic.total_messages(),
        a_out.traffic.total_rounds()
    );
}

/// §4.2.2: horizontal communication is O(c1·m·l(n−l) + c2·n0·l(n−l)).
/// With every point queried once, the pair term l(n−l) appears exactly as
/// (number of issued queries) × (peer size) comparisons.
#[test]
fn horizontal_comparison_count_is_queries_times_peer_size() {
    let alice: Vec<Point> = (0..5).map(|i| Point::new(vec![i * 20, 0])).collect();
    let bob: Vec<Point> = (0..7).map(|i| Point::new(vec![i * 20, 50])).collect();
    let c = cfg(4, 2, 200);
    let (a_out, b_out) = run_horizontal_pair(&c, &alice, &bob, rng(5), rng(6)).unwrap();
    let alice_queries = a_out.leakage.count_kind("neighbor_count") as u64;
    let bob_queries = b_out.leakage.count_kind("neighbor_count") as u64;
    // Ledger counts both phases (own queries and responses to the peer's).
    let expected = alice_queries * bob.len() as u64 + bob_queries * alice.len() as u64;
    assert_eq!(a_out.yao.comparisons, expected);
    assert_eq!(b_out.yao.comparisons, expected);
}

/// §4.3.2: vertical communication is O(c2·n0·n²) — the comparison count is
/// (number of region queries) × (n − 1), with one region query per
/// processed record.
#[test]
fn vertical_comparison_count_matches_formula() {
    let records: Vec<Point> = (0..8).map(|i| Point::new(vec![i, 0])).collect();
    let partition = VerticalPartition::split(&records, 1);
    let c = cfg(1, 2, 10);
    let (a_out, _) = run_vertical_pair(&c, &partition, rng(7), rng(8)).unwrap();
    let queries = a_out.leakage.count_kind("neighbor_count") as u64;
    let n = records.len() as u64;
    assert_eq!(a_out.yao.comparisons, queries * (n - 1));
    assert!(queries >= n, "every record queried at least once");
}

/// E1's m-scaling: the `O(c1·m·l(n−l))` multiplication term grows linearly
/// with the attribute count at fixed n, while the comparison term does not
/// depend on m. Isolate the multiplication bytes as the difference between
/// two runs with identical query structure (the comparison traffic is
/// byte-identical across them — same comparison count, same capped
/// padding).
#[test]
fn horizontal_bytes_scale_linearly_with_dimension() {
    let make = |m: usize| -> (Vec<Point>, Vec<Point>) {
        let a = (0..3)
            .map(|i| Point::new(vec![i as i64; m]))
            .collect::<Vec<_>>();
        let b = (0..3)
            .map(|i| Point::new(vec![i as i64 + 1; m]))
            .collect::<Vec<_>>();
        (a, b)
    };
    let c2 = cfg(4, 2, 10);
    let (m2, _) = {
        let (a, b) = make(2);
        run_horizontal_pair(&c2, &a, &b, rng(9), rng(10)).unwrap()
    };
    let (m8, _) = {
        let (a, b) = make(8);
        run_horizontal_pair(&c2, &a, &b, rng(11), rng(12)).unwrap()
    };
    assert_eq!(
        m2.yao.comparisons, m8.yao.comparisons,
        "identical geometry must issue identical comparison sequences"
    );
    // Each pair's request carries m ciphertexts; going from m = 2 to m = 8
    // adds 6 per pair. The masked replies of one query (3 responder points
    // × m products) ride ⌈3m/capacity⌉ packed words, so the reply leg
    // grows with m by whole words. A 256-bit-key ciphertext is 64 wire
    // bytes plus its 4-byte length prefix.
    let pairs = m2.yao.comparisons;
    let queries = pairs / 3;
    let reply_words = |m: usize| {
        let packing = ppdbscan::domain::mul_response_packing(&c2, m).unwrap();
        packing.layout.words_for(3 * m) as u64
    };
    let ct_bytes = (2 * c2.key_bits / 8 + 4) as u64;
    let expected_delta = (pairs * 6 + queries * (reply_words(8) - reply_words(2))) * ct_bytes;
    let delta = m8.traffic.total_bytes() - m2.traffic.total_bytes();
    let rel_err = (delta as f64 - expected_delta as f64).abs() / expected_delta as f64;
    assert!(
        rel_err < 0.10,
        "delta {delta} vs expected {expected_delta} (rel err {rel_err:.3})"
    );
}
