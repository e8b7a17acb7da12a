//! Flight-recorder parity: tracing observes a session without
//! participating. For every protocol family and framing, a traced run must
//! be **byte-identical** to the untraced reference under the same seeds —
//! same labels, same leakage log, same Yao ledger, same wire bytes (hashed
//! frame by frame) — and the trace itself must be schema-valid with its
//! top-level phase deltas summing exactly to the session's total traffic.

mod common;

use common::rng;
use ppdbscan::config::ProtocolConfig;
use ppdbscan::session::{Participant, PartyData, SessionOutcome};
use ppdbscan::{ArbitraryPartition, VerticalPartition};
use ppds_dbscan::datagen::{split_alternating, standard_blobs};
use ppds_dbscan::{DbscanParams, Point, Quantizer};
use ppds_observe::{SessionTrace, SpanRecorder};
use ppds_smc::Party;
use ppds_transport::{duplex, Channel, MetricsSnapshot, TransportError};

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

/// FNV-1a over every wire frame (direction-tagged, length-delimited): two
/// runs with equal hashes exchanged identical byte sequences.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Channel wrapper hashing every frame it carries. It must forward the
/// batch-note hooks — they reclassify rounds in the metrics, and dropping
/// them would silently diverge the traffic snapshots tracing reports.
struct Recording<C: Channel> {
    inner: C,
    hash: Fnv,
}

impl<C: Channel> Recording<C> {
    fn new(inner: C) -> Recording<C> {
        Recording {
            inner,
            hash: Fnv::new(),
        }
    }

    fn hash(&self) -> u64 {
        self.hash.0
    }
}

impl<C: Channel> Channel for Recording<C> {
    fn send_bytes(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.hash.update(&[0x51]);
        self.hash.update(&(payload.len() as u64).to_le_bytes());
        self.hash.update(payload);
        self.inner.send_bytes(payload)
    }

    fn recv_bytes(&mut self) -> Result<Vec<u8>, TransportError> {
        let payload = self.inner.recv_bytes()?;
        self.hash.update(&[0x52]);
        self.hash.update(&(payload.len() as u64).to_le_bytes());
        self.hash.update(&payload);
        Ok(payload)
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics()
    }

    fn note_batch_sent(&mut self, items: u64) {
        self.inner.note_batch_sent(items);
    }

    fn note_batch_received(&mut self, items: u64) {
        self.inner.note_batch_received(items);
    }
}

/// Runs a two-party session over hashing channels; Alice records a trace
/// iff `traced`. Returns both outcomes and both wire hashes.
fn run_pair(
    cfg: &ProtocolConfig,
    alice: PartyData,
    bob: PartyData,
    traced: bool,
) -> (SessionOutcome, SessionOutcome, u64, u64) {
    let (ca, cb) = duplex();
    let mut ca = Recording::new(ca);
    let mut cb = Recording::new(cb);
    let mut pa = Participant::new(*cfg)
        .role(Party::Alice)
        .data(alice)
        .rng(rng(11));
    if traced {
        pa = pa.trace(SpanRecorder::new());
    }
    let pb = Participant::new(*cfg)
        .role(Party::Bob)
        .data(bob)
        .rng(rng(12));
    let (a, b) = std::thread::scope(|scope| {
        let ha = scope.spawn(move || (pa.run(&mut ca).unwrap(), ca.hash()));
        let hb = scope.spawn(move || (pb.run(&mut cb).unwrap(), cb.hash()));
        (ha.join().unwrap(), hb.join().unwrap())
    });
    (a.0, b.0, a.1, b.1)
}

/// Runs a 3-party mesh over hashing channels; node 0 records a trace iff
/// `traced`. Returns the outcomes and each node's combined wire hash.
fn run_mesh(cfg: &ProtocolConfig, all: &[Point], traced: bool) -> (Vec<SessionOutcome>, Vec<u64>) {
    let k = 3usize;
    let mut parties: Vec<Vec<Point>> = vec![Vec::new(); k];
    for (i, p) in all.iter().enumerate() {
        parties[i % k].push(p.clone());
    }
    let mut channels: Vec<Vec<(usize, _)>> = (0..k).map(|_| Vec::new()).collect();
    for i in 0..k {
        for j in i + 1..k {
            let (a, b) = duplex();
            channels[i].push((j, Recording::new(a)));
            channels[j].push((i, Recording::new(b)));
        }
    }
    let mut results: Vec<Option<(SessionOutcome, u64)>> = (0..k).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (my_id, (mut peers, points)) in channels.drain(..).zip(&parties).enumerate() {
            let mut participant = Participant::new(*cfg)
                .data(PartyData::Multiparty(points.clone()))
                .seed(42 + my_id as u64);
            if traced && my_id == 0 {
                participant = participant.trace(SpanRecorder::new());
            }
            handles.push(scope.spawn(move || {
                let outcome = participant.run_mesh(&mut peers, my_id, k).unwrap();
                let mut hash = Fnv::new();
                for (peer, chan) in &peers {
                    hash.update(&(*peer as u64).to_le_bytes());
                    hash.update(&chan.hash().to_le_bytes());
                }
                (outcome, hash.0)
            }));
        }
        for (i, handle) in handles.into_iter().enumerate() {
            results[i] = Some(handle.join().unwrap());
        }
    });
    let mut outcomes = Vec::new();
    let mut hashes = Vec::new();
    for slot in results {
        let (outcome, hash) = slot.unwrap();
        outcomes.push(outcome);
        hashes.push(hash);
    }
    (outcomes, hashes)
}

/// Side-by-side assertion: outputs and wire bytes identical, traced side
/// carries a trace, untraced side does not.
fn assert_same_session(name: &str, untraced: &SessionOutcome, traced: &SessionOutcome) {
    assert_eq!(
        untraced.output.clustering, traced.output.clustering,
        "{name}: labels must be byte-identical traced vs untraced"
    );
    assert_eq!(
        untraced.output.leakage, traced.output.leakage,
        "{name}: tracing must not widen leakage"
    );
    assert_eq!(
        untraced.output.yao, traced.output.yao,
        "{name}: same comparisons, same modeled Yao cost"
    );
    assert_eq!(
        untraced.output.traffic, traced.output.traffic,
        "{name}: identical traffic counters"
    );
    assert!(untraced.trace.is_none(), "{name}: no opt-in, no trace");
}

/// Schema validity plus the accounting identity this PR's acceptance pins:
/// the sum of top-level span deltas equals the session's total traffic.
fn assert_trace_accounts(name: &str, trace: &SessionTrace, total: MetricsSnapshot) {
    trace
        .validate()
        .unwrap_or_else(|e| panic!("{name}: trace schema: {e}"));
    assert!(!trace.is_empty(), "{name}: traced run must record spans");
    assert_eq!(trace.dropped, 0, "{name}: no events dropped");
    let top = trace
        .top_level_traffic()
        .unwrap_or_else(|e| panic!("{name}: rollup: {e}"));
    assert_eq!(
        top, total,
        "{name}: top-level phase deltas must sum to the session total"
    );
}

#[test]
fn two_party_modes_are_byte_identical_traced_vs_untraced() {
    let all = blobs(18, 9_200);
    let (alice_pts, bob_pts) = split_alternating(&all);
    let vp = VerticalPartition::split(&all, 1);
    let ap = ArbitraryPartition::random(&mut rng(9_201), &all);
    let modes: Vec<(&str, PartyData, PartyData)> = vec![
        (
            "horizontal",
            PartyData::Horizontal(alice_pts.clone()),
            PartyData::Horizontal(bob_pts.clone()),
        ),
        (
            "enhanced",
            PartyData::Enhanced(alice_pts.clone()),
            PartyData::Enhanced(bob_pts.clone()),
        ),
        (
            "vertical",
            PartyData::Vertical(vp.alice.clone()),
            PartyData::Vertical(vp.bob.clone()),
        ),
        (
            "arbitrary",
            PartyData::Arbitrary(ap.alice_values.clone()),
            PartyData::Arbitrary(ap.bob_values.clone()),
        ),
    ];
    let cfg = base_cfg();
    for (name, alice, bob) in &modes {
        let (u_a, u_b, u_ha, u_hb) = run_pair(&cfg, alice.clone(), bob.clone(), false);
        let (t_a, t_b, t_ha, t_hb) = run_pair(&cfg, alice.clone(), bob.clone(), true);
        assert_same_session(&format!("{name}/alice"), &u_a, &t_a);
        assert_same_session(&format!("{name}/bob"), &u_b, &t_b);
        assert_eq!(u_ha, t_ha, "{name}: alice wire bytes must be identical");
        assert_eq!(u_hb, t_hb, "{name}: bob wire bytes must be identical");
        let trace = t_a.trace.as_ref().expect("alice opted in");
        assert_trace_accounts(name, trace, t_a.output.traffic);
    }
}

#[test]
fn multiparty_mesh_is_byte_identical_traced_vs_untraced() {
    let all = blobs(18, 9_300);
    let cfg = base_cfg();
    let (untraced, u_hashes) = run_mesh(&cfg, &all, false);
    let (traced, t_hashes) = run_mesh(&cfg, &all, true);
    for (i, (u, t)) in untraced.iter().zip(&traced).enumerate() {
        assert_same_session(&format!("multiparty/node{i}"), u, t);
    }
    assert_eq!(
        u_hashes, t_hashes,
        "multiparty: wire bytes must be identical"
    );
    let trace = traced[0].trace.as_ref().expect("node 0 opted in");
    assert_trace_accounts("multiparty", trace, traced[0].output.traffic);
}

#[test]
fn traced_vertical_chrome_export_is_loadable_and_accounts_exactly() {
    // The acceptance criterion spelled out in full: a traced vertical-mode
    // session must export valid Chrome trace JSON whose per-phase deltas
    // sum exactly to the session's total traffic snapshot.
    let all = blobs(18, 9_400);
    let vp = VerticalPartition::split(&all, 1);
    let cfg = base_cfg();
    let (outcome, _, _, _) = run_pair(
        &cfg,
        PartyData::Vertical(vp.alice.clone()),
        PartyData::Vertical(vp.bob.clone()),
        true,
    );
    let trace = outcome.trace.as_ref().expect("traced run");
    assert_trace_accounts("vertical", trace, outcome.output.traffic);
    let json = trace.to_chrome_json("vertical");
    let json = json.trim_end();
    assert!(json.starts_with('{') && json.ends_with('}'), "whole object");
    assert!(json.contains("\"traceEvents\""), "Chrome trace envelope");
    assert!(json.contains("\"ph\":\"B\"") && json.contains("\"ph\":\"E\""));
    assert!(
        json.contains("\"execute\"") && json.contains("region#"),
        "per-phase spans present in the export"
    );
    // Every begin has a matching end in the export (replayed, not counted:
    // validate() above already proved it; this pins the serialized form).
    assert_eq!(json.matches("\"ph\":\"B\"").count(), trace.len() / 2);
}
