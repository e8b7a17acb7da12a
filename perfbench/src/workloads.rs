//! The four workloads: inputs made from the seed, the agreed protocol
//! configurations, and the plaintext reference for every party.

use crate::oracle;
use crate::session::ModeSpec;
use ppdbscan::session::PartyData;
use ppdbscan::{ProtocolConfig, VerticalPartition};
use ppds_dbscan::datagen::split_alternating;
use ppds_dbscan::index::{GridIndex, NeighborIndex};
use ppds_dbscan::{dbscan, dist_sq, DbscanParams, Point, Pruning};
use ppds_smc::compare::Comparator;
use ppds_smc::BackendKind;
use ppds_transport::CostModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "paillier-1024",
    "sharing-scale",
    "sharing-wan",
    "server-open",
];

/// Records in each blob-workload session (ROADMAP's n = 36 row).
const BLOB_N: usize = 36;

/// Records in each `sharing-scale` session.
const SCALE_N: usize = 100_000;

/// One workload, ready to run.
pub struct Workload {
    /// Name, as given on the command line.
    pub name: &'static str,
    /// Paillier modulus size of every party's keypair.
    pub key_bits: usize,
    /// Keypairs set-up generates: one per in-process party, or the
    /// client's alone on `server-open`, whose server keeps its own.
    pub parties: usize,
    /// The modeled link every session runs over, if any.
    pub link: Option<CostModel>,
    /// The modes, run in this order each round.
    pub modes: Vec<ModeSpec>,
    /// Time spent generating the inputs and computing their plaintext
    /// references (the references dominate), seconds.
    pub reference_s: f64,
    /// The records the grid-candidate probe indexes.
    pub points: Vec<Point>,
    /// Slots for the traced run's span recorder.
    pub trace_capacity: usize,
}

/// Builds workload `name` from `seed`.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let start = Instant::now();
    let mut w = match name {
        "paillier-1024" => paillier_1024(seed),
        "sharing-scale" => sharing_scale(seed),
        "sharing-wan" => sharing_wan(seed),
        "server-open" => server_open(seed),
        _ => return None,
    };
    w.reference_s = start.elapsed().as_secs_f64();
    Some(w)
}

/// The canonical blob workload (`ppds_bench::blob_workload`): three
/// Gaussian blobs on a ±60 lattice, Eps² = 81, MinPts = 3, split
/// alternately between Alice and Bob.
fn blobs(seed: u64) -> ppds_bench::Workload {
    ppds_bench::blob_workload(BLOB_N, 2, seed)
}

/// Inputs for the enhanced mode: the blob split plus one isolated record
/// of Alice's, under MinPts = 2. Every blob record has an own neighbour,
/// so it is a core point locally and needs no joint test; the isolated
/// record has none and needs exactly one (k = 1). A session therefore runs
/// one secure k-th-smallest selection over Bob's 18 shared distances,
/// whatever the seed. Seeds whose blobs hold an isolated record are
/// redrawn.
fn enhanced_inputs(seed: u64) -> (Vec<Point>, Vec<Point>, ProtocolConfig) {
    let outlier = Point::new(vec![-60, -60]);
    for attempt in 0u64.. {
        let w = blobs(seed ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut cfg = w.cfg;
        cfg.params.min_pts = 2;
        let eps_sq = cfg.params.eps_sq;
        let own_neighbours =
            |own: &[Point], p: &Point| own.iter().filter(|q| dist_sq(p, q) <= eps_sq).count();
        let mut alice = w.alice;
        alice.push(outlier.clone());
        let engaged = |own: &[Point]| {
            own.iter()
                .filter(|p| own_neighbours(own, p) < cfg.params.min_pts)
                .count()
        };
        if engaged(&alice) == 1 && engaged(&w.bob) == 0 && own_neighbours(&alice, &outlier) == 1 {
            return (alice, w.bob, cfg);
        }
    }
    unreachable!("the attempt counter does not run out")
}

/// Ordered cross pairs `(own, peer)` within Eps.
fn cross_pairs(own: &[Point], peer: &[Point], eps_sq: u64) -> u64 {
    if peer.is_empty() {
        return 0;
    }
    let index = GridIndex::new(peer, eps_sq);
    own.iter().map(|p| index.region_query(p).len() as u64).sum()
}

/// Ordered pairs of distinct records within Eps.
fn union_pairs(points: &[Point], eps_sq: u64) -> u64 {
    cross_pairs(points, points, eps_sq) - points.len() as u64
}

fn horizontal(cfg: ProtocolConfig, a: Vec<Point>, b: Vec<Point>) -> ModeSpec {
    let ref_a = oracle::external_density(&a, &b, cfg.params);
    let ref_b = oracle::external_density(&b, &a, cfg.params);
    let pairs = cross_pairs(&a, &b, cfg.params.eps_sq) + cross_pairs(&b, &a, cfg.params.eps_sq);
    ModeSpec {
        name: "horizontal",
        cfg,
        records: a.len() + b.len(),
        true_pairs: Some(pairs),
        parties: vec![
            (PartyData::Horizontal(a), ref_a),
            (PartyData::Horizontal(b), ref_b),
        ],
    }
}

fn enhanced(cfg: ProtocolConfig, a: Vec<Point>, b: Vec<Point>) -> ModeSpec {
    let ref_a = oracle::external_density(&a, &b, cfg.params);
    let ref_b = oracle::external_density(&b, &a, cfg.params);
    ModeSpec {
        name: "enhanced",
        cfg,
        records: a.len() + b.len(),
        true_pairs: None,
        parties: vec![
            (PartyData::Enhanced(a), ref_a),
            (PartyData::Enhanced(b), ref_b),
        ],
    }
}

fn vertical(cfg: ProtocolConfig, points: &[Point]) -> ModeSpec {
    let reference = dbscan(points, cfg.params);
    let split = VerticalPartition::split(points, 1);
    ModeSpec {
        name: "vertical",
        cfg,
        records: points.len(),
        true_pairs: Some(union_pairs(points, cfg.params.eps_sq)),
        parties: vec![
            (PartyData::Vertical(split.alice), reference.clone()),
            (PartyData::Vertical(split.bob), reference),
        ],
    }
}

fn multiparty(cfg: ProtocolConfig, points: &[Point], k: usize) -> ModeSpec {
    let shares: Vec<Vec<Point>> = (0..k)
        .map(|r| points.iter().skip(r).step_by(k).cloned().collect())
        .collect();
    let parties = (0..k)
        .map(|i| {
            let others: Vec<Point> = (0..k)
                .filter(|&j| j != i)
                .flat_map(|j| shares[j].iter().cloned())
                .collect();
            let reference = oracle::external_density(&shares[i], &others, cfg.params);
            (PartyData::Multiparty(shares[i].clone()), reference)
        })
        .collect();
    ModeSpec {
        name: "multiparty",
        cfg,
        records: points.len(),
        true_pairs: None,
        parties,
    }
}

/// Horizontal (Ideal comparator) and enhanced (DGK comparator) sessions
/// under 1024-bit batched, packed Paillier, pruning off.
fn paillier_1024(seed: u64) -> Workload {
    let w = blobs(seed);
    let mut cfg = w.cfg.with_batching(true).with_packing(true);
    cfg.key_bits = 1024;
    let (ea, eb, ecfg) = enhanced_inputs(seed);
    let mut ecfg = ecfg.with_batching(true).with_packing(true);
    ecfg.key_bits = 1024;
    ecfg.comparator = Comparator::Dgk;
    Workload {
        name: "paillier-1024",
        key_bits: 1024,
        parties: 2,
        link: None,
        modes: vec![horizontal(cfg, w.alice, w.bob), enhanced(ecfg, ea, eb)],
        reference_s: 0.0,
        points: w.all,
        trace_capacity: 1 << 16,
    }
}

/// E13's constant-density uniform points: the domain side grows as √n,
/// so each grid band holds O(1) candidates at any n.
fn scaled_uniform(n: usize, seed: u64) -> (Vec<Point>, i64) {
    let side = (4.0 * (n as f64).sqrt()).ceil() as i64;
    let mut rng = StdRng::seed_from_u64(seed);
    let points = (0..n)
        .map(|_| Point::new(vec![rng.random_range(0..=side), rng.random_range(0..=side)]))
        .collect();
    (points, side)
}

/// Vertical and horizontal sessions on the sharing backend with grid
/// pruning, over n = 10⁵ uniform records.
fn sharing_scale(seed: u64) -> Workload {
    let (points, side) = scaled_uniform(SCALE_N, seed);
    let cfg = ProtocolConfig::new(
        DbscanParams {
            eps_sq: 8,
            min_pts: 3,
        },
        side,
    )
    .with_backend(BackendKind::Sharing)
    .with_batching(true)
    .with_pruning(Pruning::Grid { coarseness: 1 });
    let (alice, bob) = split_alternating(&points);
    Workload {
        name: "sharing-scale",
        key_bits: cfg.key_bits,
        parties: 2,
        link: None,
        modes: vec![vertical(cfg, &points), horizontal(cfg, alice, bob)],
        reference_s: 0.0,
        points,
        trace_capacity: 1_600_000,
    }
}

/// Horizontal, enhanced and 3-party sessions on the sharing backend, each
/// link delayed to `CostModel::wan()`.
fn sharing_wan(seed: u64) -> Workload {
    let w = blobs(seed);
    let cfg = w.cfg.with_backend(BackendKind::Sharing).with_batching(true);
    let (ea, eb, ecfg) = enhanced_inputs(seed);
    let ecfg = ecfg.with_backend(BackendKind::Sharing).with_batching(true);
    Workload {
        name: "sharing-wan",
        key_bits: cfg.key_bits,
        parties: 3,
        link: Some(CostModel::wan()),
        modes: vec![
            horizontal(cfg, w.alice, w.bob),
            enhanced(ecfg, ea, eb),
            multiparty(cfg, &w.all, 3),
        ],
        reference_s: 0.0,
        points: w.all,
        trace_capacity: 1 << 16,
    }
}

/// The modes `ppds-server` hosts as Bob: horizontal and vertical on the
/// sharing backend, enhanced under 256-bit packed Paillier.
fn server_open(seed: u64) -> Workload {
    let w = blobs(seed);
    let sharing = w.cfg.with_backend(BackendKind::Sharing).with_batching(true);
    let (ea, eb, ecfg) = enhanced_inputs(seed);
    let ecfg = ecfg.with_batching(true).with_packing(true);
    Workload {
        name: "server-open",
        key_bits: sharing.key_bits,
        parties: 1,
        link: None,
        modes: vec![
            horizontal(sharing, w.alice, w.bob),
            enhanced(ecfg, ea, eb),
            vertical(sharing, &w.all),
        ],
        reference_s: 0.0,
        points: w.all,
        trace_capacity: 1 << 16,
    }
}
