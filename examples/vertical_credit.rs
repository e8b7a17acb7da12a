//! Vertical partitioning (Figure 3): a bank and a hospital each hold
//! *different attributes of the same customers* and want the joint
//! clustering. The vertical protocol (Algorithms 5 & 6) gives both parties
//! exactly the clustering a trusted third party would have computed — the
//! example verifies this label-for-label against plaintext DBSCAN.
//!
//! Run with: `cargo run --release --example vertical_credit`

use ppdbscan::config::ProtocolConfig;
use ppdbscan::session::{run_participants, Participant, PartyData};
use ppdbscan::VerticalPartition;
use ppds_dbscan::datagen::standard_blobs;
use ppds_dbscan::{dbscan, eval, DbscanParams, Quantizer};
use ppds_smc::Party;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Both halves of the vertical protocol through the session API.
fn run_vertical(
    cfg: ProtocolConfig,
    partition: &VerticalPartition,
    seed_bank: u64,
    seed_hospital: u64,
) -> (ppdbscan::PartyOutput, ppdbscan::PartyOutput) {
    let (bank, hospital) = run_participants(
        Participant::new(cfg)
            .role(Party::Alice)
            .data(PartyData::Vertical(partition.alice.clone()))
            .seed(seed_bank),
        Participant::new(cfg)
            .role(Party::Bob)
            .data(PartyData::Vertical(partition.bob.clone()))
            .seed(seed_hospital),
    )
    .expect("protocol run");
    (bank.output, hospital.output)
}

fn main() {
    // 4-attribute customer records: attributes 0-1 are financial (bank),
    // attributes 2-3 are clinical (hospital). Three latent segments.
    let mut rng = StdRng::seed_from_u64(7);
    let quantizer = Quantizer::new(1.0, 60);
    let (records, _truth) = standard_blobs(&mut rng, 25, 3, 4, quantizer);
    let partition = VerticalPartition::split(&records, 2);

    let params = DbscanParams {
        eps_sq: 64,
        min_pts: 4,
    };
    let cfg = ProtocolConfig::new(params, 60);

    println!(
        "{} customers; bank holds {} attributes, hospital holds {}.",
        partition.len(),
        partition.alice[0].dim(),
        partition.bob[0].dim()
    );

    println!("\nRunning the vertical protocol (Algorithms 5 & 6)…");
    let (bank, hospital) = run_vertical(cfg, &partition, 100, 200);

    println!(
        "  bank view:     {} clusters, {} noise",
        bank.clustering.num_clusters,
        bank.clustering.noise_count()
    );
    println!(
        "  hospital view: {} clusters, {} noise",
        hospital.clustering.num_clusters,
        hospital.clustering.noise_count()
    );

    // The paper's §3.3 contract: identical joint output on both sides,
    // equal to the trusted-third-party result.
    assert_eq!(bank.clustering, hospital.clustering);
    let reference = dbscan(&records, params);
    assert_eq!(bank.clustering, reference);
    println!(
        "  ✔ both parties computed the exact trusted-third-party clustering \
         (Rand index vs plaintext = {:.3})",
        eval::rand_index(&bank.clustering, &reference)
    );

    println!(
        "\nCost: {} Yao comparisons (≈ n² per the §4.3.2 analysis), \
         {:.1} KiB actually transferred, {:.1} MiB under the faithful-Yao model.",
        bank.yao.comparisons,
        bank.traffic.total_bytes() as f64 / 1024.0,
        bank.yao.modeled_bytes as f64 / (1024.0 * 1024.0)
    );
    println!(
        "Leakage (Theorem 10): {} neighborhood sizes became known to each party — \
         nothing else.",
        bank.leakage.count_kind("neighbor_count")
    );

    // Round batching: every region query ships its full candidate set as
    // one wire frame per message, where the paper's framing pays one
    // ping-pong per comparison (the logical-message count).
    let t = bank.traffic;
    let per_message = ppds_transport::MetricsSnapshot {
        rounds_sent: t.messages_sent,
        rounds_received: t.messages_received,
        ..t
    };
    let wan = ppds_transport::CostModel::wan();
    println!(
        "Round batching: {} wire rounds for {} logical messages ({}x fewer); \
         modeled WAN time {:.1}s vs {:.1}s at one round per message.",
        t.total_rounds(),
        t.total_messages(),
        t.total_messages() / t.total_rounds().max(1),
        wan.estimate(&t).as_secs_f64(),
        wan.estimate(&per_message).as_secs_f64(),
    );
}
