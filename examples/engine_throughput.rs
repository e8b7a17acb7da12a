//! Multi-tenant engine demo: many clustering jobs through one worker pool.
//!
//! Run with `cargo run --release --example engine_throughput`.

use ppds::ppdbscan::{ProtocolConfig, SessionRequest};
use ppds::ppds_dbscan::datagen::{split_alternating, standard_blobs};
use ppds::ppds_dbscan::{dbscan_with_external_density, DbscanParams, Quantizer};
use ppds::ppds_engine::{ClusteringJob, Engine, EngineConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    // One tenant's workload: a blob dataset split between two hospitals.
    let make_job = |seed: u64| {
        let quantizer = Quantizer::new(1.0, 40);
        let (points, _) = standard_blobs(&mut StdRng::seed_from_u64(seed), 8, 2, 2, quantizer);
        let (alice, bob) = split_alternating(&points);
        let mut cfg = ProtocolConfig::new(
            DbscanParams {
                eps_sq: 49,
                min_pts: 3,
            },
            40,
        );
        cfg.key_bits = 64; // demo speed; the engine is key-size agnostic
        ClusteringJob::new(cfg, SessionRequest::Horizontal { alice, bob }, seed)
    };

    let engine = Engine::start(EngineConfig::with_workers(4));

    println!("submitting 12 horizontal clustering jobs to a 4-worker engine...");
    let t0 = Instant::now();
    let ids = engine.submit_all((0..12).map(make_job));
    let results = engine.wait_all();
    let elapsed = t0.elapsed();

    for (id, result) in ids.iter().zip(&results) {
        let outputs = result.outputs();
        println!(
            "  {id}: mode={} clusters(alice)={} traffic={} B wall={:.1?}",
            result.mode,
            outputs[0].clustering.num_clusters,
            result.traffic.total_bytes(),
            result.wall_time,
        );
    }

    // Spot-check one job against the single-session reference semantics.
    let job = make_job(0);
    if let SessionRequest::Horizontal { alice, bob } = &job.request {
        let reference = dbscan_with_external_density(alice, bob, job.cfg.params);
        assert_eq!(results[0].outputs()[0].clustering, reference);
        println!("job-0 output matches the single-session reference semantics ✓");
    }

    let report = engine.shutdown();
    println!(
        "\n{} jobs in {elapsed:.1?} wall ({:.1?} cumulative busy, {:.1}x effective concurrency)",
        report.completed,
        report.busy_time,
        report.busy_time.as_secs_f64() / elapsed.as_secs_f64().max(1e-9),
    );
    println!(
        "aggregate traffic: {} bytes / {} messages; modeled Yao comparisons: {}",
        report.traffic.total_bytes(),
        report.traffic.total_messages(),
        report.yao.comparisons,
    );
}
