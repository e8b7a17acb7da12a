//! Engine benchmark: scheduler throughput at increasing worker counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppdbscan::{ProtocolConfig, SessionRequest};
use ppds_bench::rng;
use ppds_dbscan::{DbscanParams, Point};
use ppds_engine::{ClusteringJob, Engine, EngineConfig};
use rand::Rng;

fn horizontal_job(seed: u64) -> ClusteringJob {
    let mut cfg = ProtocolConfig::new(
        DbscanParams {
            eps_sq: 8,
            min_pts: 3,
        },
        10,
    );
    cfg.key_bits = 64;
    let mut r = rng(seed);
    let points = |n: usize, r: &mut rand::rngs::StdRng| -> Vec<Point> {
        (0..n)
            .map(|_| Point::new(vec![r.random_range(-10..=10), r.random_range(-10..=10)]))
            .collect()
    };
    ClusteringJob::new(
        cfg,
        SessionRequest::Horizontal {
            alice: points(8, &mut r),
            bob: points(8, &mut r),
        },
        seed,
    )
}

/// 16 identical sessions through the scheduler at growing pool widths;
/// the worker axis shows the multi-session speedup.
fn bench_engine_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_16_jobs");
    group.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let engine = Engine::start(EngineConfig::with_workers(workers));
                    engine.submit_all((0..16).map(horizontal_job));
                    let results = engine.wait_all();
                    assert!(results.iter().all(|r| r.is_ok()));
                    engine.shutdown().completed
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_engine_scaling);
criterion_main!(benches);
