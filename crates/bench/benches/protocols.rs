//! End-to-end protocol benchmarks: one neighborhood query of each distance
//! protocol, and complete small clustering runs for all four protocol
//! families (the numbers behind EXPERIMENTS.md's cost discussion).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppdbscan::config::ProtocolConfig;
use ppdbscan::{ArbitraryPartition, VerticalPartition};
use ppds_bench::{
    blob_workload, run_arbitrary_pair, run_enhanced_pair, run_horizontal_pair, run_vertical_pair,
};
use ppds_dbscan::{DbscanParams, Point};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Full clustering runs at a size where a benchmark iteration stays under a
/// second. Key size 128 bits: the protocol structure (not the crypto
/// strength) is what these benches characterize.
fn bench_full_runs(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_run_n18");
    group.sample_size(10);
    let mut w = blob_workload(18, 2, 7);
    w.cfg.key_bits = 128;

    group.bench_function("horizontal", |b| {
        b.iter(|| run_horizontal_pair(&w.cfg, &w.alice, &w.bob, rng(1), rng(2)).unwrap());
    });
    group.bench_function("enhanced", |b| {
        b.iter(|| run_enhanced_pair(&w.cfg, &w.alice, &w.bob, rng(3), rng(4)).unwrap());
    });
    let vertical = VerticalPartition::split(&w.all, 1);
    group.bench_function("vertical", |b| {
        b.iter(|| run_vertical_pair(&w.cfg, &vertical, rng(5), rng(6)).unwrap());
    });
    let arbitrary = ArbitraryPartition::random(&mut rng(7), &w.all);
    group.bench_function("arbitrary", |b| {
        b.iter(|| run_arbitrary_pair(&w.cfg, &arbitrary, rng(8), rng(9)).unwrap());
    });
    group.finish();
}

/// Horizontal run cost as the peer set grows (the l(n−l) pair term).
fn bench_horizontal_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("horizontal_by_n");
    group.sample_size(10);
    for n in [8usize, 16, 24] {
        let mut w = blob_workload(n, 2, 100 + n as u64);
        w.cfg.key_bits = 128;
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| run_horizontal_pair(&w.cfg, &w.alice, &w.bob, rng(10), rng(11)).unwrap());
        });
    }
    group.finish();
}

/// Plaintext DBSCAN for reference: the privacy overhead factor is the ratio
/// between these and the protocol runs above.
fn bench_plaintext_reference(c: &mut Criterion) {
    let mut group = c.benchmark_group("plaintext_dbscan");
    for n in [100usize, 1000] {
        let w = blob_workload(n, 2, 200 + n as u64);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| ppds_dbscan::dbscan(&w.all, w.cfg.params));
        });
    }
    group.finish();
}

/// Key-size ablation on the full horizontal run.
fn bench_key_size_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("horizontal_by_key_bits");
    group.sample_size(10);
    for key_bits in [128usize, 256, 512] {
        let mut w = blob_workload(12, 2, 300);
        w.cfg.key_bits = key_bits;
        group.bench_with_input(BenchmarkId::from_parameter(key_bits), &key_bits, |b, _| {
            b.iter(|| run_horizontal_pair(&w.cfg, &w.alice, &w.bob, rng(12), rng(13)).unwrap());
        });
    }
    group.finish();
}

/// Region-query indexes on plaintext data (the paper's §4.3.2 notes the n²
/// bound assumes no spatial index; this quantifies what an index buys).
fn bench_region_query_index(c: &mut Criterion) {
    use ppds_dbscan::index::{GridIndex, LinearIndex, NeighborIndex};
    let w = blob_workload(2000, 2, 400);
    let eps_sq = w.cfg.params.eps_sq;
    let query = Point::new(vec![0, 0]);
    let mut group = c.benchmark_group("region_query_n2000");
    group.bench_function("linear", |b| {
        let index = LinearIndex::new(&w.all, eps_sq);
        b.iter(|| index.region_query(&query));
    });
    group.bench_function("grid", |b| {
        let index = GridIndex::new(&w.all, eps_sq);
        b.iter(|| index.region_query(&query));
    });
    group.finish();
}

/// Keeps the unused-field warning away while exercising config validation.
fn bench_config_validate(c: &mut Criterion) {
    let cfg = ProtocolConfig::new(
        DbscanParams {
            eps_sq: 81,
            min_pts: 3,
        },
        60,
    );
    c.bench_function("config_validate", |b| b.iter(|| cfg.validate(4).unwrap()));
}

/// The vertical protocol end to end on both SMC substrates (n = 12,
/// round-batched, slot-packed Paillier replies).
/// Criterion measures wall time; the wire bytes each substrate moves are
/// printed once per row, since the byte cut is the backend's headline
/// delta (the full-size figures live in E12 / BENCH_protocols.json).
fn bench_backend_vertical_e2e(c: &mut Criterion) {
    use ppds_smc::BackendKind;
    let mut w = blob_workload(12, 2, 7);
    w.cfg.key_bits = 128;
    let vertical = VerticalPartition::split(&w.all, 1);
    let mut group = c.benchmark_group("vertical_e2e_backends_n12");
    group.sample_size(10);
    for (label, cfg) in [
        ("paillier", w.cfg),
        ("sharing", w.cfg.with_backend(BackendKind::Sharing)),
    ] {
        let (out, _) = run_vertical_pair(&cfg, &vertical, rng(5), rng(6)).unwrap();
        println!(
            "vertical_e2e_backends_n12/{label}: {} bytes on the wire",
            out.traffic.total_bytes()
        );
        group.bench_function(label, |b| {
            b.iter(|| run_vertical_pair(&cfg, &vertical, rng(5), rng(6)).unwrap());
        });
    }
    group.finish();
}

/// The pruning subsystem's plaintext core: per query, enumerating the
/// band-intersecting candidates and distance-filtering them, versus the
/// all-pairs scan it replaces. Downstream secure-comparison work is
/// proportional to the candidate count, so this ratio is the protocol-level
/// speedup ceiling (E13 measures the realized end-to-end number).
fn bench_candidate_generation(c: &mut Criterion) {
    use ppds_dbscan::{band_width, dist_sq, CoarseGrid};
    let mut group = c.benchmark_group("candidate_generation");
    for n in [100usize, 1000] {
        let w = blob_workload(n, 2, 500 + n as u64);
        let eps_sq = w.cfg.params.eps_sq as u64;
        let width = band_width(w.cfg.params.eps_sq, 1);
        let grid = CoarseGrid::from_points(&w.all, width);
        group.bench_with_input(BenchmarkId::new("grid", n), &n, |b, _| {
            b.iter(|| {
                (0..w.all.len())
                    .map(|x| {
                        grid.candidates(w.all[x].coords())
                            .into_iter()
                            .filter(|&y| y != x && dist_sq(&w.all[x], &w.all[y]) <= eps_sq)
                            .count()
                    })
                    .sum::<usize>()
            });
        });
        group.bench_with_input(BenchmarkId::new("all_pairs", n), &n, |b, _| {
            b.iter(|| {
                (0..w.all.len())
                    .map(|x| {
                        (0..w.all.len())
                            .filter(|&y| y != x && dist_sq(&w.all[x], &w.all[y]) <= eps_sq)
                            .count()
                    })
                    .sum::<usize>()
            });
        });
    }
    group.finish();
}

/// Grid pruning end to end on the vertical protocol (sharing backend,
/// round-batched): same labels, strictly fewer secure comparisons. The
/// comparison counts are printed once per row so the wall-time delta can be
/// read against the work delta.
fn bench_pruned_vertical_e2e(c: &mut Criterion) {
    use ppds_dbscan::Pruning;
    use ppds_smc::BackendKind;
    let mut w = blob_workload(100, 2, 600);
    w.cfg.key_bits = 128;
    let vertical = VerticalPartition::split(&w.all, 1);
    let base = w.cfg.with_backend(BackendKind::Sharing);
    let mut group = c.benchmark_group("vertical_pruning_n100");
    group.sample_size(10);
    for (label, cfg) in [
        ("exhaustive", base),
        (
            "grid_pruned",
            base.with_pruning(Pruning::Grid { coarseness: 1 }),
        ),
    ] {
        let (out, _) = run_vertical_pair(&cfg, &vertical, rng(14), rng(15)).unwrap();
        println!(
            "vertical_pruning_n100/{label}: {} secure comparisons",
            out.yao.comparisons
        );
        group.bench_function(label, |b| {
            b.iter(|| run_vertical_pair(&cfg, &vertical, rng(14), rng(15)).unwrap());
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_full_runs,
    bench_horizontal_scaling,
    bench_plaintext_reference,
    bench_key_size_ablation,
    bench_region_query_index,
    bench_config_validate,
    bench_backend_vertical_e2e,
    bench_candidate_generation,
    bench_pruned_vertical_e2e
);
criterion_main!(benches);
