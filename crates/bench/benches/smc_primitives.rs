//! SMC primitive costs: the Multiplication Protocol (one product and dot
//! product), Yao's millionaires by domain size, the Ideal comparator, and
//! k-th-smallest selection — each including its real two-thread channel
//! round trips. A single operation is the one-item batch of its primitive.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppdbscan::config::ProtocolConfig;
use ppds_bigint::{BigInt, BigUint};
use ppds_dbscan::DbscanParams;
use ppds_paillier::Keypair;
use ppds_smc::compare::{
    compare_batch_alice, compare_batch_bob, CmpOp, Comparator, ComparisonDomain,
};
use ppds_smc::kth::{kth_smallest_with, SelectionMethod};
use ppds_smc::multiplication::{
    dot_many_keyholder, dot_many_peer, mul_batches_keyholder, mul_batches_peer, zero_sum_masks,
};
use ppds_smc::{PaillierBackend, Party, ProtocolContext, ResponsePacking, SharingLedger};
use ppds_transport::{duplex, MemoryChannel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn keypair() -> &'static Keypair {
    static KP: OnceLock<Keypair> = OnceLock::new();
    KP.get_or_init(|| Keypair::generate(256, &mut rng(0)))
}

/// `(multiplication, dot product)` response packings as a 256-bit session
/// derives them for four attributes of coordinate bound 100 at σ = 20:
/// wide enough for every mask these benches draw.
fn packings() -> &'static (ResponsePacking, ResponsePacking) {
    static PACKINGS: OnceLock<(ResponsePacking, ResponsePacking)> = OnceLock::new();
    PACKINGS.get_or_init(|| {
        let cfg = ProtocolConfig::new(
            DbscanParams {
                eps_sq: 25,
                min_pts: 3,
            },
            100,
        );
        ppdbscan::domain::response_packings(&cfg, 4).unwrap()
    })
}

/// One multiplication exchange over `groups` (one frame each way), with
/// zero-sum masks per group.
fn mul_exchange(xs_groups: Vec<Vec<BigInt>>, ys_groups: &[Vec<BigInt>], seed: u64) {
    let (mut kchan, mut pchan) = duplex();
    let handle = std::thread::spawn(move || {
        let kctx = ProtocolContext::new(seed);
        mul_batches_keyholder(
            &mut kchan,
            keypair(),
            &xs_groups,
            |g| kctx.at(g as u64),
            &packings().0,
        )
        .unwrap()
    });
    let pctx = ProtocolContext::new(seed + 1);
    mul_batches_peer(
        &mut pchan,
        &keypair().public,
        ys_groups,
        |g| {
            zero_sum_masks(
                pctx.narrow("mask").rng_for(g as u64),
                ys_groups[g].len(),
                &BigUint::from_u64(1 << 20),
            )
        },
        |g| pctx.at(g as u64),
        &packings().0,
    )
    .unwrap();
    handle.join().unwrap();
}

fn bench_multiplication(c: &mut Criterion) {
    let mut group = c.benchmark_group("mul_protocol_256");
    group.sample_size(20);
    group.bench_function("single", |b| {
        b.iter(|| {
            mul_exchange(
                vec![vec![BigInt::from_i64(37)]],
                &[vec![BigInt::from_i64(53)]],
                1,
            )
        });
    });
    for m in [2usize, 8] {
        group.bench_with_input(BenchmarkId::new("dot_product", m), &m, |b, &m| {
            let xs: Vec<BigInt> = (0..m as i64).map(BigInt::from_i64).collect();
            let ys: Vec<Vec<BigInt>> =
                vec![(0..m as i64).map(|v| BigInt::from_i64(v * 3)).collect()];
            b.iter(|| {
                let (mut kchan, mut pchan) = duplex();
                let xs2 = xs.clone();
                let handle = std::thread::spawn(move || {
                    dot_many_keyholder(
                        &mut kchan,
                        keypair(),
                        &xs2,
                        1,
                        &packings().1,
                        &ProtocolContext::new(3),
                    )
                    .unwrap()
                });
                dot_many_peer(
                    &mut pchan,
                    &keypair().public,
                    &ys,
                    &BigUint::from_u64(1 << 30),
                    &packings().1,
                    &ProtocolContext::new(4),
                )
                .unwrap();
                handle.join().unwrap()
            });
        });
    }
    group.finish();
}

/// One comparison (the one-item batch) between Alice's `a` and Bob's `b`.
fn compare_once(comparator: Comparator, a: i64, b: i64, op: CmpOp, domain: ComparisonDomain) {
    let (mut achan, mut bchan) = duplex();
    let handle = std::thread::spawn(move || {
        compare_batch_alice(
            comparator,
            &mut achan,
            keypair(),
            &[a],
            op,
            &domain,
            &ProtocolContext::new(5),
        )
        .unwrap()
    });
    compare_batch_bob(
        comparator,
        &mut bchan,
        &keypair().public,
        &[b],
        op,
        &domain,
        &ProtocolContext::new(6),
    )
    .unwrap();
    handle.join().unwrap();
}

fn bench_yao(c: &mut Criterion) {
    let mut group = c.benchmark_group("yao_millionaires_256");
    group.sample_size(10);
    for n0 in [16i64, 64, 256] {
        let domain = ComparisonDomain::new(1, n0 - 1);
        group.bench_with_input(BenchmarkId::from_parameter(n0), &n0, |b, _| {
            b.iter(|| compare_once(Comparator::Yao, 2, 5, CmpOp::Lt, domain));
        });
    }
    group.finish();
}

fn bench_ideal_compare(c: &mut Criterion) {
    let domain = ComparisonDomain::symmetric(1 << 30);
    c.bench_function("ideal_compare", |b| {
        b.iter(|| compare_once(Comparator::Ideal, 123, 456, CmpOp::Leq, domain));
    });
}

fn bench_kth_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("kth_selection_n32");
    group.sample_size(10);
    let n = 32usize;
    let mut r = rng(9);
    let dists: Vec<i64> = (0..n).map(|_| r.random_range(0..1000)).collect();
    let vs: Vec<i64> = (0..n).map(|_| r.random_range(-500..500)).collect();
    let us: Vec<i64> = dists.iter().zip(&vs).map(|(d, v)| d + v).collect();
    let domain = ComparisonDomain::symmetric(4000);
    let backend = PaillierBackend {
        my_keypair: keypair(),
        peer_pk: &keypair().public,
        comparator: Comparator::Ideal,
        mul_packing: packings().0.clone(),
        dot_packing: packings().1.clone(),
        mul_mask_bound: BigUint::zero(),
        dot_mask_bound: BigUint::zero(),
    };
    for (label, method, k) in [
        ("repmin_k1", SelectionMethod::RepeatedMin, 1usize),
        ("repmin_k16", SelectionMethod::RepeatedMin, 16),
        ("quickselect_k16", SelectionMethod::QuickSelect, 16),
    ] {
        let select = |chan: &mut MemoryChannel, role, shares: &[i64], seed| {
            kth_smallest_with(
                method,
                &backend,
                chan,
                role,
                shares,
                k,
                &domain,
                &ProtocolContext::new(seed),
                &mut SharingLedger::default(),
            )
            .unwrap()
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                let (mut achan, mut bchan) = duplex();
                std::thread::scope(|s| {
                    let alice = s.spawn(|| select(&mut achan, Party::Alice, &us, 10));
                    select(&mut bchan, Party::Bob, &vs, 11);
                    alice.join().unwrap()
                })
            });
        });
    }
    group.finish();
}

/// Ablation (DESIGN.md §7): protocol HDP fuses its `m` Algorithm 2 runs into
/// one message round trip. Same ciphertext count either way; one batch
/// saves `m - 1` round trips of framing and thread wakeups over `m`
/// one-item exchanges.
fn bench_batching_ablation(c: &mut Criterion) {
    let m = 4usize;
    let xs: Vec<BigInt> = (0..m as i64).map(BigInt::from_i64).collect();
    let ys: Vec<BigInt> = (0..m as i64).map(|v| BigInt::from_i64(v + 1)).collect();
    let mut group = c.benchmark_group("mul_batching_m4");
    group.sample_size(10);
    group.bench_function("four_singles", |b| {
        b.iter(|| {
            for (i, (x, y)) in xs.iter().zip(&ys).enumerate() {
                mul_exchange(vec![vec![x.clone()]], &[vec![y.clone()]], 20 + 2 * i as u64);
            }
        });
    });
    group.bench_function("one_batch", |b| {
        b.iter(|| mul_exchange(vec![xs.clone()], std::slice::from_ref(&ys), 22));
    });
    group.finish();
}

/// Keyed-substream discipline overhead: deriving one generator per record
/// (`ctx.rng_for(i)` — the cost the DGK batch path now pays per item)
/// versus advancing one threaded sequential stream (the old discipline).
/// The derivation is a handful of 64-bit multiplies per record, which the
/// first Paillier exponentiation dwarfs by orders of magnitude.
fn bench_keyed_derivation(c: &mut Criterion) {
    use criterion::black_box;
    use rand::RngCore;
    let mut group = c.benchmark_group("randomness_discipline_1024_draws");
    group.bench_function("keyed_substreams", |b| {
        let ctx = ProtocolContext::new(7).narrow("dgk");
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..1024u64 {
                acc ^= ctx.rng_for(black_box(i)).next_u64();
            }
            acc
        });
    });
    group.bench_function("sequential_stream", |b| {
        b.iter(|| {
            let mut r = rng(7);
            let mut acc = 0u64;
            for _ in 0..1024 {
                acc ^= r.next_u64();
            }
            acc
        });
    });
    group.finish();
}

/// Order-independent draws unlock parallel batch evaluation: the DGK batch
/// encryption path (Bob's masked comparison vectors are the analogous hot
/// loop) run on 1 worker vs 4. On a single-CPU host both rows are flat;
/// on a multicore host the 4-worker row shows the speedup. Outputs are
/// byte-identical either way (pinned by the smc parallel tests).
fn bench_parallel_batch_encryption(c: &mut Criterion) {
    use ppds_smc::multiplication::mul_batches_keyholder;
    use ppds_smc::parallel::force_workers;
    let groups: Vec<Vec<BigInt>> = (0..16)
        .map(|g| (0..4).map(|i| BigInt::from_i64(g * 4 + i)).collect())
        .collect();
    let mut group = c.benchmark_group("batch_encryption_16x4_256bit");
    group.sample_size(10);
    for workers in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("workers", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let _guard = force_workers(workers);
                    let (mut kchan, mut pchan) = duplex();
                    let groups2 = groups.clone();
                    let handle = std::thread::spawn(move || {
                        let kctx = ProtocolContext::new(30).narrow("mul");
                        mul_batches_keyholder(
                            &mut kchan,
                            keypair(),
                            &groups2,
                            |g| kctx.at(g as u64),
                            &packings().0,
                        )
                        .unwrap()
                    });
                    // Absorb and answer with the first ⌈64/capacity⌉
                    // ciphertexts as the reply words, so the bench isolates
                    // the keyholder's encrypt+decrypt work.
                    use ppds_transport::Channel;
                    let cts: Vec<Vec<ppds_bigint::BigUint>> = pchan.recv_batch().unwrap();
                    let words = packings().0.layout.words_for(64);
                    let reply: Vec<_> = cts.into_iter().flatten().take(words).collect();
                    pchan.send(&reply).unwrap();
                    handle.join().unwrap()
                });
            },
        );
    }
    group.finish();
}

/// One DGK comparison over a 10-bit domain at 256-bit keys: ℓ = 10
/// encrypted bits out, one packed reply word back, one decryption.
fn bench_dgk_compare(c: &mut Criterion) {
    use ppds_smc::bitwise::{dgk_batch_alice, dgk_batch_bob};
    let bound = 1023u64; // ℓ = 10
    let mut group = c.benchmark_group("dgk_compare_256bit_l10");
    group.sample_size(10);
    group.bench_function("compare", |b| {
        b.iter(|| {
            let (mut achan, mut bchan) = duplex();
            let handle = std::thread::spawn(move || {
                let ctx = ProtocolContext::new(1);
                dgk_batch_alice(&mut achan, keypair(), &[400], bound, &ctx).unwrap()
            });
            let (pk, ctx) = (&keypair().public, ProtocolContext::new(2));
            dgk_batch_bob(&mut bchan, pk, &[700], bound, &ctx).unwrap();
            handle.join().unwrap()
        });
    });
    group.finish();
}

/// Flight-recorder overhead on the hottest SMC primitive: the same
/// `dot_many` exchange with the recorder off (no sink installed — spans
/// compile down to an `enabled()` check) and on (lock-free slot claims per
/// span edge). The delta is the tracing tax a production operator pays.
fn bench_trace_overhead(c: &mut Criterion) {
    use ppds_observe::{trace, SpanRecorder, TraceSink};
    use ppds_smc::multiplication::{dot_many_keyholder, dot_many_peer};
    use std::sync::Arc;
    let rows: Vec<Vec<BigInt>> = (0..24)
        .map(|j| {
            vec![
                BigInt::from_i64(1),
                BigInt::from_i64(j % 7),
                BigInt::from_i64(j % 5),
                BigInt::from_i64((j % 7) * (j % 7) + (j % 5) * (j % 5)),
            ]
        })
        .collect();
    let xs: Vec<BigInt> = [25i64, -6, -8, 1]
        .iter()
        .map(|&v| BigInt::from_i64(v))
        .collect();
    let mask_bound = ppds_bigint::BigUint::from_u64(1 << 20);
    let mut group = c.benchmark_group("dot_many_trace_overhead");
    group.sample_size(10);
    for (label, traced) in [("untraced", false), ("traced", true)] {
        let rows = rows.clone();
        let xs = xs.clone();
        let mask_bound = mask_bound.clone();
        group.bench_function(label, move |b| {
            b.iter(|| {
                let recorder = traced.then(SpanRecorder::new);
                let _guard = recorder
                    .clone()
                    .map(|r| trace::install(r as Arc<dyn TraceSink>));
                let (mut kchan, mut pchan) = duplex();
                let xs2 = xs.clone();
                let rec2 = recorder.clone();
                let handle = std::thread::spawn(move || {
                    let _guard = rec2.map(|r| trace::install(r as Arc<dyn TraceSink>));
                    dot_many_keyholder(
                        &mut kchan,
                        keypair(),
                        &xs2,
                        24,
                        &packings().1,
                        &ProtocolContext::new(3),
                    )
                    .unwrap()
                });
                dot_many_peer(
                    &mut pchan,
                    &keypair().public,
                    &rows,
                    &mask_bound,
                    &packings().1,
                    &ProtocolContext::new(4),
                )
                .unwrap();
                handle.join().unwrap()
            });
        });
    }
    group.finish();
}

/// The two multi-exp response legs against the per-operand loops they
/// replaced (kernel on vs off, same inputs, same output bytes):
/// slot aggregation in `pack_ciphertexts` and the `dot_many` response
/// row fold via precomputed scaled bases.
fn bench_kernel_legs(c: &mut Criterion) {
    use ppds_paillier::SlotLayout;
    let kp = keypair();
    let mut r = rng(40);
    let layout = SlotLayout::new(kp.public.bits(), 24).unwrap();
    let k = layout.capacity();
    let items: Vec<_> = (0..k)
        .map(|i| {
            kp.public
                .encrypt(&BigUint::from_u64(i as u64 + 1), &mut r)
                .unwrap()
        })
        .collect();
    let plain: Vec<BigUint> = (0..k).map(|i| BigUint::from_u64(i as u64)).collect();

    let mut group = c.benchmark_group("kernel_legs_256bit");
    group.sample_size(10);
    // Time only the slot-aggregation leg (the plain word is encrypted the
    // same way on both paths): Π itemsᵢ^(2^{w·i}) folded into the word.
    let word = {
        let mut r = rng(41);
        kp.public
            .pack_encrypt(&layout, &plain, &mut r)
            .unwrap()
            .remove(0)
    };
    group.bench_function("pack_aggregation_multi_exp", |b| {
        let ctx = ppds_bigint::MontgomeryCtx::new(kp.public.n_squared()).unwrap();
        let shifts: Vec<BigUint> = (0..k).map(|i| layout.slot_shift(i)).collect();
        b.iter(|| {
            let pairs: Vec<(&BigUint, &BigUint)> = items
                .iter()
                .map(|c| c.as_biguint())
                .zip(shifts.iter())
                .collect();
            let shifted = ppds_bigint::multi_exp(&ctx, &pairs);
            &(word.as_biguint() * &shifted) % kp.public.n_squared()
        });
    });
    group.bench_function("pack_aggregation_per_operand", |b| {
        // The pre-kernel path: one mul_plain (shift) + add per item.
        b.iter(|| {
            items
                .iter()
                .enumerate()
                .fold(word.clone(), |acc, (i, item)| {
                    let shifted = kp.public.mul_plain(item, &layout.slot_shift(i));
                    kp.public.add(&acc, &shifted)
                })
        });
    });

    // dot_many response fold: 24 rows × 4 shared ciphertext bases.
    let cts: Vec<_> = (0..4u64)
        .map(|i| {
            kp.public
                .encrypt(&BigUint::from_u64(i + 2), &mut r)
                .unwrap()
        })
        .collect();
    let rows: Vec<Vec<BigInt>> = (0..24)
        .map(|j: i64| {
            vec![
                BigInt::from_i64(j - 11),
                BigInt::from_i64(j % 7),
                BigInt::from_i64(-(j % 5)),
                BigInt::from_i64(j * j),
            ]
        })
        .collect();
    let acc = kp.public.encrypt(&BigUint::from_u64(99), &mut r).unwrap();
    group.bench_function("dot_response_scaled_bases", |b| {
        b.iter(|| {
            let bases = kp.public.scaled_bases(&cts);
            rows.iter()
                .map(|ys| bases.combine_signed(&kp.public, &acc, ys))
                .collect::<Vec<_>>()
        });
    });
    group.bench_function("dot_response_per_operand", |b| {
        b.iter(|| {
            rows.iter()
                .map(|ys| {
                    cts.iter().zip(ys).fold(acc.clone(), |a, (ct, y)| {
                        kp.public.add(&a, &kp.public.mul_plain_signed(ct, y))
                    })
                })
                .collect::<Vec<_>>()
        });
    });
    group.finish();
}

/// The two batched SMC workhorses on both substrates (DESIGN.md §14), at
/// k ∈ {4, 16, 64, 256}: `dot_many` with k responder rows (one
/// neighborhood answer) on Paillier and on sharing, and
/// `mul_batches` with k four-element groups (one fused Algorithm 2
/// sweep). Same dataflow and channel round trips either way — the delta
/// is 8-byte ring elements plus dealer-tape derivation versus 256-bit
/// ciphertext legs plus encrypt/decrypt work.
fn bench_backend_workhorses(c: &mut Criterion) {
    use ppds_paillier::SlotLayout;
    use ppds_smc::multiplication::{
        dot_many_keyholder, dot_many_peer, mul_batches_keyholder, mul_batches_peer, zero_sum_masks,
    };
    use ppds_smc::sharing::{
        sharing_dot_querier, sharing_dot_responder, sharing_fold_keyholder_batch,
        sharing_fold_peer_batch, DealerTape, Fe, SharingLedger,
    };

    let packing = ResponsePacking {
        layout: SlotLayout::new(keypair().public.bits(), 24).unwrap(),
        offset: ppds_bigint::BigUint::from_u64((1 << 20) + 200),
    };
    let mask_bound = BigUint::from_u64(1 << 20);
    let xs: [i64; 4] = [25, -6, -8, 1];

    let mut group = c.benchmark_group("backend_dot_many");
    group.sample_size(10);
    for k in [4usize, 16, 64, 256] {
        let rows: Vec<Vec<i64>> = (0..k as i64)
            .map(|j| vec![1, j % 7, j % 5, (j % 7) * (j % 7) + (j % 5) * (j % 5)])
            .collect();
        let rows_big: Vec<Vec<BigInt>> = rows
            .iter()
            .map(|r| r.iter().map(|&v| BigInt::from_i64(v)).collect())
            .collect();
        let rows_fe: Vec<Vec<Fe>> = rows
            .iter()
            .map(|r| r.iter().map(|&v| Fe::embed(v)).collect())
            .collect();
        group.bench_with_input(BenchmarkId::new("paillier", k), &k, |b, &k| {
            b.iter(|| {
                let (mut kchan, mut pchan) = duplex();
                let xs2: Vec<BigInt> = xs.iter().map(|&v| BigInt::from_i64(v)).collect();
                let p2 = packing.clone();
                let handle = std::thread::spawn(move || {
                    dot_many_keyholder(
                        &mut kchan,
                        keypair(),
                        &xs2,
                        k,
                        &p2,
                        &ProtocolContext::new(3),
                    )
                    .unwrap()
                });
                dot_many_peer(
                    &mut pchan,
                    &keypair().public,
                    &rows_big,
                    &mask_bound,
                    &packing,
                    &ProtocolContext::new(4),
                )
                .unwrap();
                handle.join().unwrap()
            });
        });
        group.bench_with_input(BenchmarkId::new("sharing", k), &k, |b, &k| {
            // Both sides must share the tape seed and walk the same
            // context path — the path-symmetry contract of DESIGN.md §14.
            let tape = DealerTape::from_seed(0xD07 + k as u64);
            let ctx = ProtocolContext::new(5).at(k as u64);
            b.iter(|| {
                let (mut qchan, mut rchan) = duplex();
                let xs2: Vec<Fe> = xs.iter().map(|&v| Fe::embed(v)).collect();
                let handle = std::thread::spawn(move || {
                    let mut acct = SharingLedger::default();
                    sharing_dot_querier(&tape, &mut qchan, &xs2, k, &ctx, &mut acct).unwrap()
                });
                let mut masks_rng = ctx.narrow("bench_mask").rng();
                let masks: Vec<Fe> = (0..k).map(|_| Fe::random(&mut masks_rng)).collect();
                let mut acct = SharingLedger::default();
                sharing_dot_responder(&tape, &mut rchan, &rows_fe, &masks, &ctx, &mut acct)
                    .unwrap();
                handle.join().unwrap()
            });
        });
    }
    group.finish();

    // Zero-sum masks concentrate up to (len-1)·bound in the closing mask,
    // so the fold packing needs a wider offset than the dot-product one.
    let fold_packing = ResponsePacking {
        layout: SlotLayout::new(keypair().public.bits(), 24).unwrap(),
        offset: ppds_bigint::BigUint::from_u64(4 << 20),
    };
    let mut group = c.benchmark_group("backend_mul_batches");
    group.sample_size(10);
    for k in [4usize, 16, 64, 256] {
        let groups: Vec<Vec<i64>> = (0..k as i64)
            .map(|g| (0..4).map(|i| (g * 4 + i) % 97).collect())
            .collect();
        let groups_big: Vec<Vec<BigInt>> = groups
            .iter()
            .map(|r| r.iter().map(|&v| BigInt::from_i64(v)).collect())
            .collect();
        let groups_fe: Vec<Vec<Fe>> = groups
            .iter()
            .map(|r| r.iter().map(|&v| Fe::embed(v)).collect())
            .collect();
        group.bench_with_input(BenchmarkId::new("paillier", k), &k, |b, _| {
            b.iter(|| {
                let (mut kchan, mut pchan) = duplex();
                let g2 = groups_big.clone();
                let p2 = fold_packing.clone();
                let handle = std::thread::spawn(move || {
                    let kctx = ProtocolContext::new(20).narrow("mul");
                    mul_batches_keyholder(&mut kchan, keypair(), &g2, |g| kctx.at(g as u64), &p2)
                        .unwrap()
                });
                let pctx = ProtocolContext::new(21).narrow("mul");
                mul_batches_peer(
                    &mut pchan,
                    &keypair().public,
                    &groups_big,
                    |g| zero_sum_masks(pctx.narrow("mask").at(g as u64).rng(), 4, &mask_bound),
                    |g| pctx.at(g as u64),
                    &fold_packing,
                )
                .unwrap();
                handle.join().unwrap()
            });
        });
        group.bench_with_input(BenchmarkId::new("sharing", k), &k, |b, _| {
            let tape = DealerTape::from_seed(0xF01D + k as u64);
            let ctx = ProtocolContext::new(22).narrow("mul");
            b.iter(|| {
                let (mut kchan, mut pchan) = duplex();
                let g2 = groups_fe.clone();
                let handle = std::thread::spawn(move || {
                    let mut acct = SharingLedger::default();
                    sharing_fold_keyholder_batch(
                        &tape,
                        &mut kchan,
                        &g2,
                        |g| ctx.at(g as u64),
                        &mut acct,
                    )
                    .unwrap()
                });
                let mut acct = SharingLedger::default();
                sharing_fold_peer_batch(
                    &tape,
                    &mut pchan,
                    &groups_fe,
                    |g| ctx.at(g as u64),
                    &mut acct,
                )
                .unwrap();
                handle.join().unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_multiplication,
    bench_yao,
    bench_ideal_compare,
    bench_kth_selection,
    bench_batching_ablation,
    bench_keyed_derivation,
    bench_parallel_batch_encryption,
    bench_dgk_compare,
    bench_kernel_legs,
    bench_trace_overhead,
    bench_backend_workhorses
);
criterion_main!(benches);
