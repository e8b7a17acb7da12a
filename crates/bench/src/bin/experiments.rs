//! Experiment regenerator: one sub-command per experiment in EXPERIMENTS.md
//! (which records a full run of `all`). The paper has no empirical tables —
//! its evaluation is the communication-complexity analyses of §4.2.2,
//! §4.3.2, §5.1, the privacy theorems and the Figure 1 attack — so every
//! experiment here measures one of those analytical claims.
//!
//! Usage:
//! `cargo run -p ppds-bench --bin experiments --release -- [e1..e13|e13smoke|f1|all]`
//! `cargo run -p ppds-bench --bin experiments --release -- --json <path>`
//!
//! `--json <path>` runs the round-batching (E10) and sharing-backend (E12)
//! protocol sweeps and writes per-protocol `{backend, rounds, messages,
//! bytes, modeled_lan_ms, modeled_wan_ms}` records — the bench trajectory
//! future PRs diff against (the repo keeps one run as
//! `BENCH_protocols.json`).
//!
//! `--backend <paillier|sharing>` restricts the sweeps (and the trajectory)
//! to one SMC substrate; by default both are swept so the trajectory carries
//! per-backend rows. E12 (the cross-backend comparison) is
//! Paillier-anchored and is skipped under `--backend sharing`, which
//! instead prints the E10 rows on the sharing substrate.

use ppdbscan::config::ProtocolConfig;
use ppdbscan::session::{run_participants, Participant, PartyData};
use ppdbscan::{ArbitraryPartition, PartyOutput, VerticalPartition};
use ppds_bench::{
    blob_workload, fmt_bytes, print_header, print_row, rng, run_arbitrary_pair, run_enhanced_pair,
    run_horizontal_pair, run_vertical_pair,
};
use ppds_bigint::{BigInt, BigUint};
use ppds_dbscan::datagen::{cluster_in_ring, split_alternating, two_moons};
use ppds_dbscan::{dbscan, dbscan_with_external_density, eval, DbscanParams, Point, Quantizer};
use ppds_observe::{chrome_trace, SessionTrace, SpanRecorder};
use ppds_paillier::Keypair;
use ppds_smc::compare::{
    compare_batch_alice, compare_batch_bob, CmpOp, Comparator, ComparisonDomain,
};
use ppds_smc::kth::{kth_smallest_with, SelectionMethod};
use ppds_smc::millionaires;
use ppds_smc::multiplication::{mul_batches_keyholder, mul_batches_peer};
use ppds_smc::{
    BackendKind, PaillierBackend, Party, ProtocolContext, ResponsePacking, SharingLedger,
};
use ppds_transport::{duplex, Channel, CostModel};
use std::sync::Arc;
use std::time::Instant;

fn section(title: &str) {
    println!("\n### {title}\n");
}

/// E1 — §4.2.2: horizontal protocol communication is
/// `O(c1·m·l(n−l) + c2·n0·l(n−l))`.
fn e1() {
    section("E1  Horizontal protocol: communication vs n, m (§4.2.2)");
    println!("Sweep n (m = 2, even split l = n/2):\n");
    let widths = [4, 4, 6, 9, 12, 13, 14, 12];
    print_header(
        &widths,
        &[
            "n",
            "l",
            "pairs",
            "queries",
            "comparisons",
            "wire bytes",
            "modeled Yao",
            "bytes/pair",
        ],
    );
    for n in [12usize, 24, 36, 48] {
        let w = blob_workload(n, 2, 1000 + n as u64);
        let (a, b) = run_horizontal_pair(&w.cfg, &w.alice, &w.bob, rng(1), rng(2)).unwrap();
        let queries =
            a.leakage.count_kind("neighbor_count") + b.leakage.count_kind("neighbor_count");
        let pairs = a.yao.comparisons; // = Σ queries × peer-size
        print_row(
            &widths,
            &[
                format!("{}", w.all.len()),
                format!("{}", w.alice.len()),
                format!("{pairs}"),
                format!("{queries}"),
                format!("{}", a.yao.comparisons),
                fmt_bytes(a.traffic.total_bytes()),
                fmt_bytes(a.yao.modeled_bytes),
                format!("{}", a.traffic.total_bytes() / pairs.max(1)),
            ],
        );
    }
    println!("\nSweep m at n = 24 (ciphertext term `c1·m` isolated as wire-byte delta):\n");
    let widths = [4, 12, 13, 18];
    print_header(
        &widths,
        &["m", "comparisons", "wire bytes", "bytes/(pair*m)"],
    );
    for m in [2usize, 4, 8] {
        let w = blob_workload(24, m, 2000 + m as u64);
        let (a, _) = run_horizontal_pair(&w.cfg, &w.alice, &w.bob, rng(3), rng(4)).unwrap();
        print_row(
            &widths,
            &[
                format!("{m}"),
                format!("{}", a.yao.comparisons),
                fmt_bytes(a.traffic.total_bytes()),
                format!(
                    "{:.1}",
                    a.traffic.total_bytes() as f64 / (a.yao.comparisons.max(1) as f64 * m as f64)
                ),
            ],
        );
    }
    println!("\nSweep coordinate bound C at n = 12, m = 2 (Yao domain n0 ∝ m·C²):\n");
    let widths = [5, 9, 12, 16];
    print_header(&widths, &["C", "n0", "modeled Yao", "modeled/cmp (B)"]);
    // Fixed small points (within ±10), only the *agreed* bound C grows —
    // the domain, and with it the faithful-Yao cost, scales as C².
    let alice: Vec<Point> = (0..6).map(|i| Point::new(vec![i * 3 - 8, 2])).collect();
    let bob: Vec<Point> = (0..6).map(|i| Point::new(vec![i * 3 - 7, -2])).collect();
    for bound in [15i64, 30, 60, 120] {
        let mut cfg = ProtocolConfig::new(
            DbscanParams {
                eps_sq: 81,
                min_pts: 3,
            },
            bound,
        );
        cfg.key_bits = 256;
        let domain = ppdbscan::domain::hdp_domain(&cfg, 2);
        let (a, _) = run_horizontal_pair(&cfg, &alice, &bob, rng(5), rng(6)).unwrap();
        print_row(
            &widths,
            &[
                format!("{bound}"),
                format!("{}", domain.n0()),
                fmt_bytes(a.yao.modeled_bytes),
                format!("{}", a.yao.modeled_bytes / a.yao.comparisons.max(1)),
            ],
        );
    }
}

/// E2 — §4.3.2: vertical protocol communication is `O(c2·n0·n²)`.
fn e2() {
    section("E2  Vertical protocol: communication vs n (§4.3.2)");
    let widths = [4, 9, 12, 14, 13, 14];
    print_header(
        &widths,
        &[
            "n",
            "queries",
            "comparisons",
            "cmp/n²",
            "wire bytes",
            "modeled Yao",
        ],
    );
    for n in [9usize, 18, 27, 36] {
        let w = blob_workload(n, 2, 4000 + n as u64);
        let partition = VerticalPartition::split(&w.all, 1);
        let (a, _) = run_vertical_pair(&w.cfg, &partition, rng(7), rng(8)).unwrap();
        let n_actual = w.all.len();
        print_row(
            &widths,
            &[
                format!("{n_actual}"),
                format!("{}", a.leakage.count_kind("neighbor_count")),
                format!("{}", a.yao.comparisons),
                format!(
                    "{:.2}",
                    a.yao.comparisons as f64 / (n_actual * n_actual) as f64
                ),
                fmt_bytes(a.traffic.total_bytes()),
                fmt_bytes(a.yao.modeled_bytes),
            ],
        );
    }
    println!("\ncmp/n² stays ~constant: the §4.3.2 quadratic term, with the constant");
    println!("equal to (region queries per point) ≈ 1 when most points join clusters.");
}

/// E3 — §5.1: enhanced protocol stays within the same asymptotic envelope;
/// the constant-factor and mask-width (σ) trade-offs quantified.
fn e3() {
    section("E3  Basic vs enhanced protocol (§5.1) and the σ ablation");
    let w = blob_workload(24, 2, 5000);
    let (basic, _) = run_horizontal_pair(&w.cfg, &w.alice, &w.bob, rng(9), rng(10)).unwrap();
    let widths = [22, 12, 13, 14];
    print_header(
        &widths,
        &["protocol", "comparisons", "wire bytes", "modeled Yao"],
    );
    print_row(
        &widths,
        &[
            "basic".into(),
            format!("{}", basic.yao.comparisons),
            fmt_bytes(basic.traffic.total_bytes()),
            fmt_bytes(basic.yao.modeled_bytes),
        ],
    );
    for (label, selection) in [
        ("enhanced/repeated-min", SelectionMethod::RepeatedMin),
        ("enhanced/quickselect", SelectionMethod::QuickSelect),
    ] {
        let mut cfg = w.cfg;
        cfg.selection = selection;
        let (enh, _) = run_enhanced_pair(&cfg, &w.alice, &w.bob, rng(11), rng(12)).unwrap();
        assert_eq!(enh.clustering, basic.clustering, "same output required");
        print_row(
            &widths,
            &[
                label.into(),
                format!("{}", enh.yao.comparisons),
                fmt_bytes(enh.traffic.total_bytes()),
                fmt_bytes(enh.yao.modeled_bytes),
            ],
        );
    }
    println!("\nMask-width ablation (enhanced, repeated-min): σ drives the share-");
    println!("comparison domain and therefore the faithful-Yao model cost:\n");
    let widths = [4, 14, 14];
    print_header(&widths, &["σ", "share n0", "modeled Yao"]);
    for mask_bits in [4u32, 8, 12, 16, 20] {
        let mut cfg = w.cfg;
        cfg.mask_bits = mask_bits;
        let n0 = ppdbscan::domain::enhanced_share_domain(&cfg, 2).n0();
        let (enh, _) = run_enhanced_pair(&cfg, &w.alice, &w.bob, rng(13), rng(14)).unwrap();
        print_row(
            &widths,
            &[
                format!("{mask_bits}"),
                format!("{n0:.2e}"),
                fmt_bytes(enh.yao.modeled_bytes),
            ],
        );
    }
}

/// E4 — correctness contract: private runs vs plaintext references.
fn e4() {
    section("E4  Correctness: private protocols vs plaintext DBSCAN");
    let quantizer = Quantizer::new(1.0, 60);
    let (moons, _) = two_moons(&mut rng(20), 12, 30.0, 1.0, quantizer);
    let (rings, _) = cluster_in_ring(&mut rng(21), 10, 14, 2.0, 25.0, 0.5, quantizer);
    let blob = blob_workload(24, 2, 6000);
    let workloads: Vec<(&str, Vec<Point>, DbscanParams)> = vec![
        ("blobs", blob.all.clone(), blob.cfg.params),
        (
            "moons",
            moons,
            DbscanParams {
                eps_sq: 81,
                min_pts: 3,
            },
        ),
        (
            "rings",
            rings,
            DbscanParams {
                eps_sq: 100,
                min_pts: 3,
            },
        ),
    ];
    let widths = [7, 16, 17, 17, 21];
    print_header(
        &widths,
        &[
            "data",
            "vertical==plain",
            "arbitrary==plain",
            "horiz==reference",
            "horiz RI vs central",
        ],
    );
    for (name, records, params) in workloads {
        let cfg = ProtocolConfig::new(params, 60);
        let reference = dbscan(&records, params);

        let vp = VerticalPartition::split(&records, 1);
        let (v, _) = run_vertical_pair(&cfg, &vp, rng(22), rng(23)).unwrap();

        let ap = ArbitraryPartition::random(&mut rng(24), &records);
        let (ar, _) = run_arbitrary_pair(&cfg, &ap, rng(25), rng(26)).unwrap();

        let (alice_pts, bob_pts) = split_alternating(&records);
        let (h, _) = run_horizontal_pair(&cfg, &alice_pts, &bob_pts, rng(27), rng(28)).unwrap();
        let h_ref = dbscan_with_external_density(&alice_pts, &bob_pts, params);
        let central_alice = ppds_dbscan::Clustering {
            labels: dbscan(&records, params).labels[..]
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == 0)
                .map(|(_, l)| *l)
                .collect(),
            num_clusters: reference.num_clusters,
        };
        print_row(
            &widths,
            &[
                name.into(),
                format!("{}", v.clustering == reference),
                format!("{}", ar.clustering == reference),
                format!("{}", h.clustering == h_ref),
                format!("{:.4}", eval::rand_index(&h.clustering, &central_alice)),
            ],
        );
    }
    println!("\nThe horizontal protocol matches its own reference semantics exactly;");
    println!("vs centralized DBSCAN it diverges only when clusters are bridged solely");
    println!("by peer points (RI < 1 would flag that; dense splits give RI = 1).");
}

/// E5 — Theorem 9 vs 10 vs 11: measured leakage-event profiles.
fn e5() {
    section("E5  Leakage profiles (Theorems 9, 10, 11)");
    let w = blob_workload(24, 2, 7000);
    let (basic_a, basic_b) =
        run_horizontal_pair(&w.cfg, &w.alice, &w.bob, rng(30), rng(31)).unwrap();
    let (enh_a, enh_b) = run_enhanced_pair(&w.cfg, &w.alice, &w.bob, rng(32), rng(33)).unwrap();
    let vp = VerticalPartition::split(&w.all, 1);
    let (vert_a, _) = run_vertical_pair(&w.cfg, &vp, rng(34), rng(35)).unwrap();

    let widths = [26, 15, 11, 13, 15];
    print_header(
        &widths,
        &[
            "run",
            "neighbor_count",
            "core_bit",
            "own_matched",
            "threshold_rank",
        ],
    );
    for (name, log) in [
        ("basic horizontal (Alice)", &basic_a.leakage),
        ("basic horizontal (Bob)", &basic_b.leakage),
        ("enhanced (Alice)", &enh_a.leakage),
        ("enhanced (Bob)", &enh_b.leakage),
        ("vertical (Alice)", &vert_a.leakage),
    ] {
        print_row(
            &widths,
            &[
                name.into(),
                format!("{}", log.count_kind("neighbor_count")),
                format!("{}", log.count_kind("core_point_bit")),
                format!("{}", log.count_kind("own_point_matched")),
                format!("{}", log.count_kind("threshold_rank")),
            ],
        );
    }
    println!("\nTheorem 9: counts leak in the basic run. Theorem 11: the enhanced run");
    println!("replaces every count with a single core bit. Theorem 10: the vertical");
    println!("protocol's output itself is the neighborhood structure.");
}

/// The `(multiplication, dot product)` response packings a session with
/// `key_bits`-bit keys derives for `dim` attributes of coordinate bound
/// 100 at σ = 20: the reply layout the stand-alone primitive experiments
/// use (offsets above 2^33, so every mask they draw fits).
fn session_packings(key_bits: usize, dim: usize) -> (ResponsePacking, ResponsePacking) {
    let mut cfg = ProtocolConfig::new(
        DbscanParams {
            eps_sq: 25,
            min_pts: 3,
        },
        100,
    );
    cfg.key_bits = key_bits;
    ppdbscan::domain::response_packings(&cfg, dim).expect("keys of 64+ bits fit one slot")
}

/// E6 — §4.1: the Multiplication Protocol costs O(c1) per invocation.
fn e6() {
    section("E6  Multiplication Protocol cost vs key size (§4.1)");
    let widths = [9, 12, 14, 12];
    print_header(&widths, &["key bits", "bytes/call", "time/call", "keygen"]);
    for key_bits in [128usize, 256, 512, 1024] {
        let t0 = Instant::now();
        let keypair = Keypair::generate(key_bits, &mut rng(40));
        let keygen = t0.elapsed();
        let reps = 20;
        let (packing, _) = session_packings(key_bits, 1);
        let (mut kchan, mut pchan) = duplex();
        let kp = keypair.clone();
        let p2 = packing.clone();
        let handle = std::thread::spawn(move || {
            let kctx = ProtocolContext::new(41);
            // One product per call: the one-group, one-element batch.
            for i in 0..reps {
                let _ = mul_batches_keyholder(
                    &mut kchan,
                    &kp,
                    &[vec![BigInt::from_i64(37 + i)]],
                    |_| kctx.at(i as u64),
                    &p2,
                )
                .unwrap();
            }
            kchan.metrics()
        });
        let pctx = ProtocolContext::new(42);
        let t0 = Instant::now();
        let mask_bound = BigUint::from_u64(1 << 30);
        for i in 0..reps {
            mul_batches_peer(
                &mut pchan,
                &keypair.public,
                &[vec![BigInt::from_i64(53 + i)]],
                |_| {
                    vec![ppds_smc::multiplication::sample_mask(
                        pctx.narrow("mask").rng_for(i as u64),
                        &mask_bound,
                    )]
                },
                |_| pctx.at(i as u64),
                &packing,
            )
            .unwrap();
        }
        let per_call = t0.elapsed() / reps as u32;
        let metrics = handle.join().unwrap();
        print_row(
            &widths,
            &[
                format!("{key_bits}"),
                format!("{}", metrics.total_bytes() / reps as u64),
                format!("{per_call:.2?}"),
                format!("{keygen:.2?}"),
            ],
        );
    }
    println!("\nBytes/call = 2 ciphertexts ≈ 4·(key bits)/8 (plus two 4-byte batch counts):");
    println!("the O(c1) claim, with");
    println!("c1 the ciphertext width. Time is dominated by the Paillier decryption.");
}

/// E7 — §3.8: YMPP costs O(c2·n0) bits and O(n0) decryptions.
fn e7() {
    section("E7  Yao's Millionaires' Protocol cost vs domain size n0 (§3.8)");
    let keypair = Keypair::generate(256, &mut rng(50));
    let widths = [6, 13, 13, 12, 13];
    print_header(
        &widths,
        &["n0", "measured B", "modeled B", "time", "decryptions"],
    );
    for n0 in [16u64, 64, 256, 1024] {
        let domain = ComparisonDomain::new(1, n0 as i64 - 1);
        assert_eq!(domain.n0(), n0);
        let (mut achan, mut bchan) = duplex();
        let kp = keypair.clone();
        let handle = std::thread::spawn(move || {
            compare_batch_alice(
                Comparator::Yao,
                &mut achan,
                &kp,
                &[2],
                CmpOp::Lt,
                &domain,
                &ProtocolContext::new(51),
            )
            .unwrap();
            achan.metrics()
        });
        let t0 = Instant::now();
        compare_batch_bob(
            Comparator::Yao,
            &mut bchan,
            &keypair.public,
            &[5.min(n0 as i64 - 2)],
            CmpOp::Lt,
            &domain,
            &ProtocolContext::new(52),
        )
        .unwrap();
        let elapsed = t0.elapsed();
        let metrics = handle.join().unwrap();
        let (m1, m2, m3) = millionaires::modeled_message_sizes(256, n0);
        print_row(
            &widths,
            &[
                format!("{n0}"),
                format!("{}", metrics.total_bytes()),
                format!("{}", m1 + m2 + m3 + 12),
                format!("{elapsed:.2?}"),
                format!("{n0}"),
            ],
        );
    }
    println!("\nMeasured bytes track the model within BigUint minimal-length noise;");
    println!("both scale linearly in n0 — the c2·n0 term of every complexity bound.");
}

/// E8 — §5's two selection algorithms: O(kn) repeated-min vs expected-O(n)
/// quickselect.
fn e8() {
    section("E8  k-th smallest selection: repeated-min vs quickselect (§5)");
    let keypair = Keypair::generate(64, &mut rng(60));
    // Selection only compares; the backend still carries the response
    // packings a 64-bit session derives.
    let (mul_packing, dot_packing) = session_packings(64, 2);
    let widths = [5, 5, 15, 14];
    print_header(&widths, &["n", "k", "repeated-min", "quickselect"]);
    for n in [16usize, 32, 64] {
        for k in [1usize, 4, n / 2, n - 1] {
            let mut counts = Vec::new();
            for method in [SelectionMethod::RepeatedMin, SelectionMethod::QuickSelect] {
                let mut r = rng(61);
                use rand::Rng as _;
                let dists: Vec<i64> = (0..n).map(|_| r.random_range(0..1000)).collect();
                let vs: Vec<i64> = (0..n).map(|_| r.random_range(-500..500)).collect();
                let us: Vec<i64> = dists.iter().zip(&vs).map(|(d, v)| d + v).collect();
                let domain = ComparisonDomain::symmetric(4000);
                let (mut achan, mut bchan) = duplex();
                let backend = PaillierBackend {
                    my_keypair: &keypair,
                    peer_pk: &keypair.public,
                    comparator: Comparator::Ideal,
                    mul_packing: mul_packing.clone(),
                    dot_packing: dot_packing.clone(),
                    mul_mask_bound: BigUint::zero(),
                    dot_mask_bound: BigUint::zero(),
                };
                let select =
                    |chan: &mut ppds_transport::MemoryChannel, role, shares: &[i64], seed| {
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
                let outcome = std::thread::scope(|s| {
                    let alice = s.spawn(|| select(&mut achan, Party::Alice, &us, 62));
                    let bob = select(&mut bchan, Party::Bob, &vs, 63);
                    assert_eq!(alice.join().unwrap(), bob);
                    bob
                });
                counts.push(outcome.comparisons);
            }
            print_row(
                &widths,
                &[
                    format!("{n}"),
                    format!("{k}"),
                    format!("{}", counts[0]),
                    format!("{}", counts[1]),
                ],
            );
        }
    }
    println!("\nRepeated-min grows with k (O(kn)); quickselect stays near-linear in n.");
    println!("Crossover sits at small k — matching §5's \"good for small k\" guidance.");
}

/// E9 — the multi-party extension (paper §6 future work): per-party cost
/// as the number of parties grows at fixed total data size.
fn e9() {
    section("E9  Multi-party extension: per-party cost vs K (total n fixed)");
    let widths = [4, 8, 13, 14, 13];
    print_header(
        &widths,
        &["K", "n/party", "wire/party", "comparisons", "counts seen"],
    );
    let total = 24usize;
    for k in [2usize, 3, 4, 6] {
        let w = blob_workload(total, 2, 8000);
        // Deal the same points round-robin to K parties.
        let mut parties: Vec<Vec<Point>> = vec![Vec::new(); k];
        for (i, p) in w.all.iter().enumerate() {
            parties[i % k].push(p.clone());
        }
        let outputs: Vec<PartyOutput> = ppdbscan::session::run_mesh_local(&w.cfg, &parties, 42)
            .unwrap()
            .into_iter()
            .map(|outcome| outcome.output)
            .collect();
        let avg_bytes: u64 =
            outputs.iter().map(|o| o.traffic.total_bytes()).sum::<u64>() / k as u64;
        let avg_cmp: u64 = outputs.iter().map(|o| o.yao.comparisons).sum::<u64>() / k as u64;
        let avg_counts: usize = outputs
            .iter()
            .map(|o| o.leakage.count_kind("neighbor_count"))
            .sum::<usize>()
            / k;
        print_row(
            &widths,
            &[
                format!("{k}"),
                format!("{}", parties[0].len()),
                fmt_bytes(avg_bytes),
                format!("{avg_cmp}"),
                format!("{avg_counts}"),
            ],
        );
    }
    println!("\nPer-party pair work is (n/K)·(n − n/K): it falls as K grows (each");
    println!("party queries fewer own points), while the leakage grows finer-grained");
    println!("(K−1 separate counts per query) — the trade the module docs discuss.");
}

/// One row of the protocol sweeps: a protocol family on one substrate and
/// transport, with the measured wire figures and modeled link times.
#[derive(Clone)]
struct ProtocolRow {
    protocol: &'static str,
    backend: &'static str,
    rounds: u64,
    messages: u64,
    bytes: u64,
    lan_ms: f64,
    wan_ms: f64,
}

/// Runs one closure per two-party protocol family on the canonical n = 36
/// blob workload (shared by the E10 and E12 sweeps).
#[allow(clippy::type_complexity)]
fn protocol_runs<'a>(
    w: &'a ppds_bench::Workload,
    vp: &'a VerticalPartition,
    ap: &'a ArbitraryPartition,
) -> Vec<(
    &'static str,
    Box<dyn Fn(&ProtocolConfig) -> (PartyOutput, PartyOutput) + 'a>,
)> {
    vec![
        (
            "horizontal",
            Box::new(|cfg| run_horizontal_pair(cfg, &w.alice, &w.bob, rng(81), rng(82)).unwrap()),
        ),
        (
            "enhanced",
            Box::new(|cfg| run_enhanced_pair(cfg, &w.alice, &w.bob, rng(83), rng(84)).unwrap()),
        ),
        (
            // Quickselect ships each partition level as one comparison batch
            // (repeated-min is sequential by construction), and a higher
            // MinPts forces the joint core tests to engage.
            "enhanced-quickselect",
            Box::new(|cfg| {
                let mut cfg = *cfg;
                cfg.selection = SelectionMethod::QuickSelect;
                cfg.params.min_pts = 6;
                run_enhanced_pair(&cfg, &w.alice, &w.bob, rng(83), rng(84)).unwrap()
            }),
        ),
        (
            "vertical",
            Box::new(|cfg| run_vertical_pair(cfg, vp, rng(85), rng(86)).unwrap()),
        ),
        (
            "arbitrary",
            Box::new(|cfg| run_arbitrary_pair(cfg, ap, rng(87), rng(88)).unwrap()),
        ),
    ]
}

fn row_from(protocol: &'static str, cfg: &ProtocolConfig, out: &PartyOutput) -> ProtocolRow {
    let t = out.traffic;
    ProtocolRow {
        protocol,
        backend: cfg.backend.name(),
        rounds: t.total_rounds(),
        messages: t.total_messages(),
        bytes: t.total_bytes(),
        lan_ms: CostModel::lan().estimate(&t).as_secs_f64() * 1e3,
        wan_ms: CostModel::wan().estimate(&t).as_secs_f64() * 1e3,
    }
}

/// Runs every two-party protocol family once on the canonical n = 36 blob
/// workload and returns one row per protocol, all on the given SMC
/// substrate.
fn protocol_sweep(backend: BackendKind) -> Vec<ProtocolRow> {
    let w = blob_workload(36, 2, 9_100);
    let vp = VerticalPartition::split(&w.all, 1);
    let ap = ArbitraryPartition::random(&mut rng(9_101), &w.all);
    let cfg = w.cfg.with_backend(backend);
    let rows = protocol_runs(&w, &vp, &ap)
        .iter()
        .map(|(protocol, run)| row_from(protocol, &cfg, &run(&cfg).0))
        .collect();
    rows
}

/// E10 — round batching, the one framing every protocol runs: each
/// neighborhood query ships one wire frame per protocol message, so wire
/// rounds are O(1) per query while the logical messages — the paper's
/// per-comparison message count — stay as the analysis states them. The
/// "1 msg/round" column models the paper's ping-pong framing on the same
/// WAN link by charging one round per logical message.
fn e10(backend: BackendKind) -> Vec<ProtocolRow> {
    section(&format!(
        "E10  Round batching: wire rounds vs logical messages (n = 36, {})",
        backend.name()
    ));
    let rows = protocol_sweep(backend);
    let widths = [20, 8, 9, 8, 11, 9, 10, 13];
    print_header(
        &widths,
        &[
            "protocol",
            "rounds",
            "messages",
            "msg/rnd",
            "wire bytes",
            "LAN ms",
            "WAN ms",
            "1 msg/round",
        ],
    );
    for row in &rows {
        let one_round_per_message = ppds_transport::MetricsSnapshot {
            rounds_sent: row.messages,
            bytes_sent: row.bytes,
            ..Default::default()
        };
        print_row(
            &widths,
            &[
                row.protocol.into(),
                format!("{}", row.rounds),
                format!("{}", row.messages),
                format!("{:.1}", row.messages as f64 / row.rounds.max(1) as f64),
                fmt_bytes(row.bytes),
                format!("{:.1}", row.lan_ms),
                format!("{:.0}", row.wan_ms),
                format!(
                    "{:.0}",
                    CostModel::wan()
                        .estimate(&one_round_per_message)
                        .as_secs_f64()
                        * 1e3
                ),
            ],
        );
    }
    println!("\nRounds are O(1) per neighborhood query; the logical-message counter");
    println!("keeps the paper's per-comparison count, and the last column models");
    println!("what one round per message would cost on the 20 ms-per-hop WAN.");
    rows
}

/// E12 — DESIGN.md §14: the additive-sharing backend replaces every
/// ciphertext leg of the three SMC workhorses with 8-byte ring elements.
/// Each protocol family is run on Paillier and on the sharing substrate; labels and leakage logs are asserted identical
/// before any number is reported, and the vertical protocol must cut wire
/// bytes by at least 10x (the PR's acceptance bar). The dealer-tape
/// precomputation the online run consumes is ledgered per row.
fn e12() -> Vec<ProtocolRow> {
    section("E12  Secret-sharing backend vs Paillier (n = 36)");
    let w = blob_workload(36, 2, 9_100);
    let vp = VerticalPartition::split(&w.all, 1);
    let ap = ArbitraryPartition::random(&mut rng(9_101), &w.all);
    let widths = [20, 11, 11, 7, 8, 9, 11];
    print_header(
        &widths,
        &[
            "protocol",
            "paillier B",
            "sharing B",
            "cut",
            "triples",
            "compares",
            "offline B",
        ],
    );
    let mut rows = Vec::new();
    for (protocol, run) in &protocol_runs(&w, &vp, &ap) {
        let paillier_cfg = w.cfg;
        let sharing_cfg = w.cfg.with_backend(BackendKind::Sharing);
        let p = run(&paillier_cfg);
        let s = run(&sharing_cfg);
        assert_eq!(p.0.clustering, s.0.clustering, "{protocol}: backend parity");
        assert_eq!(p.0.leakage, s.0.leakage, "{protocol}: backend parity");
        let (pb, sb) = (p.0.traffic.total_bytes(), s.0.traffic.total_bytes());
        if *protocol == "vertical" {
            assert!(
                sb * 10 <= pb,
                "vertical sharing run must move >=10x fewer bytes ({sb} vs {pb})"
            );
        }
        let ledger = &s.0.sharing;
        print_row(
            &widths,
            &[
                (*protocol).into(),
                fmt_bytes(pb),
                fmt_bytes(sb),
                format!("{:.1}x", pb as f64 / sb as f64),
                format!("{}", ledger.triples),
                format!("{}", ledger.compares),
                fmt_bytes(ledger.modeled_offline_bytes),
            ],
        );
        rows.push(row_from(protocol, &sharing_cfg, &s.0));
    }
    println!("\nEvery ciphertext leg (DGK bit vectors, masked-distance and masked-");
    println!("product replies) becomes one or two ring elements per item, so the");
    println!("byte cut tracks the ciphertext width / 8 B ratio. The \"offline B\"");
    println!("column models the Beaver-triple material a dealer would ship ahead");
    println!("of time — the classic online/offline trade the backend makes.");
    rows
}

/// One flight-recorded session per protocol mode on the canonical n = 36
/// workload. Each trace is
/// schema-validated before it is returned, so downstream serializers can
/// unwrap rollups.
fn traced_runs() -> Vec<(&'static str, SessionTrace)> {
    let w = blob_workload(36, 2, 9_100);
    let vp = VerticalPartition::split(&w.all, 1);
    let ap = ArbitraryPartition::random(&mut rng(9_101), &w.all);
    let cfg = w.cfg;
    let mut out: Vec<(&'static str, SessionTrace)> = Vec::new();

    let mut two_party = |mode: &'static str, alice: PartyData, bob: PartyData| {
        let recorder = SpanRecorder::new();
        let (a, _) = run_participants(
            Participant::new(cfg)
                .role(Party::Alice)
                .data(alice)
                .rng(rng(81))
                .trace(Arc::clone(&recorder)),
            Participant::new(cfg)
                .role(Party::Bob)
                .data(bob)
                .rng(rng(82)),
        )
        .unwrap_or_else(|e| panic!("traced {mode} session failed: {e}"));
        let trace = a.trace.expect("traced participant returns a trace");
        trace
            .validate()
            .unwrap_or_else(|e| panic!("{mode} trace schema: {e}"));
        out.push((mode, trace));
    };
    two_party(
        "horizontal",
        PartyData::Horizontal(w.alice.clone()),
        PartyData::Horizontal(w.bob.clone()),
    );
    two_party(
        "enhanced",
        PartyData::Enhanced(w.alice.clone()),
        PartyData::Enhanced(w.bob.clone()),
    );
    two_party(
        "vertical",
        PartyData::Vertical(vp.alice.clone()),
        PartyData::Vertical(vp.bob.clone()),
    );
    two_party(
        "arbitrary",
        PartyData::Arbitrary(ap.alice_values.clone()),
        PartyData::Arbitrary(ap.bob_values.clone()),
    );
    out.push(("multiparty", traced_mesh(&cfg, &w.all, 42)));
    out
}

/// Runs a 3-party mesh session (points dealt round-robin) with the flight
/// recorder attached to node 0 and returns node 0's validated trace.
fn traced_mesh(cfg: &ProtocolConfig, all: &[Point], seed: u64) -> SessionTrace {
    let k = 3usize;
    let mut parties: Vec<Vec<Point>> = vec![Vec::new(); k];
    for (i, p) in all.iter().enumerate() {
        parties[i % k].push(p.clone());
    }
    let mut channels: Vec<Vec<(usize, _)>> = (0..k).map(|_| Vec::new()).collect();
    for i in 0..k {
        for j in i + 1..k {
            let (a, b) = duplex();
            channels[i].push((j, a));
            channels[j].push((i, b));
        }
    }
    let recorder = SpanRecorder::new();
    let mut trace = None;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (my_id, (mut peers, points)) in channels.drain(..).zip(&parties).enumerate() {
            let mut participant = Participant::new(*cfg)
                .data(PartyData::Multiparty(points.clone()))
                .seed(seed.wrapping_add(my_id as u64));
            if my_id == 0 {
                participant = participant.trace(Arc::clone(&recorder));
            }
            handles.push(scope.spawn(move || participant.run_mesh(&mut peers, my_id, k)));
        }
        for (i, handle) in handles.into_iter().enumerate() {
            let outcome = handle
                .join()
                .expect("mesh node thread")
                .unwrap_or_else(|e| panic!("traced mesh node {i} failed: {e}"));
            if i == 0 {
                trace = outcome.trace;
            }
        }
    });
    let trace = trace.expect("traced node 0 returns a trace");
    trace
        .validate()
        .unwrap_or_else(|e| panic!("multiparty trace schema: {e}"));
    trace
}

/// Writes the Chrome trace-event file (`chrome://tracing` /
/// <https://ui.perfetto.dev> loadable): one process per protocol mode, one
/// track per recorder thread.
fn write_trace_json(path: &str, runs: &[(&'static str, SessionTrace)]) {
    let sessions: Vec<(&str, &SessionTrace)> = runs.iter().map(|(mode, t)| (*mode, t)).collect();
    std::fs::write(path, chrome_trace(&sessions))
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("\nwrote Chrome trace ({} sessions) to {path}", runs.len());
}

/// Serializes the sweep as the machine-readable bench trajectory. The
/// top-level `wire_version` records the session-handshake format,
/// `randomness` the RNG discipline (`keyed-v1` = `ProtocolContext`
/// substreams) and `sharing` the secret-sharing discipline (ring width and
/// share convention of the E12 rows) the run used, so a reader knows which
/// builds a trajectory is comparable with: frame sizes shift slightly between wire versions,
/// and counts that depend on drawn values (the enhanced protocol's
/// quickselect partition paths depend on the masks) shift when the
/// derivation scheme changes. Data-independent counts (horizontal,
/// vertical, arbitrary rounds/messages) are stable across both.
/// Per-phase wire attribution from the flight-recorded runs, as the
/// top-level `"phases"` key: one row per (mode, normalized step path) with
/// span count and bytes/messages/rounds deltas. Wall times are deliberately
/// omitted — every field here is a deterministic function of the seeds, so
/// the trajectory stays diffable across machines.
fn phases_json(runs: &[(&'static str, SessionTrace)]) -> String {
    let mut out = String::from("  \"phases\": [\n");
    let mut rows = Vec::new();
    for (mode, trace) in runs {
        for r in trace.rollup().expect("validated upstream") {
            rows.push(format!(
                "    {{\"mode\": \"{}\", \"path\": \"{}\", \"count\": {}, \"bytes\": {}, \
                 \"messages\": {}, \"rounds\": {}}}",
                mode,
                r.path,
                r.count,
                r.traffic.total_bytes(),
                r.traffic.total_messages(),
                r.traffic.total_rounds(),
            ));
        }
    }
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n");
    out
}

fn write_bench_json(
    path: &str,
    rows: &[ProtocolRow],
    runs: &[(&'static str, SessionTrace)],
    scaling: &[ScalingRow],
) {
    let mut out = format!(
        "{{\n  \"wire_version\": {},\n  \"randomness\": \"{}\",\n  \"packing\": \"{}\",\n  \"kernels\": \"{}\",\n  \"sharing\": \"{}\",\n  \"pruning\": \"{}\",\n  \"workload\": {{\"n\": 36, \"dim\": 2, \"generator\": \"standard_blobs\"}},\n",
        ppdbscan::session::WIRE_VERSION,
        ppds_smc::context::RANDOMNESS_DISCIPLINE,
        ppds_paillier::PACKING_DISCIPLINE,
        ppds_bigint::KERNEL_DISCIPLINE,
        ppds_smc::SHARING_DISCIPLINE,
        ppds_dbscan::PRUNING_DISCIPLINE
    );
    // The E13 scaling sweep: one row per (n, candidate policy), vertical
    // protocol on the sharing backend. `comparisons` is the secure-
    // comparison count — the quantity pruning exists to cut.
    out.push_str("  \"scaling\": [\n");
    let scaling_rows: Vec<String> = scaling
        .iter()
        .map(|r| {
            format!(
                "    {{\"experiment\": \"e13\", \"protocol\": \"vertical\", \"backend\": \
                 \"sharing\", \"n\": {}, \"pruning\": \"{}\", \"comparisons\": {}, \
                 \"neighbor_queries\": {}, \"bytes\": {}}}",
                r.n, r.pruning, r.comparisons, r.neighbor_queries, r.bytes
            )
        })
        .collect();
    out.push_str(&scaling_rows.join(",\n"));
    out.push_str("\n  ],\n");
    out.push_str(&phases_json(runs));
    out.push_str("  \"protocols\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"protocol\": \"{}\", \"backend\": \"{}\", \
             \"rounds\": {}, \"messages\": {}, \"bytes\": {}, \"modeled_lan_ms\": {:.3}, \
             \"modeled_wan_ms\": {:.3}}}{}\n",
            row.protocol,
            row.backend,
            row.rounds,
            row.messages,
            row.bytes,
            row.lan_ms,
            row.wan_ms,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("\nwrote bench trajectory to {path}");
}

/// One row of the E13 scaling sweep: the vertical protocol on the sharing
/// backend at one `n` under one candidate-generation policy. Every field is
/// a deterministic function of the seeds, so the rows are diffable.
struct ScalingRow {
    n: usize,
    pruning: &'static str,
    comparisons: u64,
    neighbor_queries: usize,
    bytes: u64,
}

/// Uniform points at constant density: the domain side grows as √n, so the
/// per-query candidate count under grid pruning stays ~constant while the
/// exhaustive pair count grows as n² — the regime the pruning subsystem is
/// built for (the fixed-domain blob generator saturates instead: at large n
/// every pair becomes a candidate and nothing can be pruned).
fn scaled_uniform(n: usize, seed: u64) -> (Vec<Point>, i64) {
    let side = (4.0 * (n as f64).sqrt()).ceil() as i64;
    let mut r = rng(seed);
    use rand::Rng as _;
    let points = (0..n)
        .map(|_| Point::new(vec![r.random_range(0..=side), r.random_range(0..=side)]))
        .collect();
    (points, side)
}

/// E13 — the tentpole scaling claim: with grid candidate pruning the
/// secure-comparison count grows ~linearly in n instead of quadratically,
/// which is what makes n = 10⁴ reachable at all. Runs the vertical
/// protocol (sharing backend, round-batched) at n ∈ {10², 10³, 10⁴} with
/// grid pruning, plus exhaustive baselines up to 10³ (the n² wall makes an
/// exhaustive 10⁴ run pointless: the pruned 10⁴ run costs fewer
/// comparisons than the exhaustive 10³ one). Labels are asserted
/// byte-identical wherever both variants run, and the pruned comparison
/// count at n ≥ 10³ is asserted ≤ 10% of n(n−1)/2 — the acceptance bound.
fn e13(max_n: usize) -> Vec<ScalingRow> {
    use ppds_dbscan::Pruning;
    section("E13  Candidate pruning: secure comparisons vs n (vertical, sharing)");
    let widths = [6, 11, 13, 9, 12, 10];
    print_header(
        &widths,
        &["n", "pruning", "comparisons", "cmp/n", "wire bytes", "time"],
    );
    let mut rows: Vec<ScalingRow> = Vec::new();
    for n in [100usize, 1_000, 10_000] {
        if n > max_n {
            continue;
        }
        let (points, side) = scaled_uniform(n, 9_200 + n as u64);
        let cfg = ProtocolConfig::new(
            DbscanParams {
                eps_sq: 8,
                min_pts: 3,
            },
            side,
        )
        .with_backend(BackendKind::Sharing);
        let vp = VerticalPartition::split(&points, 1);
        let mut variants: Vec<(&'static str, ProtocolConfig)> = Vec::new();
        if n <= 1_000 {
            variants.push(("exhaustive", cfg));
        }
        variants.push(("grid1", cfg.with_pruning(Pruning::Grid { coarseness: 1 })));
        let mut labels = Vec::new();
        for (tag, vcfg) in variants {
            let t0 = Instant::now();
            let (a, _) = run_vertical_pair(&vcfg, &vp, rng(91), rng(92)).unwrap();
            let elapsed = t0.elapsed();
            print_row(
                &widths,
                &[
                    format!("{n}"),
                    tag.into(),
                    format!("{}", a.yao.comparisons),
                    format!("{:.1}", a.yao.comparisons as f64 / n as f64),
                    fmt_bytes(a.traffic.total_bytes()),
                    format!("{elapsed:.1?}"),
                ],
            );
            rows.push(ScalingRow {
                n,
                pruning: tag,
                comparisons: a.yao.comparisons,
                neighbor_queries: a.leakage.count_kind("neighbor_count"),
                bytes: a.traffic.total_bytes(),
            });
            labels.push(a.clustering);
        }
        if let [exhaustive, pruned] = &labels[..] {
            assert_eq!(
                exhaustive, pruned,
                "n = {n}: pruned labels must be byte-identical to exhaustive"
            );
        }
        let pruned = rows.last().expect("grid1 row just pushed");
        let half_pairs = (n as u64) * (n as u64 - 1) / 2;
        if n >= 1_000 {
            assert!(
                pruned.comparisons * 10 <= half_pairs,
                "n = {n}: pruned comparisons ({}) must be <= 10% of n(n-1)/2 ({half_pairs})",
                pruned.comparisons
            );
        }
    }
    println!("\nExhaustive comparisons grow as n² (cmp/n is linear in n); the pruned");
    println!("runs hold cmp/n ~constant because constant-density data keeps each");
    println!("3×3-band candidate set O(1). The disclosed band tables are ledgered");
    println!("as `pruning_bands` leakage events — see DESIGN.md §15 for the trade.");
    rows
}

/// F1 — the Figure 1 neighborhood-intersection attack, *executed* against
/// the implemented Kumar et al. \[14\] baseline and compared with the honest
/// protocol's unlinkable leakage.
fn f1() {
    use ppdbscan::kumar::{intersection_attack, run_kumar_pair, unlinkable_feasible_region};
    section("F1  Figure 1: the intersection attack, executed on real transcripts");
    let bob_points = vec![
        Point::new(vec![0, 0]),
        Point::new(vec![16, 0]),
        Point::new(vec![8, 14]),
    ];
    let alice_points = vec![Point::new(vec![8, 5])];
    let bound = 40i64;
    let widths = [5, 17, 15, 11];
    print_header(
        &widths,
        &["Eps", "Kumar localized", "honest (union)", "ratio"],
    );
    for eps in [10i64, 12, 14, 18] {
        let eps_sq = (eps * eps) as u64;
        let cfg = ProtocolConfig::new(DbscanParams { eps_sq, min_pts: 5 }, 64);
        let (_, kumar_bob) =
            run_kumar_pair(&cfg, &alice_points, &bob_points, rng(70), rng(71)).unwrap();
        let localized = intersection_attack(&bob_points, &kumar_bob.leakage, eps_sq, bound)[&0];
        let union = unlinkable_feasible_region(&bob_points, eps_sq, bound);
        print_row(
            &widths,
            &[
                format!("{eps}"),
                format!("{localized}"),
                format!("{union}"),
                if localized == 0 {
                    "∞".to_string()
                } else {
                    format!("{:.0}x", union as f64 / localized as f64)
                },
            ],
        );
    }
    println!("\nThe \"Kumar localized\" column replays the attack on the baseline");
    println!("protocol's actual transcript (linked neighbor bits); \"honest\" is the");
    println!("best the same adversary achieves against the permuted protocol.");
    println!("See `cargo run --release --example figure1_attack` for the full demo.");
}

/// The full sweep chain (E10 → E12), honouring the `--backend`
/// restriction: `Some(Paillier)` drops the sharing rows, `Some(Sharing)`
/// drops the Paillier rows (and with them the Paillier-anchored E12,
/// printing E10 on the sharing substrate instead), `None`
/// emits per-backend rows for the full trajectory.
fn run_sweeps(backend: Option<BackendKind>) -> Vec<ProtocolRow> {
    let mut rows = Vec::new();
    if backend != Some(BackendKind::Sharing) {
        rows = e10(BackendKind::Paillier);
    }
    match backend {
        Some(BackendKind::Paillier) => {}
        Some(BackendKind::Sharing) => rows.extend(e10(BackendKind::Sharing)),
        None => rows.extend(e12()),
    }
    rows
}

/// Every experiment selector `main` accepts, in help order.
const SELECTORS: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e12", "e13", "e13smoke",
    "sweeps", "f1", "all",
];

/// The typed failure an unknown experiment selector produces: names the
/// rejected argument and lists every valid selector, so a typo'd sweep
/// name fails loudly instead of silently running nothing.
#[derive(Debug)]
struct UnknownSelector(String);

impl std::fmt::Display for UnknownSelector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown experiment selector `{}`; valid selectors: {}",
            self.0,
            SELECTORS.join(", ")
        )
    }
}

impl std::error::Error for UnknownSelector {}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut selector: Option<String> = None;
    let mut backend: Option<BackendKind> = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if arg == "--backend" {
            match iter.next().as_deref() {
                Some("paillier") => backend = Some(BackendKind::Paillier),
                Some("sharing") => backend = Some(BackendKind::Sharing),
                Some(other) => {
                    eprintln!("unknown backend {other}; use paillier or sharing");
                    std::process::exit(2);
                }
                None => {
                    eprintln!("--backend requires paillier or sharing");
                    std::process::exit(2);
                }
            }
        } else if arg == "--json" {
            match iter.next() {
                Some(path) => json_path = Some(path),
                None => {
                    eprintln!("--json requires a path argument");
                    std::process::exit(2);
                }
            }
        } else if arg == "--trace" {
            match iter.next() {
                Some(path) => trace_path = Some(path),
                None => {
                    eprintln!("--trace requires a path argument");
                    std::process::exit(2);
                }
            }
        } else if let Some(first) = &selector {
            eprintln!("at most one experiment selector (got {first} and {arg})");
            std::process::exit(2);
        } else {
            selector = Some(arg);
        }
    }
    // `--json` or `--trace` alone runs the protocol sweeps; a
    // selector (or nothing) runs the printed experiments as before.
    let selector = selector.unwrap_or_else(|| {
        if json_path.is_some() || trace_path.is_some() {
            "sweeps".into()
        } else {
            "all".into()
        }
    });

    if !SELECTORS.contains(&selector.as_str()) {
        eprintln!("{}", UnknownSelector(selector));
        std::process::exit(2);
    }

    let t0 = Instant::now();
    println!("# Privacy-preserving distributed DBSCAN — experiment run");
    let mut sweep_rows: Option<Vec<ProtocolRow>> = None;
    let mut scaling_rows: Option<Vec<ScalingRow>> = None;
    match selector.as_str() {
        "e1" => e1(),
        "e2" => e2(),
        "e3" => e3(),
        "e4" => e4(),
        "e5" => e5(),
        "e6" => e6(),
        "e7" => e7(),
        "e8" => e8(),
        "e9" => e9(),
        "e10" => sweep_rows = Some(e10(backend.unwrap_or_default())),
        "e12" => sweep_rows = Some(e12()),
        "e13" => scaling_rows = Some(e13(10_000)),
        "e13smoke" => scaling_rows = Some(e13(1_000)),
        "sweeps" => {
            sweep_rows = Some(run_sweeps(backend));
            scaling_rows = Some(e13(10_000));
        }
        "f1" => f1(),
        "all" => {
            e1();
            e2();
            e3();
            e4();
            e5();
            e6();
            e7();
            e8();
            e9();
            sweep_rows = Some(run_sweeps(backend));
            scaling_rows = Some(e13(10_000));
            f1();
        }
        other => unreachable!("selector `{other}` validated above"),
    }
    if json_path.is_some() || trace_path.is_some() {
        // One flight-recorded run per mode feeds both outputs: the Chrome
        // trace file and the deterministic per-phase table in the
        // trajectory JSON.
        let runs = traced_runs();
        if let Some(path) = &trace_path {
            write_trace_json(path, &runs);
        }
        if let Some(path) = &json_path {
            let rows = sweep_rows.unwrap_or_else(|| protocol_sweep(BackendKind::Paillier));
            let scaling = scaling_rows.unwrap_or_else(|| e13(10_000));
            write_bench_json(path, &rows, &runs, &scaling);
        }
    }
    println!("\n(total runtime {:.1?})", t0.elapsed());
}
