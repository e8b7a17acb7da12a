//! Wall-clock benchmark of the privacy-preserving DBSCAN stack.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times sessions with tracing off and prints the end-to-end
//! metrics; `--trace 1` runs one traced session per mode and prints the
//! per-layer metrics. Every session's labels are checked against the
//! plaintext DBSCAN reference. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 0
//! unless the arguments are bad (2) or a check failed (1).

mod link;
mod oracle;
mod server;
mod session;
mod spans;
mod stats;
mod workloads;

use ppds_bigint::modular::mod_pow;
use ppds_bigint::random::gen_biguint_below;
use ppds_dbscan::{band_width, coarse_cell, CoarseGrid};
use ppds_paillier::Keypair;
use ppds_server::Server;
use ppds_transport::CostModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use session::SessionRun;
use spans::{Attribution, Layer};
use stats::{median, quantile, Metric};
use std::hint::black_box;
use std::time::{Duration, Instant};
use workloads::Workload;

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\nworkloads: ";

/// Set-up repetitions in a traced run; `paillier.keygen_s` is their
/// median per keypair. A timed run instead repeats set-up after every
/// session (`server-open`: between open-loop segments), so `setup_s`
/// samples the machine over the whole run as the sessions do.
const SETUP_REPS: usize = 9;

/// Open-loop segments of a timed `server-open` run.
const SERVER_SEGMENTS: usize = 10;

/// Root of the fixed keygen seeds. Keys do not depend on `--seed`, so
/// every run's set-up does the same work; only the data vary.
const KEY_SEED: u64 = 0x6B65_7973_5EED;

/// Sessions per second the `server-open` open loop offers. On a 2-vCPU
/// x86-64 VM the closed-loop capacity was about 480 sessions/s; at half of
/// it the 90th percentile moved by half between runs, so the loop runs at
/// about a fifth, where queueing stays short.
const SERVER_RATE: f64 = 100.0;

/// Fewest sessions one `server-open` run sends.
const SERVER_MIN_SESSIONS: usize = 100;

/// Largest share of `execute` that the spans under it may leave
/// uncovered before the traced run flags the mode. A flag is reported, not
/// a failure: it points at program code that runs outside every span.
const RECONCILE_LIMIT: f64 = 0.10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// A seed for round `round` of mode `mode`, derived from the run seed.
fn session_seed(seed: u64, round: u64, mode: usize) -> u64 {
    let mut z = seed
        .wrapping_add(round.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((mode as u64) << 48);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Set-up timings gathered over a run.
#[derive(Default)]
struct SetupTimes {
    setup_s: Vec<f64>,
    keygen_s: Vec<f64>,
}

/// What one set-up leaves behind.
struct Rig {
    keys: Vec<Keypair>,
    server: Option<Server>,
}

impl Rig {
    fn shutdown(self) {
        if let Some(srv) = self.server {
            srv.shutdown(Duration::from_secs(10));
        }
    }
}

/// One timed set-up: every party's keypair, and on `server-open` a started
/// server warmed with one session per hosted mode.
fn set_up(w: &Workload, seed: u64, times: &mut SetupTimes) -> Result<Rig, String> {
    let start = Instant::now();
    let keys: Vec<Keypair> = (0..w.parties)
        .map(|party| {
            let t = Instant::now();
            let mut rng = StdRng::seed_from_u64(KEY_SEED + party as u64);
            let keypair = Keypair::generate(w.key_bits, &mut rng);
            times.keygen_s.push(t.elapsed().as_secs_f64());
            keypair
        })
        .collect();
    let mut server = None;
    if w.name == "server-open" {
        let srv = server::start(w, seed)?;
        for spec in &w.modes {
            let warm = server::client_session(&srv.local_addr(), spec, &keys[0], seed, None, None);
            warm.run.outcome?;
        }
        server = Some(srv);
    }
    times.setup_s.push(start.elapsed().as_secs_f64());
    Ok(Rig { keys, server })
}

/// A timed set-up whose result is discarded.
fn set_up_again(w: &Workload, seed: u64, times: &mut SetupTimes) -> Result<(), String> {
    set_up(w, seed, times)?.shutdown();
    Ok(())
}

/// What one run reports.
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    mismatched: u64,
    errors: Vec<String>,
    notes: Vec<String>,
}

impl Report {
    fn new() -> Self {
        Report {
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            mismatched: 0,
            errors: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn count(&mut self, run: &SessionRun) {
        self.attempted += 1;
        if let Err(e) = &run.outcome {
            self.failed += 1;
            self.mismatched += u64::from(run.mismatch);
            if self.errors.len() < 8 {
                self.errors.push(e.clone());
            }
        }
    }

    fn push(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric::new(name, value, unit, note));
    }
}

/// Runs rounds of one session per mode until `seconds` would be exceeded
/// (at least one round), with a set-up repetition after every session.
/// Also returns the peak resident set after the first round, which does
/// not depend on how many rounds fit in the run.
fn local_rounds(
    w: &Workload,
    keys: &[Keypair],
    seed: u64,
    seconds: f64,
    times: &mut SetupTimes,
) -> Result<(Vec<SessionRun>, f64), String> {
    let start = Instant::now();
    let mut runs = Vec::new();
    let mut peak_rss = 0.0;
    for round in 0u64.. {
        let t = Instant::now();
        for (m, spec) in w.modes.iter().enumerate() {
            let session_seed = session_seed(seed, round, m);
            runs.push(session::run_local(spec, keys, w.link, session_seed, None));
            set_up_again(w, seed, times)?;
        }
        if round == 0 {
            peak_rss = stats::peak_rss_mb();
        }
        if start.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() > seconds {
            break;
        }
    }
    Ok((runs, peak_rss))
}

fn server_sessions(seconds: f64) -> usize {
    SERVER_MIN_SESSIONS.max((SERVER_RATE * seconds).ceil() as usize)
}

/// `--trace 0`: sessions timed with tracing off.
fn timed(w: &Workload, args: &Args) -> Result<Report, String> {
    let mut report = Report::new();
    let mut times = SetupTimes::default();
    let rig = set_up(w, args.seed, &mut times)?;
    let (runs, peak_rss) = match &rig.server {
        Some(srv) => {
            let count = server_sessions(args.seconds);
            let per_segment = count.div_ceil(SERVER_SEGMENTS);
            let mut runs = Vec::with_capacity(count);
            let mut peak_rss = 0.0;
            for first in (0..count).step_by(per_segment) {
                let sessions = first..count.min(first + per_segment);
                let scheduled = server::open_loop(
                    &srv.local_addr(),
                    w,
                    &rig.keys[0],
                    SERVER_RATE,
                    sessions,
                    args.seed,
                );
                runs.extend(scheduled.into_iter().map(|s| s.client.run));
                set_up_again(w, args.seed, &mut times)?;
                if first == 0 {
                    peak_rss = stats::peak_rss_mb();
                }
            }
            report.notes.push(format!(
                "open loop: {} sessions at {SERVER_RATE}/s from {} client connections in {SERVER_SEGMENTS} segments, timed from their scheduled send time",
                runs.len(),
                server::concurrency()
            ));
            (runs, peak_rss)
        }
        None => local_rounds(w, &rig.keys, args.seed, args.seconds, &mut times)?,
    };
    rig.shutdown();
    for run in &runs {
        report.count(run);
    }

    let per_mode: Vec<(&str, Vec<f64>, Vec<f64>)> = w
        .modes
        .iter()
        .map(|spec| {
            let ok = runs
                .iter()
                .filter(|r| r.mode == spec.name && r.outcome.is_ok());
            let secs = runs
                .iter()
                .filter(|r| r.mode == spec.name)
                .map(|r| r.secs)
                .collect();
            let bytes = ok.map(|r| r.wire_bytes as f64).collect();
            (spec.name, secs, bytes)
        })
        .collect();
    for (name, secs, bytes) in &per_mode {
        report.notes.push(format!(
            "{name}: {} sessions, median {:.6} s (min {:.6}, max {:.6}), median {} B",
            secs.len(),
            median(secs),
            quantile(secs, 0.0),
            quantile(secs, 1.0),
            median(bytes)
        ));
    }
    let samples = per_mode
        .iter()
        .map(|(name, secs, _)| format!("{name} n={}", secs.len()))
        .collect::<Vec<_>>()
        .join(", ");
    let all_secs: Vec<f64> = runs.iter().map(|r| r.secs).collect();
    let session_s: f64 = per_mode.iter().map(|(_, s, _)| median(s)).sum();
    let round_records: usize = w.modes.iter().map(|m| m.records).sum();

    report.push(
        "session_s",
        session_s,
        "s",
        format!("median session per mode, summed over modes ({samples})"),
    );
    report.push(
        "session_s_p90",
        quantile(&all_secs, 0.9),
        "s",
        format!("90th percentile over all {} sessions", all_secs.len()),
    );
    report.push(
        "records_per_s",
        round_records as f64 / session_s,
        "1/s",
        format!("{round_records} records of one session per mode / session_s"),
    );
    report.push(
        "setup_s",
        median(&times.setup_s),
        "s",
        format!(
            "median of {} set-ups spread over the run (min {:.6}, max {:.6})",
            times.setup_s.len(),
            quantile(&times.setup_s, 0.0),
            quantile(&times.setup_s, 1.0)
        ),
    );
    report.push(
        "wire_bytes",
        per_mode.iter().map(|(_, _, b)| median(b)).sum(),
        "B",
        "bytes per session, both directions, summed over modes",
    );
    report.push(
        "peak_rss_mb",
        peak_rss,
        "MiB",
        "peak resident set of the process through set-up and the first round (server-open: segment)",
    );
    let fail_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    report.push(
        "success_ratio",
        1.0 - fail_ratio,
        "ratio",
        format!(
            "1 - fail_ratio; fail_ratio = {fail_ratio} ({} of {} sessions failed)",
            report.failed, report.attempted
        ),
    );
    Ok(report)
}

/// Median microseconds per call of `op`, over at least 5 calls and about
/// 0.2 s.
fn time_calls(mut op: impl FnMut()) -> (f64, usize) {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5
        || (start.elapsed() < Duration::from_millis(200) && samples.len() < 1000)
    {
        let t = Instant::now();
        op();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    (median(&samples), samples.len())
}

/// `--trace 1`: one traced session per mode, split over the layers.
fn traced(w: &Workload, args: &Args) -> Result<Report, String> {
    let mut report = Report::new();
    let mut times = SetupTimes::default();
    let mut set = set_up(w, args.seed, &mut times)?;
    for _ in 1..SETUP_REPS {
        set_up_again(w, args.seed, &mut times)?;
    }
    let keys = &set.keys;
    let mut untraced_secs: Vec<Vec<f64>> = Vec::new();
    let mut traced_secs: Vec<Vec<f64>> = Vec::new();
    let mut traced_runs: Vec<(Attribution, SessionRun)> = Vec::new();
    let per_mode_budget = args.seconds / 2.0 / w.modes.len() as f64;
    for (m, spec) in w.modes.iter().enumerate() {
        let run_one = |round: u64, capacity: Option<usize>| {
            let seed = session_seed(args.seed, round, m);
            match &set.server {
                Some(srv) => {
                    server::client_session(&srv.local_addr(), spec, &keys[0], seed, capacity, None)
                        .run
                }
                None => session::run_local(spec, keys, w.link, seed, capacity),
            }
        };
        // Untraced and traced sessions alternate until the mode's share of
        // the run is spent; the first traced session is the one attributed.
        let start = Instant::now();
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        for round in 0u64.. {
            let run = run_one(round, None);
            report.count(&run);
            plain.push(run.secs);
            let mut run = run_one(round, Some(w.trace_capacity));
            report.count(&run);
            traced.push(run.secs);
            let trace = run.trace.take();
            if traced_runs.len() == m {
                let trace = trace
                    .ok_or_else(|| format!("{}: traced session returned no trace", spec.name))?;
                if trace.dropped > 0 {
                    return Err(format!(
                        "{}: the span recorder dropped {} events; raise the workload's trace capacity",
                        spec.name, trace.dropped
                    ));
                }
                let a = spans::attribute(&trace).map_err(|e| format!("{}: {e}", spec.name))?;
                traced_runs.push((a, run));
            }
            if start.elapsed().as_secs_f64() >= per_mode_budget {
                break;
            }
        }
        untraced_secs.push(plain);
        traced_secs.push(traced);
    }

    // Server layers, from an open loop like the timed run's, half as long.
    let mut server_metrics = [0.0f64; 6];
    if let Some(srv) = &set.server {
        let names = [
            "server_keypair_cache_hits",
            "server_negotiation_cache_hits",
            "server_sessions_rejected_busy",
        ];
        let counter = |name: &str| srv.metrics().counter(name).get();
        let before: Vec<u64> = names.iter().map(|n| counter(n)).collect();
        let scheduled = server::open_loop(
            &srv.local_addr(),
            w,
            &keys[0],
            SERVER_RATE,
            0..server_sessions(args.seconds / 2.0),
            args.seed,
        );
        for s in &scheduled {
            report.count(&s.client.run);
        }
        let pick = |f: fn(&server::Scheduled) -> f64| {
            scheduled
                .iter()
                .filter(|s| s.client.run.outcome.is_ok())
                .map(f)
                .collect::<Vec<_>>()
        };
        server_metrics[0] = median(&pick(|s| s.client.queue_wait_s));
        server_metrics[1] = median(&pick(|s| s.client.admit_s));
        for (k, name) in names.iter().enumerate() {
            server_metrics[2 + k] = counter(name).saturating_sub(before[k]) as f64;
        }
        server_metrics[5] = quantile(&scheduled.iter().map(|s| s.late_s).collect::<Vec<_>>(), 0.9);
        let busy = scheduled.iter().filter(|s| s.client.busy).count();
        report.notes.push(format!(
            "server layers from an open loop of {} sessions at {SERVER_RATE}/s ({busy} refused busy)",
            scheduled.len()
        ));
    }
    if let Some(srv) = set.server.take() {
        srv.shutdown(Duration::from_secs(10));
    }

    // Trace attribution, one traced session per mode.
    let mut total = Attribution::default();
    let mut link = link::LinkStats::default();
    let mut rounds = 0u64;
    let (mut comparisons, mut triples, mut pairs, mut pair_comparisons) = (0u64, 0u64, 0u64, 0u64);
    let mut reconcile_ok = true;
    for (spec, (a, run)) in w.modes.iter().zip(&traced_runs) {
        let share = a.unattributed_share();
        let ok = share <= RECONCILE_LIMIT;
        reconcile_ok &= ok;
        report.notes.push(format!(
            "{}: execute {:.6} s, spans under it cover {:.2} % ({}), {} events, capacity {}{}",
            spec.name,
            a.execute_s,
            100.0 * (1.0 - share),
            if ok { "within 10 %" } else { "OUTSIDE 10 %" },
            a.events,
            w.trace_capacity,
            if a.unknown_labels.is_empty() {
                String::new()
            } else {
                format!(", unmapped spans {:?}", a.unknown_labels)
            }
        ));
        total.absorb(a);
        link.add(&run.link);
        rounds += run.traffic.rounds_sent;
        if let Some(out) = &run.first {
            let cmp = out.yao.comparisons;
            comparisons += cmp;
            triples += out.sharing.triples;
            if let Some(p) = spec.true_pairs {
                pairs += p;
                pair_comparisons += cmp;
            }
        }
    }

    // Modeled against measured WAN time, per mode (untraced medians).
    let mut wan_err = [0.0f64; 4];
    if let Some(model) = w.link {
        let (mut est_sum, mut meas_sum) = (0.0, 0.0);
        for ((spec, (_, run)), secs) in w.modes.iter().zip(&traced_runs).zip(&untraced_secs) {
            let est = model.estimate(&run.traffic).as_secs_f64();
            let measured = median(secs);
            let err = (est - measured) / measured;
            est_sum += est;
            meas_sum += measured;
            let slot = match spec.name {
                "horizontal" => 1,
                "enhanced" => 2,
                _ => 3,
            };
            wan_err[slot] = err;
            report.notes.push(format!(
                "{}: CostModel {:.4} s vs measured {:.4} s over the delayed link ({:+.1} %)",
                spec.name,
                est,
                measured,
                100.0 * err
            ));
        }
        wan_err[0] = (est_sum - meas_sum) / meas_sum;
    }

    // Public calls into the crypto layers at the workload's modulus.
    let kp = &keys[0];
    let pk = &kp.public;
    let mut rng = StdRng::seed_from_u64(args.seed);
    let base = gen_biguint_below(&mut rng, pk.n_squared());
    let (mod_pow_us, mod_pow_n) = time_calls(|| {
        black_box(mod_pow(black_box(&base), pk.n(), pk.n_squared()));
    });
    let m = gen_biguint_below(&mut rng, pk.n());
    let (encrypt_us, encrypt_n) = time_calls(|| {
        black_box(pk.encrypt(black_box(&m), &mut rng).expect("m < n"));
    });
    let c = pk.encrypt(&m, &mut rng).expect("m < n");
    let (decrypt_us, decrypt_n) = time_calls(|| {
        black_box(
            kp.private
                .decrypt_crt(black_box(&c))
                .expect("a valid ciphertext"),
        );
    });

    // The public grid candidate generation over the workload's records.
    let eps_sq = w.modes[0].cfg.params.eps_sq;
    let width = band_width(eps_sq, 1);
    let grid_samples: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let grid = CoarseGrid::from_points(&w.points, width);
            let found: usize = w
                .points
                .iter()
                .map(|p| grid.candidates(&coarse_cell(p.coords(), width)).len())
                .sum();
            black_box(found);
            t.elapsed().as_secs_f64()
        })
        .collect();

    let untraced_total: f64 = untraced_secs.iter().map(|s| median(s)).sum();
    let traced_total: f64 = traced_secs.iter().map(|s| median(s)).sum();
    let modes = w.modes.len();
    let per = |what: &str| format!("{what}, party 0, summed over {modes} traced sessions");

    let pair_sizes: Vec<usize> = traced_secs.iter().map(Vec::len).collect();
    let server_note = "during the open loop (server-open)";
    let rows: Vec<(&'static str, f64, &'static str, String)> = vec![
        ("bigint.mod_pow_us", mod_pow_us, "us", format!("r^n mod n^2, {}-bit n, median of {mod_pow_n}", w.key_bits)),
        ("paillier.encrypt_us", encrypt_us, "us", format!("median of {encrypt_n}")),
        ("paillier.decrypt_us", decrypt_us, "us", format!("CRT, median of {decrypt_n}")),
        ("paillier.keygen_s", median(&times.keygen_s), "s", format!("median of {} keypairs", times.keygen_s.len())),
        ("smc.mul_batch_s", total.get(Layer::MulBatch), "s", per("self time")),
        ("smc.cmp_batch_s", total.get(Layer::CmpBatch), "s", per("self time")),
        ("smc.dot_s", total.get(Layer::Dot), "s", per("self time")),
        ("smc.sel_s", total.get(Layer::Sel), "s", per("self time")),
        ("smc.par_worker_s", total.get(Layer::ParWorker), "s", per("worker busy time")),
        ("smc.comparisons", comparisons as f64, "count", per("YaoLedger")),
        ("smc.triples", triples as f64, "count", per("SharingLedger")),
        ("core.driver_self_s", total.get(Layer::Driver), "s", per("query/serve/region/peer self time")),
        ("core.neighbor_queries", total.neighbor_queries as f64, "count", per("query and region spans")),
        (
            "core.prune_yield",
            if pair_comparisons > 0 { pairs as f64 / pair_comparisons as f64 } else { 0.0 },
            "ratio",
            format!("{pairs} true neighbour pairs / {pair_comparisons} secure comparisons (horizontal, vertical)"),
        ),
        ("core.execute_unattributed", total.unattributed_share(), "ratio", "share of execute outside every span under it".into()),
        ("dbscan.grid_candidates_s", median(&grid_samples), "s", format!("{} records, median of 3", w.points.len())),
        ("dbscan.reference_s", w.reference_s, "s", "inputs and plaintext references for every party and mode, once".into()),
        ("session.establish_s", total.establish_s, "s", per("establish span")),
        ("session.execute_s", total.execute_s, "s", per("execute span")),
        ("transport.frames", link.frames() as f64, "count", per("frames through the timing channel")),
        ("transport.rounds", rounds as f64, "count", "wire rounds, all links, summed over traced sessions".into()),
        ("transport.send_s", link.send.as_secs_f64(), "s", per("time in send_bytes")),
        ("transport.recv_wait_s", link.recv_wait.as_secs_f64(), "s", per("time blocked in recv_bytes")),
        ("transport.wan_model_err", wan_err[0], "ratio", "(CostModel::wan - measured) / measured, all modes; 0 without a modeled link".into()),
        ("transport.wan_model_err.horizontal", wan_err[1], "ratio", "horizontal mode".into()),
        ("transport.wan_model_err.enhanced", wan_err[2], "ratio", "enhanced mode".into()),
        ("transport.wan_model_err.multiparty", wan_err[3], "ratio", "multiparty mode".into()),
        ("engine.queue_wait_s", server_metrics[0], "s", "median wait for the first server frame (server-open)".into()),
        ("server.admit_s", server_metrics[1], "s", "median connect + preamble + reply (server-open)".into()),
        ("server.keypair_cache_hits", server_metrics[2], "count", server_note.into()),
        ("server.negotiation_cache_hits", server_metrics[3], "count", server_note.into()),
        ("server.rejected_busy", server_metrics[4], "count", server_note.into()),
        ("bench.generator_late_s", server_metrics[5], "s", "90th percentile of send delay past due and client-free time".into()),
        (
            "observe.trace_overhead",
            traced_total / untraced_total - 1.0,
            "ratio",
            format!("traced {traced_total:.6} s / untraced {untraced_total:.6} s (medians of {pair_sizes:?} pairs per mode) - 1"),
        ),
        ("observe.events", total.events as f64, "count", per("span edges")),
        ("observe.dropped_events", total.dropped as f64, "count", "must be 0".into()),
    ];
    for (name, value, unit, note) in rows {
        report.push(name, value, unit, note);
    }
    if !reconcile_ok {
        report.notes.push(
            "some execute time lies outside every span; see core.execute_unattributed".into(),
        );
    }
    Ok(report)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}{}", workloads::NAMES.join(", "));
            std::process::exit(2);
        }
    };
    let Some(w) = workloads::build(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {}\n{USAGE}{}",
            args.workload,
            workloads::NAMES.join(", ")
        );
        std::process::exit(2);
    };
    println!(
        "# {} seed={} seconds={} trace={} nproc={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc()
    );
    for spec in &w.modes {
        let c = &spec.cfg;
        println!(
            "#   {:<10} n={} key_bits={} comparator={:?} backend={} pruning={} batching={} packing={} min_pts={} link={}",
            spec.name,
            spec.records,
            c.key_bits,
            c.comparator,
            c.backend.name(),
            c.pruning.name(),
            c.batching,
            c.packing,
            c.params.min_pts,
            match w.link {
                Some(CostModel { latency, bandwidth_bytes_per_sec }) =>
                    format!("{latency:?} one-way, {bandwidth_bytes_per_sec} B/s"),
                None if w.name == "server-open" => "loopback TCP".into(),
                None => "in-memory".into(),
            }
        );
    }
    let result = if args.trace {
        traced(&w, &args)
    } else {
        timed(&w, &args)
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!("{:<36} {:>18} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    for e in &report.errors {
        println!("error: {e}");
    }
    let correct = report.mismatched == 0;
    println!(
        "{}",
        stats::result_line(correct, report.attempted, report.failed, &report.metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
