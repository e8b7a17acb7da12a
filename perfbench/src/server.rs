//! `server-open`: `ppds-server` on loopback TCP, fed by an open loop.

use crate::link::{LinkStats, TimingChannel};
use crate::session::{ModeSpec, SessionRun};
use crate::workloads::Workload;
use ppds_observe::SpanRecorder;
use ppds_paillier::Keypair;
use ppds_server::{hosted, open_session, ClientError, Server, ServerConfig};
use ppds_smc::Party;
use ppds_transport::{Channel, MetricsSnapshot};
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client connections, and server workers, in use at once.
pub fn concurrency() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Starts a server hosting Bob's side of every mode of `w`.
pub fn start(w: &Workload, seed: u64) -> Result<Server, String> {
    let modes = w
        .modes
        .iter()
        .map(|m| hosted(m.cfg, Party::Bob, m.parties[1].0.clone()))
        .collect();
    Server::start(
        ServerConfig::new(modes)
            .with_workers(concurrency())
            .with_traces(false)
            .with_base_seed(seed),
    )
    .map_err(|e| format!("server start: {e}"))
}

/// One client session and what the client saw of the server.
pub struct ClientRun {
    /// The session, timed from `due`.
    pub run: SessionRun,
    /// Connect, preamble and admission reply, seconds.
    pub admit_s: f64,
    /// Wait for the first server frame after admission, seconds.
    pub queue_wait_s: f64,
    /// `true` when the server refused the session as busy.
    pub busy: bool,
}

/// Runs Alice's side of `spec` against the server at `addr`. The session
/// is timed from `due`, its scheduled send time, or else from the moment
/// the client is ready to connect.
pub fn client_session(
    addr: &SocketAddr,
    spec: &ModeSpec,
    keypair: &Keypair,
    seed: u64,
    trace_capacity: Option<usize>,
    due: Option<Instant>,
) -> ClientRun {
    let mut participant = spec.participant(0, keypair, seed);
    if let Some(capacity) = trace_capacity {
        participant = participant.trace(SpanRecorder::with_capacity(capacity));
    }
    let opened = Instant::now();
    let due = due.unwrap_or(opened);
    let admitted = open_session(addr, &participant, 0, Duration::from_secs(30));
    let admit_s = opened.elapsed().as_secs_f64();
    let mut run = SessionRun {
        mode: spec.name,
        secs: 0.0,
        wire_bytes: 0,
        traffic: MetricsSnapshot::default(),
        outcome: Ok(()),
        mismatch: false,
        first: None,
        link: LinkStats::default(),
        trace: None,
    };
    let mut busy = false;
    match admitted {
        Ok(session) => {
            let mut chan = TimingChannel::new(session.into_channel());
            let result = participant.run(&mut chan);
            run.secs = due.elapsed().as_secs_f64();
            let m = chan.metrics();
            run.traffic = MetricsSnapshot {
                bytes_sent: m.total_bytes(),
                messages_sent: m.total_messages(),
                rounds_sent: m.total_rounds(),
                ..MetricsSnapshot::default()
            };
            run.wire_bytes = m.total_bytes();
            run.link = chan.stats();
            match result {
                Ok(out) => {
                    if let Err(e) = spec.check(0, &out.output.clustering) {
                        run.outcome = Err(e);
                        run.mismatch = true;
                    }
                    run.trace = out.trace;
                    run.first = Some(out.output);
                }
                Err(e) => run.outcome = Err(format!("{}: client failed: {e}", spec.name)),
            }
        }
        Err(e) => {
            run.secs = due.elapsed().as_secs_f64();
            busy = matches!(e, ClientError::Busy { .. });
            run.outcome = Err(format!("{}: not admitted: {e}", spec.name));
        }
    }
    ClientRun {
        queue_wait_s: run.link.first_recv_wait.as_secs_f64(),
        run,
        admit_s,
        busy,
    }
}

/// One scheduled session of the open loop.
pub struct Scheduled {
    /// The session.
    pub client: ClientRun,
    /// How long after it was due, and after its client was free, the
    /// generator actually sent it, seconds.
    pub late_s: f64,
}

/// Sends sessions `sessions` at `rate` per second, session `i` in mode
/// `i mod modes`, from at most [`concurrency`] client connections at a
/// time. Sessions are due on a fixed schedule whether or not earlier ones
/// have finished.
pub fn open_loop(
    addr: &SocketAddr,
    w: &Workload,
    keypair: &Keypair,
    rate: f64,
    sessions: Range<usize>,
    seed: u64,
) -> Vec<Scheduled> {
    let next = AtomicUsize::new(sessions.start);
    let done: Mutex<Vec<(usize, Scheduled)>> = Mutex::new(Vec::with_capacity(sessions.len()));
    let t0 = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        for _ in 0..concurrency() {
            scope.spawn(|| {
                let mut free_at = Instant::now();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= sessions.end {
                        break;
                    }
                    let due = t0 + Duration::from_secs_f64((i - sessions.start) as f64 / rate);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let late_s = due.max(free_at).elapsed().as_secs_f64();
                    let spec = &w.modes[i % w.modes.len()];
                    let client = client_session(
                        addr,
                        spec,
                        keypair,
                        seed.wrapping_add(i as u64),
                        None,
                        Some(due),
                    );
                    free_at = Instant::now();
                    done.lock()
                        .expect("no client thread panics while holding the lock")
                        .push((i, Scheduled { client, late_s }));
                }
            });
        }
    });
    let mut done = done.into_inner().expect("client threads have ended");
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, s)| s).collect()
}
