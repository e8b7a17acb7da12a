//! One protocol session, run in process with every party on its own
//! thread, timed from the moment the parties start until the last one
//! has returned its outcome.

use crate::link::{delay_pair, DelayChannel, LinkStats, TimingChannel};
use ppdbscan::session::{Mode, Participant, PartyData, SessionOutcome};
use ppdbscan::{CoreError, PartyOutput, ProtocolConfig};
use ppds_dbscan::Clustering;
use ppds_observe::{SessionTrace, SpanRecorder};
use ppds_paillier::Keypair;
use ppds_smc::Party;
use ppds_transport::{duplex, Channel, CostModel, MemoryChannel, MetricsSnapshot, TransportError};
use std::time::Instant;

/// One protocol mode of a workload: the agreed configuration, each party's
/// private data, and the labels each party must return.
pub struct ModeSpec {
    /// Mode name, as reported.
    pub name: &'static str,
    /// Configuration every party runs with.
    pub cfg: ProtocolConfig,
    /// Per party, in party order: its data and its reference labels.
    pub parties: Vec<(PartyData, Clustering)>,
    /// Records clustered by one session (all parties together).
    pub records: usize,
    /// Ordered pairs of records within Eps that the mode's secure
    /// comparisons can discover, where that is defined.
    pub true_pairs: Option<u64>,
}

impl ModeSpec {
    /// The protocol family the data selects.
    pub fn mode(&self) -> Mode {
        self.parties[0].0.mode()
    }

    /// Checks `labels` against party `party`'s reference.
    pub fn check(&self, party: usize, labels: &Clustering) -> Result<(), String> {
        if &self.parties[party].1 == labels {
            Ok(())
        } else {
            Err(format!(
                "{}: party {party} returned labels that differ from the plaintext reference",
                self.name
            ))
        }
    }

    /// The builder for party `party`, with its setup keypair and seed.
    pub fn participant(&self, party: usize, keypair: &Keypair, seed: u64) -> Participant {
        let mut participant = Participant::new(self.cfg)
            .data(self.parties[party].0.clone())
            .seed(seed)
            .keypair(keypair.clone())
            .expect("set-up keys are generated at the workload's key size");
        if self.mode() != Mode::Multiparty {
            participant = participant.role(if party == 0 { Party::Alice } else { Party::Bob });
        }
        participant
    }
}

/// How one timed session went.
pub struct SessionRun {
    /// Mode name.
    pub mode: &'static str,
    /// Wall time, seconds.
    pub secs: f64,
    /// Bytes on the wire, both directions, all links.
    pub wire_bytes: u64,
    /// Frames, rounds and bytes sent, summed over every endpoint (each
    /// frame on any link counted once).
    pub traffic: MetricsSnapshot,
    /// `Err` when a party errored or returned wrong labels.
    pub outcome: Result<(), String>,
    /// `true` when the failure was a label mismatch.
    pub mismatch: bool,
    /// Party 0's protocol output, when it finished.
    pub first: Option<PartyOutput>,
    /// Party 0's view of its links.
    pub link: LinkStats,
    /// Party 0's flight-recorder trace, for a traced session.
    pub trace: Option<SessionTrace>,
}

/// A memory channel, optionally behind a modeled link.
enum Wire {
    Memory(MemoryChannel),
    Delayed(DelayChannel<MemoryChannel>),
}

impl Channel for Wire {
    fn send_bytes(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        match self {
            Wire::Memory(c) => c.send_bytes(payload),
            Wire::Delayed(c) => c.send_bytes(payload),
        }
    }

    fn recv_bytes(&mut self) -> Result<Vec<u8>, TransportError> {
        match self {
            Wire::Memory(c) => c.recv_bytes(),
            Wire::Delayed(c) => c.recv_bytes(),
        }
    }

    fn metrics(&self) -> MetricsSnapshot {
        match self {
            Wire::Memory(c) => c.metrics(),
            Wire::Delayed(c) => c.metrics(),
        }
    }

    fn note_batch_sent(&mut self, items: u64) {
        match self {
            Wire::Memory(c) => c.note_batch_sent(items),
            Wire::Delayed(c) => c.note_batch_sent(items),
        }
    }

    fn note_batch_received(&mut self, items: u64) {
        match self {
            Wire::Memory(c) => c.note_batch_received(items),
            Wire::Delayed(c) => c.note_batch_received(items),
        }
    }
}

type Endpoint = TimingChannel<Wire>;

/// A full mesh: entry `i` holds party `i`'s endpoint to every other party,
/// tagged with that party's id.
fn mesh(parties: usize, link: Option<CostModel>) -> Vec<Vec<(usize, Endpoint)>> {
    let mut ends: Vec<Vec<(usize, Endpoint)>> = (0..parties).map(|_| Vec::new()).collect();
    for i in 0..parties {
        for j in i + 1..parties {
            let (a, b) = duplex();
            let (a, b) = match link {
                Some(model) => {
                    let (a, b) = delay_pair(a, b, model);
                    (Wire::Delayed(a), Wire::Delayed(b))
                }
                None => (Wire::Memory(a), Wire::Memory(b)),
            };
            ends[i].push((j, TimingChannel::new(a)));
            ends[j].push((i, TimingChannel::new(b)));
        }
    }
    ends
}

/// Frames, rounds and bytes *sent* by one endpoint.
fn sent_only(m: &MetricsSnapshot) -> MetricsSnapshot {
    MetricsSnapshot {
        bytes_sent: m.bytes_sent,
        messages_sent: m.messages_sent,
        rounds_sent: m.rounds_sent,
        ..MetricsSnapshot::default()
    }
}

struct PartyResult {
    result: Result<SessionOutcome, CoreError>,
    link: LinkStats,
    sent: MetricsSnapshot,
}

/// Runs one session of `spec` in process. Party `i` uses `keys[i]` and
/// seed `seed + i`; with `trace_capacity`, party 0 records a trace into a
/// recorder of that many slots.
pub fn run_local(
    spec: &ModeSpec,
    keys: &[Keypair],
    link: Option<CostModel>,
    seed: u64,
    trace_capacity: Option<usize>,
) -> SessionRun {
    let k = spec.parties.len();
    let mut participants: Vec<Participant> = (0..k)
        .map(|i| spec.participant(i, &keys[i], seed.wrapping_add(i as u64)))
        .collect();
    if let Some(capacity) = trace_capacity {
        let first = participants.remove(0);
        participants.insert(0, first.trace(SpanRecorder::with_capacity(capacity)));
    }
    let ends = mesh(k, link);
    let multiparty = spec.mode() == Mode::Multiparty;

    let start = Instant::now();
    let results: Vec<PartyResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = participants
            .into_iter()
            .zip(ends)
            .enumerate()
            .map(|(id, (participant, mut peers))| {
                scope.spawn(move || {
                    let result = if multiparty {
                        participant.run_mesh(&mut peers, id, k)
                    } else {
                        participant.run(&mut peers[0].1)
                    };
                    let mut link = LinkStats::default();
                    let mut sent = MetricsSnapshot::default();
                    for (_, end) in &peers {
                        link.add(&end.stats());
                        sent += sent_only(&end.metrics());
                    }
                    PartyResult { result, link, sent }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| PartyResult {
                    result: Err(CoreError::PartyPanicked("benchmark party")),
                    link: LinkStats::default(),
                    sent: MetricsSnapshot::default(),
                })
            })
            .collect::<Vec<_>>()
    });
    let secs = start.elapsed().as_secs_f64();
    finish(spec, secs, results)
}

fn finish(spec: &ModeSpec, secs: f64, results: Vec<PartyResult>) -> SessionRun {
    let mut traffic = MetricsSnapshot::default();
    let mut outcome = Ok(());
    let mut mismatch = false;
    let mut first = None;
    let mut link = LinkStats::default();
    let mut trace = None;
    for (party, r) in results.into_iter().enumerate() {
        traffic += r.sent;
        match r.result {
            Ok(out) => {
                if let Err(e) = spec.check(party, &out.output.clustering) {
                    if outcome.is_ok() {
                        outcome = Err(e);
                    }
                    mismatch = true;
                }
                if party == 0 {
                    link = r.link;
                    trace = out.trace;
                    first = Some(out.output);
                }
            }
            Err(e) => {
                if outcome.is_ok() {
                    outcome = Err(format!("{}: party {party} failed: {e}", spec.name));
                }
            }
        }
    }
    SessionRun {
        mode: spec.name,
        secs,
        wire_bytes: traffic.bytes_sent,
        traffic,
        outcome,
        mismatch,
        first,
        link,
        trace,
    }
}
