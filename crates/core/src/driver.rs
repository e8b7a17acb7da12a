//! Per-party outputs, the in-process pair conductor, and the engine-facing
//! [`SessionRequest`]/[`run_session`] surface.
//!
//! The protocol entry point is the [`crate::session`] module: a
//! [`crate::session::Participant`] runs any mode over any
//! [`ppds_transport::Channel`] (see `examples/hospitals_horizontal.rs` for
//! a genuine two-process TCP deployment).

use crate::config::{ProtocolConfig, YaoLedger};
use crate::error::CoreError;
use crate::partition::{ArbitraryPartition, VerticalPartition};
use crate::session::{run_data_pair, PartyData};
use ppds_dbscan::{Clustering, Point};
use ppds_smc::{LeakageLog, SharingLedger};
use ppds_transport::{duplex, MemoryChannel, MetricsSnapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Everything one party takes away from a protocol run.
#[derive(Debug)]
pub struct PartyOutput {
    /// The clustering this party learned (its own points for horizontal
    /// protocols; all records for vertical/arbitrary).
    pub clustering: Clustering,
    /// Exactly what this party learned beyond its prescribed output.
    pub leakage: LeakageLog,
    /// Actual bytes/messages this endpoint moved.
    pub traffic: MetricsSnapshot,
    /// Modeled cost of the faithful Yao protocol for every comparison run.
    pub yao: YaoLedger,
    /// Sharing-backend substitution accounting (all zero under Paillier):
    /// exact counts of masked-open comparisons, Beaver triples consumed,
    /// opened field elements, and modeled offline-phase bytes.
    pub sharing: SharingLedger,
}

/// A mode-tagged, self-contained description of one clustering session:
/// everything a scheduler needs to run a complete protocol execution
/// without knowing which protocol family it is.
///
/// This is the engine-callable surface of the drivers: `ppds-engine`
/// queues `SessionRequest`s and executes them with [`run_session`], and
/// because [`run_session`] derives its per-party RNGs from the `seed`
/// exactly like the [`crate::session::Participant`] builder's `.seed(..)`
/// does, an engine-run job is bit-for-bit identical to running the same
/// participants directly with the same seeds.
#[derive(Debug, Clone)]
pub enum SessionRequest {
    /// Basic horizontal protocol (Algorithms 3 & 4).
    Horizontal {
        /// Alice's complete records.
        alice: Vec<Point>,
        /// Bob's complete records.
        bob: Vec<Point>,
    },
    /// Enhanced horizontal protocol (Algorithms 7 & 8).
    Enhanced {
        /// Alice's complete records.
        alice: Vec<Point>,
        /// Bob's complete records.
        bob: Vec<Point>,
    },
    /// Vertical protocol (Algorithms 5 & 6).
    Vertical(VerticalPartition),
    /// Arbitrary-partition protocol (§4.4).
    Arbitrary(ArbitraryPartition),
    /// K-party horizontal generalization (full pairwise mesh).
    Multiparty {
        /// One record set per party (`≥ 2` parties).
        parties: Vec<Vec<Point>>,
    },
}

impl SessionRequest {
    /// Number of parties this session runs.
    pub fn num_parties(&self) -> usize {
        match self {
            SessionRequest::Multiparty { parties } => parties.len(),
            _ => 2,
        }
    }

    /// The protocol family this request selects.
    pub fn mode(&self) -> crate::session::Mode {
        use crate::session::Mode;
        match self {
            SessionRequest::Horizontal { .. } => Mode::Horizontal,
            SessionRequest::Enhanced { .. } => Mode::Enhanced,
            SessionRequest::Vertical(_) => Mode::Vertical,
            SessionRequest::Arbitrary(_) => Mode::Arbitrary,
            SessionRequest::Multiparty { .. } => Mode::Multiparty,
        }
    }

    /// Short protocol-family tag for logs and reports.
    pub fn mode_name(&self) -> &'static str {
        self.mode().name()
    }

    /// The two parties' [`PartyData`] views `(alice, bob)` of this request.
    ///
    /// # Panics
    /// Panics on [`SessionRequest::Multiparty`], which has no two-party
    /// view (use [`crate::session::run_mesh_local`]).
    fn two_party_views(&self) -> (PartyData, PartyData) {
        match self {
            SessionRequest::Horizontal { alice, bob } => (
                PartyData::Horizontal(alice.clone()),
                PartyData::Horizontal(bob.clone()),
            ),
            SessionRequest::Enhanced { alice, bob } => (
                PartyData::Enhanced(alice.clone()),
                PartyData::Enhanced(bob.clone()),
            ),
            SessionRequest::Vertical(partition) => (
                PartyData::Vertical(partition.alice.clone()),
                PartyData::Vertical(partition.bob.clone()),
            ),
            SessionRequest::Arbitrary(partition) => (
                PartyData::Arbitrary(partition.alice_values.clone()),
                PartyData::Arbitrary(partition.bob_values.clone()),
            ),
            SessionRequest::Multiparty { .. } => {
                unreachable!("multiparty requests run over a mesh")
            }
        }
    }
}

/// Runs one [`SessionRequest`] end to end on in-memory channels, deriving
/// the party RNGs from `seed` (Alice gets `seed`, Bob `seed + 1`;
/// multiparty node `i` gets `seed + i`). Returns one [`PartyOutput`] per
/// party in party order.
///
/// For the two-party modes this is exactly equivalent to running two
/// [`crate::session::Participant`]s with `.seed(seed)` / `.seed(seed + 1)`
/// over a duplex
/// pair.
pub fn run_session(
    cfg: &ProtocolConfig,
    request: &SessionRequest,
    seed: u64,
) -> Result<Vec<PartyOutput>, CoreError> {
    if let SessionRequest::Multiparty { parties } = request {
        if parties.len() < 2 {
            return Err(CoreError::config(
                "multiparty session needs at least 2 parties",
            ));
        }
        return Ok(crate::session::run_mesh_local(cfg, parties, seed)?
            .into_iter()
            .map(|outcome| outcome.output)
            .collect());
    }
    let (alice_data, bob_data) = request.two_party_views();
    let (a, b) = run_data_pair(
        cfg,
        alice_data,
        bob_data,
        StdRng::seed_from_u64(seed),
        StdRng::seed_from_u64(seed.wrapping_add(1)),
    )?;
    Ok(vec![a, b])
}

/// Runs the two halves of a protocol on two scoped threads over an
/// in-memory duplex pair.
pub fn run_pair<A, B, RA, RB>(alice_half: A, bob_half: B) -> Result<(RA, RB), CoreError>
where
    A: FnOnce(MemoryChannel) -> Result<RA, CoreError> + Send,
    B: FnOnce(MemoryChannel) -> Result<RB, CoreError> + Send,
    RA: Send,
    RB: Send,
{
    let (alice_chan, bob_chan) = duplex();
    let (alice_result, bob_result) = std::thread::scope(|scope| {
        let alice = scope.spawn(move || alice_half(alice_chan));
        let bob = scope.spawn(move || bob_half(bob_chan));
        (
            alice.join().map_err(|_| CoreError::PartyPanicked("alice")),
            bob.join().map_err(|_| CoreError::PartyPanicked("bob")),
        )
    });
    Ok((alice_result??, bob_result??))
}
