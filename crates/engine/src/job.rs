//! Job descriptors and results.

use ppdbscan::config::YaoLedger;
use ppdbscan::{CoreError, PartyOutput, ProtocolConfig, SessionRequest};
use ppds_transport::MetricsSnapshot;
use std::time::Duration;

/// Opaque handle to a submitted job, issued by [`crate::Engine::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub(crate) u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Everything the engine needs to run one clustering session: which
/// protocol family ([`SessionRequest`]), under which public parameters, and
/// from which RNG seed.
///
/// The seed fully determines the session (keypairs, nonces, permutations),
/// so a job re-submitted with the same descriptor reproduces the same
/// transcript and output — the engine adds throughput, not nondeterminism.
#[derive(Debug, Clone)]
pub struct ClusteringJob {
    /// Public protocol parameters both parties agree on.
    pub cfg: ProtocolConfig,
    /// The mode-tagged dataset.
    pub request: SessionRequest,
    /// Seed for the per-party RNG streams (see [`ppdbscan::run_session`]).
    pub seed: u64,
}

impl ClusteringJob {
    /// Bundles a job descriptor.
    pub fn new(cfg: ProtocolConfig, request: SessionRequest, seed: u64) -> Self {
        ClusteringJob { cfg, request, seed }
    }

    /// Returns the job with the given candidate-pruning policy (see
    /// [`ProtocolConfig::with_pruning`]): grid pruning replaces all-pairs
    /// secure comparison with band-intersecting candidate sets, trading a
    /// ledgered coarse-band disclosure for an order-of-magnitude drop in
    /// comparisons; labels stay byte-identical under the same seed.
    pub fn with_pruning(mut self, pruning: ppds_dbscan::Pruning) -> Self {
        self.cfg = self.cfg.with_pruning(pruning);
        self
    }
}

/// A finished job: the per-party outputs (or the error), plus the rollups
/// the scheduler derived from them.
#[derive(Debug)]
pub struct JobResult {
    /// The handle this result answers.
    pub id: JobId,
    /// Protocol family tag (`"horizontal"`, `"vertical"`, …).
    pub mode: &'static str,
    /// One [`PartyOutput`] per party in party order, or the session error.
    pub outcome: Result<Vec<PartyOutput>, CoreError>,
    /// Wall-clock time the worker spent on this job.
    pub wall_time: Duration,
    /// Sum of every party's endpoint traffic for this job.
    pub traffic: MetricsSnapshot,
    /// Absorbed Yao ledgers of every party for this job.
    pub yao: YaoLedger,
}

impl JobResult {
    /// `true` if the session completed without error.
    pub fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }

    /// The party outputs.
    ///
    /// # Panics
    /// Panics if the job failed; check [`JobResult::is_ok`] or match on
    /// `outcome` when failure is expected.
    pub fn outputs(&self) -> &[PartyOutput] {
        self.outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("{} failed: {e}", self.id))
    }
}
