#![warn(missing_docs)]

//! **ppds-engine** — a parallel protocol-execution engine for the
//! privacy-preserving DBSCAN suite.
//!
//! The `ppdbscan` drivers run one session at a time: two threads, one
//! in-memory channel pair, blocking until the protocol completes. That is
//! the right shape for studying a protocol and the wrong shape for serving
//! many tenants. This crate turns those one-shot drivers into a concurrent
//! job runtime, the job scheduler in [`scheduler`].
//!
//! [`Engine`] owns a pool of worker threads fed from one multi-consumer
//! queue. Callers [`Engine::submit`] [`ClusteringJob`] descriptors — a
//! protocol mode ([`ppdbscan::SessionRequest`]: horizontal, vertical,
//! arbitrary, enhanced, or multiparty), a dataset, a
//! [`ppdbscan::ProtocolConfig`], and a seed — and get back a [`JobId`]
//! immediately. Each worker executes whole sessions via
//! [`ppdbscan::run_session`] — built on the typed
//! [`ppdbscan::session::Participant`] API, spawning the per-party threads
//! over an in-memory duplex pair — records a [`JobResult`] in the results
//! store,
//! and rolls the session's traffic ([`ppds_transport::MetricsSnapshot`])
//! and modeled Yao cost ([`ppdbscan::config::YaoLedger`]) into the
//! engine-wide [`EngineReport`]. Results are retrieved per job
//! ([`Engine::wait`]) or in bulk ([`Engine::wait_all`]). A network
//! front-end schedules sessions whose I/O it owns as generic tasks
//! ([`Engine::submit_task`]) on the same workers. The queue is unbounded;
//! such a front-end caps admission itself against [`Engine::queue_depth`].
//! A task that panics is counted as failed and its worker keeps serving
//! the queue; a party thread that panics inside a clustering job already
//! surfaces as [`ppdbscan::CoreError::PartyPanicked`].
//!
//! Because workers run the *unmodified* session drivers with the job's
//! seed, a job's clustering output is bit-for-bit identical to running the
//! same request through two [`ppdbscan::session::Participant`]s directly —
//! concurrency changes throughput, never answers. The
//! `engine_matches_direct_drivers` integration test pins this.
//!
//! ## Leakage guarantees under concurrency
//!
//! Running sessions concurrently does not weaken the paper's per-session
//! guarantees, for two structural reasons:
//!
//! * **Isolation** — each session gets a dedicated channel pair and
//!   per-session keypairs generated from its own seeded RNG stream;
//!   no ciphertext, nonce, or comparison transcript crosses sessions. Each
//!   party's [`ppds_smc::LeakageLog`] therefore contains exactly what the
//!   single-session theorems (9/10/11) permit, which the
//!   `leakage_profile_preserved_per_concurrent_session` test asserts
//!   per-job under a fully loaded engine.
//! * **Aggregation only widens, never leaks** — the engine's rollups sum
//!   byte/message counters and modeled Yao costs across sessions; they
//!   contain no plaintexts, shares, or neighborhoods. What a tenant learns
//!   from its own session is unchanged; what the operator learns is traffic
//!   accounting it could already observe on the wire.

pub mod job;
pub mod scheduler;

pub use job::{ClusteringJob, JobId, JobResult};
pub use scheduler::{Engine, EngineConfig, EngineReport, TaskFn};
