//! Multi-party horizontal DBSCAN — the extension the paper's §1 and §6
//! point to ("the two-party algorithm can be extended to multi-party
//! cases") but never spells out.
//!
//! `K ≥ 2` parties each own complete records. The construction generalizes
//! Algorithms 3 & 4 in the natural way:
//!
//! * every party holds one Paillier keypair and runs a pairwise session
//!   with each peer (full mesh; public-key exchange + versioned `Hello`
//!   handshake per [`crate::session`]);
//! * the run proceeds in `K` deterministic *phases*; in phase `p`, party
//!   `p` is the querier and every other party answers its neighborhood
//!   queries on their pairwise channel;
//! * a core-point test for the querier's point sums its own neighbor count
//!   with one HDP count per peer (each over a fresh per-query permutation,
//!   preserving the Figure 1 defense against every peer independently);
//! * cluster expansion still traverses only the querier's own points, so
//!   each party's output clustering of its own records matches the
//!   two-party reference semantics with the union of all peers as the
//!   external set: `dbscan_with_external_density(own, all_others)`.
//!
//! Leakage per party is the Theorem 9 profile against each peer
//! separately: per issued query, one neighbor count *per peer* (strictly
//! finer-grained than the union count — the price of the pairwise
//! construction; a future aggregation layer could hide the split at the
//! cost of a joint protocol among all K parties).
//!
//! Entry points: [`crate::session::Participant::run_mesh`] for one node
//! over real channels, [`crate::session::run_mesh_local`] for all nodes on
//! threads over an in-memory mesh.

use crate::config::ProtocolConfig;
use crate::driver::PartyOutput;
use crate::error::CoreError;
use crate::hdp::{hdp_query_querier_batch, hdp_respond_batch};
use crate::horizontal::check_points;
use crate::session::{
    establish, HandshakeProfile, Mode, PeerInfo, Session, SessionLog, SessionMeta, SessionOutcome,
    WIRE_VERSION,
};
use ppds_dbscan::{Clustering, Label, Point};
use ppds_observe::{trace, MetricsSnapshot};
use ppds_paillier::Keypair;
use ppds_smc::{LeakageEvent, Party, ProtocolContext};
use ppds_transport::Channel;
use std::collections::VecDeque;

const TAG_DONE: u8 = 0;
const TAG_QUERY: u8 = 1;

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    Unclassified,
    Noise,
    Cluster(usize),
}

/// One node's full run of the multi-party horizontal protocol: the
/// implementation behind [`crate::session::Participant::run_mesh`].
///
/// Randomness: each pairwise exchange draws from
/// `ctx.narrow("mesh").at(querier_id).at(responder_id)` — keyed by the
/// *ordered pair of global ids*, not by traffic order — so adding,
/// removing, or resizing one peer never shifts the streams (masks,
/// nonces, Figure-1 permutations) this node uses with any other peer,
/// and both halves of an exchange walk the same path (which the sharing
/// backend's dealer tape re-keys onto the pair's shared seed). Pinned by
/// the `mesh_streams_are_keyed_per_peer` integration test.
pub(crate) fn run_mesh_node<C: Channel>(
    peers: &mut [(usize, C)],
    my_id: usize,
    k_parties: usize,
    cfg: &ProtocolConfig,
    my_points: &[Point],
    keypair: Option<Keypair>,
    ctx: &ProtocolContext,
) -> Result<SessionOutcome, CoreError> {
    if k_parties < 2 {
        return Err(CoreError::config("need at least two parties"));
    }
    if peers.len() != k_parties - 1 {
        return Err(CoreError::config(format!(
            "one channel per peer: got {} for {} parties",
            peers.len(),
            k_parties
        )));
    }
    if my_id >= k_parties {
        return Err(CoreError::config(format!(
            "party id {my_id} out of range for {k_parties} parties"
        )));
    }
    peers.sort_by_key(|(peer_id, _)| *peer_id);

    let dim = my_points.first().map_or(0, Point::dim);
    cfg.validate(dim.max(1))?;
    check_points(cfg, my_points)?;

    // One keypair per node, one pairwise session per peer. The lower id
    // plays the Alice role of the key exchange ordering.
    let keygen_span = trace::span("keygen", MetricsSnapshot::default);
    let keypair = match keypair {
        Some(kp) => kp,
        None => Keypair::generate(cfg.key_bits, &mut ctx.narrow("keygen").rng()),
    };
    keygen_span.end(MetricsSnapshot::default);
    let profile = HandshakeProfile {
        mode: Mode::Multiparty,
        n: my_points.len(),
        dim,
        dim_must_match: true,
    };
    let establish_span = trace::span("establish", || mesh_metrics(peers));
    let mut sessions: Vec<(usize, Session)> = Vec::with_capacity(peers.len());
    for (peer_id, chan) in peers.iter_mut() {
        let role = if my_id < *peer_id {
            Party::Alice
        } else {
            Party::Bob
        };
        let peer_span = trace::span_with(|| format!("peer#{peer_id}"), || chan.metrics());
        let session = establish(chan, cfg, keypair.clone(), role, &profile, ctx)?;
        peer_span.end(|| chan.metrics());
        sessions.push((*peer_id, session));
    }
    establish_span.end(|| mesh_metrics(peers));

    let mut log = SessionLog::new();
    let mut clustering = None;
    let mesh_ctx = ctx.narrow("mesh");

    // K deterministic phases; ids give every party the same schedule.
    let execute_span = trace::span("execute", || mesh_metrics(peers));
    for phase in 0..k_parties {
        if phase == my_id {
            // Both halves of a pairwise exchange walk the path
            // `mesh → at(querier) → at(responder)`, so the sharing
            // backend's tape draws stay correlated across the pair while
            // every ordered pair still gets its own independent streams.
            let querier_ctx = mesh_ctx.at(my_id as u64);
            clustering = Some(query_phase(
                peers,
                &sessions,
                cfg,
                my_points,
                &querier_ctx,
                &mut log,
            )?);
        } else {
            // Serve the querying party on the channel that leads to it.
            let idx = peers
                .iter()
                .position(|(peer_id, _)| *peer_id == phase)
                .expect("phase party is a peer");
            let (_, session) = &sessions[idx];
            let (_, chan) = &mut peers[idx];
            let pair_ctx = mesh_ctx.at(phase as u64).at(my_id as u64);
            respond_phase(chan, session, cfg, my_points, &pair_ctx, &mut log)?;
        }
    }
    execute_span.end(|| mesh_metrics(peers));

    let assemble_span = trace::span("assemble", || mesh_metrics(peers));
    let traffic = peers.iter().map(|(_, chan)| chan.metrics()).sum();
    let peer_meta = sessions
        .iter()
        .map(|(peer_id, session)| PeerInfo {
            id: *peer_id,
            n: session.peer_n,
            dim: session.peer_dim,
        })
        .collect();
    let outcome = SessionOutcome {
        output: PartyOutput {
            clustering: clustering.expect("own phase ran"),
            leakage: log.leakage,
            traffic,
            yao: log.ledger,
            sharing: log.sharing,
        },
        trace: None,
        meta: SessionMeta {
            wire_version: WIRE_VERSION,
            mode: Mode::Multiparty,
            backend: cfg.backend,
            pruning: cfg.pruning,
            peers: peer_meta,
        },
    };
    assemble_span.end(|| outcome.output.traffic);
    Ok(outcome)
}

/// Summed traffic across every pairwise channel — the snapshot a mesh-level
/// span edge carries (componentwise sums of monotone counters are still
/// monotone, so span deltas stay well-defined).
fn mesh_metrics<C: Channel>(peers: &[(usize, C)]) -> MetricsSnapshot {
    peers.iter().map(|(_, chan)| chan.metrics()).sum()
}

/// The querier's DBSCAN loop: like the two-party engine, but each core test
/// fans out one HDP neighborhood query to every peer, each drawing from
/// the ordered-pair context `querier_ctx.at(peer_id)`.
fn query_phase<C: Channel>(
    peers: &mut [(usize, C)],
    sessions: &[(usize, Session)],
    cfg: &ProtocolConfig,
    points: &[Point],
    querier_ctx: &ProtocolContext,
    log: &mut SessionLog,
) -> Result<Clustering, CoreError> {
    // The local index and the per-peer coarse-cell exchange follow the
    // two-party horizontal driver (see crate::prune); each peer answers
    // with its own band-filtered candidate cardinality.
    let index = crate::prune::local_index(points, cfg.params.eps_sq, cfg.pruning);
    let width = match cfg.pruning {
        ppds_dbscan::Pruning::Grid { coarseness } => {
            Some(ppds_dbscan::band_width(cfg.params.eps_sq, coarseness))
        }
        ppds_dbscan::Pruning::Exhaustive => None,
    };
    let mut states = vec![State::Unclassified; points.len()];
    let mut next_cluster = 0usize;
    let mut issued = 0u64;

    let mut core_test = |peers: &mut [(usize, C)],
                         log: &mut SessionLog,
                         idx: usize,
                         own_count: usize|
     -> Result<bool, CoreError> {
        let mut total = own_count;
        let query_no = issued;
        issued += 1;
        let query_span = trace::span_with(|| format!("query#{query_no}"), || mesh_metrics(peers));
        for (pos, (peer_id, chan)) in peers.iter_mut().enumerate() {
            chan.send(&TAG_QUERY)?;
            let session = &sessions[pos].1;
            let backend =
                crate::backend::backend_for(cfg, session, points.first().map_or(0, Point::dim))?;
            let qctx = querier_ctx.at(*peer_id as u64).narrow("hdp").at(query_no);
            let responder_count = match width {
                Some(w) => crate::prune::query_candidate_count(
                    chan,
                    &points[idx],
                    w,
                    session.peer_n,
                    &mut log.leakage,
                    &format!("own#{idx}/peer#{peer_id}"),
                )?,
                None => session.peer_n,
            };
            let count = hdp_query_querier_batch(
                chan,
                cfg,
                &backend,
                &points[idx],
                responder_count,
                &qctx,
                &mut log.ledger,
                &mut log.sharing,
            )?;
            log.leakage.record(LeakageEvent::NeighborCount {
                query: format!("own#{idx}/peer#{peer_id}"),
                count: count as u64,
            });
            total += count;
        }
        query_span.end(|| mesh_metrics(peers));
        Ok(total >= cfg.params.min_pts)
    };

    for i in 0..points.len() {
        if states[i] != State::Unclassified {
            continue;
        }
        let seeds = index.region_query(&points[i]);
        if !core_test(peers, log, i, seeds.len())? {
            states[i] = State::Noise;
            continue;
        }
        let cluster_id = next_cluster;
        next_cluster += 1;
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &s in &seeds {
            states[s] = State::Cluster(cluster_id);
            if s != i {
                queue.push_back(s);
            }
        }
        while let Some(current) = queue.pop_front() {
            let result = index.region_query(&points[current]);
            if core_test(peers, log, current, result.len())? {
                for &neighbor in &result {
                    match states[neighbor] {
                        State::Unclassified => {
                            queue.push_back(neighbor);
                            states[neighbor] = State::Cluster(cluster_id);
                        }
                        State::Noise => {
                            states[neighbor] = State::Cluster(cluster_id);
                        }
                        State::Cluster(_) => {}
                    }
                }
            }
        }
    }
    for (_, chan) in peers.iter_mut() {
        chan.send(&TAG_DONE)?;
    }

    let labels = states
        .into_iter()
        .map(|s| match s {
            State::Unclassified => unreachable!("all points classified"),
            State::Noise => Label::Noise,
            State::Cluster(id) => Label::Cluster(id),
        })
        .collect();
    Ok(Clustering {
        labels,
        num_clusters: next_cluster,
    })
}

fn respond_phase<C: Channel>(
    chan: &mut C,
    session: &Session,
    cfg: &ProtocolConfig,
    my_points: &[Point],
    pair_ctx: &ProtocolContext,
    log: &mut SessionLog,
) -> Result<(), CoreError> {
    let serve_ctx = pair_ctx.narrow("hdp");
    let backend =
        crate::backend::backend_for(cfg, session, my_points.first().map_or(0, Point::dim))?;
    let grid = match cfg.pruning {
        ppds_dbscan::Pruning::Grid { coarseness } => {
            let w = ppds_dbscan::band_width(cfg.params.eps_sq, coarseness);
            Some(ppds_dbscan::CoarseGrid::from_points(my_points, w))
        }
        ppds_dbscan::Pruning::Exhaustive => None,
    };
    let mut served = 0u64;
    loop {
        let tag: u8 = chan.recv()?;
        match tag {
            TAG_DONE => return Ok(()),
            TAG_QUERY => {
                let qctx = serve_ctx.at(served);
                let serve_span = trace::span_with(|| format!("serve#{served}"), || chan.metrics());
                let candidates = match &grid {
                    Some(g) => crate::prune::respond_candidates(
                        chan,
                        g,
                        &mut log.leakage,
                        &format!("serve#{served}"),
                    )?,
                    None => crate::prune::all_candidates(my_points.len()),
                };
                served += 1;
                hdp_respond_batch(
                    chan,
                    cfg,
                    &backend,
                    my_points,
                    &candidates,
                    &qctx,
                    &mut log.ledger,
                    &mut log.sharing,
                    &mut log.leakage,
                )?;
                serve_span.end(|| chan.metrics());
            }
            other => {
                return Err(CoreError::Smc(ppds_smc::SmcError::protocol(format!(
                    "unexpected multiparty control tag {other}"
                ))))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::run_mesh_local;
    use crate::test_helpers::rng;
    use ppds_dbscan::{dbscan_with_external_density, DbscanParams};

    fn cfg(eps_sq: u64, min_pts: usize, bound: i64) -> ProtocolConfig {
        ProtocolConfig::new(DbscanParams { eps_sq, min_pts }, bound)
    }

    fn pts(coords: &[&[i64]]) -> Vec<Point> {
        coords.iter().map(|c| Point::from(*c)).collect()
    }

    fn mesh(c: &ProtocolConfig, parties: &[Vec<Point>], seed: u64) -> Vec<PartyOutput> {
        run_mesh_local(c, parties, seed)
            .unwrap()
            .into_iter()
            .map(|outcome| outcome.output)
            .collect()
    }

    #[test]
    fn three_parties_match_external_density_reference() {
        let parties = vec![
            pts(&[&[0, 0], &[10, 10], &[30, -30]]),
            pts(&[&[1, 0], &[11, 10]]),
            pts(&[&[0, 1], &[10, 11], &[-30, 30]]),
        ];
        let c = cfg(4, 3, 40);
        let outputs = mesh(&c, &parties, 77);
        assert_eq!(outputs.len(), 3);
        for (i, out) in outputs.iter().enumerate() {
            let others: Vec<Point> = parties
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .flat_map(|(_, p)| p.iter().cloned())
                .collect();
            let reference = dbscan_with_external_density(&parties[i], &others, c.params);
            assert_eq!(out.clustering, reference, "party {i}");
        }
    }

    #[test]
    fn two_party_case_equals_bilateral_protocol() {
        let alice = pts(&[&[0, 0], &[1, 1], &[20, 20]]);
        let bob = pts(&[&[0, 1], &[19, 20]]);
        let c = cfg(4, 3, 30);
        let multi = mesh(&c, &[alice.clone(), bob.clone()], 5);
        let (two_a, two_b) = crate::session::run_data_pair(
            &c,
            crate::session::PartyData::Horizontal(alice),
            crate::session::PartyData::Horizontal(bob),
            rng(1),
            rng(2),
        )
        .unwrap();
        assert_eq!(multi[0].clustering, two_a.clustering);
        assert_eq!(multi[1].clustering, two_b.clustering);
    }

    #[test]
    fn four_parties_pool_density() {
        // Each party alone sees nothing; four together make every point core.
        let parties = vec![
            pts(&[&[0, 0]]),
            pts(&[&[1, 0]]),
            pts(&[&[0, 1]]),
            pts(&[&[1, 1]]),
        ];
        let c = cfg(4, 4, 5);
        let outputs = mesh(&c, &parties, 9);
        for (i, out) in outputs.iter().enumerate() {
            assert_eq!(out.clustering.num_clusters, 1, "party {i}");
            assert_eq!(out.clustering.noise_count(), 0, "party {i}");
        }
    }

    #[test]
    fn leakage_is_per_peer_neighbor_counts() {
        let parties = vec![pts(&[&[0, 0], &[5, 5]]), pts(&[&[1, 0]]), pts(&[&[0, 1]])];
        let c = cfg(4, 2, 10);
        let outputs = mesh(&c, &parties, 11);
        // Party 0 issued queries against 2 peers: counts come in pairs.
        let counts = outputs[0].leakage.count_kind("neighbor_count");
        assert!(counts > 0 && counts.is_multiple_of(2), "counts = {counts}");
        for event in outputs[0].leakage.events() {
            if let LeakageEvent::NeighborCount { query, .. } = event {
                assert!(query.contains("/peer#"), "per-peer context: {query}");
            }
        }
    }

    #[test]
    fn uneven_party_sizes_work() {
        let parties = vec![
            pts(&[&[0, 0], &[1, 0], &[0, 1], &[9, 9]]),
            pts(&[&[1, 1]]),
            pts(&[]),
        ];
        let c = cfg(4, 3, 12);
        let outputs = mesh(&c, &parties, 13);
        assert_eq!(outputs[2].clustering.labels.len(), 0);
        let others: Vec<Point> = parties[1..].iter().flatten().cloned().collect();
        let reference = dbscan_with_external_density(&parties[0], &others, c.params);
        assert_eq!(outputs[0].clustering, reference);
    }

    #[test]
    fn mesh_outcome_carries_per_peer_metadata() {
        let parties = vec![pts(&[&[0, 0], &[1, 1]]), pts(&[&[1, 0]]), pts(&[&[0, 1]])];
        let c = cfg(4, 2, 10);
        let outcomes = run_mesh_local(&c, &parties, 3).unwrap();
        let meta = &outcomes[0].meta;
        assert_eq!(meta.mode, Mode::Multiparty);
        assert_eq!(meta.wire_version, WIRE_VERSION);
        assert_eq!(meta.peers.len(), 2);
        assert_eq!(meta.peers[0].id, 1);
        assert_eq!(meta.peers[0].n, 1);
        assert_eq!(meta.peers[1].id, 2);
    }
}
