//! The horizontally partitioned DBSCAN drivers: the basic protocol
//! (Algorithms 3 & 4) and the enhanced protocol (Algorithms 7 & 8), which
//! share one expansion engine and differ only in the core-point test.
//!
//! Per the paper, the run is *symmetric*: Alice clusters her own points
//! while Bob answers her neighborhood queries, then the roles swap. Each
//! party ends with labels for its own records only (§3.3); cluster ids are
//! party-local and intentionally not reconciled across parties.
//!
//! Connectivity semantics: the querying party learns only *how many* (or,
//! enhanced, *whether enough*) peer points lie in a neighborhood — never
//! which ones — so expansion can only traverse the party's own points. The
//! plaintext reference of this behaviour is
//! [`ppds_dbscan::dbscan_with_external_density`], and the integration tests
//! assert label-exact agreement with it.
//!
//! Both protocols run through the shared [`crate::session`] dispatch; the
//! [`crate::session::Participant`] builder is the supported entry point.

use crate::config::ProtocolConfig;
use crate::error::CoreError;
use crate::hdp::{hdp_query_querier_batch, hdp_respond_batch};
use crate::session::{HandshakeProfile, Mode, ModeContext, ModeDriver, Session, SessionLog};
use ppds_dbscan::index::NeighborIndex;
use ppds_dbscan::{Clustering, Label, Point};
use ppds_observe::trace;
use ppds_smc::{LeakageEvent, Party, ProtocolContext};
use ppds_transport::Channel;
use std::collections::VecDeque;

/// Control tags framing the querier's stream of neighborhood queries.
const TAG_DONE: u8 = 0;
const TAG_QUERY: u8 = 1;

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    Unclassified,
    Noise,
    Cluster(usize),
}

/// The querying party's DBSCAN loop (Algorithm 3 + the local half of
/// Algorithm 4), generic over the core-point test so the basic and
/// enhanced protocols share it.
///
/// `index` answers the party's *local* region queries (the ε-grid when
/// pruning is on, the linear scan otherwise — see
/// [`crate::prune::local_index`]; both return identical ascending index
/// lists, so the swap cannot perturb labels). `core_test(chan, point_idx,
/// own_neighbor_count)` runs one interactive core-point decision with the
/// responder.
pub(crate) fn querier_phase<C, F>(
    chan: &mut C,
    index: &dyn NeighborIndex,
    points: &[Point],
    mut core_test: F,
) -> Result<Clustering, CoreError>
where
    C: Channel,
    F: FnMut(&mut C, usize, usize) -> Result<bool, CoreError>,
{
    let mut states = vec![State::Unclassified; points.len()];
    let mut next_cluster = 0usize;

    for i in 0..points.len() {
        if states[i] != State::Unclassified {
            continue;
        }
        let seeds = index.region_query(&points[i]);
        chan.send(&TAG_QUERY)?;
        if !core_test(chan, i, seeds.len())? {
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
            chan.send(&TAG_QUERY)?;
            if core_test(chan, current, result.len())? {
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
    chan.send(&TAG_DONE)?;

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

/// The responding party's loop: serve queries until the querier signals
/// completion.
pub(crate) fn responder_phase<C, F>(chan: &mut C, mut respond: F) -> Result<(), CoreError>
where
    C: Channel,
    F: FnMut(&mut C) -> Result<(), CoreError>,
{
    loop {
        let tag: u8 = chan.recv()?;
        match tag {
            TAG_DONE => return Ok(()),
            TAG_QUERY => respond(chan)?,
            other => {
                return Err(CoreError::Smc(ppds_smc::SmcError::protocol(format!(
                    "unexpected control tag {other}"
                ))))
            }
        }
    }
}

/// Shared local validation for complete-record modes: every point within
/// the agreed lattice bound, one common dimension, config usable.
pub(crate) fn validate_complete_records(
    cfg: &ProtocolConfig,
    points: &[Point],
) -> Result<(), CoreError> {
    let dim = points.first().map_or(0, Point::dim);
    cfg.validate(dim.max(1))?;
    check_points(cfg, points)
}

/// Handshake advertisement for complete-record modes. An empty side
/// advertises dimension 0, which the handshake treats as "any" (it still
/// answers queries — with zero matches — either way).
pub(crate) fn complete_records_profile(mode: Mode, points: &[Point]) -> HandshakeProfile {
    HandshakeProfile {
        mode,
        n: points.len(),
        dim: points.first().map_or(0, Point::dim),
        dim_must_match: true,
    }
}

/// The basic horizontal protocol as a [`ModeDriver`].
pub(crate) struct HorizontalDriver<'a> {
    pub points: &'a [Point],
}

impl ModeDriver for HorizontalDriver<'_> {
    fn validate(&self, cfg: &ProtocolConfig) -> Result<(), CoreError> {
        validate_complete_records(cfg, self.points)
    }

    fn profile(&self) -> HandshakeProfile {
        complete_records_profile(Mode::Horizontal, self.points)
    }

    fn check_session(&self, _cfg: &ProtocolConfig, _session: &Session) -> Result<(), CoreError> {
        Ok(())
    }

    fn execute<C: Channel>(
        &self,
        chan: &mut C,
        mctx: &ModeContext<'_>,
        ctx: &ProtocolContext,
        log: &mut SessionLog,
    ) -> Result<Clustering, CoreError> {
        let (cfg, session, points) = (mctx.cfg, mctx.session, self.points);
        let backend = mctx.backend(points.first().map_or(0, Point::dim))?;
        // Grid pruning: local queries go through the ε-grid, and each
        // cross-party query is preceded by a coarse-cell exchange that
        // narrows the served set to band-intersecting peer points (see
        // crate::prune for the exactness argument and leakage ledger).
        let index = crate::prune::local_index(points, cfg.params.eps_sq, cfg.pruning);
        let width = match cfg.pruning {
            ppds_dbscan::Pruning::Grid { coarseness } => {
                Some(ppds_dbscan::band_width(cfg.params.eps_sq, coarseness))
            }
            ppds_dbscan::Pruning::Exhaustive => None,
        };
        let grid = width.map(|w| ppds_dbscan::CoarseGrid::from_points(points, w));
        // One context instance per issued/served query, keyed by querying
        // *direction* rather than local phase: the querier's q-th query and
        // the responder's q-th serve are two halves of the same protocol
        // instance and must walk identical context paths — the sharing
        // backend re-keys this path onto the shared dealer seed, so a path
        // mismatch would decorrelate the two sides' tape draws.
        let (my_queries, peer_queries) = match mctx.role {
            Party::Alice => ("hdp_a", "hdp_b"),
            Party::Bob => ("hdp_b", "hdp_a"),
        };
        let query_ctx = ctx.narrow(my_queries);
        let serve_ctx = ctx.narrow(peer_queries);
        let run_query_phase = |chan: &mut C, log: &mut SessionLog| {
            let mut q = 0u64;
            querier_phase(chan, index.as_ref(), points, |chan, idx, own_count| {
                // One HDP query per core test, shipping the whole
                // responder set in O(1) wire rounds.
                let qctx = query_ctx.at(q);
                let span = trace::span_with(|| format!("query#{q}"), || chan.metrics());
                q += 1;
                // When pruning, disclose the query's coarse cell and learn
                // how many peer points survive the band filter; the secure
                // phase then runs over that candidate set only.
                let responder_count = match width {
                    Some(w) => crate::prune::query_candidate_count(
                        chan,
                        &points[idx],
                        w,
                        session.peer_n,
                        &mut log.leakage,
                        &format!("own#{idx}"),
                    )?,
                    None => session.peer_n,
                };
                let peer_count = hdp_query_querier_batch(
                    chan,
                    cfg,
                    &backend,
                    &points[idx],
                    responder_count,
                    &qctx,
                    &mut log.ledger,
                    &mut log.sharing,
                )?;
                span.end(|| chan.metrics());
                log.leakage.record(LeakageEvent::NeighborCount {
                    query: format!("own#{idx}"),
                    count: peer_count as u64,
                });
                Ok(own_count + peer_count >= cfg.params.min_pts)
            })
        };
        let run_respond_phase = |chan: &mut C, log: &mut SessionLog| {
            let mut q = 0u64;
            responder_phase(chan, |chan| {
                let qctx = serve_ctx.at(q);
                let span = trace::span_with(|| format!("serve#{q}"), || chan.metrics());
                let candidates = match &grid {
                    Some(g) => crate::prune::respond_candidates(
                        chan,
                        g,
                        &mut log.leakage,
                        &format!("serve#{q}"),
                    )?,
                    None => crate::prune::all_candidates(points.len()),
                };
                q += 1;
                hdp_respond_batch(
                    chan,
                    cfg,
                    &backend,
                    points,
                    &candidates,
                    &qctx,
                    &mut log.ledger,
                    &mut log.sharing,
                    &mut log.leakage,
                )?;
                span.end(|| chan.metrics());
                Ok(())
            })
        };

        match mctx.role {
            Party::Alice => {
                let clustering = run_query_phase(chan, log)?;
                run_respond_phase(chan, log)?;
                Ok(clustering)
            }
            Party::Bob => {
                run_respond_phase(chan, log)?;
                run_query_phase(chan, log)
            }
        }
    }
}

/// Validates that every local point respects the agreed lattice bound and
/// shares one dimension.
pub(crate) fn check_points(cfg: &ProtocolConfig, points: &[Point]) -> Result<(), CoreError> {
    let dim = points.first().map_or(0, Point::dim);
    for (i, p) in points.iter().enumerate() {
        if p.dim() != dim {
            return Err(CoreError::config(format!(
                "point {i} has dimension {} but point 0 has {dim}",
                p.dim()
            )));
        }
        if p.max_abs_coord() > cfg.coord_bound {
            return Err(CoreError::config(format!(
                "point {i} exceeds the agreed coordinate bound {}",
                cfg.coord_bound
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::PartyOutput;
    use crate::session::{run_data_pair, Participant, PartyData};
    use crate::test_helpers::rng;
    use ppds_dbscan::{dbscan_with_external_density, eval, DbscanParams};

    fn pts(coords: &[&[i64]]) -> Vec<Point> {
        coords.iter().map(|c| Point::from(*c)).collect()
    }

    fn cfg(eps_sq: u64, min_pts: usize, bound: i64) -> ProtocolConfig {
        ProtocolConfig::new(DbscanParams { eps_sq, min_pts }, bound)
    }

    fn horizontal(
        c: &ProtocolConfig,
        alice: &[Point],
        bob: &[Point],
        sa: u64,
        sb: u64,
    ) -> (PartyOutput, PartyOutput) {
        run_data_pair(
            c,
            PartyData::Horizontal(alice.to_vec()),
            PartyData::Horizontal(bob.to_vec()),
            rng(sa),
            rng(sb),
        )
        .unwrap()
    }

    fn enhanced(
        c: &ProtocolConfig,
        alice: &[Point],
        bob: &[Point],
        sa: u64,
        sb: u64,
    ) -> (PartyOutput, PartyOutput) {
        run_data_pair(
            c,
            PartyData::Enhanced(alice.to_vec()),
            PartyData::Enhanced(bob.to_vec()),
            rng(sa),
            rng(sb),
        )
        .unwrap()
    }

    #[test]
    fn basic_matches_external_density_reference() {
        let alice = pts(&[&[0, 0], &[1, 0], &[10, 10], &[11, 10], &[30, -30]]);
        let bob = pts(&[&[0, 1], &[1, 1], &[10, 11], &[-30, 30]]);
        let c = cfg(4, 3, 40);
        let (a_out, b_out) = horizontal(&c, &alice, &bob, 1, 2);
        let a_ref = dbscan_with_external_density(&alice, &bob, c.params);
        let b_ref = dbscan_with_external_density(&bob, &alice, c.params);
        assert_eq!(a_out.clustering, a_ref, "alice labels");
        assert_eq!(b_out.clustering, b_ref, "bob labels");
        assert!(a_out.traffic.total_bytes() > 0);
        assert!(a_out.yao.comparisons > 0);
    }

    #[test]
    fn enhanced_matches_basic_labels() {
        let alice = pts(&[&[0, 0], &[1, 0], &[10, 10], &[11, 10], &[30, -30]]);
        let bob = pts(&[&[0, 1], &[1, 1], &[10, 11], &[-30, 30]]);
        let c = cfg(4, 3, 40);
        let (basic_a, basic_b) = horizontal(&c, &alice, &bob, 3, 4);
        let (enh_a, enh_b) = enhanced(&c, &alice, &bob, 5, 6);
        assert_eq!(basic_a.clustering, enh_a.clustering);
        assert_eq!(basic_b.clustering, enh_b.clustering);
    }

    #[test]
    fn leakage_profiles_match_theorems_9_and_11() {
        let alice = pts(&[&[0, 0], &[1, 0], &[9, 9]]);
        let bob = pts(&[&[0, 1], &[8, 9]]);
        let c = cfg(4, 2, 15);
        let (basic_a, _b) = horizontal(&c, &alice, &bob, 7, 8);
        // Theorem 9: one neighbor count per query the party issued.
        assert!(basic_a.leakage.count_kind("neighbor_count") > 0);
        assert_eq!(basic_a.leakage.count_kind("core_point_bit"), 0);

        let (enh_a, _b) = enhanced(&c, &alice, &bob, 9, 10);
        // Theorem 11: core-point bits only, never a count.
        assert_eq!(enh_a.leakage.count_kind("neighbor_count"), 0);
        assert!(enh_a.leakage.count_kind("core_point_bit") > 0);
    }

    #[test]
    fn cross_party_density_counts_are_used() {
        // Alone, neither side clusters (every point would be noise); with
        // the peer's density both sides find their cluster.
        let alice = pts(&[&[0, 0], &[2, 0]]);
        let bob = pts(&[&[1, 0], &[1, 1]]);
        let c = cfg(4, 3, 5);
        let (a_out, b_out) = horizontal(&c, &alice, &bob, 11, 12);
        assert_eq!(a_out.clustering.noise_count(), 0);
        assert_eq!(b_out.clustering.noise_count(), 0);
        assert_eq!(a_out.clustering.num_clusters, 1);
    }

    #[test]
    fn empty_bob_side_degenerates_to_local_dbscan() {
        let alice = pts(&[&[0], &[1], &[2], &[50]]);
        let bob: Vec<Point> = vec![];
        let c = cfg(1, 2, 60);
        let (a_out, b_out) = horizontal(&c, &alice, &bob, 13, 14);
        let reference = dbscan_with_external_density(&alice, &[], c.params);
        assert_eq!(a_out.clustering, reference);
        assert!(b_out.clustering.labels.is_empty());
    }

    #[test]
    fn rand_index_against_centralized_union() {
        // Well-separated clusters split across parties: each party's view
        // agrees perfectly with centralized DBSCAN restricted to its points.
        let alice = pts(&[&[0, 0], &[1, 1], &[20, 20], &[21, 21]]);
        let bob = pts(&[&[0, 1], &[1, 0], &[20, 21], &[21, 20]]);
        let c = cfg(8, 4, 30);
        let (a_out, _) = horizontal(&c, &alice, &bob, 15, 16);
        let mut union = alice.clone();
        union.extend(bob.iter().cloned());
        let central = ppds_dbscan::dbscan(&union, c.params);
        let central_alice = Clustering {
            labels: central.labels[..alice.len()].to_vec(),
            num_clusters: central.num_clusters,
        };
        assert!((eval::rand_index(&a_out.clustering, &central_alice) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn handshake_mismatch_detected() {
        let alice = pts(&[&[0]]);
        let bob = pts(&[&[0]]);
        let cfg_a = cfg(4, 2, 5);
        let cfg_b = cfg(9, 2, 5); // different Eps²
        let result = crate::driver::run_pair(
            |mut chan| {
                Participant::new(cfg_a)
                    .role(Party::Alice)
                    .data(PartyData::Horizontal(alice.clone()))
                    .seed(17)
                    .run(&mut chan)
            },
            |mut chan| {
                Participant::new(cfg_b)
                    .role(Party::Bob)
                    .data(PartyData::Horizontal(bob.clone()))
                    .seed(18)
                    .run(&mut chan)
            },
        );
        match result.unwrap_err() {
            CoreError::HandshakeMismatch { field, .. } => assert_eq!(field, "eps_sq"),
            other => panic!("wanted HandshakeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn out_of_bound_points_rejected_locally() {
        let alice = pts(&[&[100, 0]]);
        let c = cfg(4, 2, 5);
        let (mut chan, _peer) = ppds_transport::duplex();
        let err = Participant::new(c)
            .role(Party::Alice)
            .data(PartyData::Horizontal(alice))
            .seed(19)
            .run(&mut chan)
            .unwrap_err();
        assert!(matches!(err, CoreError::Config(_)));
    }
}
