//! The vertically partitioned DBSCAN driver (Algorithms 5 & 6).
//!
//! Both parties hold an attribute slice of *every* record, so they run one
//! shared DBSCAN loop in lockstep over the common record index space; each
//! `dist ≤ Eps` test is a single protocol-VDP comparison whose outcome both
//! sides learn. Because the control flow is a deterministic function of
//! those shared outcomes, the two parties compute byte-identical
//! clusterings without exchanging any labels — and that clustering is
//! *exactly* the single-party DBSCAN of the joined records (verified
//! label-for-label by the integration tests).
//!
//! Runs through the shared [`crate::session`] dispatch; the
//! [`crate::session::Participant`] builder is the supported entry point.

use crate::config::ProtocolConfig;
use crate::error::CoreError;
use crate::session::{HandshakeProfile, Mode, ModeContext, ModeDriver, Session, SessionLog};
use crate::vdp::{local_delta_sq, vdp_compare_set_alice, vdp_compare_set_bob};
use ppds_dbscan::{Clustering, DbscanParams, Label, Point};
use ppds_observe::trace;
use ppds_smc::{LeakageEvent, LeakageLog, Party, ProtocolContext};
use ppds_transport::Channel;
use std::collections::VecDeque;

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    Unclassified,
    Noise,
    Cluster(usize),
}

/// The shared lockstep DBSCAN engine: Algorithm 5/6 where every region
/// query hands its candidate set to one oracle call, which returns one
/// joint `dist² ≤ Eps²` bit per candidate, answering the whole set in O(1)
/// wire rounds. `candidates_for` supplies each query's
/// candidate partners in ascending order, excluding the query record
/// itself — the exhaustive all-pairs set or a pruned (band-intersecting)
/// subset; both parties must derive the identical sequence, which they do
/// because the generator is a function of public/agreed data only.
/// Also used by the arbitrary-partition driver.
pub(crate) fn lockstep_dbscan<G, F>(
    n: usize,
    params: DbscanParams,
    mut candidates_for: G,
    mut dist_leq_set: F,
    leakage: &mut LeakageLog,
) -> Result<Clustering, CoreError>
where
    G: FnMut(usize) -> Vec<usize>,
    F: FnMut(usize, &[usize]) -> Result<Vec<bool>, CoreError>,
{
    let mut region_query = |x: usize, leakage: &mut LeakageLog| -> Result<Vec<usize>, CoreError> {
        // Self-distance is zero by definition; excluding the point from the
        // candidate set leaks nothing (both sides skip deterministically).
        let candidates = candidates_for(x);
        let within = dist_leq_set(x, &candidates)?;
        if within.len() != candidates.len() {
            return Err(CoreError::mismatch(format!(
                "region query arity: {} candidates vs {} answers",
                candidates.len(),
                within.len()
            )));
        }
        let mut neighbors: Vec<usize> = candidates
            .iter()
            .zip(&within)
            .filter(|(_, &w)| w)
            .map(|(&y, _)| y)
            .collect();
        // The query point neighbors itself by definition; re-insert it in
        // index order.
        let pos = neighbors.partition_point(|&y| y < x);
        neighbors.insert(pos, x);
        leakage.record(LeakageEvent::NeighborCount {
            query: format!("record#{x}"),
            count: neighbors.len() as u64,
        });
        Ok(neighbors)
    };

    let mut states = vec![State::Unclassified; n];
    let mut next_cluster = 0usize;
    for i in 0..n {
        if states[i] != State::Unclassified {
            continue;
        }
        let seeds = region_query(i, leakage)?;
        if seeds.len() < params.min_pts {
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
            let result = region_query(current, leakage)?;
            if result.len() >= params.min_pts {
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

    let labels = states
        .into_iter()
        .map(|s| match s {
            State::Unclassified => unreachable!("all records classified"),
            State::Noise => Label::Noise,
            State::Cluster(id) => Label::Cluster(id),
        })
        .collect();
    Ok(Clustering {
        labels,
        num_clusters: next_cluster,
    })
}

/// The vertical protocol as a [`ModeDriver`]. The parties own different
/// attribute slices, so their dimensions legitimately differ; the joined
/// dimension is only known (and validated) after the handshake.
pub(crate) struct VerticalDriver<'a> {
    pub attrs: &'a [Point],
}

impl ModeDriver for VerticalDriver<'_> {
    fn validate(&self, cfg: &ProtocolConfig) -> Result<(), CoreError> {
        crate::horizontal::check_points(cfg, self.attrs)
    }

    fn profile(&self) -> HandshakeProfile {
        HandshakeProfile {
            mode: Mode::Vertical,
            n: self.attrs.len(),
            dim: self.attrs.first().map_or(1, Point::dim),
            dim_must_match: false,
        }
    }

    fn check_session(&self, cfg: &ProtocolConfig, session: &Session) -> Result<(), CoreError> {
        if session.peer_n != self.attrs.len() {
            return Err(CoreError::HandshakeMismatch {
                field: "record_count",
                ours: self.attrs.len() as u64,
                theirs: session.peer_n as u64,
            });
        }
        let my_dim = self.attrs.first().map_or(1, Point::dim);
        cfg.validate(my_dim + session.peer_dim)
    }

    fn execute<C: Channel>(
        &self,
        chan: &mut C,
        mctx: &ModeContext<'_>,
        ctx: &ProtocolContext,
        log: &mut SessionLog,
    ) -> Result<Clustering, CoreError> {
        let (cfg, session, attrs) = (mctx.cfg, mctx.session, self.attrs);
        let my_dim = attrs.first().map_or(1, Point::dim);
        let total_dim = my_dim + session.peer_dim;
        let backend = mctx.backend(total_dim)?;
        // With grid pruning, both sides publish coarse bands over the
        // attributes they own (disclosure ledgered inside the oracle) and
        // derive identical joined-band candidate sets.
        let pruned = vertical_band_oracle(chan, cfg, mctx.role, attrs, &mut log.leakage)?;
        let ledger = &mut log.ledger;
        let sharing = &mut log.sharing;
        // One context instance per region query; the candidate at position
        // i of query q's set draws its comparison randomness from
        // region.at(q).rng_for(i). Both parties enumerate the same
        // candidates in the same order, so their paths agree.
        let region_ctx = ctx.narrow("region");
        let mut q = 0u64;
        let dist_leq_set = |x: usize, ys: &[usize]| -> Result<Vec<bool>, CoreError> {
            let qctx = region_ctx.at(q);
            let span = trace::span_with(|| format!("region#{q}"), || chan.metrics());
            q += 1;
            let locals: Vec<u64> = ys
                .iter()
                .map(|&y| local_delta_sq(&attrs[x], &attrs[y]))
                .collect();
            let result = match mctx.role {
                Party::Alice => vdp_compare_set_alice(
                    chan, cfg, &backend, &locals, total_dim, &qctx, ledger, sharing,
                )?,
                Party::Bob => vdp_compare_set_bob(
                    chan, cfg, &backend, &locals, total_dim, &qctx, ledger, sharing,
                )?,
            };
            span.end(|| chan.metrics());
            Ok(result)
        };
        let n = attrs.len();
        let candidates_for = |x: usize| match &pruned {
            Some(oracle) => oracle.candidates_of(x),
            None => crate::prune::exhaustive_candidates(n, x),
        };
        lockstep_dbscan(
            n,
            cfg.params,
            candidates_for,
            dist_leq_set,
            &mut log.leakage,
        )
    }
}

/// Builds the joined-band candidate oracle for a grid-pruned vertical
/// session (`None` when the config is exhaustive): each party quantizes
/// the attribute slice it owns to coarse public bands, both tables are
/// exchanged (the received table is ledgered as a
/// `pruning_bands` leakage event), and the rows are concatenated in the
/// agreed order — Alice's dimensions first — so both parties index the
/// identical joined band table.
fn vertical_band_oracle<C: Channel>(
    chan: &mut C,
    cfg: &ProtocolConfig,
    role: Party,
    attrs: &[Point],
    leakage: &mut LeakageLog,
) -> Result<Option<crate::prune::BandCandidates>, CoreError> {
    let ppds_dbscan::Pruning::Grid { coarseness } = cfg.pruning else {
        return Ok(None);
    };
    let width = ppds_dbscan::band_width(cfg.params.eps_sq, coarseness);
    let mine: Vec<Vec<i64>> = attrs
        .iter()
        .map(|p| ppds_dbscan::coarse_cell(p.coords(), width))
        .collect();
    let theirs = crate::prune::exchange_band_tables(chan, &mine, width, leakage)?;
    if theirs.len() != mine.len() {
        return Err(CoreError::mismatch(format!(
            "peer band table covers {} records, expected {}",
            theirs.len(),
            mine.len()
        )));
    }
    let joined: Vec<Vec<i64>> = match role {
        Party::Alice => mine
            .iter()
            .zip(&theirs)
            .map(|(m, t)| [m.as_slice(), t.as_slice()].concat())
            .collect(),
        Party::Bob => theirs
            .iter()
            .zip(&mine)
            .map(|(t, m)| [t.as_slice(), m.as_slice()].concat())
            .collect(),
    };
    Ok(Some(crate::prune::BandCandidates::new(joined, width)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::PartyOutput;
    use crate::partition::VerticalPartition;
    use crate::session::{run_data_pair, Participant, PartyData};
    use crate::test_helpers::rng;
    use ppds_dbscan::{dbscan, eval};

    fn records(coords: &[&[i64]]) -> Vec<Point> {
        coords.iter().map(|c| Point::from(*c)).collect()
    }

    fn cfg(eps_sq: u64, min_pts: usize, bound: i64) -> ProtocolConfig {
        ProtocolConfig::new(DbscanParams { eps_sq, min_pts }, bound)
    }

    fn vertical(
        c: &ProtocolConfig,
        part: &VerticalPartition,
        sa: u64,
        sb: u64,
    ) -> (PartyOutput, PartyOutput) {
        run_data_pair(
            c,
            PartyData::Vertical(part.alice.clone()),
            PartyData::Vertical(part.bob.clone()),
            rng(sa),
            rng(sb),
        )
        .unwrap()
    }

    #[test]
    fn matches_plaintext_dbscan_exactly() {
        let recs = records(&[
            &[0, 0, 1, 0],
            &[1, 0, 0, 0],
            &[0, 1, 1, 1],
            &[10, 10, 10, 10],
            &[11, 10, 10, 10],
            &[10, 11, 10, 11],
            &[-20, 5, 3, -9],
        ]);
        let c = cfg(6, 3, 25);
        for split in [1usize, 2, 3] {
            let part = VerticalPartition::split(&recs, split);
            let (a_out, b_out) = vertical(&c, &part, 1, 2);
            let reference = dbscan(&recs, c.params);
            assert_eq!(a_out.clustering, reference, "split {split}: alice");
            assert_eq!(b_out.clustering, reference, "split {split}: bob");
            assert!(eval::same_partition(&a_out.clustering, &b_out.clustering));
        }
    }

    #[test]
    fn yao_backend_matches_ideal() {
        let recs = records(&[&[0, 0], &[1, 1], &[9, 9], &[1, 0]]);
        let part = VerticalPartition::split(&recs, 1);
        let ideal = cfg(2, 2, 10);
        let yao = ProtocolConfig::new_with_yao(ideal.params, 10);
        let (ia, _) = vertical(&ideal, &part, 3, 4);
        let (ya, _) = vertical(&yao, &part, 5, 6);
        assert_eq!(ia.clustering, ya.clustering);
    }

    #[test]
    fn leakage_matches_theorem_10() {
        // Each region query reveals exactly one neighbor count per party.
        let recs = records(&[&[0, 0], &[1, 1], &[9, 9]]);
        let part = VerticalPartition::split(&recs, 1);
        let c = cfg(2, 2, 10);
        let (a_out, b_out) = vertical(&c, &part, 7, 8);
        assert!(a_out.leakage.count_kind("neighbor_count") > 0);
        assert_eq!(
            a_out.leakage.count_kind("neighbor_count"),
            b_out.leakage.count_kind("neighbor_count"),
            "lockstep parties issue identical query sequences"
        );
        assert_eq!(a_out.leakage.count_kind("core_point_bit"), 0);
    }

    #[test]
    fn record_count_mismatch_rejected_with_typed_error() {
        let recs = records(&[&[0, 0], &[1, 1]]);
        let part = VerticalPartition::split(&recs, 1);
        let c = cfg(2, 2, 10);
        let result = crate::driver::run_pair(
            |mut chan| {
                Participant::new(c)
                    .role(Party::Alice)
                    .data(PartyData::Vertical(part.alice.clone()))
                    .seed(9)
                    .run(&mut chan)
            },
            |mut chan| {
                // Bob drops a record.
                Participant::new(c)
                    .role(Party::Bob)
                    .data(PartyData::Vertical(part.bob[..1].to_vec()))
                    .seed(10)
                    .run(&mut chan)
            },
        );
        match result.unwrap_err() {
            CoreError::HandshakeMismatch { field, .. } => assert_eq!(field, "record_count"),
            other => panic!("wanted HandshakeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn traffic_is_quadratic_in_n() {
        // §4.3.2: O(c2·n0·n²) — doubling n should roughly quadruple bytes.
        let make = |n: usize| {
            let recs: Vec<Point> = (0..n)
                .map(|i| Point::new(vec![(i as i64) * 3, (i as i64) % 5]))
                .collect();
            VerticalPartition::split(&recs, 1)
        };
        let c = cfg(4, 2, 50);
        let (a_small, _) = vertical(&c, &make(6), 11, 12);
        let (a_big, _) = vertical(&c, &make(12), 13, 14);
        let ratio = a_big.yao.comparisons as f64 / a_small.yao.comparisons.max(1) as f64;
        assert!(
            ratio > 2.5,
            "comparisons should grow superlinearly, ratio = {ratio}"
        );
    }
}
