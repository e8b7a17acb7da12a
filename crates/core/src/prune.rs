//! Candidate-pruning plumbing shared by the five mode drivers.
//!
//! This module is the **only** place the exhaustive all-pairs fallback is
//! materialized; the drivers ask it for candidate sets and never enumerate
//! `0..n` themselves. Two disclosure shapes exist (see DESIGN.md §15):
//!
//! * **Per-query cell exchange** (horizontal / enhanced / multiparty): the
//!   querier sends the coarse band cell of one query point; the responder
//!   answers with the candidate cardinality and serves only candidates.
//!   Responder logs [`LeakageEvent::PruningCellDisclosed`], querier logs
//!   [`LeakageEvent::PruningCandidateCount`].
//! * **Up-front band tables** (vertical / arbitrary): both parties publish
//!   the coarse band coordinates of every record over the attributes they
//!   own, merged deterministically (Alice's dimensions/values first) so
//!   both sides derive identical candidate sets. Each side logs one
//!   [`LeakageEvent::PruningBandsDisclosed`] for the table it received.
//!
//! Soundness of the band criterion (no true neighbor is ever pruned) is
//! proved in [`ppds_dbscan::pruning`]; everything here is exact, so pruned
//! runs produce byte-identical clustering labels.

use crate::error::CoreError;
use ppds_dbscan::index::{GridIndex, LinearIndex, NeighborIndex};
use ppds_dbscan::pruning::{coarse_cell, CoarseGrid, Pruning};
use ppds_dbscan::Point;
use ppds_smc::{LeakageEvent, LeakageLog};
use ppds_transport::Channel;
use std::collections::HashSet;

/// The per-party local region-query index: an ε-grid when pruning is on
/// (and the data admits one), the exhaustive linear scan otherwise. Local
/// queries never cross the wire, so this swap is leakage-free.
pub(crate) fn local_index<'a>(
    points: &'a [Point],
    eps_sq: u64,
    pruning: Pruning,
) -> Box<dyn NeighborIndex + 'a> {
    if pruning.is_grid() && !points.is_empty() && eps_sq > 0 {
        Box::new(GridIndex::new(points, eps_sq))
    } else {
        Box::new(LinearIndex::new(points, eps_sq))
    }
}

/// Every index, ascending — the exhaustive fallback candidate set.
pub(crate) fn all_candidates(n: usize) -> Vec<usize> {
    (0..n).collect()
}

/// Every index but `x`, ascending — the exhaustive fallback for the
/// lockstep modes, whose oracle convention excludes the query record.
pub(crate) fn exhaustive_candidates(n: usize, x: usize) -> Vec<usize> {
    (0..n).filter(|&y| y != x).collect()
}

/// Querier half of the per-query cell exchange: disclose the query's
/// coarse cell, learn how many peer records survive the band filter. The
/// candidates are a subset of the peer's `peer_n` records (advertised in
/// the handshake), so a larger count is a typed [`CoreError::Mismatch`]
/// before the secure phase sizes anything by it.
pub(crate) fn query_candidate_count<C: Channel>(
    chan: &mut C,
    query: &Point,
    width: i64,
    peer_n: usize,
    leakage: &mut LeakageLog,
    label: &str,
) -> Result<usize, CoreError> {
    chan.send(&coarse_cell(query.coords(), width))?;
    let count: u64 = chan.recv()?;
    let count = usize::try_from(count)
        .ok()
        .filter(|&c| c <= peer_n)
        .ok_or_else(|| {
            CoreError::mismatch(format!(
                "peer reported {count} pruning candidates but holds {peer_n} records"
            ))
        })?;
    leakage.record(LeakageEvent::PruningCandidateCount {
        query: label.to_string(),
        count: count as u64,
    });
    Ok(count)
}

/// Responder half of the per-query cell exchange: learn the peer query's
/// coarse cell, answer with the candidate cardinality, and return the
/// candidate indices (ascending) the secure phase should serve.
pub(crate) fn respond_candidates<C: Channel>(
    chan: &mut C,
    grid: &CoarseGrid,
    leakage: &mut LeakageLog,
    label: &str,
) -> Result<Vec<usize>, CoreError> {
    let cell: Vec<i64> = chan.recv()?;
    leakage.record(LeakageEvent::PruningCellDisclosed {
        query: label.to_string(),
        cell: cell.clone(),
    });
    let candidates = grid.candidates(&cell);
    chan.send(&(candidates.len() as u64))?;
    Ok(candidates)
}

/// Exchanges per-record band tables (both sides send before either
/// receives, like the `Hello` frames) and ledgers the received table as
/// one [`LeakageEvent::PruningBandsDisclosed`].
pub(crate) fn exchange_band_tables<C: Channel>(
    chan: &mut C,
    mine: &[Vec<i64>],
    width: i64,
    leakage: &mut LeakageLog,
) -> Result<Vec<Vec<i64>>, CoreError> {
    chan.send(&mine.to_vec())?;
    let theirs: Vec<Vec<i64>> = chan.recv()?;
    let distinct = theirs.iter().collect::<HashSet<_>>().len() as u64;
    leakage.record(LeakageEvent::PruningBandsDisclosed {
        records: theirs.len() as u64,
        band_width: width,
        distinct,
    });
    Ok(theirs)
}

/// Sentinel band value for attribute cells a party does not own (the
/// arbitrary partitioning). Real bands can never take this value: a
/// coordinate would need to be below `-band_width · 2^62`, far outside any
/// admissible `coord_bound`.
pub(crate) const BAND_UNOWNED: i64 = i64::MIN;

/// Merges two complementary per-record band tables (arbitrary
/// partitioning) into the full band table, taking the owner's value per
/// cell. The merge is expressed over (Alice's table, Bob's table) — not
/// (mine, theirs) — so both parties derive byte-identical merged tables
/// even on malformed ownership, and a cell neither party owns is a typed
/// error instead of a mid-protocol desync.
pub(crate) fn merge_band_tables(
    alice: &[Vec<i64>],
    bob: &[Vec<i64>],
) -> Result<Vec<Vec<i64>>, CoreError> {
    if alice.len() != bob.len() {
        return Err(CoreError::mismatch(format!(
            "band tables disagree on record count: {} vs {}",
            alice.len(),
            bob.len()
        )));
    }
    alice
        .iter()
        .zip(bob)
        .enumerate()
        .map(|(x, (a_row, b_row))| {
            if a_row.len() != b_row.len() {
                return Err(CoreError::mismatch(format!(
                    "band tables disagree on dimension at record {x}"
                )));
            }
            a_row
                .iter()
                .zip(b_row)
                .map(|(&a, &b)| match (a == BAND_UNOWNED, b == BAND_UNOWNED) {
                    (false, _) => Ok(a),
                    (true, false) => Ok(b),
                    (true, true) => Err(CoreError::mismatch(format!(
                        "record {x} has an attribute band owned by neither party"
                    ))),
                })
                .collect()
        })
        .collect()
}

/// Per-record candidate oracle over a merged/concatenated band table: for
/// record `x`, every *other* record whose band is adjacent-or-equal, in
/// ascending order. This is what replaces the all-pairs loop in the
/// lockstep modes.
pub(crate) struct BandCandidates {
    cells: Vec<Vec<i64>>,
    grid: CoarseGrid,
}

impl BandCandidates {
    /// Indexes the merged band table.
    pub(crate) fn new(cells: Vec<Vec<i64>>, width: i64) -> Self {
        let grid = CoarseGrid::from_cells(cells.clone(), width);
        BandCandidates { cells, grid }
    }

    /// Candidate partners of record `x`, ascending, excluding `x` itself.
    pub(crate) fn candidates_of(&self, x: usize) -> Vec<usize> {
        self.grid
            .candidates(&self.cells[x])
            .into_iter()
            .filter(|&y| y != x)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppds_dbscan::pruning::band_width;

    #[test]
    fn local_index_picks_grid_exactly_when_it_can() {
        let points = vec![Point::new(vec![0, 0]), Point::new(vec![3, 4])];
        let grid = Pruning::Grid { coarseness: 1 };
        assert_eq!(
            local_index(&points, 25, grid).region_query(&points[0]),
            vec![0, 1]
        );
        assert_eq!(
            local_index(&points, 25, Pruning::Exhaustive).region_query(&points[0]),
            vec![0, 1]
        );
        // Degenerate shapes fall back to the linear scan instead of
        // tripping the GridIndex constructor panics.
        assert!(local_index(&[], 25, grid).is_empty());
        assert_eq!(
            local_index(&points, 0, grid).region_query(&points[0]),
            vec![0]
        );
    }

    #[test]
    fn merge_takes_the_owner_side_and_rejects_orphans() {
        let s = BAND_UNOWNED;
        let alice = vec![vec![1, s], vec![s, 4]];
        let bob = vec![vec![s, 2], vec![3, s]];
        let merged = merge_band_tables(&alice, &bob).unwrap();
        assert_eq!(merged, vec![vec![1, 2], vec![3, 4]]);
        let orphaned = vec![vec![s, s], vec![s, 4]];
        assert!(merge_band_tables(&orphaned, &bob).is_err());
        assert!(merge_band_tables(&alice[..1], &bob).is_err());
    }

    #[test]
    fn band_candidates_exclude_self_and_stay_sorted() {
        let w = band_width(4, 1);
        let cells = vec![vec![0], vec![0], vec![1], vec![9]];
        let oracle = BandCandidates::new(cells, w);
        assert_eq!(oracle.candidates_of(0), vec![1, 2]);
        assert_eq!(oracle.candidates_of(2), vec![0, 1]);
        assert_eq!(oracle.candidates_of(3), Vec::<usize>::new());
    }

    #[test]
    fn candidate_count_beyond_the_peer_record_count_is_a_typed_error() {
        let query = Point::new(vec![3, -2]);
        let w = band_width(4, 1);
        let peer_n = 5usize;
        for (forged, accepted) in [(5u64, true), (6, false), (u64::MAX, false)] {
            let (mut querier, mut responder) = ppds_transport::duplex();
            responder.send(&forged).unwrap();
            let mut leakage = LeakageLog::new();
            let got = query_candidate_count(&mut querier, &query, w, peer_n, &mut leakage, "q");
            let cell: Vec<i64> = responder.recv().unwrap();
            assert_eq!(cell, coarse_cell(query.coords(), w));
            if accepted {
                assert_eq!(got.unwrap(), peer_n);
                assert_eq!(leakage.count_kind("pruning_candidates"), 1);
            } else {
                assert!(
                    matches!(got, Err(CoreError::Mismatch(_))),
                    "count {forged}: {got:?}"
                );
                assert!(leakage.is_empty(), "rejected counts are not ledgered");
            }
        }
    }

    #[test]
    fn all_candidates_is_the_full_range() {
        assert_eq!(all_candidates(3), vec![0, 1, 2]);
        assert!(all_candidates(0).is_empty());
    }
}
