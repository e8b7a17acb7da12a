//! Leakage accounting: every value a protocol *deliberately* reveals to a
//! party is recorded as an event.
//!
//! The paper's privacy theorems are statements about exactly this set:
//!
//! * Theorem 9 (basic horizontal): reveals "the number of points from the
//!   other party in the neighborhood of this point",
//! * Theorem 10 (vertical): reveals "the number of points in the
//!   neighborhood of this point",
//! * Theorem 11 (enhanced): reveals only "whether the number of the other
//!   party's points in the neighborhood is greater than MinPts minus own
//!   points in the neighborhood" — a single bit per core-point test — plus
//!   the pairwise distance-comparison outcomes consumed by the k-th
//!   selection.
//!
//! Tests in `ppdbscan` assert that executions produce exactly the event
//! profile the corresponding theorem permits and nothing else.

use std::fmt;

/// The two protocol parties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Party {
    /// The first party (holds the Yao decryption key in Algorithm 1).
    Alice,
    /// The second party.
    Bob,
}

impl Party {
    /// The other party.
    pub fn peer(self) -> Party {
        match self {
            Party::Alice => Party::Bob,
            Party::Bob => Party::Alice,
        }
    }
}

impl fmt::Display for Party {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Party::Alice => write!(f, "Alice"),
            Party::Bob => write!(f, "Bob"),
        }
    }
}

/// One deliberate disclosure to the party owning the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeakageEvent {
    /// Learned how many of the peer's (permuted, unlinkable) points lie in
    /// some query point's Eps-neighborhood. The Theorem 9/10 leakage.
    NeighborCount {
        /// Which of the learner's queries this count belongs to.
        query: String,
        /// Number of peer points within Eps of the query point.
        count: u64,
    },
    /// Learned only whether a point is a core point (the k-th nearest
    /// shared distance is ≤ Eps). The Theorem 11 leakage.
    CorePointBit {
        /// Which query the bit decides.
        query: String,
        /// The decided core-point status.
        is_core: bool,
    },
    /// Learned the outcome of one secure comparison (YMPP output). Both
    /// parties see this bit by construction of Algorithm 1.
    ComparisonOutcome {
        /// What was being compared.
        context: String,
        /// The disclosed ordering bit.
        less_than: bool,
    },
    /// Learned that one of its own points lies in the neighborhood of some
    /// unidentified query point of the peer (what Bob learns per Algorithm 1
    /// step 6 before telling Alice the conclusion).
    OwnPointMatched {
        /// The learner's own point that matched (its own index space).
        point: String,
    },
    /// Learned the selection rank `k = MinPts - |peer's own neighbors|` the
    /// peer requested during an enhanced core-point test — the responder
    /// necessarily sees how many selection rounds it participates in.
    ThresholdRank {
        /// Which peer query requested the selection.
        query: String,
        /// The requested rank.
        k: u64,
    },
    /// Learned the coarse grid cell of one of the peer's query points —
    /// the disclosure candidate pruning trades for sub-quadratic work. The
    /// cell coordinates are quantized to the pruning band width, so the
    /// peer's point is localized only up to a `band_width`-sized box.
    PruningCellDisclosed {
        /// Which peer query the cell belongs to (responder-side label).
        query: String,
        /// The disclosed coarse cell coordinates.
        cell: Vec<i64>,
    },
    /// Learned the cardinality of the candidate set the peer derived for
    /// one of the learner's queries — an upper bound on the neighbor count
    /// the protocol would have disclosed anyway (Theorems 9/10), but
    /// disclosed *before* the secure comparisons run.
    PruningCandidateCount {
        /// Which of the learner's queries the count belongs to.
        query: String,
        /// Number of peer records surviving the band intersection.
        count: u64,
    },
    /// Learned the peer's full table of coarse band coordinates (one coarse
    /// cell per peer record over the dimensions the peer owns) — the
    /// up-front disclosure the vertical/arbitrary pruning modes make so
    /// both sides can intersect bands without touching exact coordinates.
    PruningBandsDisclosed {
        /// Number of records whose bands were received.
        records: u64,
        /// The public quantization width the bands are coarsened to.
        band_width: i64,
        /// Number of distinct bands observed in the received table.
        distinct: u64,
    },
    /// Learned a neighbor bit **linkable to an identified peer query** —
    /// the Kumar et al. \[14\]-style disclosure this paper exists to remove.
    /// Only the deliberately insecure baseline protocol
    /// (`ppdbscan::kumar`) ever emits this; it is what powers the Figure 1
    /// intersection attack.
    LinkedNeighborBit {
        /// Stable identifier of the peer's query point.
        query_id: u64,
        /// Index of the learner's own point the bit refers to.
        point: u64,
        /// Whether the peer's query point is within Eps of `point`.
        within: bool,
    },
}

impl LeakageEvent {
    /// Coarse kind string, for counting by category.
    pub fn kind(&self) -> &'static str {
        match self {
            LeakageEvent::NeighborCount { .. } => "neighbor_count",
            LeakageEvent::CorePointBit { .. } => "core_point_bit",
            LeakageEvent::ComparisonOutcome { .. } => "comparison_outcome",
            LeakageEvent::OwnPointMatched { .. } => "own_point_matched",
            LeakageEvent::ThresholdRank { .. } => "threshold_rank",
            LeakageEvent::PruningCellDisclosed { .. } => "pruning_cell",
            LeakageEvent::PruningCandidateCount { .. } => "pruning_candidates",
            LeakageEvent::PruningBandsDisclosed { .. } => "pruning_bands",
            LeakageEvent::LinkedNeighborBit { .. } => "linked_neighbor_bit",
        }
    }
}

/// Ordered record of everything one party learned beyond its own input and
/// prescribed output.
///
/// `PartialEq` compares full event sequences in order — the relation the
/// parity tests use to assert that a transport or substrate choice widens
/// leakage by nothing (identical events, identical order, identical
/// payloads).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct LeakageLog {
    events: Vec<LeakageEvent>,
}

impl LeakageLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn record(&mut self, event: LeakageEvent) {
        self.events.push(event);
    }

    /// All events in disclosure order.
    pub fn events(&self) -> &[LeakageEvent] {
        &self.events
    }

    /// Number of events of the given [`LeakageEvent::kind`].
    pub fn count_kind(&self, kind: &str) -> usize {
        self.events.iter().filter(|e| e.kind() == kind).count()
    }

    /// Total number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing was disclosed.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Merges another log (e.g. from a sub-protocol) into this one.
    pub fn absorb(&mut self, other: LeakageLog) {
        self.events.extend(other.events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn party_peer_is_involutive() {
        assert_eq!(Party::Alice.peer(), Party::Bob);
        assert_eq!(Party::Bob.peer(), Party::Alice);
        assert_eq!(Party::Alice.peer().peer(), Party::Alice);
    }

    #[test]
    fn log_counts_by_kind() {
        let mut log = LeakageLog::new();
        assert!(log.is_empty());
        log.record(LeakageEvent::NeighborCount {
            query: "a0".into(),
            count: 3,
        });
        log.record(LeakageEvent::ComparisonOutcome {
            context: "d(a0,b1) vs Eps".into(),
            less_than: true,
        });
        log.record(LeakageEvent::NeighborCount {
            query: "a1".into(),
            count: 0,
        });
        assert_eq!(log.len(), 3);
        assert_eq!(log.count_kind("neighbor_count"), 2);
        assert_eq!(log.count_kind("comparison_outcome"), 1);
        assert_eq!(log.count_kind("core_point_bit"), 0);
    }

    #[test]
    fn absorb_concatenates_in_order() {
        let mut a = LeakageLog::new();
        a.record(LeakageEvent::OwnPointMatched { point: "b7".into() });
        let mut b = LeakageLog::new();
        b.record(LeakageEvent::CorePointBit {
            query: "a0".into(),
            is_core: false,
        });
        a.absorb(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.events()[0].kind(), "own_point_matched");
        assert_eq!(a.events()[1].kind(), "core_point_bit");
    }
}
