//! Error type for the DBSCAN protocol drivers.

use ppds_smc::SmcError;
use std::fmt;

/// Errors raised while running a distributed clustering protocol.
#[derive(Debug)]
pub enum CoreError {
    /// Failure in an underlying SMC primitive or the transport.
    Smc(SmcError),
    /// The local configuration is unusable (e.g. Yao comparator with a
    /// domain beyond its hard cap, masks that overflow the share type).
    Config(String),
    /// The parties' handshakes disagree on one negotiated field. `ours` and
    /// `theirs` are the two advertised values (field tags per
    /// [`crate::session::Hello`]; booleans as 0/1, enums as their wire
    /// tags). Both halves of a mismatched session report this error with
    /// the same `field`, sides swapped.
    HandshakeMismatch {
        /// Name of the disagreeing handshake field (e.g. `"eps_sq"`,
        /// `"backend"`, `"wire_version"`).
        field: &'static str,
        /// The value this side advertised.
        ours: u64,
        /// The value the peer advertised.
        theirs: u64,
    },
    /// The parties disagree mid-protocol in a way the handshake cannot
    /// attribute to a single field (e.g. a region-query arity mismatch).
    Mismatch(String),
    /// A worker thread panicked while running one party.
    PartyPanicked(&'static str),
}

impl CoreError {
    pub(crate) fn config(msg: impl Into<String>) -> Self {
        CoreError::Config(msg.into())
    }

    pub(crate) fn mismatch(msg: impl Into<String>) -> Self {
        CoreError::Mismatch(msg.into())
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Smc(e) => write!(f, "protocol primitive failed: {e}"),
            CoreError::Config(msg) => write!(f, "configuration error: {msg}"),
            CoreError::HandshakeMismatch {
                field,
                ours,
                theirs,
            } => write!(
                f,
                "handshake mismatch on {field}: ours {ours}, theirs {theirs}"
            ),
            CoreError::Mismatch(msg) => write!(f, "handshake mismatch: {msg}"),
            CoreError::PartyPanicked(which) => write!(f, "{which} thread panicked"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Smc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SmcError> for CoreError {
    fn from(e: SmcError) -> Self {
        CoreError::Smc(e)
    }
}

impl From<ppds_transport::TransportError> for CoreError {
    fn from(e: ppds_transport::TransportError) -> Self {
        CoreError::Smc(SmcError::Transport(e))
    }
}
