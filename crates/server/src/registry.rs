//! The session registry: every admitted session's id, lifecycle state,
//! and (optionally) its flight-recorder trace.

use ppdbscan::session::Mode;
use ppds_observe::SessionTrace;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Lifecycle of one admitted session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Admitted, waiting for a worker slot.
    Queued,
    /// A worker is executing the protocol.
    Running,
    /// The protocol finished and produced an outcome.
    Completed,
    /// The protocol aborted (handshake mismatch, transport error, timeout).
    Failed,
    /// Shed before running: the drain deadline passed while it was queued.
    Dropped,
}

impl SessionState {
    /// Stable lowercase name for the operator endpoint.
    pub fn name(self) -> &'static str {
        match self {
            SessionState::Queued => "queued",
            SessionState::Running => "running",
            SessionState::Completed => "completed",
            SessionState::Failed => "failed",
            SessionState::Dropped => "dropped",
        }
    }
}

/// One registry row, as exposed to operators and tests.
#[derive(Debug, Clone)]
pub struct SessionInfo {
    /// The granted session id.
    pub id: u64,
    /// The negotiated protocol family.
    pub mode: Mode,
    /// The client's socket address.
    pub peer: String,
    /// Current lifecycle state.
    pub state: SessionState,
}

struct Entry {
    info: SessionInfo,
    trace: Option<SessionTrace>,
}

struct Inner {
    next_id: u64,
    entries: BTreeMap<u64, Entry>,
}

/// Threadsafe store of all sessions the server has admitted, keyed by
/// session id. Ids are granted at admission: a client's proposed id is
/// honored when free (so a test driving the server can predict the
/// server-side seed), otherwise the next unused id is assigned.
pub struct SessionRegistry {
    inner: Mutex<Inner>,
}

impl SessionRegistry {
    /// An empty registry; ids start at 1 (0 means "assign me one" on the
    /// wire).
    pub fn new() -> SessionRegistry {
        SessionRegistry {
            inner: Mutex::new(Inner {
                next_id: 1,
                entries: BTreeMap::new(),
            }),
        }
    }

    /// Registers a new session in [`SessionState::Queued`] and returns the
    /// granted id: `proposed` when nonzero and unused, the next free id
    /// otherwise.
    pub fn admit(&self, proposed: u64, mode: Mode, peer: String) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        let id = if proposed != 0 && !inner.entries.contains_key(&proposed) {
            proposed
        } else {
            while inner.entries.contains_key(&inner.next_id) {
                inner.next_id += 1;
            }
            inner.next_id
        };
        inner.next_id = inner.next_id.max(id + 1);
        inner.entries.insert(
            id,
            Entry {
                info: SessionInfo {
                    id,
                    mode,
                    peer,
                    state: SessionState::Queued,
                },
                trace: None,
            },
        );
        id
    }

    /// Moves session `id` to `state` (no-op for unknown ids).
    pub fn set_state(&self, id: u64, state: SessionState) {
        if let Some(entry) = self.inner.lock().unwrap().entries.get_mut(&id) {
            entry.info.state = state;
        }
    }

    /// Terminal transition: sets the state and stores the session's trace
    /// when one was recorded.
    pub fn finish(&self, id: u64, state: SessionState, trace: Option<SessionTrace>) {
        if let Some(entry) = self.inner.lock().unwrap().entries.get_mut(&id) {
            entry.info.state = state;
            entry.trace = trace;
        }
    }

    /// The current row for session `id`, if admitted.
    pub fn get(&self, id: u64) -> Option<SessionInfo> {
        self.inner
            .lock()
            .unwrap()
            .entries
            .get(&id)
            .map(|e| e.info.clone())
    }

    /// All rows in id order.
    pub fn snapshot(&self) -> Vec<SessionInfo> {
        self.inner
            .lock()
            .unwrap()
            .entries
            .values()
            .map(|e| e.info.clone())
            .collect()
    }

    /// How many sessions are currently in `state`.
    pub fn count(&self, state: SessionState) -> usize {
        self.inner
            .lock()
            .unwrap()
            .entries
            .values()
            .filter(|e| e.info.state == state)
            .count()
    }

    /// Chrome/Perfetto JSON for session `id`'s flight-recorder trace, if
    /// one was recorded (sessions record traces only when the server runs
    /// with [`crate::ServerConfig::record_traces`]).
    pub fn chrome_trace(&self, id: u64) -> Option<String> {
        self.inner
            .lock()
            .unwrap()
            .entries
            .get(&id)
            .and_then(|e| e.trace.as_ref())
            .map(|t| t.to_chrome_json(&format!("session-{id}")))
    }
}

impl Default for SessionRegistry {
    fn default() -> Self {
        SessionRegistry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn admit(reg: &SessionRegistry, proposed: u64) -> u64 {
        reg.admit(proposed, Mode::Horizontal, "test".into())
    }

    #[test]
    fn proposed_ids_honored_when_free() {
        let reg = SessionRegistry::new();
        assert_eq!(admit(&reg, 7), 7);
        // Collision: falls back to the next unused id past the grant.
        assert_eq!(admit(&reg, 7), 8);
        // 0 means "assign me one".
        assert_eq!(admit(&reg, 0), 9);
        assert_eq!(reg.snapshot().len(), 3);
    }

    #[test]
    fn lifecycle_transitions_and_counts() {
        let reg = SessionRegistry::new();
        let id = admit(&reg, 0);
        assert_eq!(reg.get(id).unwrap().state, SessionState::Queued);
        reg.set_state(id, SessionState::Running);
        assert_eq!(reg.count(SessionState::Running), 1);
        reg.finish(id, SessionState::Completed, None);
        assert_eq!(reg.get(id).unwrap().state, SessionState::Completed);
        assert_eq!(reg.chrome_trace(id), None);
    }
}
