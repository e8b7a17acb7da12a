//! Per-layer attribution of one party's flight-recorder trace.
//!
//! A span's self time is its duration minus the time its child spans on
//! the same thread cover. Self times are summed per layer, keyed by the
//! span labels the program records (`query#3` counts as `query`).

use ppds_observe::{SessionTrace, SpanKind};
use std::collections::BTreeMap;

/// Which layer a span label belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `ppds_smc` Paillier/sharing multiplications (`mul_batch`, `unpack`).
    MulBatch,
    /// `ppds_smc` comparisons (`cmp_batch`, the enhanced final `cmp`).
    CmpBatch,
    /// `ppds_smc` dot products (`dot_many`, the enhanced `dot` phase).
    Dot,
    /// `ppds_smc` k-th smallest selection (`sel`, `kth`).
    Sel,
    /// `ppdbscan` mode drivers: per-query, per-serve and per-region spans
    /// and the mesh's per-peer spans.
    Driver,
    /// `ppdbscan::session` phases: `keygen`, `establish` (with `keys`,
    /// `hello`), `execute`, `assemble`.
    Session,
    /// `par_map` worker bodies, on their own threads.
    ParWorker,
    /// Blocked receives, recorded by the benchmark's timing channel.
    Transport,
    /// A label this table does not know.
    Other,
}

fn layer_of(label: &str) -> Layer {
    match label {
        "mul_batch" | "unpack" => Layer::MulBatch,
        "cmp_batch" | "cmp" => Layer::CmpBatch,
        "dot_many" | "dot" => Layer::Dot,
        "sel" | "kth" => Layer::Sel,
        "query" | "serve" | "region" | "peer" => Layer::Driver,
        "keygen" | "establish" | "keys" | "hello" | "execute" | "assemble" => Layer::Session,
        "par_worker" => Layer::ParWorker,
        "recv" => Layer::Transport,
        _ => Layer::Other,
    }
}

/// `"query#3"` → `"query"`.
fn base_label(label: &str) -> &str {
    match label.rsplit_once('#') {
        Some((head, idx)) if !idx.is_empty() && idx.bytes().all(|b| b.is_ascii_digit()) => head,
        _ => label,
    }
}

/// What one trace says about where its party's time went.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Self time per layer, seconds, over spans inside `execute` (and, for
    /// [`Layer::ParWorker`], the worker spans' whole durations).
    pub self_s: BTreeMap<Layer, f64>,
    /// Summed duration of the `establish` spans, seconds.
    pub establish_s: f64,
    /// Summed duration of the `execute` spans, seconds.
    pub execute_s: f64,
    /// Self time of the `execute` spans themselves: time inside `execute`
    /// that no SMC, driver or receive span accounts for, seconds.
    pub execute_unattributed_s: f64,
    /// Driver query and region spans (one per neighbourhood query).
    pub neighbor_queries: u64,
    /// Recorded span edges.
    pub events: u64,
    /// Span edges the recorder dropped.
    pub dropped: u64,
    /// Labels that map to [`Layer::Other`].
    pub unknown_labels: Vec<String>,
}

impl Attribution {
    /// Self time of `layer`, seconds.
    pub fn get(&self, layer: Layer) -> f64 {
        self.self_s.get(&layer).copied().unwrap_or(0.0)
    }

    /// Adds another attribution to this one.
    pub fn absorb(&mut self, other: &Attribution) {
        for (layer, secs) in &other.self_s {
            *self.self_s.entry(*layer).or_default() += secs;
        }
        self.establish_s += other.establish_s;
        self.execute_s += other.execute_s;
        self.execute_unattributed_s += other.execute_unattributed_s;
        self.neighbor_queries += other.neighbor_queries;
        self.events += other.events;
        self.dropped += other.dropped;
        for label in &other.unknown_labels {
            if !self.unknown_labels.contains(label) {
                self.unknown_labels.push(label.clone());
            }
        }
    }

    /// Share of `execute` that the SMC, driver and receive spans under it
    /// do not account for.
    pub fn unattributed_share(&self) -> f64 {
        if self.execute_s > 0.0 {
            self.execute_unattributed_s / self.execute_s
        } else {
            0.0
        }
    }
}

struct Open<'a> {
    label: &'a str,
    start_ns: u64,
    child_ns: u64,
    in_execute: bool,
}

/// Replays `trace` per thread and attributes its time to layers.
///
/// # Errors
/// A malformed trace (an end without a begin, a mismatched end, or a span
/// left open) is reported by label.
pub fn attribute(trace: &SessionTrace) -> Result<Attribution, String> {
    let mut out = Attribution {
        events: trace.events.len() as u64,
        dropped: trace.dropped,
        ..Attribution::default()
    };
    let mut stacks: BTreeMap<u64, Vec<Open<'_>>> = BTreeMap::new();
    for event in &trace.events {
        let stack = stacks.entry(event.thread).or_default();
        let label = base_label(&event.label);
        match event.kind {
            SpanKind::Begin => {
                let in_execute = label == "execute" || stack.last().is_some_and(|o| o.in_execute);
                stack.push(Open {
                    label,
                    start_ns: event.t_ns,
                    child_ns: 0,
                    in_execute,
                });
            }
            SpanKind::End => {
                let open = stack
                    .pop()
                    .ok_or_else(|| format!("end of {label} with no span open"))?;
                if open.label != label {
                    return Err(format!("end of {label} while {} is open", open.label));
                }
                let dur_ns = event.t_ns.saturating_sub(open.start_ns);
                let self_ns = dur_ns.saturating_sub(open.child_ns);
                if let Some(parent) = stack.last_mut() {
                    parent.child_ns += dur_ns;
                }
                let secs = |ns: u64| ns as f64 * 1e-9;
                let layer = layer_of(label);
                match label {
                    "establish" => out.establish_s += secs(dur_ns),
                    "execute" => {
                        out.execute_s += secs(dur_ns);
                        out.execute_unattributed_s += secs(self_ns);
                    }
                    "query" | "region" => out.neighbor_queries += 1,
                    _ => {}
                }
                if layer == Layer::ParWorker {
                    *out.self_s.entry(layer).or_default() += secs(dur_ns);
                } else if open.in_execute && label != "execute" {
                    *out.self_s.entry(layer).or_default() += secs(self_ns);
                }
                if layer == Layer::Other && !out.unknown_labels.iter().any(|l| l == label) {
                    out.unknown_labels.push(label.to_owned());
                }
            }
        }
    }
    if let Some((thread, open)) = stacks
        .iter()
        .find_map(|(thread, stack)| stack.last().map(|open| (thread, open)))
    {
        return Err(format!(
            "span {} on thread {thread} never ended",
            open.label
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppds_observe::{MetricsSnapshot, TraceEvent};

    fn edge(kind: SpanKind, label: &str, thread: u64, t_ns: u64) -> TraceEvent {
        TraceEvent {
            kind,
            label: label.into(),
            thread,
            t_ns,
            metrics: MetricsSnapshot::default(),
        }
    }

    #[test]
    fn self_times_partition_execute() {
        use SpanKind::{Begin, End};
        let trace = SessionTrace {
            events: vec![
                edge(Begin, "establish", 0, 0),
                edge(End, "establish", 0, 100),
                edge(Begin, "execute", 0, 100),
                edge(Begin, "query#0", 0, 110),
                edge(Begin, "mul_batch", 0, 120),
                edge(Begin, "par_worker", 7, 125),
                edge(End, "par_worker", 7, 165),
                edge(Begin, "recv", 0, 150),
                edge(End, "recv", 0, 160),
                edge(End, "mul_batch", 0, 170),
                edge(End, "query#0", 0, 200),
                edge(Begin, "region#1", 0, 200),
                edge(End, "region#1", 0, 290),
                edge(End, "execute", 0, 300),
            ],
            dropped: 0,
        };
        let a = attribute(&trace).unwrap();
        let close = |secs: f64, ns: f64| (secs - ns * 1e-9).abs() < 1e-15;
        assert!(close(a.establish_s, 100.0));
        assert!(close(a.execute_s, 200.0));
        assert!(close(a.get(Layer::MulBatch), 40.0));
        assert!(close(a.get(Layer::Transport), 10.0));
        assert!(close(a.get(Layer::Driver), 40.0 + 90.0));
        assert!(close(a.get(Layer::ParWorker), 40.0));
        assert!(close(a.execute_unattributed_s, 20.0));
        assert!((a.unattributed_share() - 0.1).abs() < 1e-12);
        assert_eq!(a.neighbor_queries, 2);
        assert!(a.unknown_labels.is_empty());
    }

    #[test]
    fn malformed_traces_are_named() {
        let trace = SessionTrace {
            events: vec![edge(SpanKind::Begin, "execute", 0, 0)],
            dropped: 0,
        };
        assert!(attribute(&trace).unwrap_err().contains("never ended"));
        let trace = SessionTrace {
            events: vec![
                edge(SpanKind::Begin, "execute", 0, 0),
                edge(SpanKind::End, "query#1", 0, 5),
            ],
            dropped: 0,
        };
        assert!(attribute(&trace)
            .unwrap_err()
            .contains("while execute is open"));
    }
}
