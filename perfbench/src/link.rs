//! Benchmark-side `Channel` wrappers: a timing probe and a delayed link.
//!
//! Both forward every call to the wrapped channel unchanged, so protocol
//! bytes, metrics and outputs are exactly those of the bare channel.
//! In a traced session the timing probe also records each blocked receive
//! as a `recv` span, so the trace separates waiting on the peer from the
//! work of the span around it.

use ppds_observe::trace;
use ppds_transport::{Channel, CostModel, MetricsSnapshot, TransportError};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

/// What a [`TimingChannel`] saw on one endpoint.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkStats {
    /// Frames sent.
    pub frames_sent: u64,
    /// Frames received.
    pub frames_received: u64,
    /// Time spent inside `send_bytes`.
    pub send: Duration,
    /// Time spent blocked inside `recv_bytes`, waiting for the peer.
    pub recv_wait: Duration,
    /// The part of `recv_wait` spent on the very first frame.
    pub first_recv_wait: Duration,
}

impl LinkStats {
    /// Frames in both directions.
    pub fn frames(&self) -> u64 {
        self.frames_sent + self.frames_received
    }

    /// Component-wise sum.
    pub fn add(&mut self, other: &LinkStats) {
        self.frames_sent += other.frames_sent;
        self.frames_received += other.frames_received;
        self.send += other.send;
        self.recv_wait += other.recv_wait;
        self.first_recv_wait += other.first_recv_wait;
    }
}

/// Counts frames and times `send_bytes` and the blocked part of
/// `recv_bytes` on the channel it wraps.
pub struct TimingChannel<C> {
    inner: C,
    stats: LinkStats,
}

impl<C: Channel> TimingChannel<C> {
    /// Wraps `inner`.
    pub fn new(inner: C) -> Self {
        TimingChannel {
            inner,
            stats: LinkStats::default(),
        }
    }

    /// What this endpoint has seen so far.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }
}

impl<C: Channel> Channel for TimingChannel<C> {
    fn send_bytes(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        let start = Instant::now();
        let result = self.inner.send_bytes(payload);
        self.stats.send += start.elapsed();
        self.stats.frames_sent += 1;
        result
    }

    fn recv_bytes(&mut self) -> Result<Vec<u8>, TransportError> {
        let span = trace::span("recv", || self.inner.metrics());
        let start = Instant::now();
        let result = self.inner.recv_bytes();
        let waited = start.elapsed();
        span.end(|| self.inner.metrics());
        if self.stats.frames_received == 0 {
            self.stats.first_recv_wait = waited;
        }
        self.stats.recv_wait += waited;
        self.stats.frames_received += 1;
        result
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics()
    }

    fn note_batch_sent(&mut self, items: u64) {
        self.inner.note_batch_sent(items);
    }

    fn note_batch_received(&mut self, items: u64) {
        self.inner.note_batch_received(items);
    }
}

/// The delivery schedule of one link direction: frame `i`, sent at `t` with
/// `b` payload bytes, is delivered at `t + latency + b / bandwidth`, but
/// never before the frame sent ahead of it (FIFO).
#[derive(Debug, Clone, Copy)]
pub struct LinkClock {
    model: CostModel,
    last_delivery: Option<Instant>,
}

impl LinkClock {
    /// A direction with no frame in flight.
    pub fn new(model: CostModel) -> Self {
        LinkClock {
            model,
            last_delivery: None,
        }
    }

    /// When a frame of `bytes` payload bytes sent at `sent` arrives. The
    /// transport's 4-byte length prefix rides the link too.
    pub fn deliver_at(&mut self, sent: Instant, bytes: usize) -> Instant {
        let wire_bytes = bytes as f64 + ppds_transport::FRAME_OVERHEAD_BYTES as f64;
        let transfer = wire_bytes / self.model.bandwidth_bytes_per_sec as f64;
        let mut at = sent + self.model.latency + Duration::from_secs_f64(transfer);
        if let Some(previous) = self.last_delivery {
            at = at.max(previous);
        }
        self.last_delivery = Some(at);
        at
    }
}

/// One endpoint of a delayed link: frames it receives are held back until
/// their modeled delivery time. The two endpoints share a delivery-time
/// queue per direction, so the frames themselves cross the wrapped
/// channel untouched.
pub struct DelayChannel<C> {
    inner: C,
    outgoing: LinkClock,
    stamps_out: Sender<Instant>,
    stamps_in: Receiver<Instant>,
}

/// Wraps two connected endpoints into a delayed link with the given model.
pub fn delay_pair<C: Channel>(a: C, b: C, model: CostModel) -> (DelayChannel<C>, DelayChannel<C>) {
    let (a_to_b, b_from_a) = channel();
    let (b_to_a, a_from_b) = channel();
    (
        DelayChannel {
            inner: a,
            outgoing: LinkClock::new(model),
            stamps_out: a_to_b,
            stamps_in: a_from_b,
        },
        DelayChannel {
            inner: b,
            outgoing: LinkClock::new(model),
            stamps_out: b_to_a,
            stamps_in: b_from_a,
        },
    )
}

impl<C: Channel> Channel for DelayChannel<C> {
    fn send_bytes(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        let at = self.outgoing.deliver_at(Instant::now(), payload.len());
        // The stamp goes first, so it is queued before the peer can see
        // the frame it belongs to.
        self.stamps_out
            .send(at)
            .map_err(|_| TransportError::Disconnected)?;
        self.inner.send_bytes(payload)
    }

    fn recv_bytes(&mut self) -> Result<Vec<u8>, TransportError> {
        let payload = self.inner.recv_bytes()?;
        let at = self
            .stamps_in
            .recv()
            .map_err(|_| TransportError::Disconnected)?;
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        Ok(payload)
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics()
    }

    fn note_batch_sent(&mut self, items: u64) {
        self.inner.note_batch_sent(items);
    }

    fn note_batch_received(&mut self, items: u64) {
        self.inner.note_batch_received(items);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppds_transport::duplex;

    fn model(latency_ms: u64, bytes_per_sec: u64) -> CostModel {
        CostModel {
            latency: Duration::from_millis(latency_ms),
            bandwidth_bytes_per_sec: bytes_per_sec,
        }
    }

    #[test]
    fn clock_follows_a_fixed_frame_schedule() {
        // 10 ms latency, 1000 B/s: a 96-byte payload is 100 wire bytes,
        // so 100 ms on the link.
        let mut clock = LinkClock::new(model(10, 1_000));
        let t0 = Instant::now();
        let ms = |n: u64| Duration::from_millis(n);
        // Sent at 0: 0 + 10 + 100.
        assert_eq!(clock.deliver_at(t0, 96), t0 + ms(110));
        // Sent at 5 with 0 bytes (4 wire bytes = 4 ms): 19 would overtake
        // the frame ahead, so it waits for it (FIFO).
        assert_eq!(clock.deliver_at(t0 + ms(5), 0), t0 + ms(110));
        // Sent at 200 on an idle link: 200 + 10 + 4.
        assert_eq!(clock.deliver_at(t0 + ms(200), 0), t0 + ms(214));
        // Sent at 210, 196 bytes: 210 + 10 + 200.
        assert_eq!(clock.deliver_at(t0 + ms(210), 196), t0 + ms(420));
    }

    #[test]
    fn delayed_pair_delivers_in_order_and_on_time() {
        let (a, b) = duplex();
        let (mut a, mut b) = delay_pair(a, b, model(30, 1_000_000));
        let start = Instant::now();
        a.send_bytes(b"one").unwrap();
        a.send_bytes(b"two").unwrap();
        assert_eq!(b.recv_bytes().unwrap(), b"one");
        let first = start.elapsed();
        assert_eq!(b.recv_bytes().unwrap(), b"two");
        assert!(first >= Duration::from_millis(30), "{first:?}");
        assert!(first < Duration::from_millis(200), "{first:?}");

        // A ping-pong costs two one-way latencies.
        let start = Instant::now();
        b.send_bytes(b"ping").unwrap();
        assert_eq!(a.recv_bytes().unwrap(), b"ping");
        a.send_bytes(b"pong").unwrap();
        assert_eq!(b.recv_bytes().unwrap(), b"pong");
        let round_trip = start.elapsed();
        assert!(round_trip >= Duration::from_millis(60), "{round_trip:?}");
        assert!(round_trip < Duration::from_millis(300), "{round_trip:?}");
    }

    #[test]
    fn wrappers_leave_bytes_and_metrics_unchanged() {
        let (a, b) = duplex();
        let (a, b) = delay_pair(a, b, model(0, 1_000_000_000));
        let (mut a, mut b) = (TimingChannel::new(a), TimingChannel::new(b));
        a.send_batch(&[1u64, 2, 3]).unwrap();
        assert_eq!(b.recv_batch::<u64>().unwrap(), vec![1, 2, 3]);
        b.send(&7u64).unwrap();
        assert_eq!(a.recv::<u64>().unwrap(), 7);
        let (ma, mb) = (a.metrics(), b.metrics());
        assert_eq!(ma.bytes_sent, mb.bytes_received);
        assert_eq!(ma.messages_sent, 3);
        assert_eq!(ma.rounds_sent, 1);
        assert_eq!(a.stats().frames(), 2);
        assert_eq!(b.stats().frames_received, 1);
    }
}
