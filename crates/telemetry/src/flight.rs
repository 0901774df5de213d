//! Bounded flight recorder: a fixed-capacity ring of structured
//! events (chaos degrades, evictions, rejected rebalance proposals,
//! drain transitions) that can be dumped after a run or a
//! chaos drill without ever growing past its capacity.

use std::collections::VecDeque;

/// One structured event in the flight recorder.
#[derive(Debug, Clone)]
pub struct FlightEvent {
    /// Microseconds since the owning [`crate::Telemetry`]'s epoch
    /// (monotonic clock).
    pub at_us: u64,
    /// Event category, e.g. `"chaos.degrade"` or `"rpc.drain"`.
    pub kind: &'static str,
    /// Free-form detail, e.g. the board index and eviction count.
    pub detail: String,
}

/// Fixed-capacity ring buffer of [`FlightEvent`]s. When full, the
/// oldest event is dropped and the drop counter advances — memory is
/// bounded no matter how long the daemon runs.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: VecDeque<FlightEvent>,
    capacity: usize,
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest when at capacity.
    pub fn push(&mut self, event: FlightEvent) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(event);
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.ring.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the recorder holds no events.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// How many events were evicted to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_stays_bounded_and_counts_drops() {
        let mut fr = FlightRecorder::new(3);
        for i in 0..5u64 {
            fr.push(FlightEvent {
                at_us: i,
                kind: "test",
                detail: format!("event {i}"),
            });
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.dropped(), 2);
        let stamps: Vec<u64> = fr.events().map(|e| e.at_us).collect();
        assert_eq!(stamps, vec![2, 3, 4]);
    }
}
