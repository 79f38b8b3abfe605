//! Ingest→assign latency, rebuilt from outside the engine.
//!
//! The engine exports no per-point timestamps, only monotone counters.
//! The book keeps, per ingest stream, the scheduled arrival time of
//! every offered point that has not been settled yet, in offer order.
//! After each public call it reads the stream's `assigned`, `dropped`
//! and `rejected` counters and settles points by their deltas:
//!
//! * a rejected point is the one just offered (a reject refuses the
//!   new point and leaves the ring untouched), so it leaves from the
//!   back;
//! * a dropped point is the oldest buffered one (`DropOldest` evicts
//!   the head of the ring), so it leaves from the front;
//! * assigned points leave from the front too: batches pop the ring in
//!   FIFO order, so the `n` oldest outstanding points are exactly the
//!   `n` the call clustered. Their latency is the call's return time
//!   minus their scheduled arrival.
//!
//! No engine call both drops and assigns on one stream, so settling
//! drops before assignments never reorders points.

use std::collections::VecDeque;

/// One stream's public outcome counters at an instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Seen {
    /// Points assigned to a sub-centroid (`StreamCounters::assigned`).
    pub assigned: u64,
    /// Buffered points evicted (`StreamCounters::dropped`).
    pub dropped: u64,
    /// Points refused, by the engine or at a quota gate.
    pub rejected: u64,
}

/// Per-stream FIFO of outstanding points and the settled samples.
#[derive(Debug, Clone)]
pub struct LatencyBook {
    queues: Vec<VecDeque<f64>>,
    last: Vec<Seen>,
    samples: Vec<f64>,
    failed: u64,
}

impl LatencyBook {
    /// A book over streams whose counters currently read `start`.
    #[must_use]
    pub fn new(start: Vec<Seen>) -> Self {
        Self {
            queues: vec![VecDeque::new(); start.len()],
            last: start,
            samples: Vec::new(),
            failed: 0,
        }
    }

    /// Note that a point scheduled to arrive at `due` (seconds) is
    /// about to be offered to `stream`.
    pub fn offer(&mut self, stream: usize, due: f64) {
        self.queues[stream].push_back(due);
    }

    /// Settle `stream` after a call that returned at `now` (seconds),
    /// given the stream's counters after the call.
    ///
    /// # Errors
    ///
    /// Fails when a counter went backwards or moved by more points than
    /// are outstanding: the accounting no longer matches the engine.
    pub fn settle(&mut self, stream: usize, seen: Seen, now: f64) -> Result<(), String> {
        let last = self.last[stream];
        let delta = |after: u64, before: u64, what: &str| {
            after
                .checked_sub(before)
                .ok_or_else(|| format!("stream {stream}: {what} counter went backwards"))
        };
        let rejected = delta(seen.rejected, last.rejected, "rejected")?;
        let dropped = delta(seen.dropped, last.dropped, "dropped")?;
        let assigned = delta(seen.assigned, last.assigned, "assigned")?;
        let queue = &mut self.queues[stream];
        let outstanding = queue.len() as u64;
        if rejected + dropped + assigned > outstanding {
            return Err(format!(
                "stream {stream}: {} points settled but only {outstanding} outstanding",
                rejected + dropped + assigned
            ));
        }
        for _ in 0..rejected {
            queue.pop_back();
        }
        for _ in 0..dropped {
            queue.pop_front();
        }
        self.failed += rejected + dropped;
        for _ in 0..assigned {
            if let Some(due) = queue.pop_front() {
                self.samples.push(now - due);
            }
        }
        self.last[stream] = seen;
        Ok(())
    }

    /// Latencies of the assigned points, seconds, in settle order.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Points that were dropped or rejected.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Points offered but not settled yet, over all streams.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Every settled point's latency in seconds, with failed points as
    /// infinity: a dropped or rejected point misses any limit.
    #[must_use]
    pub fn with_failures(&self) -> Vec<f64> {
        let mut all = self.samples.clone();
        all.extend(std::iter::repeat_n(f64::INFINITY, self.failed as usize));
        all
    }
}
