//! Bounded MPSC block channel with backpressure instrumentation.
//!
//! This is the memory-bounding primitive of the ingestion subsystem: a
//! producer that outruns its consumer parks on [`Sender::send`] instead of
//! growing a buffer, so the crawl stalls rather than materializing the
//! chain. Under the workspace's thread-per-task tokio shim every task owns
//! an OS thread, so the channel blocks on a condvar inside its async
//! methods — the same execution model the shim uses for socket I/O.
//!
//! Every channel carries a [`ChannelGauge`]: capacity, high-water mark of
//! queued items, number of sends that had to wait for space, and total
//! items routed. Tests assert `high_water <= capacity` to prove the
//! pipeline's peak memory is O(capacity), not O(stream).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    metrics: Metrics,
}

#[derive(Debug, Default)]
struct Metrics {
    capacity: u64,
    high_water: AtomicU64,
    blocked_sends: AtomicU64,
    sent: AtomicU64,
}

/// A point-in-time snapshot of one channel's backpressure counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Configured queue bound.
    pub capacity: u64,
    /// Most items ever queued at once (always `<= capacity`).
    pub high_water: u64,
    /// Sends that found the queue full and had to wait (backpressure hits).
    pub blocked_sends: u64,
    /// Total items that passed through.
    pub sent: u64,
}

/// Live handle onto one channel's metrics.
#[derive(Clone)]
pub struct ChannelGauge<T> {
    shared: Arc<Shared<T>>,
}

impl<T> ChannelGauge<T> {
    pub fn snapshot(&self) -> GaugeSnapshot {
        GaugeSnapshot {
            capacity: self.shared.metrics.capacity,
            high_water: self.shared.metrics.high_water.load(Ordering::Relaxed),
            blocked_sends: self.shared.metrics.blocked_sends.load(Ordering::Relaxed),
            sent: self.shared.metrics.sent.load(Ordering::Relaxed),
        }
    }

    /// Items currently queued (racy; for tests that gate on fullness).
    pub fn queued(&self) -> usize {
        self.shared.lock().queue.len()
    }
}

impl<T> Shared<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Sending half. Cloneable — crawl workers share one sender per shard.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// Receiving half (single consumer: one shard worker).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Create a bounded channel with `capacity >= 1`.
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>, ChannelGauge<T>) {
    let capacity = capacity.max(1);
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(capacity),
            senders: 1,
            receiver_alive: true,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        metrics: Metrics { capacity: capacity as u64, ..Metrics::default() },
    });
    (
        Sender { shared: shared.clone() },
        Receiver { shared: shared.clone() },
        ChannelGauge { shared },
    )
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().senders += 1;
        Sender { shared: self.shared.clone() }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        st.senders -= 1;
        if st.senders == 0 {
            // Wake the receiver so it can observe end-of-stream.
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        st.receiver_alive = false;
        // Unblock any parked senders; their sends will fail.
        self.shared.not_full.notify_all();
    }
}

impl<T> Sender<T> {
    /// Enqueue one item, waiting for space when the channel is full.
    /// `Err` returns the item if the receiver is gone.
    pub async fn send(&self, value: T) -> Result<(), T> {
        let capacity = self.shared.metrics.capacity as usize;
        let mut st = self.shared.lock();
        if st.queue.len() >= capacity {
            self.shared.metrics.blocked_sends.fetch_add(1, Ordering::Relaxed);
            while st.queue.len() >= capacity && st.receiver_alive {
                st = self
                    .shared
                    .not_full
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        if !st.receiver_alive {
            return Err(value);
        }
        st.queue.push_back(value);
        let depth = st.queue.len() as u64;
        self.shared.metrics.high_water.fetch_max(depth, Ordering::Relaxed);
        self.shared.metrics.sent.fetch_add(1, Ordering::Relaxed);
        drop(st);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// This channel's gauge.
    pub fn gauge(&self) -> ChannelGauge<T> {
        ChannelGauge { shared: self.shared.clone() }
    }
}

impl<T> Receiver<T> {
    /// Dequeue the next item; `None` once every sender has dropped and the
    /// queue is drained (end of stream).
    pub async fn recv(&mut self) -> Option<T> {
        let mut st = self.shared.lock();
        loop {
            if let Some(v) = st.queue.pop_front() {
                drop(st);
                self.shared.not_full.notify_one();
                return Some(v);
            }
            if st.senders == 0 {
                return None;
            }
            st = self
                .shared
                .not_empty
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_and_end_of_stream() {
        tokio::runtime::block_on(async {
            let (tx, mut rx, gauge) = bounded(8);
            for i in 0..5 {
                tx.send(i).await.unwrap();
            }
            drop(tx);
            let mut got = Vec::new();
            while let Some(v) = rx.recv().await {
                got.push(v);
            }
            assert_eq!(got, vec![0, 1, 2, 3, 4]);
            let snap = gauge.snapshot();
            assert_eq!(snap.sent, 5);
            assert_eq!(snap.high_water, 5);
            assert_eq!(snap.blocked_sends, 0);
        });
    }

    #[test]
    fn capacity_bounds_queue_and_counts_blocked_sends() {
        tokio::runtime::block_on(async {
            let (tx, mut rx, gauge) = bounded(2);
            // Producer on its own task; it must stall after 2 items.
            let producer = tokio::spawn(async move {
                for i in 0..20u64 {
                    tx.send(i).await.unwrap();
                }
            });
            // Hold the consumer back until the producer has found the
            // queue full, so the stall counted below happens on every
            // schedule, not only when the consumer happens to lag. The
            // deadline only keeps a counting bug from hanging the test.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while gauge.snapshot().blocked_sends == 0 && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            // Consume everything.
            let mut n = 0;
            while rx.recv().await.is_some() {
                n += 1;
            }
            producer.await.unwrap();
            assert_eq!(n, 20);
            let snap = gauge.snapshot();
            assert!(snap.high_water <= 2, "high_water={}", snap.high_water);
            assert!(snap.blocked_sends > 0, "producer never stalled");
        });
    }

    #[test]
    fn send_fails_after_receiver_drop() {
        tokio::runtime::block_on(async {
            let (tx, rx, _) = bounded(1);
            drop(rx);
            assert_eq!(tx.send(7u32).await, Err(7));
        });
    }
}
