//! Open-loop request schedule.
//!
//! Request `i` is due at `start + i / rate`. A fixed set of connections
//! takes the requests in due order; each waits until its request is due
//! and then sends it. A connection still busy when the next request falls
//! due sends it late, and every request queued behind a stall is late too.
//! Latency counts from the due time, so the wait a stall imposes on later
//! requests is part of what is measured, and the lateness at send time
//! shows whether the generator itself kept up.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One request's timeline.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub index: u64,
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    pub ok: bool,
}

impl Sample {
    /// Due time to complete response.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due).as_secs_f64() * 1e3
    }

    /// Due time to send time: how late the generator ran.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// How long before a due time the generator stops sleeping and spins:
/// a thread woken from sleep can run a sizeable part of a millisecond
/// late, which would count as request latency.
const SPIN: Duration = Duration::from_micros(300);

/// Wait until `t` (no-op when it has passed).
pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now + SPIN {
        std::thread::sleep(t - now - SPIN);
    }
    while Instant::now() < t {
        std::hint::spin_loop();
    }
}

/// Run the schedule for every request due in `[start, start + duration)`
/// over `conns` connections. `connect` builds one connection's sender on
/// its own thread; the sender gets the request index and its due time and
/// reports success. Samples come back in index order.
pub fn run_open_loop<S>(
    start: Instant,
    rate: f64,
    duration: Duration,
    conns: usize,
    connect: impl Fn() -> S + Sync,
) -> Vec<Sample>
where
    S: FnMut(u64, Instant) -> bool,
{
    let next = AtomicU64::new(0);
    let end = start + duration;
    let samples = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..conns.max(1) {
            scope.spawn(|| {
                let mut send = connect();
                let mut mine = Vec::new();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let due = start + Duration::from_secs_f64(index as f64 / rate);
                    if due >= end {
                        break;
                    }
                    sleep_until(due);
                    let sent = Instant::now();
                    let ok = send(index, due);
                    mine.push(Sample {
                        index,
                        due,
                        sent,
                        done: Instant::now(),
                        ok,
                    });
                }
                samples
                    .lock()
                    .expect("sample store poisoned by a panicking sender")
                    .extend(mine);
            });
        }
    });
    let mut samples = samples
        .into_inner()
        .expect("sample store poisoned by a panicking sender");
    samples.sort_by_key(|s| s.index);
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_delays_the_requests_scheduled_behind_it() {
        // 100 req/s for 400 ms over one connection: 40 requests, 10 ms
        // apart. Request 2 takes 150 ms, so requests 3..=16 (due at 30 to
        // 160 ms) cannot be sent before it returns at about 170 ms.
        let start = Instant::now() + Duration::from_millis(20);
        let samples = run_open_loop(start, 100.0, Duration::from_millis(400), 1, || {
            |i: u64, _due: Instant| {
                if i == 2 {
                    std::thread::sleep(Duration::from_millis(150));
                }
                true
            }
        });
        assert_eq!(samples.len(), 40);
        assert!(samples.iter().all(|s| s.ok));
        assert!(samples[2].latency_ms() >= 150.0);
        assert!(
            samples[2].late_ms() < 10.0,
            "the stalled request itself went out on time"
        );
        // Due at 30 ms, sent at about 170 ms.
        assert!(
            samples[3].late_ms() >= 130.0,
            "late by {}",
            samples[3].late_ms()
        );
        assert!(samples[3].latency_ms() >= 130.0);
        // The backlog drains in order: each queued request is less late.
        assert!(samples[3].late_ms() > samples[10].late_ms());
        assert!(samples[10].late_ms() >= 60.0);
        // Long after the stall the schedule is back on time.
        assert!(
            samples[35].late_ms() < 10.0,
            "late by {}",
            samples[35].late_ms()
        );
    }

    #[test]
    fn connections_share_one_schedule() {
        let start = Instant::now();
        let samples = run_open_loop(start, 200.0, Duration::from_millis(100), 3, || {
            |_: u64, _: Instant| true
        });
        let idx: Vec<u64> = samples.iter().map(|s| s.index).collect();
        assert_eq!(idx, (0..20).collect::<Vec<_>>());
        for s in &samples {
            assert_eq!(
                s.due,
                start + Duration::from_secs_f64(s.index as f64 / 200.0)
            );
            assert!(s.sent >= s.due && s.done >= s.sent);
        }
    }
}
