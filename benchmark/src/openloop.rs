//! Open-loop pacing: requests are due on a fixed timetable whatever
//! the server does, and each is timed from the instant it was *due*,
//! so a stall is charged to every request it delayed, not only to the
//! one that happened to be in flight.

use std::time::{Duration, Instant};

/// A fixed timetable: request `k` is due at `start + k * period`.
pub struct Timetable {
    start: Instant,
    period: Duration,
    next: u32,
}

impl Timetable {
    pub fn new(start: Instant, period: Duration) -> Self {
        Timetable {
            start,
            period,
            next: 0,
        }
    }

    /// When request `k` is due.
    pub fn due(&self, k: u32) -> Instant {
        self.start + self.period * k
    }

    /// Blocks until the next request is due — returning at once when
    /// the generator is already late — and hands back its index and
    /// due time. Never skips a slot: a stalled generator catches up by
    /// firing back to back.
    pub fn wait_next(&mut self) -> (u32, Instant) {
        let k = self.next;
        self.next += 1;
        let due = self.due(k);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        (k, due)
    }
}

/// One request of the open loop.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub due: Instant,
    pub started: Instant,
    pub finished: Instant,
}

impl Sample {
    /// What the user waited: from the due time to the reply.
    pub fn latency(&self) -> Duration {
        self.finished.saturating_duration_since(self.due)
    }

    /// How late the generator sent it.
    pub fn lateness(&self) -> Duration {
        self.started.saturating_duration_since(self.due)
    }
}

/// Fires `op` at the timetable's next slot and times it from the due
/// instant.
pub fn fire<T>(table: &mut Timetable, op: impl FnOnce(u32, Instant) -> T) -> (Sample, T) {
    let (k, due) = table.wait_next();
    let started = Instant::now();
    let out = op(k, due);
    let finished = Instant::now();
    (
        Sample {
            due,
            started,
            finished,
        },
        out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_never_fire_before_they_are_due() {
        let start = Instant::now() + Duration::from_millis(5);
        let mut table = Timetable::new(start, Duration::from_millis(4));
        for _ in 0..5 {
            let (s, _) = fire(&mut table, |_, _| ());
            assert!(s.started >= s.due);
        }
        assert!(Instant::now() >= start + Duration::from_millis(16));
    }

    #[test]
    fn a_stall_is_charged_from_the_due_time_to_every_request_it_delayed() {
        let period = Duration::from_millis(10);
        let stall = Duration::from_millis(65);
        let mut table = Timetable::new(Instant::now(), period);
        let mut samples = Vec::new();
        for _ in 0..6 {
            let (s, _) = fire(&mut table, |k, _| {
                if k == 0 {
                    std::thread::sleep(stall);
                }
            });
            samples.push(s);
        }
        // Request 0 stalled the generator for 65 ms; requests 1..=5
        // were due at 10..50 ms and could only be sent after it.
        for (k, s) in samples.iter().enumerate().skip(1) {
            let owed = stall - period * k as u32;
            assert!(
                s.latency() >= owed,
                "request {k}: latency {:?} must include the {owed:?} it waited behind the stall",
                s.latency()
            );
            // Timed from the send instant it would have looked instant.
            let service = s.finished - s.started;
            assert!(
                service < Duration::from_millis(5),
                "request {k}: {service:?}"
            );
            assert!(s.lateness() >= owed);
        }
        // Slots are never skipped: every due time is on the grid.
        for (k, s) in samples.iter().enumerate() {
            assert_eq!(s.due, table.due(k as u32));
        }
    }
}
