//! A shared, monotonically advancing virtual clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::{SimDuration, SimTime};

/// A thread-safe virtual clock.
///
/// The clock only moves forward. Device models call [`Clock::advance_by`]
/// (or [`Clock::advance_to`]) when they charge virtual time for an
/// operation; harness code reads [`Clock::now`] to timestamp results.
///
/// Cloning a `Clock` produces a handle to the *same* timeline.
///
/// Concurrent *real threads* charging one clock accumulate additively —
/// that is the documented threaded-plane deviation (DESIGN.md §9/§15);
/// overlap-correct timing lives in the [`crate::Engine`] event core,
/// where per-actor cursors give concurrent operations max-of-completion
/// semantics.
///
/// # Examples
///
/// ```
/// use portus_sim::{Clock, SimDuration};
///
/// let clock = Clock::new();
/// clock.advance_by(SimDuration::from_millis(3));
/// assert_eq!(clock.now().as_nanos(), 3_000_000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Clock {
    now_nanos: Arc<AtomicU64>,
}

impl Clock {
    /// Creates a clock at the timeline origin.
    pub fn new() -> Self {
        Clock::default()
    }

    /// The current virtual instant.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now_nanos.load(Ordering::SeqCst))
    }

    /// Advances the clock by `d` and returns the new instant.
    ///
    /// A charge that would push the timeline past `u64::MAX` nanoseconds
    /// saturates at the maximum instant (it never wraps backwards) and
    /// trips a debug assertion — a cost model emitting ~584 virtual
    /// years is a bug upstream.
    pub fn advance_by(&self, d: SimDuration) -> SimTime {
        let prev = self
            .now_nanos
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                Some(n.saturating_add(d.as_nanos()))
            })
            .expect("fetch_update closure never returns None");
        let next = prev.checked_add(d.as_nanos());
        debug_assert!(
            next.is_some(),
            "virtual clock overflow: {} + {d} exceeds the timeline",
            SimTime::from_nanos(prev)
        );
        SimTime::from_nanos(next.unwrap_or(u64::MAX))
    }

    /// Advances the clock to `t` if `t` is in the future; otherwise leaves
    /// it unchanged. Returns the (possibly unchanged) current instant.
    ///
    /// This is the primitive used when an operation completes at an
    /// absolute instant computed from a shared resource's queue.
    pub fn advance_to(&self, t: SimTime) -> SimTime {
        self.now_nanos.fetch_max(t.as_nanos(), Ordering::SeqCst);
        self.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_and_reads_back() {
        let c = Clock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.advance_by(SimDuration::from_micros(7));
        assert_eq!(c.now().as_nanos(), 7_000);
    }

    #[test]
    fn clones_share_a_timeline() {
        let a = Clock::new();
        let b = a.clone();
        a.advance_by(SimDuration::from_secs(1));
        assert_eq!(b.now(), a.now());
    }

    #[test]
    fn advance_to_is_monotonic() {
        let c = Clock::new();
        c.advance_by(SimDuration::from_secs(5));
        c.advance_to(SimTime::from_nanos(1)); // in the past: no-op
        assert_eq!(c.now(), SimTime::ZERO + SimDuration::from_secs(5));
        c.advance_to(SimTime::from_nanos(6_000_000_000));
        assert_eq!(c.now().as_secs_f64(), 6.0);
    }

    #[test]
    fn overflow_saturates_instead_of_wrapping() {
        let c = Clock::new();
        c.advance_by(SimDuration::from_nanos(u64::MAX - 10));
        // A debug build trips the assertion after the saturating update.
        let _ = std::panic::catch_unwind(|| c.advance_by(SimDuration::from_nanos(100)));
        // The timeline pinned at the maximum instant — never backwards.
        assert_eq!(c.now().as_nanos(), u64::MAX);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "virtual clock overflow")]
    fn advance_by_overflow_trips_the_debug_assertion() {
        let c = Clock::new();
        c.advance_by(SimDuration::from_nanos(u64::MAX));
        c.advance_by(SimDuration::from_nanos(1));
    }

    /// Pins the *threaded-plane deviation* (DESIGN.md §9): real threads
    /// charging one shared clock accumulate additively with no lost
    /// updates. Overlap-correct concurrent timing is the Engine event
    /// core's job (see `overlapping_ops` tests there and in
    /// `tests/event_queue.rs`).
    #[test]
    fn concurrent_threaded_advances_accumulate_additively() {
        let c = Clock::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.advance_by(SimDuration::from_nanos(1));
                    }
                });
            }
        });
        assert_eq!(c.now().as_nanos(), 4000);
    }
}
